// §7.3.2 (impact of dirty-set overflow): force every dirty-set insertion to
// fail so double-inode operations fall back to synchronous updates at the
// parent's owner. The paper reports throughput dropping by 69.7% and average
// latency rising by 0.85x, closely matching the Baseline configuration.
// Exits 1 unless every run's creates all reach the directory (bench_util.h
// RequireCreatesVisible).
#include "bench/bench_util.h"

namespace switchfs::bench {
namespace {

wl::RunResult RunCreate(core::Cluster& world, uint64_t total, int workers) {
  auto dirs = wl::PreloadDirs(world, 1, "/shared");
  wl::FreshNameStream stream(core::OpType::kCreate, dirs, "n");
  wl::RunnerConfig rc;
  rc.workers = workers;
  rc.total_ops = total;
  rc.warmup_ops = total / 10;
  return wl::RunWorkload(world, stream, rc);
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs::bench;
  PrintHeader("Sec 7.3.2: dirty-set overflow fallback (create, one dir, 8 servers)");
  std::printf("%-22s %10s %10s %10s %12s\n", "insert mode", "Kops/s",
              "mean(us)", "p99(us)", "fallbacks");

  double normal_tput = 0.0;
  double normal_lat = 0.0;
  for (bool force_overflow : {false, true}) {
    auto world = MakeSwitchFs(8, 4);
    world->data_plane()->SetForceInsertOverflow(force_overflow);
    const uint64_t creates = ScaledOps(20000);
    switchfs::wl::RunResult r = RunCreate(*world, creates, 256);
    std::printf("%-22s %10.1f %10.2f %10.2f %12llu\n",
                force_overflow ? "always-overflow" : "normal",
                r.ThroughputOpsPerSec() / 1e3, r.MeanLatencyUs(),
                r.PercentileUs(0.99),
                static_cast<unsigned long long>(
                    world->TotalStats().fallbacks));
    RequireCreatesVisible(*world, r, {"/shared0"}, creates);
    if (!force_overflow) {
      normal_tput = r.ThroughputOpsPerSec();
      normal_lat = r.MeanLatencyUs();
    } else {
      std::printf("\nthroughput drop: %.1f%% (paper: 69.7%%)\n",
                  100.0 * (1.0 - r.ThroughputOpsPerSec() / normal_tput));
      std::printf("latency increase: %.2fx (paper: 0.85x)\n",
                  r.MeanLatencyUs() / normal_lat - 1.0);
    }
  }
  return 0;
}
