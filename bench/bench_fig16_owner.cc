// Fig 16 (§7.3.3): tracking directory state on the owner server instead of
// the switch. Updates then cost two extra packets at the owner, consuming
// CPU and adding queueing: the paper reports median/p90/p99 create latency
// rising substantially under medium (50 Kops/s) and heavy (120 Kops/s) load.
// We approximate the offered loads with closed-loop worker counts calibrated
// on the SwitchFS configuration. Exits 1 unless every run's creates all
// reach their directories (bench_util.h RequireCreatesVisible).
#include "bench/bench_util.h"

namespace switchfs::bench {
namespace {

wl::RunResult RunCreate(core::Cluster& world, uint64_t total, int workers) {
  auto dirs = wl::PreloadDirs(world, 64);
  wl::FreshNameStream stream(core::OpType::kCreate, dirs, "n");
  wl::RunnerConfig rc;
  rc.workers = workers;
  rc.total_ops = total;
  rc.warmup_ops = total / 10;
  wl::RunResult r = wl::RunWorkload(world, stream, rc);
  RequireCreatesVisible(world, r, dirs, total);
  return r;
}

void RunLoadPoint(const char* label, int workers) {
  PrintHeader(label);
  std::printf("%-18s %9s %10s %10s %10s %10s %10s\n", "variant", "Kops/s",
              "p25(us)", "p50(us)", "p75(us)", "p90(us)", "p99(us)");
  for (auto mode : {switchfs::core::TrackerMode::kSwitch,
                    switchfs::core::TrackerMode::kOwnerServer}) {
    auto world = MakeSwitchFs(8, 4, mode);
    wl::RunResult r = RunCreate(*world, ScaledOps(20000), workers);
    std::printf("%-18s %9.1f %10.2f %10.2f %10.2f %10.2f %10.2f\n",
                mode == switchfs::core::TrackerMode::kSwitch
                    ? "SwitchFS"
                    : "SwitchFS-Variant",
                r.ThroughputOpsPerSec() / 1e3, r.PercentileUs(0.25),
                r.PercentileUs(0.5), r.PercentileUs(0.75),
                r.PercentileUs(0.9), r.PercentileUs(0.99));
  }
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs::bench;
  // Worker counts picked so the switch-tracked configuration lands near the
  // paper's 50 Kops/s and 120 Kops/s offered loads.
  RunLoadPoint("Fig 16(a): create latency under medium load", 2);
  RunLoadPoint("Fig 16(b): create latency under heavy load", 5);
  return 0;
}
