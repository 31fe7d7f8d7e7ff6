// Fig 14 (contribution breakdown): file create in a single shared directory
// on 8 servers, across the three SwitchFS configurations:
//   Baseline     — synchronous parent updates (async_updates off)
//   +Async       — asynchronous updates, no change-log compaction
//   +Compaction  — the full SwitchFS design
// Reported: throughput vs cores per server, and mean/p99 latency. Exits 1
// unless every run's creates all reach the directory (bench_util.h
// RequireCreatesVisible).
#include "bench/bench_util.h"

namespace switchfs::bench {
namespace {

struct Variant {
  const char* name;
  bool async_updates;
  bool compaction;
};

const Variant kVariants[] = {
    {"Baseline", false, false},
    {"+Async", true, false},
    {"+Compaction", true, true},
};

wl::RunResult RunCreate(core::FsWorld& world, uint64_t total, int workers) {
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

  PrintHeader("Fig 14 (left): create throughput in one directory vs cores");
  std::printf("%-14s %8s %8s %8s\n", "variant", "cores=2", "cores=4",
              "cores=6");
  for (const Variant& v : kVariants) {
    std::printf("%-14s", v.name);
    for (int cores : {2, 4, 6}) {
      auto world = MakeSwitchFs(8, cores, switchfs::core::TrackerMode::kSwitch,
                                v.async_updates, v.compaction);
      const uint64_t creates = ScaledOps(25000);
      switchfs::wl::RunResult r = RunCreate(*world, creates, 256);
      std::printf(" %8.1f", r.ThroughputOpsPerSec() / 1e3);
      std::fflush(stdout);
      RequireCreatesVisible(*world, r, {"/shared0"}, creates);
    }
    std::printf("   Kops/s\n");
  }

  PrintHeader("Fig 14 (right): create latency in one directory (4 cores)");
  std::printf("%-14s %10s %10s %10s\n", "variant", "mean(us)", "p50(us)",
              "p99(us)");
  for (const Variant& v : kVariants) {
    auto world = MakeSwitchFs(8, 4, switchfs::core::TrackerMode::kSwitch,
                              v.async_updates, v.compaction);
    // Moderate concurrency: the paper's latency panel is taken under load.
    const uint64_t creates = ScaledOps(15000);
    switchfs::wl::RunResult r = RunCreate(*world, creates, 32);
    std::printf("%-14s %10.2f %10.2f %10.2f\n", v.name, r.MeanLatencyUs(),
                r.PercentileUs(0.5), r.PercentileUs(0.99));
    RequireCreatesVisible(*world, r, {"/shared0"}, creates);
  }
  return 0;
}
