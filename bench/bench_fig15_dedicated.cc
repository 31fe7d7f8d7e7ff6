// Fig 15 (§7.3.3): tracking directory state with a dedicated DPDK server
// instead of the programmable switch.
//  (a) create/statdir latency: the dedicated server adds an RTT on the
//      critical path.
//  (b) statdir throughput vs #servers (12 cores each): the tracker's CPU
//      caps it near 11 Mops/s while the switch scales with the cluster.
// Exits 1 unless every create run's creates all reach their directories
// (bench_util.h RequireCreatesVisible).
#include "bench/bench_util.h"

namespace switchfs::bench {
namespace {

wl::RunResult RunOp(core::Cluster& world, core::OpType op, uint64_t total,
                    int workers, int dirs_n, int files_per_dir) {
  auto dirs = wl::PreloadDirs(world, dirs_n);
  std::unique_ptr<wl::OpStream> stream;
  if (op == core::OpType::kCreate) {
    stream = std::make_unique<wl::FreshNameStream>(op, dirs, "n");
  } else if (op == core::OpType::kStatDir) {
    stream = std::make_unique<wl::RandomChoiceStream>(op, dirs);
  } else {
    auto files = wl::PreloadFiles(world, dirs, files_per_dir);
    stream = std::make_unique<wl::RandomChoiceStream>(op, files);
  }
  wl::RunnerConfig rc;
  rc.workers = workers;
  rc.total_ops = total;
  rc.warmup_ops = total / 10;
  wl::RunResult r = wl::RunWorkload(world, *stream, rc);
  if (op == core::OpType::kCreate) {
    RequireCreatesVisible(world, r, dirs, total);
  }
  return r;
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs::bench;
  using switchfs::core::OpType;
  using switchfs::core::TrackerMode;

  PrintHeader("Fig 15(a): single-client latency, switch vs dedicated server");
  std::printf("%-18s %10s %10s\n", "tracker", "create(us)", "statdir(us)");
  double sw_create = 0.0;
  double sw_statdir = 0.0;
  for (TrackerMode mode : {TrackerMode::kSwitch,
                           TrackerMode::kDedicatedServer}) {
    auto world = MakeSwitchFs(8, 4, mode);
    switchfs::wl::RunResult c =
        RunOp(*world, OpType::kCreate, ScaledOps(3000), 1, 16, 0);
    auto world2 = MakeSwitchFs(8, 4, mode);
    switchfs::wl::RunResult s =
        RunOp(*world2, OpType::kStatDir, ScaledOps(3000), 1, 64, 0);
    std::printf("%-18s %10.2f %10.2f\n",
                mode == TrackerMode::kSwitch ? "PSwitch" : "DPDK server",
                c.MeanLatencyUs(), s.MeanLatencyUs());
    if (mode == TrackerMode::kSwitch) {
      sw_create = c.MeanLatencyUs();
      sw_statdir = s.MeanLatencyUs();
    } else {
      std::printf("  -> create +%.1f%% (paper: +24.1%%), statdir +%.1f%% "
                  "(paper: +13.1%%)\n",
                  100.0 * (c.MeanLatencyUs() / sw_create - 1.0),
                  100.0 * (s.MeanLatencyUs() / sw_statdir - 1.0));
    }
  }

  PrintHeader("Fig 15(b): statdir throughput vs #servers (12 cores/server)");
  std::printf("%-18s %8s %8s %8s %8s\n", "tracker", "srv=4", "srv=8",
              "srv=12", "srv=15");
  for (TrackerMode mode : {TrackerMode::kSwitch,
                           TrackerMode::kDedicatedServer}) {
    std::printf("%-18s", mode == TrackerMode::kSwitch ? "PSwitch"
                                                      : "DPDK server");
    for (uint32_t servers : {4u, 8u, 12u, 15u}) {
      auto world = MakeSwitchFs(servers, 12, mode);
      switchfs::wl::RunResult r = RunOp(*world, OpType::kStatDir, ScaledOps(120000),
                              512, 2048, 0);
      std::printf(" %8.2f", r.ThroughputOpsPerSec() / 1e6);
      std::fflush(stdout);
    }
    std::printf("   Mops/s\n");
  }
  return 0;
}
