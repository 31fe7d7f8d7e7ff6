// Fig 19 (§7.6): end-to-end throughput under real-world workloads on
// CephFS-sim, Emulated-InfiniFS, Emulated-CFS, and SwitchFS:
//  * Synthetic   — the PanguFS data-center operation mix (Tab 2/Tab 5) over
//                  1024 directories with 80/20 skew; metadata-only (the
//                  paper omits data access here too).
//  * CV Training — dataset download + training epochs + removal, with and
//                  without data transfers.
//  * Thumbnails  — read images, create thumbnails (metadata-only column
//                  matches the paper's "data access disabled" replay).
// 8 metadata servers + 8 data nodes, 256 in-flight requests.
#include <memory>

#include "bench/bench_util.h"
#include "src/workload/data_service.h"
#include "src/workload/traces.h"

namespace switchfs::bench {
namespace {

const char* kSystems[] = {"CephFS", "Emulated-InfiniFS", "Emulated-CFS",
                          "SwitchFS"};

double RunSynthetic(const char* system) {
  auto world = MakeWorld(system, 8);
  const bool ceph = std::string(system) == "CephFS";
  const int dirs_n = 256;
  auto dirs = wl::PreloadDirs(*world, dirs_n);
  wl::PreloadFiles(*world, dirs, 40);
  wl::MixStream stream(wl::PanguMix(), dirs, 40, /*skew=*/0.8);
  wl::RunnerConfig rc;
  rc.workers = 256;
  rc.total_ops = ScaledOps(ceph ? 4000 : 30000);
  rc.warmup_ops = rc.total_ops / 10;
  wl::RunResult r = wl::RunWorkload(*world, stream, rc);
  return r.ThroughputOpsPerSec();
}

double RunTrace(const char* system, bool thumbnails, bool with_data) {
  auto world = MakeWorld(system, 8);
  const bool ceph = std::string(system) == "CephFS";
  wl::TraceConfig tc;
  tc.num_dirs = ceph ? 16 : 64;
  tc.files_per_dir = ceph ? 8 : (Scale() < 0.5 ? 24 : 60);
  tc.epochs = 1;
  tc.with_data = with_data;
  auto dirs = wl::PreloadDirs(*world, tc.num_dirs);

  std::unique_ptr<wl::OpStream> trace;
  if (thumbnails) {
    // Sources exist up front.
    for (const auto& d : dirs) {
      for (int i = 0; i < tc.files_per_dir; ++i) {
        world->PreloadFileAt(d + "/img" + std::to_string(i));
      }
    }
    trace = std::make_unique<wl::ThumbnailTrace>(dirs, tc);
  } else {
    trace = std::make_unique<wl::CvTrainingTrace>(dirs, tc);
  }

  static const sim::CostModel kCosts;
  wl::DataService data(&world->world_sim(), &kCosts, 8);
  wl::RunnerConfig rc;
  rc.workers = 256;
  rc.total_ops = 0;  // bounded trace, run dry
  rc.warmup_ops = 0;
  rc.data = with_data ? &data : nullptr;
  wl::RunResult r = wl::RunWorkload(*world, *trace, rc);
  return r.ThroughputOpsPerSec();
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs::bench;
  PrintHeader("Fig 19: end-to-end workloads, 8 metadata servers + 8 data nodes");
  std::printf("%-20s %12s %12s %12s %12s %12s\n", "system",
              "synth(meta)", "cv(meta)", "cv(e2e)", "thumb(meta)",
              "thumb(e2e)");
  for (const char* system : kSystems) {
    std::printf("%-20s", system);
    std::printf(" %12.1f", RunSynthetic(system) / 1e3);
    std::fflush(stdout);
    std::printf(" %12.1f", RunTrace(system, false, false) / 1e3);
    std::fflush(stdout);
    std::printf(" %12.1f", RunTrace(system, false, true) / 1e3);
    std::fflush(stdout);
    std::printf(" %12.1f", RunTrace(system, true, false) / 1e3);
    std::fflush(stdout);
    std::printf(" %12.1f", RunTrace(system, true, true) / 1e3);
    std::printf("   Kops/s\n");
  }
  return 0;
}
