// Closed-loop workload runner: W worker coroutines (the paper's "in-flight
// requests", §7.2) each drawing operations from a shared stream, executing
// them against any FsWorld, and recording per-op latency into a histogram.
// Throughput is completed-ops / simulated-time over the measured window.
#ifndef SRC_WORKLOAD_RUNNER_H_
#define SRC_WORKLOAD_RUNNER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/fs_world.h"
#include "src/core/types.h"
#include "src/sim/time.h"

namespace switchfs::wl {

struct Op {
  core::OpType type = core::OpType::kStat;
  std::string path;
  std::string path2;      // rename destination
  uint64_t io_bytes = 0;  // data read/write volume (end-to-end runs)
  bool is_data_read = false;
  bool is_data_write = false;
  // v2 op kinds:
  //  * kReaddirPage — paged scan: OpenDir(path), drain the page stream,
  //    CloseDir; one Op covers the whole scan.
  //  * kBatchStat — stat burst: one BatchStat over `batch`.
  //  * kSetAttr — chmod-class delta on `path` (the mix's chmod class).
  std::vector<std::string> batch;
};

// A stream of operations. Next() returns nullopt when the workload is
// exhausted (bounded streams); unbounded streams never return nullopt and
// the runner stops at RunnerConfig::total_ops.
class OpStream {
 public:
  virtual ~OpStream() = default;
  virtual std::optional<Op> Next(Rng& rng) = 0;
};

// Simulated data-node tier for end-to-end workloads (Fig 19): N data nodes,
// each a bandwidth-limited queue; requests are routed by path hash.
class DataService;

struct RunnerConfig {
  int workers = 64;            // concurrent in-flight operations
  uint64_t total_ops = 50000;  // measured + warmup (0 = run stream dry)
  uint64_t warmup_ops = 2000;
  uint64_t seed = 1;
  DataService* data = nullptr;  // optional data tier
};

struct RunResult {
  uint64_t completed = 0;
  uint64_t failed = 0;
  sim::SimTime elapsed = 0;  // measured window (post-warmup)
  Histogram latency;         // nanoseconds, post-warmup ops

  double ThroughputOpsPerSec() const {
    if (elapsed <= 0) {
      return 0.0;
    }
    return static_cast<double>(completed) / sim::ToSeconds(elapsed);
  }
  double MeanLatencyUs() const { return latency.Mean() / 1000.0; }
  double PercentileUs(double q) const {
    return static_cast<double>(latency.Percentile(q)) / 1000.0;
  }
};

// Runs the stream against the world until `total_ops` complete (or the
// stream is exhausted). Drains the simulation afterwards so deferred work
// (pushes, aggregations) is included in the world's end state.
RunResult RunWorkload(core::FsWorld& world, OpStream& stream,
                      const RunnerConfig& config);

}  // namespace switchfs::wl

#endif  // SRC_WORKLOAD_RUNNER_H_
