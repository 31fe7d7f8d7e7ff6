// Operation-stream generators for the paper's workloads:
//  * single-op streams over preset path populations (Fig 12: create/delete/
//    mkdir/rmdir/stat/statdir in a single large directory vs many dirs),
//  * create bursts (Fig 17: K consecutive creates per directory),
//  * ratio-mix streams with skewed directory popularity (Fig 19 synthetic,
//    Tab 2/Tab 5 operation mixes).
#ifndef SRC_WORKLOAD_GENERATOR_H_
#define SRC_WORKLOAD_GENERATOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/workload/runner.h"

namespace switchfs::wl {

// Applies one op type to paths drawn uniformly (with replacement) from a
// fixed population. Unbounded.
class RandomChoiceStream : public OpStream {
 public:
  RandomChoiceStream(core::OpType op, std::vector<std::string> paths)
      : op_(op), paths_(std::move(paths)) {}

  std::optional<Op> Next(Rng& rng) override {
    Op op;
    op.type = op_;
    op.path = paths_[rng.NextBelow(paths_.size())];
    return op;
  }

 private:
  core::OpType op_;
  std::vector<std::string> paths_;
};

// Applies one op type to each path exactly once, in a pre-shuffled order
// (delete/rmdir sweeps). Bounded.
class ShuffledOnceStream : public OpStream {
 public:
  ShuffledOnceStream(core::OpType op, std::vector<std::string> paths,
                     uint64_t seed)
      : op_(op), paths_(std::move(paths)) {
    Rng rng(seed);
    for (size_t i = paths_.size(); i > 1; --i) {
      std::swap(paths_[i - 1], paths_[rng.NextBelow(i)]);
    }
  }

  std::optional<Op> Next(Rng& /*rng*/) override {
    if (next_ >= paths_.size()) {
      return std::nullopt;
    }
    Op op;
    op.type = op_;
    op.path = paths_[next_++];
    return op;
  }

 private:
  core::OpType op_;
  std::vector<std::string> paths_;
  size_t next_ = 0;
};

// Creates fresh names spread across a set of parent directories (create /
// mkdir streams). Unbounded; names never repeat.
class FreshNameStream : public OpStream {
 public:
  FreshNameStream(core::OpType op, std::vector<std::string> parent_dirs,
                  std::string prefix)
      : op_(op), parents_(std::move(parent_dirs)), prefix_(std::move(prefix)) {}

  std::optional<Op> Next(Rng& rng) override {
    Op op;
    op.type = op_;
    const std::string& parent = parents_[rng.NextBelow(parents_.size())];
    op.path = parent + (parent.back() == '/' ? "" : "/") + prefix_ +
              std::to_string(counter_++);
    return op;
  }

 private:
  core::OpType op_;
  std::vector<std::string> parents_;
  std::string prefix_;
  uint64_t counter_ = 0;
};

// Geo-replication workload (src/wan/): creates over a namespace shared by
// several sites. With probability `conflict_rate` the name comes from a
// bounded pool every site draws from identically (cross-site same-name
// writes — LWW conflicts once the batches meet); otherwise it is a fresh
// site-unique name (pure replication volume). `site` disambiguates the
// unique names, so two sites running the same stream config never collide
// outside the conflict pool.
class SharedNamespaceStream : public OpStream {
 public:
  SharedNamespaceStream(std::vector<std::string> shared_dirs, uint32_t site,
                        double conflict_rate, size_t conflict_pool = 32)
      : dirs_(std::move(shared_dirs)),
        site_(site),
        conflict_rate_(conflict_rate),
        conflict_pool_(conflict_pool) {}

  std::optional<Op> Next(Rng& rng) override {
    Op op;
    op.type = core::OpType::kCreate;
    const std::string& dir = dirs_[rng.NextBelow(dirs_.size())];
    std::string name;
    if (conflict_pool_ > 0 && rng.NextBool(conflict_rate_)) {
      name = "c" + std::to_string(rng.NextBelow(conflict_pool_));
    } else {
      name = "s" + std::to_string(site_) + "_" + std::to_string(counter_++);
    }
    op.path = dir + (dir.back() == '/' ? "" : "/") + name;
    return op;
  }

 private:
  std::vector<std::string> dirs_;
  uint32_t site_;
  double conflict_rate_;
  size_t conflict_pool_;
  uint64_t counter_ = 0;
};

// Fig 17: bursts of `burst_size` consecutive creates in one directory, then
// the next burst targets the next directory (round-robin).
class BurstCreateStream : public OpStream {
 public:
  BurstCreateStream(std::vector<std::string> dirs, int burst_size)
      : dirs_(std::move(dirs)), burst_size_(burst_size) {}

  std::optional<Op> Next(Rng& /*rng*/) override {
    Op op;
    op.type = core::OpType::kCreate;
    op.path = dirs_[dir_index_] + "/b" + std::to_string(counter_++);
    if (++in_burst_ >= burst_size_) {
      in_burst_ = 0;
      dir_index_ = (dir_index_ + 1) % dirs_.size();
    }
    return op;
  }

 private:
  std::vector<std::string> dirs_;
  int burst_size_;
  int in_burst_ = 0;
  size_t dir_index_ = 0;
  uint64_t counter_ = 0;
};

// Ratio-mix stream (Tab 2 / Tab 5): operation types drawn from a weighted
// distribution, target directory drawn with optional skew (80% of ops to 20%
// of directories, §7.6), live-file bookkeeping so deletes/stats hit existing
// files and creates use fresh names.
struct MixRatios {
  double open_close = 0;
  double stat = 0;
  double create = 0;
  double unlink = 0;
  double rename = 0;
  double chmod = 0;       // setattr-class (mode delta)
  double readdir = 0;
  double statdir = 0;
  double mkdir = 0;
  double rmdir = 0;
  // MetadataService v2 op kinds:
  double paged_readdir = 0;  // full OpenDir/ReaddirPage*/CloseDir scan
  double stat_burst = 0;     // one BatchStat over stat_burst_size live files
  double setattr = 0;        // explicit setattr weight (chmod also maps here)
  double bulk_create = 0;    // one BulkInsert of bulk_create_size fresh names
  // Zipf-skewed stat over the FIRST directory's files (the hottest names of
  // the hottest directory): the in-switch read-cache target workload. Theta
  // comes from MixStream::hot_read_theta.
  double hot_read = 0;
};

// The PanguFS data-center mix (Tab 5 row 1 / Tab 2). Tab 5's CNN-training
// and thumbnail rows replay the traces in traces.h instead.
MixRatios PanguMix();

class MixStream : public OpStream {
 public:
  // `dirs`: preloaded directories; `preloaded_per_dir`: files already present
  // as "f<i>" in each. skew: fraction of ops hitting the hot 20% of dirs
  // (0 = uniform).
  MixStream(MixRatios ratios, std::vector<std::string> dirs,
            int preloaded_per_dir, double skew);

  std::optional<Op> Next(Rng& rng) override;

  // Targets per stat_burst op (drawn from the directory's live files).
  int stat_burst_size = 8;
  // Fresh names per bulk_create op (one BulkInsert through an open handle).
  int bulk_create_size = 16;
  // Skew exponent of the hot_read name distribution (Zipf over the hot
  // directory's live files; higher = a few names absorb most reads).
  double hot_read_theta = 1.05;

 private:
  struct DirState {
    std::vector<std::string> live;  // names of existing files
    uint64_t next_fresh = 0;
  };

  size_t PickDir(Rng& rng);

  std::vector<std::string> dirs_;
  std::vector<DirState> state_;
  // Note: op_for_weight_ must be declared (and therefore constructed) before
  // sampler_, whose initializer fills it.
  std::vector<int> op_for_weight_;
  DiscreteSampler sampler_;
  double skew_;
  // Lazily (re)built when the hot directory's live population changes.
  std::unique_ptr<ZipfGenerator> hot_zipf_;
};

// Stat bursts over a fixed population: each op is one BatchStat of
// `burst_size` paths drawn uniformly (with replacement). Unbounded.
class StatBurstStream : public OpStream {
 public:
  StatBurstStream(std::vector<std::string> paths, int burst_size)
      : paths_(std::move(paths)), burst_size_(burst_size) {}

  std::optional<Op> Next(Rng& rng) override {
    Op op;
    op.type = core::OpType::kBatchStat;
    op.batch.reserve(burst_size_);
    for (int i = 0; i < burst_size_; ++i) {
      op.batch.push_back(paths_[rng.NextBelow(paths_.size())]);
    }
    return op;
  }

 private:
  std::vector<std::string> paths_;
  int burst_size_;
};

// Helper: builds "/dir<i>" path lists and preloads them (with files) into a
// world.
std::vector<std::string> PreloadDirs(core::FsWorld& world, int num_dirs,
                                     const std::string& prefix = "/dir");
std::vector<std::string> PreloadFiles(core::FsWorld& world,
                                      const std::vector<std::string>& dirs,
                                      int files_per_dir,
                                      const std::string& prefix = "f");

}  // namespace switchfs::wl

#endif  // SRC_WORKLOAD_GENERATOR_H_
