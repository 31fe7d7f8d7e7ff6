#include "src/workload/generator.h"

#include <algorithm>
#include <cassert>

namespace switchfs::wl {

MixRatios PanguMix() {
  // Tab 5 row 1 (PanguFS data-center services, derived from Tab 2).
  MixRatios m;
  m.open_close = 52.6;
  m.stat = 12.4;
  m.create = 9.58;
  m.unlink = 11.9;
  m.rename = 9.3;
  m.chmod = 0.1;
  m.readdir = 3.9;
  m.statdir = 0.2;
  return m;
}

namespace {

enum MixOp {
  kMixOpen = 0,
  kMixStat,
  kMixCreate,
  kMixUnlink,
  kMixRename,
  kMixChmod,
  kMixReaddir,
  kMixStatDir,
  kMixMkdir,
  kMixRmdir,
  kMixPagedReaddir,
  kMixStatBurst,
  kMixSetAttr,
  kMixBulkCreate,
  kMixHotRead,
};

}  // namespace

MixStream::MixStream(MixRatios ratios, std::vector<std::string> dirs,
                     int preloaded_per_dir, double skew)
    : dirs_(std::move(dirs)),
      sampler_([&] {
        std::vector<double> weights;
        auto add = [&](double w, int op) {
          if (w > 0) {
            weights.push_back(w);
            op_for_weight_.push_back(op);
          }
        };
        add(ratios.open_close, kMixOpen);
        add(ratios.stat, kMixStat);
        add(ratios.create, kMixCreate);
        add(ratios.unlink, kMixUnlink);
        add(ratios.rename, kMixRename);
        add(ratios.chmod, kMixChmod);
        add(ratios.readdir, kMixReaddir);
        add(ratios.statdir, kMixStatDir);
        add(ratios.mkdir, kMixMkdir);
        add(ratios.rmdir, kMixRmdir);
        add(ratios.paged_readdir, kMixPagedReaddir);
        add(ratios.stat_burst, kMixStatBurst);
        add(ratios.setattr, kMixSetAttr);
        add(ratios.bulk_create, kMixBulkCreate);
        add(ratios.hot_read, kMixHotRead);
        return DiscreteSampler(weights);
      }()),
      skew_(skew) {
  assert(!dirs_.empty());
  state_.resize(dirs_.size());
  for (DirState& ds : state_) {
    ds.live.reserve(preloaded_per_dir);
    for (int i = 0; i < preloaded_per_dir; ++i) {
      ds.live.push_back("f" + std::to_string(i));
    }
  }
}

size_t MixStream::PickDir(Rng& rng) {
  if (skew_ <= 0.0 || dirs_.size() < 5) {
    return rng.NextBelow(dirs_.size());
  }
  // 80/20-style skew: `skew_` fraction of ops target the first 20% of dirs.
  const size_t hot = std::max<size_t>(1, dirs_.size() / 5);
  if (rng.NextBool(skew_)) {
    return rng.NextBelow(hot);
  }
  return hot + rng.NextBelow(dirs_.size() - hot);
}

std::optional<Op> MixStream::Next(Rng& rng) {
  const int kind = op_for_weight_[sampler_.Next(rng)];
  const size_t d = PickDir(rng);
  DirState& ds = state_[d];
  const std::string& dir = dirs_[d];
  Op op;
  switch (kind) {
    case kMixOpen:
    case kMixStat:
    case kMixChmod:
    case kMixSetAttr: {
      if (ds.live.empty()) {
        op.type = core::OpType::kStatDir;
        op.path = dir;
        return op;
      }
      const std::string& name = ds.live[rng.NextBelow(ds.live.size())];
      if (kind == kMixChmod || kind == kMixSetAttr) {
        op.type = core::OpType::kSetAttr;
      } else if (kind == kMixStat) {
        op.type = core::OpType::kStat;
      } else {
        op.type = core::OpType::kOpen;
      }
      op.path = dir + "/" + name;
      return op;
    }
    case kMixStatBurst: {
      if (ds.live.empty()) {
        op.type = core::OpType::kStatDir;
        op.path = dir;
        return op;
      }
      op.type = core::OpType::kBatchStat;
      const int burst = std::max(1, stat_burst_size);
      op.batch.reserve(burst);
      for (int i = 0; i < burst; ++i) {
        op.batch.push_back(dir + "/" + ds.live[rng.NextBelow(ds.live.size())]);
      }
      return op;
    }
    case kMixPagedReaddir:
      op.type = core::OpType::kReaddirPage;
      op.path = dir;
      return op;
    case kMixHotRead: {
      // Zipf-skewed stat over the hot directory's live files, ignoring the
      // per-op dir draw: a few names in one directory absorb most reads,
      // which is exactly the population the in-switch cache keeps resident.
      DirState& hs = state_[0];
      if (hs.live.empty()) {
        op.type = core::OpType::kStatDir;
        op.path = dirs_[0];
        return op;
      }
      if (hot_zipf_ == nullptr || hot_zipf_->n() != hs.live.size()) {
        hot_zipf_ =
            std::make_unique<ZipfGenerator>(hs.live.size(), hot_read_theta);
      }
      op.type = core::OpType::kStat;
      op.path = dirs_[0] + "/" + hs.live[hot_zipf_->Next(rng)];
      return op;
    }
    case kMixBulkCreate: {
      op.type = core::OpType::kBulkInsert;
      op.path = dir;
      const int burst = std::max(1, bulk_create_size);
      op.batch.reserve(burst);
      for (int i = 0; i < burst; ++i) {
        const std::string name = "n" + std::to_string(ds.next_fresh++);
        ds.live.push_back(name);
        op.batch.push_back(name);
      }
      return op;
    }
    case kMixCreate: {
      const std::string name = "n" + std::to_string(ds.next_fresh++);
      ds.live.push_back(name);
      op.type = core::OpType::kCreate;
      op.path = dir + "/" + name;
      return op;
    }
    case kMixUnlink: {
      if (ds.live.empty()) {
        op.type = core::OpType::kStatDir;
        op.path = dir;
        return op;
      }
      const size_t idx = rng.NextBelow(ds.live.size());
      op.type = core::OpType::kUnlink;
      op.path = dir + "/" + ds.live[idx];
      ds.live[idx] = ds.live.back();
      ds.live.pop_back();
      return op;
    }
    case kMixRename: {
      if (ds.live.empty()) {
        op.type = core::OpType::kStatDir;
        op.path = dir;
        return op;
      }
      const size_t idx = rng.NextBelow(ds.live.size());
      const std::string from = ds.live[idx];
      const std::string to = "r" + std::to_string(ds.next_fresh++);
      ds.live[idx] = to;
      op.type = core::OpType::kRename;
      op.path = dir + "/" + from;
      op.path2 = dir + "/" + to;
      return op;
    }
    case kMixReaddir:
      op.type = core::OpType::kReaddir;
      op.path = dir;
      return op;
    case kMixStatDir:
      op.type = core::OpType::kStatDir;
      op.path = dir;
      return op;
    case kMixMkdir:
      op.type = core::OpType::kMkdir;
      op.path = dir + "/sub" + std::to_string(ds.next_fresh++);
      return op;
    case kMixRmdir:
      // Bounded model: remove a just-created empty subdirectory if any; the
      // trace ratio for rmdir is ~0.01-0.1% so precision hardly matters.
      op.type = core::OpType::kStatDir;
      op.path = dir;
      return op;
    default:
      op.type = core::OpType::kStat;
      op.path = dir;
      return op;
  }
}

std::vector<std::string> PreloadDirs(core::FsWorld& world, int num_dirs,
                                     const std::string& prefix) {
  std::vector<std::string> dirs;
  dirs.reserve(num_dirs);
  for (int i = 0; i < num_dirs; ++i) {
    dirs.push_back(prefix + std::to_string(i));
    world.PreloadDir(dirs.back());
  }
  return dirs;
}

std::vector<std::string> PreloadFiles(core::FsWorld& world,
                                      const std::vector<std::string>& dirs,
                                      int files_per_dir,
                                      const std::string& prefix) {
  std::vector<std::string> files;
  files.reserve(dirs.size() * files_per_dir);
  for (const std::string& d : dirs) {
    for (int i = 0; i < files_per_dir; ++i) {
      files.push_back(d + "/" + prefix + std::to_string(i));
      world.PreloadFileAt(files.back());
    }
  }
  return files;
}

}  // namespace switchfs::wl
