// Workloads of the wall-clock benchmark: their sizes, the race-free op
// generator with its namespace model, and the op executor that checks every
// result against that model.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/client.h"
#include "src/sim/task.h"
#include "src/workload/generator.h"

namespace perfbench {

namespace core = switchfs::core;
namespace sim = switchfs::sim;
using switchfs::Rng;
using switchfs::Status;

enum class Kind { kCreateStorm, kPanguMix, kStatSkew };

struct Workload {
  const char* name;
  Kind kind;
  uint32_t dirs;
  uint32_t files_per_dir;  // preloaded "f<i>" files in every directory
  uint64_t ops;            // loaded-phase ops per repetition
};

// Op counts size one repetition's loaded phase at 1.5-3 s of wall time on a
// 4-vCPU VM, so a 10 s run holds at least three repetitions.
inline constexpr Workload kWorkloads[] = {
    {"create_storm", Kind::kCreateStorm, 64, 0, 40000},
    {"pangu_mix", Kind::kPanguMix, 256, 40, 30000},
    {"stat_skew", Kind::kStatSkew, 2048, 64, 100000},
};

inline constexpr int kClients = 256;
inline constexpr double kHotShare = 0.8;  // 80% of ops hit the hottest 20% of dirs

enum OpClass {
  kCreate,
  kUnlink,
  kStat,
  kOpen,
  kClose,
  kRename,
  kReaddir,
  kStatDir,
  kSetAttr,
  kNumClasses
};
inline constexpr const char* kClassNames[kNumClasses] = {
    "create", "unlink", "stat",    "open",   "close",
    "rename", "readdir", "statdir", "setattr"};

struct Op {
  OpClass cls = kStat;
  uint32_t dir = 0;
  std::string path;   // the file, or the directory for readdir/statdir
  std::string path2;  // rename destination
};

// Op generator and namespace model. Directories are shared and drawn 80/20,
// but every file op targets a file the issuing client owns (it created the
// file, or was assigned it at preload), and a client has one op in flight.
// So every op has exactly one right answer, and the model is exact once the
// simulator is quiescent. Each client draws from its own Rng, seeded from
// the workload seed; the program sees only the generated ops.
class Generator {
 public:
  Generator(const Workload& w, uint64_t seed)
      : w_(w), hot_dirs_(std::max<uint32_t>(1, (w.dirs + 4) / 5)) {
    dir_paths_.reserve(w.dirs);
    for (uint32_t d = 0; d < w.dirs; ++d) {
      dir_paths_.push_back("/d" + std::to_string(d));
    }
    names_.resize(w.dirs);
    clients_.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients_[c].rng.Seed(seed * kClients + static_cast<uint64_t>(c));
    }
    for (uint32_t d = 0; d < w.dirs; ++d) {
      for (uint32_t i = 0; i < w.files_per_dir; ++i) {
        std::string name = "f" + std::to_string(i);
        if (w.kind == Kind::kPanguMix) {
          Own(PreloadOwner(d, i), d, name);
        }
        names_[d].insert(std::move(name));
      }
    }
    if (w.kind == Kind::kPanguMix) {
      // An open draws its close as the client's next op.
      const switchfs::wl::MixRatios m = switchfs::wl::PanguMix();
      const std::pair<OpClass, double> mix[] = {
          {kOpen, m.open_close}, {kStat, m.stat},     {kUnlink, m.unlink},
          {kCreate, m.create},   {kRename, m.rename}, {kReaddir, m.readdir},
          {kStatDir, m.statdir}, {kSetAttr, m.chmod}};
      std::vector<double> weights;
      for (const auto& [cls, weight] : mix) {
        mix_classes_.push_back(cls);
        weights.push_back(weight);
      }
      mix_.emplace(std::move(weights));
    }
  }

  uint32_t dir_count() const { return w_.dirs; }
  const std::string& dir_path(uint32_t d) const { return dir_paths_[d]; }

  Op Next(int c) {
    Client& cl = clients_[c];
    switch (w_.kind) {
      case Kind::kCreateStorm:
        return Create(c);
      case Kind::kStatSkew: {
        Op op;
        op.cls = kStat;
        op.dir = PickDir(cl.rng);
        op.path = PathOf(op.dir, "f" + std::to_string(cl.rng.NextBelow(w_.files_per_dir)));
        return op;
      }
      case Kind::kPanguMix:
        break;
    }
    if (!cl.open_path.empty()) {
      Op op;
      op.cls = kClose;
      op.path = std::move(cl.open_path);
      cl.open_path.clear();
      return op;
    }
    const OpClass cls = mix_classes_[mix_->Next(cl.rng)];
    if (cls == kCreate) {
      return Create(c);
    }
    if (cls == kReaddir || cls == kStatDir) {
      Op op;
      op.cls = cls;
      op.dir = PickDir(cl.rng);
      op.path = dir_paths_[op.dir];
      return op;
    }
    return FileOp(c, cls);
  }

  // Sorted names the model expects in directory d.
  std::vector<std::string> ExpectedNames(uint32_t d) const {
    std::vector<std::string> v(names_[d].begin(), names_[d].end());
    std::sort(v.begin(), v.end());
    return v;
  }

  // Other clients may change a directory while client c lists it, so only
  // c's own slice of the listing has one right answer: exactly c's live
  // files in that directory. Returns the difference, empty when it matches.
  std::string ListingDiff(int c, uint32_t d,
                          const std::vector<core::DirEntry>& listing) const {
    std::vector<std::string_view> got;
    for (const core::DirEntry& e : listing) {
      if (!e.name.empty() && OwnerOf(d, e.name) == c) {
        got.push_back(e.name);
      }
    }
    std::vector<std::string_view> want;
    const Client& cl = clients_[c];
    for (const File& f : d < hot_dirs_ ? cl.hot : cl.cold) {
      if (f.dir == d) {
        want.push_back(f.name);
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    std::string diff;
    for (std::string_view name : want) {
      if (!std::binary_search(got.begin(), got.end(), name)) {
        diff += " missing " + std::string(name);
      }
    }
    for (std::string_view name : got) {
      if (!std::binary_search(want.begin(), want.end(), name)) {
        diff += " extra " + std::string(name);
      }
    }
    return diff;
  }

  // Listings that missed one of the caller's own completed creates, unlinks
  // or renames in that directory. The program does not guarantee a caller
  // sees its own updates in a listing while they are still deferred, so a
  // stale listing is counted, not failed; the read-back after quiescence
  // still requires every listing to be exact.
  uint64_t stale_listings = 0;

 private:
  struct File {
    uint32_t dir;
    std::string name;
  };
  struct Client {
    Rng rng;
    std::vector<File> hot, cold;  // live files this client owns
    uint64_t next_name = 0;
    std::string open_path;  // an open file; the client's next op closes it
  };

  int PreloadOwner(uint32_t d, uint32_t i) const {
    return static_cast<int>((uint64_t{d} * w_.files_per_dir + i) % kClients);
  }
  // "c<client>_<n>" was created (or renamed to) by that client; "f<i>" was
  // preloaded and assigned by PreloadOwner.
  int OwnerOf(uint32_t d, std::string_view name) const {
    const int v = std::atoi(std::string(name.substr(1)).c_str());
    return name[0] == 'c' ? v : PreloadOwner(d, static_cast<uint32_t>(v));
  }

  uint32_t PickDir(Rng& rng) const {
    if (hot_dirs_ == w_.dirs || rng.NextBool(kHotShare)) {
      return static_cast<uint32_t>(rng.NextBelow(hot_dirs_));
    }
    return hot_dirs_ + static_cast<uint32_t>(rng.NextBelow(w_.dirs - hot_dirs_));
  }

  void Own(int c, uint32_t d, std::string name) {
    Client& cl = clients_[c];
    (d < hot_dirs_ ? cl.hot : cl.cold).push_back(File{d, std::move(name)});
  }

  std::string FreshName(int c) {
    return "c" + std::to_string(c) + "_" + std::to_string(clients_[c].next_name++);
  }

  std::string PathOf(uint32_t d, const std::string& name) const {
    return dir_paths_[d] + "/" + name;
  }

  Op Create(int c) {
    Op op;
    op.cls = kCreate;
    op.dir = PickDir(clients_[c].rng);
    std::string name = FreshName(c);
    op.path = PathOf(op.dir, name);
    names_[op.dir].insert(name);
    if (w_.kind == Kind::kPanguMix) {
      Own(c, op.dir, std::move(name));
    }
    return op;
  }

  Op FileOp(int c, OpClass cls) {
    Client& cl = clients_[c];
    std::vector<File>* pool = cl.rng.NextBool(kHotShare) ? &cl.hot : &cl.cold;
    if (pool->empty()) {
      pool = pool == &cl.hot ? &cl.cold : &cl.hot;
    }
    if (pool->empty()) {
      return Create(c);
    }
    const size_t idx = cl.rng.NextBelow(pool->size());
    File& f = (*pool)[idx];
    Op op;
    op.cls = cls;
    op.dir = f.dir;
    op.path = PathOf(f.dir, f.name);
    switch (cls) {
      case kOpen:
        cl.open_path = op.path;
        break;
      case kUnlink:
        names_[f.dir].erase(f.name);
        if (idx + 1 != pool->size()) {
          f = std::move(pool->back());
        }
        pool->pop_back();
        break;
      case kRename: {
        std::string to = FreshName(c);
        names_[f.dir].erase(f.name);
        names_[f.dir].insert(to);
        op.path2 = PathOf(f.dir, to);
        f.name = std::move(to);
        break;
      }
      default:
        break;
    }
    return op;
  }

  const Workload& w_;
  const uint32_t hot_dirs_;
  std::vector<std::string> dir_paths_;
  std::vector<std::unordered_set<std::string>> names_;  // the model
  std::vector<Client> clients_;
  std::vector<OpClass> mix_classes_;
  std::optional<switchfs::DiscreteSampler> mix_;
};

inline Status FileAttrStatus(const switchfs::StatusOr<core::Attr>& r) {
  if (!r.ok()) {
    return r.status();
  }
  return r->is_dir() ? switchfs::InternalError("expected a file") : Status();
}

// Issues one op through MetadataService and checks its result.
inline sim::Task<Status> Execute(core::SwitchFsClient& cl, const Op& op, Generator& gen,
                                 int c) {
  switch (op.cls) {
    case kCreate:
      co_return co_await cl.Create(op.path);
    case kUnlink:
      co_return co_await cl.Unlink(op.path);
    case kClose:
      co_return co_await cl.Close(op.path);
    case kRename:
      co_return co_await cl.Rename(op.path, op.path2);
    case kSetAttr: {
      core::AttrDelta delta;
      delta.set_mode = true;
      delta.mode = 0600;
      co_return co_await cl.SetAttr(op.path, delta);
    }
    case kStat: {
      auto r = co_await cl.Stat(op.path);
      co_return FileAttrStatus(r);
    }
    case kOpen: {
      auto r = co_await cl.Open(op.path);
      co_return FileAttrStatus(r);
    }
    case kStatDir: {
      auto r = co_await cl.StatDir(op.path);
      if (!r.ok()) {
        co_return r.status();
      }
      co_return r->is_dir() ? Status() : switchfs::InternalError("expected a directory");
    }
    case kReaddir: {
      auto r = co_await cl.Readdir(op.path);
      if (!r.ok()) {
        co_return r.status();
      }
      const std::string diff = gen.ListingDiff(c, op.dir, *r);
      if (!diff.empty() && gen.stale_listings++ < 3) {
        std::fprintf(stderr, "stale listing: client %d readdir %s:%s\n", c,
                     op.path.c_str(), diff.c_str());
      }
      co_return Status();
    }
    case kNumClasses:
      break;
  }
  co_return switchfs::InternalError("unknown op class");
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
