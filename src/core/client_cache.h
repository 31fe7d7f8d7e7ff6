// Client-side metadata cache (paper §4.2): caches only *directory* metadata
// (id, permissions, fingerprint) keyed by path, to accelerate path
// resolution. Entries record the full ancestor-id chain so that a server-side
// invalidation of any ancestor drops every dependent entry.
#ifndef SRC_CORE_CLIENT_CACHE_H_
#define SRC_CORE_CLIENT_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/annotations.h"
#include "src/core/messages.h"
#include "src/core/types.h"
#include "src/pswitch/fingerprint.h"

namespace switchfs::core {

struct CachedDir {
  InodeId id;
  psw::Fingerprint fp = 0;   // fingerprint of the directory's (pid, name)
  uint32_t mode = 0755;
  // Every component on the path to this directory, inclusive, with the
  // server-side read time of each entry (invalidation ordering).
  std::vector<AncestorRef> ancestors;
};

// A cluster's preloaded directories as cache entries. One set is shared by
// every client warmed from the same preload state, so it is never mutated
// once built.
using WarmSet = std::unordered_map<std::string, CachedDir>;

// Client-side state behind one DirHandle (MetadataService v2): the
// directory the handle was opened on and where its session lives. Both are
// pinned at OpenDir — pages and CloseDir go to the server that served the
// open, where the session stays even if the directory is renamed away
// mid-stream.
struct OpenDirState {
  std::string path;
  InodeId dir;               // directory id
  psw::Fingerprint fp = 0;   // SwitchFS: the directory's change-log key
  uint32_t server = 0;       // the server that served the open
  uint64_t session = 0;      // server-side session id
};

// The shared warm set plus this client's own state: `map_` overlays it with
// the client's Puts, and `hidden_` names the warm paths the client no longer
// sees (erased, invalidated or shadowed by a `map_` entry). Every operation
// behaves as if each warm entry had been Put into a private map.
class SFS_SUSPENSION_SHARED ClientCache {
 public:
  const CachedDir* Get(const std::string& path) const {
    auto it = map_.find(path);
    if (it != map_.end()) {
      return &it->second;
    }
    if (warm_ == nullptr) {
      return nullptr;
    }
    auto w = warm_->find(path);
    return w == warm_->end() || hidden_.count(path) > 0 ? nullptr
                                                        : &w->second;
  }

  void Put(const std::string& path, CachedDir entry) {
    map_[path] = std::move(entry);
    Hide(path);
  }

  void ErasePath(const std::string& path) {
    map_.erase(path);
    Hide(path);
  }

  // Drops every entry whose ancestor chain contains `id` (the entry itself
  // included). Returns the number of dropped entries.
  size_t InvalidateId(const InodeId& id) {
    size_t dropped = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (HasAncestor(it->second, id)) {
        it = map_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    if (warm_ != nullptr) {
      for (const auto& [path, entry] : *warm_) {
        if (HasAncestor(entry, id) && hidden_.insert(path).second) {
          ++dropped;
        }
      }
    }
    return dropped;
  }

  // Acts as if every entry of `set` were Put: entries still visible from an
  // earlier set move into the overlay, overlay entries `set` has give way.
  void Warm(std::shared_ptr<const WarmSet> set) {
    if (warm_ != nullptr) {
      for (const auto& [path, entry] : *warm_) {
        if (hidden_.count(path) == 0 && set->count(path) == 0) {
          map_.emplace(path, entry);
        }
      }
    }
    for (auto it = map_.begin(); it != map_.end();) {
      if (set->count(it->first) > 0) {
        it = map_.erase(it);
      } else {
        ++it;
      }
    }
    hidden_.clear();
    warm_ = std::move(set);
  }

  size_t size() const {
    return map_.size() + (warm_ == nullptr ? 0 : warm_->size()) -
           hidden_.size();
  }

  // --- directory-handle table (MetadataService v2) ---
  uint64_t PutHandle(OpenDirState state) {
    const uint64_t id = next_handle_++;
    handles_.emplace(id, std::move(state));
    return id;
  }
  OpenDirState* GetHandle(uint64_t id) {
    auto it = handles_.find(id);
    return it == handles_.end() ? nullptr : &it->second;
  }
  void EraseHandle(uint64_t id) { handles_.erase(id); }
  size_t handle_count() const { return handles_.size(); }

  uint64_t hits = 0;
  uint64_t misses = 0;

 private:
  static bool HasAncestor(const CachedDir& entry, const InodeId& id) {
    for (const AncestorRef& a : entry.ancestors) {
      if (a.id == id) {
        return true;
      }
    }
    return false;
  }
  void Hide(const std::string& path) {
    if (warm_ != nullptr && warm_->count(path) > 0) {
      hidden_.insert(path);
    }
  }

  std::shared_ptr<const WarmSet> warm_;  // null until warmed
  std::unordered_map<std::string, CachedDir> map_;
  std::unordered_set<std::string> hidden_;  // a subset of warm_'s keys
  std::unordered_map<uint64_t, OpenDirState> handles_;
  uint64_t next_handle_ = 1;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_CLIENT_CACHE_H_
