#include "src/core/shard.h"

#include <algorithm>

#include "src/core/server_context.h"

namespace switchfs::core {

int NextShardDomainTag() {
  static int next = 0;
  return next++;
}

// ---- ShardedKv -------------------------------------------------------------

const kv::KvStore& ShardedKv::Route(std::string_view key) const {
  return (*shards_)[ShardIndexForKey(key, shards_->size())]->kv;
}

kv::KvStore& ShardedKv::Route(std::string_view key) {
  return (*shards_)[ShardIndexForKey(key, shards_->size())]->kv;
}

std::optional<std::string> ShardedKv::Get(const std::string& key) const {
  return Route(key).Get(key);
}

bool ShardedKv::Contains(const std::string& key) const {
  return Route(key).Contains(key);
}

void ShardedKv::Put(const std::string& key, std::string value) {
  Route(key).Put(key, std::move(value));
}

bool ShardedKv::Delete(const std::string& key) { return Route(key).Delete(key); }

void ShardedKv::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(const std::string&, const std::string&)>& visit)
    const {
  if (shards_->size() == 1 || KeyIsRoutable(prefix)) {
    Route(prefix).ScanPrefix(prefix, visit);
    return;
  }
  // Gather: the prefix does not pin a shard (recovery's "d" sweep,
  // migration's "i" sweep). Collect from every shard, then visit in global
  // key order with the usual early-stop semantics. Copies are fine — these
  // are cold control-plane scans, and the snapshot also makes the visitor
  // free to mutate the store.
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& shard : *shards_) {
    shard->kv.ScanPrefix(prefix,
                         [&rows](const std::string& k, const std::string& v) {
                           rows.emplace_back(k, v);
                           return true;
                         });
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& [k, v] : rows) {
    if (!visit(k, v)) {
      return;
    }
  }
}

size_t ShardedKv::CountPrefix(std::string_view prefix) const {
  if (shards_->size() == 1 || KeyIsRoutable(prefix)) {
    return Route(prefix).CountPrefix(prefix);
  }
  size_t n = 0;
  for (const auto& shard : *shards_) {
    n += shard->kv.CountPrefix(prefix);
  }
  return n;
}

void ShardedKv::ScanFrom(
    std::string_view prefix, const std::string& after,
    const std::function<bool(const std::string&, const std::string&)>& visit)
    const {
  if (shards_->size() == 1 || KeyIsRoutable(prefix)) {
    Route(prefix).ScanFrom(prefix, after, visit);
    return;
  }
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& shard : *shards_) {
    shard->kv.ScanFrom(prefix, after,
                       [&rows](const std::string& k, const std::string& v) {
                         rows.emplace_back(k, v);
                         return true;
                       });
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& [k, v] : rows) {
    if (!visit(k, v)) {
      return;
    }
  }
}

size_t ShardedKv::size() const {
  size_t n = 0;
  for (const auto& shard : *shards_) {
    n += shard->kv.size();
  }
  return n;
}

void ShardedKv::Clear() {
  for (const auto& shard : *shards_) {
    shard->kv.Clear();
  }
}

uint64_t ShardedKv::gets() const {
  uint64_t n = 0;
  for (const auto& shard : *shards_) {
    n += shard->kv.gets();
  }
  return n;
}

uint64_t ShardedKv::puts() const {
  uint64_t n = 0;
  for (const auto& shard : *shards_) {
    n += shard->kv.puts();
  }
  return n;
}

uint64_t ShardedKv::deletes() const {
  uint64_t n = 0;
  for (const auto& shard : *shards_) {
    n += shard->kv.deletes();
  }
  return n;
}

// ---- shard run queues ------------------------------------------------------

namespace {

// Serial apply drainer: one in flight per shard, bound to the incarnation.
// Runs to queue exhaustion even after a crash: each thunk is then cancelled
// at its first await, and starting it lets its scope guards settle the
// captured completion state (JoinCounters, WAN tallies) that abandoning it
// would leak.
sim::Task<void> DrainApplyLane(VolPtr v, size_t shard) {
  for (;;) {
    if (v->ShardAt(shard).apply_queue.empty()) {
      v->ShardAt(shard).apply_draining = false;
      co_return;
    }
    auto fn = std::move(v->ShardAt(shard).apply_queue.front());
    v->ShardAt(shard).apply_queue.pop_front();
    try {
      co_await fn();
    } catch (const sim::Cancelled&) {
      // The incarnation died; keep draining.
    }
  }
}

// Handoff dispatch: FIFO start order, but each task is its own detached
// chain (a rename leg parks its lock in txn_locks and waits for the commit
// leg — a serial drainer would deadlock against itself).
void DispatchHandoffs(VolPtr v, size_t shard) {
  while (!v->ShardAt(shard).handoff_queue.empty()) {
    auto fn = std::move(v->ShardAt(shard).handoff_queue.front());
    v->ShardAt(shard).handoff_queue.pop_front();
    sim::Spawn(fn(), v.get());
  }
}

}  // namespace

void EnqueueShardTask(VolPtr v, size_t shard, ShardLane lane,
                      std::function<sim::Task<void>()> fn) {
  if (lane == ShardLane::kApply) {
    v->ShardAt(shard).apply_queue.push_back(std::move(fn));
    if (!v->ShardAt(shard).apply_draining) {
      v->ShardAt(shard).apply_draining = true;
      sim::Spawn(DrainApplyLane(v, shard), v.get());
    }
    return;
  }
  v->ShardAt(shard).handoff_queue.push_back(std::move(fn));
  DispatchHandoffs(v, shard);
}

size_t PendingShardTasks(const ServerVolatile& v) {
  size_t n = 0;
  for (size_t i = 0; i < v.num_shards(); ++i) {
    n += v.ShardAt(i).apply_queue.size();
    n += v.ShardAt(i).handoff_queue.size();
  }
  return n;
}

void KickShardDrains(VolPtr v) {
  for (size_t i = 0; i < v->num_shards(); ++i) {
    if (!v->ShardAt(i).apply_queue.empty() && !v->ShardAt(i).apply_draining) {
      v->ShardAt(i).apply_draining = true;
      sim::Spawn(DrainApplyLane(v, i), v.get());
    }
    DispatchHandoffs(v, i);
  }
}

}  // namespace switchfs::core
