#include "src/core/shard.h"

#include "src/core/server_context.h"

namespace switchfs::core {

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

}  // namespace

void EnqueueApply(VolPtr v, size_t shard, std::function<sim::Task<void>()> fn) {
  v->ShardAt(shard).apply_queue.push_back(std::move(fn));
  if (!v->ShardAt(shard).apply_draining) {
    v->ShardAt(shard).apply_draining = true;
    sim::Spawn(DrainApplyLane(v, shard), v.get());
  }
}

size_t PendingShardTasks(const ServerVolatile& v) {
  size_t n = 0;
  for (size_t i = 0; i < v.num_shards(); ++i) {
    n += v.ShardAt(i).apply_queue.size();
  }
  return n;
}

}  // namespace switchfs::core
