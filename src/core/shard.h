// Per-server shards of a multi-core owner: each shard is one serial apply
// lane and one push stream per owner server. What lets a SwitchFS owner use
// its cores (Fig 2(d)) is that k shards apply pushed sections and push their
// change-logs k-wide on the k-core CpuPool. Everything else a server keeps
// once, on ServerVolatile: its lock tables (a LockTable serializes per key
// only), change logs, aggregation state and directory sessions, and its rows
// in the one KV store, as each metadata server of the paper keeps one
// RocksDB (§4.2).
//
// Routing: fingerprint group fp's apply tasks and pushes run on shard
// fp % num_shards. Modules reach a shard through the ServerVolatile lane
// routers (ShardFor/ShardAt, SFS_SHARD_ROUTER) and never index the shard
// vector directly (SFS_SHARD_PRIVATE; sfs-lint rule cross-shard-direct).
#ifndef SRC_CORE_SHARD_H_
#define SRC_CORE_SHARD_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "src/common/annotations.h"
#include "src/core/types.h"
#include "src/pswitch/fingerprint.h"
#include "src/sim/task.h"

namespace switchfs::core {

inline size_t ShardIndexForFp(psw::Fingerprint fp, size_t num_shards) {
  return num_shards <= 1 ? 0 : static_cast<size_t>(fp % num_shards);
}

// Source-side per-owner pusher (§5.3 batching): one outbound queue per
// (shard, owner server). `ready` holds the (fp, dir) change-logs awaiting a
// push; the drain coroutine coalesces them into MTU-bounded PushReq batches.
struct OwnerPusher {
  std::set<std::pair<psw::Fingerprint, InodeId>> ready;
  bool draining = false;           // single-flight drain per (shard, owner)
  bool idle_timer_armed = false;   // quiet-log flush timer
  bool retry_timer_armed = false;  // failure re-arm (owner unreachable)
  uint64_t activity = 0;  // bumped per enqueue; the idle timer watches it
  int backoff_shift = 0;  // consecutive failed drains (caps the retry delay)
  // Adaptive pacing (PushResp::retry_after): MTU-triggered drains are
  // deferred to the idle timer until this deadline so a busy owner's apply
  // queue can breathe (§5.3 variant).
  int64_t pace_until = 0;
};

// One shard of a server incarnation. Like ServerVolatile it is mutated by
// interleaved coroutine handlers: references, pointers, and iterators into
// its containers must not live across a co_await (sfs-lint rule
// borrow-across-suspend) — always re-route through
// ServerVolatile::ShardFor/ShardAt after a suspension.
struct SFS_SUSPENSION_SHARED ServerShard {
  std::map<uint32_t, OwnerPusher> pushers;  // key: owner server index

  // Apply lane (EnqueueApply): push-batch section applies and WAN applies,
  // executed strictly one at a time per shard by a single drainer
  // coroutine — one writer at a time for the rows and hwm lanes of the
  // shard's fingerprint groups under a storm of concurrent PushReqs. The
  // drainer charges the CpuPool, so k shards on k cores give the
  // intra-server scaling of Fig 2(d).
  std::deque<std::function<sim::Task<void>()>> apply_queue;
  bool apply_draining = false;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_SHARD_H_
