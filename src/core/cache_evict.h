// Writer-side invalidation of the in-switch metadata read cache.
//
// Every committing write to a fingerprint this server may have installed at
// the switch runs one evict round trip BEFORE its commit point, under the
// operation's exclusive locks. The switch evicts the entry and bumps the
// set's version register (closing the read-miss/install race: an install
// echoing a pre-evict version is rejected), then forwards the self-addressed
// packet back to us as the ack. Read-your-writes through the switch follows:
// once the write is visible, no cached pre-write record survives and no
// in-flight install of one can land.
#ifndef SRC_CORE_CACHE_EVICT_H_
#define SRC_CORE_CACHE_EVICT_H_

#include "src/common/annotations.h"
#include "src/core/server_context.h"
#include "src/sim/task.h"

namespace switchfs::core {

// How the caller proves it holds the exclusive inode lock the evict requires
// (rule evict-requires-lock).
enum class EvictLockWitness {
  // Default: the calling coroutine chain itself holds the lock; the
  // DisciplineChecker verifies this at runtime in debug builds.
  kChain,
  // The lock is held on the caller's behalf by another chain — the rename
  // 2PC commit leg evicts under locks its prepare phase parked in
  // v->txn_locks. The dynamic check is skipped; the call site carries a
  // static suppression naming the external holder.
  kExternal,
};

// No-op unless config->switch_cache is on AND `fp` is in v->cached_fps (the
// owner never installed it, so there is nothing to evict). Retries on the
// insert-ack cadence (kSwitchRoundTripTimeout x kSwitchRoundTripAttempts); on
// budget exhaustion the write proceeds and cache_evict_exhausted is counted —
// the only way the ack is lost while the evict did not execute is a switch
// outage, which wipes the cache anyway (DataPlane::Reset on recovery).
SFS_REQUIRES_EXCLUSIVE(inode_locks)
sim::Task<void> EvictSwitchCacheEntry(
    ServerContext& ctx, VolPtr v, psw::Fingerprint fp,
    EvictLockWitness witness = EvictLockWitness::kChain);

}  // namespace switchfs::core

#endif  // SRC_CORE_CACHE_EVICT_H_
