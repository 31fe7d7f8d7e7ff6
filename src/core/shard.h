// Per-server shards keyed by fingerprint group (multi-core owners). One
// ServerVolatile used to be a single bundle of shared maps, so the simulated
// k-core CpuPool bought nothing on the hot apply path: every handler
// serialized on the same lock tables and the same owner pusher. This header
// splits the per-incarnation lock and queue state into kMaxShards-bounded
// ServerShard slices, each owning
//   * its inode/change-log/agg-gate/append lock tables,
//   * its change logs and per-owner pushers,
//   * its directory-stream sessions (ids embed the shard index), and
//   * its apply lane, drained serially by the CpuPool cores (push-batch
//     section applies and WAN applies, one in flight per shard).
// The rows live in the server's one KV store (ServerVolatile::kv), as each
// metadata server of the paper keeps one RocksDB (§4.2); every access is
// charged to the CpuPool by its caller.
//
// Routing: a fingerprint group fp lives on shard fp % num_shards. An inode
// key "i" + pid + name locks on the shard of its (pid, name) fingerprint —
// the same hash that picked the owner server — so a directory's inode lock,
// its change-log group locks, and its aggregation all land on one shard.
// Id-keyed rows ("e"/"d"/"a"/"c" + id) lock on the shard of the id's hash.
//
// Discipline: modules resolve a shard at op entry through the
// ServerVolatile router helpers (SFS_SHARD_ROUTER) and never index the
// shard vector directly (SFS_SHARD_PRIVATE; sfs-lint rule
// cross-shard-direct). The flows that lock a name on another shard than
// the request's fingerprint — rename legs and hard-link splits — are
// spawned like every handler and resolve that lock through ShardForKey; the
// lock-level counterpart (a chain mixing same-class locks from two shards)
// is enforced at runtime by the DisciplineChecker's cross-shard-lock rule.
#ifndef SRC_CORE_SHARD_H_
#define SRC_CORE_SHARD_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/core/change_log.h"
#include "src/core/dir_session.h"
#include "src/core/keys.h"
#include "src/core/lock_table.h"
#include "src/core/messages.h"
#include "src/core/schema.h"
#include "src/core/types.h"
#include "src/pswitch/fingerprint.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::core {

// Decodes the 32-byte inode id embedded at offset 1 of a routable KV key
// ("e"/"d"/"a"/"c" + id..., or the pid half of "i" + pid + name).
inline InodeId IdFromKeyBytes(std::string_view key) {
  InodeId id;
  for (int i = 0; i < 4; ++i) {
    std::memcpy(&id.w[i], key.data() + 1 + i * 8, sizeof(uint64_t));
  }
  return id;
}

// Fingerprint of an inode key "i" + pid(32B) + name: the same (pid, name)
// hash that picked the key's owner server picks its shard.
inline psw::Fingerprint FingerprintFromInodeKey(std::string_view key) {
  return FingerprintOf(IdFromKeyBytes(key), key.substr(33));
}

inline size_t ShardIndexForFp(psw::Fingerprint fp, size_t num_shards) {
  return num_shards <= 1 ? 0 : static_cast<size_t>(fp % num_shards);
}

inline size_t ShardIndexForId(const InodeId& id, size_t num_shards) {
  return num_shards <= 1 ? 0 : static_cast<size_t>(id.Hash64() % num_shards);
}

// A key whose lock a shard can be picked for: the schema keys whose first
// 33 bytes carry a full inode id. Any other key locks on shard 0.
inline bool KeyIsRoutable(std::string_view key) {
  if (key.size() < 33) {
    return false;
  }
  const char p = key[0];
  return p == 'i' || p == 'e' || p == 'd' || p == 'a' || p == 'c';
}

inline size_t ShardIndexForKey(std::string_view key, size_t num_shards) {
  if (num_shards <= 1 || !KeyIsRoutable(key)) {
    return 0;
  }
  if (key[0] == 'i') {
    return ShardIndexForFp(FingerprintFromInodeKey(key), num_shards);
  }
  return ShardIndexForId(IdFromKeyBytes(key), num_shards);
}

// Process-unique discipline tag for a shard's lock tables, so the
// cross-shard-lock rule distinguishes shards across servers and across
// incarnations of the same server (tags are never reused).
int NextShardDomainTag();

// Aggregation initiator state (one in flight per fingerprint group).
struct AggWait {
  uint64_t seq = 0;
  std::set<uint32_t> pending;  // server indices yet to reply for `seq`
  std::vector<AggEntries::PerDir> collected;
  std::vector<uint32_t> collected_src;       // parallel to `collected`
  std::shared_ptr<sim::OneShot<bool>> slot;  // armed per attempt
};

// Aggregation responder state (holds the snapshot-side change-log lock).
struct AggSession {
  uint64_t seq = 0;
  LockTable::Handle lock;
  int64_t started_at = 0;
};

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

// One fingerprint-group shard of a server incarnation. Like ServerVolatile
// it is mutated by interleaved coroutine handlers: references, pointers, and
// iterators into its containers must not live across a co_await (sfs-lint
// rule borrow-across-suspend) — always re-route through
// ServerVolatile::ShardFor/ShardAt after a suspension.
struct SFS_SUSPENSION_SHARED ServerShard {
  ServerShard(sim::Simulator* sim, int index, int64_t epoch)
      : index(index),
        discipline_tag(NextShardDomainTag()),
        inode_locks(sim, sim::LockClass::kInode, discipline_tag),
        changelog_locks(sim, sim::LockClass::kChangelogGroup, discipline_tag),
        agg_gates(sim, sim::LockClass::kAggGate, discipline_tag),
        changelog_append_locks(sim, sim::LockClass::kAppend, discipline_tag),
        dir_sessions(epoch, index) {}
  ServerShard(const ServerShard&) = delete;
  ServerShard& operator=(const ServerShard&) = delete;

  const int index;
  const int discipline_tag;

  LockTable inode_locks;      // key: inode key (fp-routed to this shard)
  LockTable changelog_locks;  // key: FpKey(fp) — one per fingerprint group
  LockTable agg_gates;        // key: FpKey(fp) — owner-side read/agg gate
  // Per-change-log append mutex (key: ClAppendKey(fp, dir)), innermost in
  // the lock order: held only across {seq capture -> WAL append -> Restore}
  // (or a rebind's renumbering DrainInto) with no other lock acquired
  // inside. Every appender takes it — including the rename/link commit legs
  // that cannot take the fp-group lock — so a captured seq can no longer go
  // stale against a concurrent append or rebind renumber of the same log.
  SFS_LOCK_INNERMOST LockTable changelog_append_locks;

  // Directory-stream sessions minted by this shard (ids carry `index` in
  // their low bits). The LRU cap and eviction counter are per-shard, so one
  // hot directory's scanners cannot evict every other shard's cursors.
  DirSessionTable dir_sessions;
  uint64_t dir_sessions_evicted = 0;

  std::unordered_map<psw::Fingerprint, std::map<InodeId, ChangeLog>>
      changelogs;
  std::unordered_map<psw::Fingerprint, std::shared_ptr<AggWait>> agg_waits;
  std::unordered_map<psw::Fingerprint, AggSession> agg_sessions;
  // Owner-side: start time of the last aggregation per fingerprint, stamped
  // before its local snapshot and dirty-set remove (read by GateDirRead).
  std::unordered_map<psw::Fingerprint, int64_t> last_agg_start;
  // Owner-side: last push arrival per fingerprint (quiet-period timer).
  std::unordered_map<psw::Fingerprint, int64_t> last_push;
  std::unordered_set<psw::Fingerprint> quiet_timer_armed;
  // Owner-server tracker mode: local scattered set.
  std::unordered_set<psw::Fingerprint> owner_scattered;
  std::map<uint32_t, OwnerPusher> pushers;  // key: owner server index

  // Apply lane (EnqueueApply): push-batch section applies and WAN applies,
  // executed strictly one at a time per shard by a single drainer
  // coroutine — one writer at a time for the rows and hwm lanes of the
  // shard's fingerprint groups under a storm of concurrent PushReqs. The
  // drainer charges the CpuPool, so k shards on k cores give the
  // intra-server scaling of Fig 2(d).
  std::deque<std::function<sim::Task<void>()>> apply_queue;
  bool apply_draining = false;

  // The per-directory change-log within `fp`'s group, created on demand.
  // Only meaningful on the shard owning `fp` (ServerVolatile::GetChangeLog
  // routes).
  ChangeLog& GetChangeLog(psw::Fingerprint fp, const InodeId& dir) {
    auto& per_dir = changelogs[fp];
    auto it = per_dir.find(dir);
    if (it == per_dir.end()) {
      it = per_dir.emplace(dir, ChangeLog(dir, fp)).first;
    }
    return it->second;
  }
  // The per-directory change-log within `fp`'s group, or nullptr.
  ChangeLog* FindChangeLog(psw::Fingerprint fp, const InodeId& dir) {
    auto logs = changelogs.find(fp);
    if (logs == changelogs.end()) {
      return nullptr;
    }
    auto it = logs->second.find(dir);
    return it == logs->second.end() ? nullptr : &it->second;
  }
};

}  // namespace switchfs::core

#endif  // SRC_CORE_SHARD_H_
