// Shared context of one SwitchFS metadata server, factored out of the
// SwitchServer monolith so the protocol-layer modules (aggregation, proactive
// push, rename 2PC, hard links) are separately constructible and testable
// without a full cluster.
//
// Ownership model: SwitchServer owns the durable pieces' pointers plus the
// CPU pool, RPC endpoint, and stats; ServerContext is a non-owning view over
// them with the small derived helpers (Now, owner lookup, responders) every
// module needs. The per-incarnation volatile state (ServerVolatile) is a
// shared_ptr handed to each coroutine handler at spawn time, and it is the
// sim::Incarnation every handler chain is bound to (sim::Spawn): a simulated
// crash atomically replaces it and flags the old one dead, so each in-flight
// chain throws sim::Cancelled at its next resume and unwinds through its
// guards while the replacement recovers from the WAL.
#ifndef SRC_CORE_SERVER_CONTEXT_H_
#define SRC_CORE_SERVER_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/core/change_log.h"
#include "src/core/dir_session.h"
#include "src/core/invalidation.h"
#include "src/core/keys.h"
#include "src/core/lock_table.h"
#include "src/core/messages.h"
#include "src/core/placement.h"
#include "src/core/schema.h"
#include "src/core/shard.h"
#include "src/core/types.h"
#include "src/kv/kvstore.h"
#include "src/kv/wal.h"
#include "src/net/rpc.h"
#include "src/sim/costs.h"
#include "src/sim/cpu.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::tracker {
class DirtyTracker;  // src/tracker/dirty_tracker.h
}  // namespace switchfs::tracker

namespace switchfs::core {

// Where directory dirty-state is tracked (§7.3.3 alternatives study). The
// mode only selects which tracker::DirtyTracker implementation the cluster
// wires up; the protocol modules talk to the interface.
enum class TrackerMode {
  kSwitch = 0,           // in-network dirty set (SwitchFS proper)
  kDedicatedServer = 1,  // one DPDK tracker server: a one-replica chain
  kOwnerServer = 2,      // each directory's owner tracks its own state
  kReplicated = 3,       // the tracker chain with three replicas
};

struct ServerConfig {
  uint32_t index = 0;
  int cores = 4;
  // Shards per server (at least 1): k apply lanes, each drained serially,
  // and k push streams toward each owner — so the owner's apply throughput
  // scales with min(shard_count, cores). 1 restores the pre-sharding
  // single-owner behavior (the bench_shard_scaling A/B).
  int shard_count = 4;
  // Feature flags for the Fig 14 ablation: Baseline = async_updates off;
  // +Async = async on, compaction off; +Compaction = both on.
  bool async_updates = true;
  bool compaction = true;

  // §7.5: proactive push once an MTU worth of change-log entries
  // accumulates (also the per-PushReq batch bound). Kept at the historical
  // 29-entry MTU estimate — page packing moved to kPageMtuBytes
  // (metadata_service.h), but the push path still batches by entry count.
  int push_mtu_entries = 29;
  // Batch cross-server pushes per (owner, MTU): one PushReq carries every
  // ready change-log headed to the same owner. Off = one directory per
  // packet (the pre-batching behavior, kept for the A/B bench).
  bool batch_pushes = true;
  sim::SimTime push_idle_timeout = sim::Microseconds(300);
  sim::SimTime owner_quiet_period = sim::Microseconds(400);
  // Cap on the server's directory-stream sessions: past it, the
  // least-recently-used session is evicted (kStaleHandle on its next page)
  // so a crash-looping scanner abandoning handles cannot bloat the owner.
  size_t max_dir_sessions = 4096;
  // In-switch metadata read cache (requires TrackerMode::kSwitch — the cache
  // lives in the same data plane as the dirty set). Off by default; the
  // bench/test A/B lever. When on, owners piggyback installs on lookup/stat
  // replies and evict cached fingerprints before every committing write.
  bool switch_cache = false;
  // Geo-replication identity: which cluster this server belongs to. Part of
  // every LWW commit stamp (the tie-break after the timestamp), so two
  // clusters stamping the same simulated instant still resolve
  // deterministically and identically everywhere.
  uint32_t cluster_id = 0;
};

// Round trips a server makes through the switch and back to itself — the
// dirty-set insert awaiting its ack (§5.2.1 step 7) and the read cache's
// pre-commit evict (cache_evict.h): the per-attempt timeout and the attempt
// budget.
inline constexpr sim::SimTime kSwitchRoundTripTimeout = sim::Microseconds(150);
inline constexpr int kSwitchRoundTripAttempts = 100;

// Moved-tombstone retention (§5.2 rename race: the source leg of a directory
// rename installs a moved tombstone so in-flight change-log entries keyed to
// the old fingerprint are re-keyed to the new owner instead of trimmed). This
// is the change-log retention horizon for rebinds: a tombstone must outlive
// any source's unacked backlog for the old fingerprint (pushes retry with
// backoff capped at kPushRetryBackoff << kPushRetryMaxBackoffShift in
// push_engine.cc, so seconds dwarf the retry cadence). After expiry a late
// section for the moved directory degrades to the removed-directory trim.
// Expired lazily on lookup.
inline constexpr sim::SimTime kMovedTombstoneTtl = sim::Seconds(10);

// Context the cluster provides to servers and clients.
class ClusterContext {
 public:
  virtual ~ClusterContext() = default;
  virtual const HashRing& ring() const = 0;
  virtual net::NodeId ServerNode(uint32_t server_index) const = 0;
  virtual uint32_t ServerCount() const = 0;

  // --- client placement: where SwitchFsClient, the client of all five
  // systems, sends each op. The defaults are SwitchFS's; the baselines
  // override them (BaselineCluster). ---

  // Server holding the inode of `name` in the directory `pid` at
  // `dir_path`: where a lookup of the name and every op on it go. SwitchFS:
  // the ring owner of the (pid, name) fingerprint.
  virtual uint32_t NameServer(const InodeId& pid, const std::string& name,
                              std::string_view /*dir_path*/) const {
    return ring().Owner(FingerprintOf(pid, name));
  }
  // True where a directory's attrs and entry list live on a home server
  // apart from its inode (the baselines): a directory read then addresses
  // the directory by its own id at DirHome, and its snapshot pages are
  // cookied by position, so they are read one at a time. SwitchFS reads a
  // directory at the NameServer of its own (pid, name), by page number.
  virtual bool dir_homes() const { return false; }
  virtual uint32_t DirHome(const InodeId& /*dir*/,
                           std::string_view /*path*/) const {
    return 0;
  }
  // The subtree key a request on `path` carries (MetaReq::top): CephFS-sim
  // routes whole subtrees by their top-level component. Empty where ids
  // alone place everything.
  virtual std::string SubtreeKey(std::string_view /*path*/) const {
    return {};
  }
};

// One dirent mutation as it travels between clusters (src/wan/): the
// directory's identity (ids and fingerprints of preloaded shared-namespace
// directories derive from path hashes, so they are identical in every
// cluster), the origin coordinates that make up the LWW stamp, and the
// change-log entry itself. Defined in core so SwitchServer can apply one
// without depending on the WAN tier.
struct WanEntry {
  InodeId dir;
  psw::Fingerprint dir_fp = 0;   // the directory's own fingerprint (owner key)
  uint32_t origin_cluster = 0;
  uint32_t src_server = 0;
  ChangeLogEntry entry;
};

// Where an owner publishes every committed dirent apply (the WAN
// replicator's capture hook; see Aggregation::ApplyEntries). Null when the
// cluster has no WAN tier. Only locally-originated applies flow through the
// sink — WAN replays use SwitchServer::EnqueueWanApply, which bypasses it,
// so batches cannot echo between clusters.
class WanSink {
 public:
  virtual ~WanSink() = default;
  virtual void OnEntryApplied(const WanEntry& entry) = 0;
};

// Shared tally of one WAN batch's fan-out across owner shard lanes
// (src/wan/applier.cc joins on it). `failed` counts entries whose apply a
// server crash cancelled — the applier refuses to ack the batch so the origin
// re-ships it after recovery (per-entry LWW + idempotent redo absorb the
// overlap). `dropped` counts directories unknown at this cluster (outside
// the shared namespace, or removed here) — those ARE acked; re-shipping
// cannot make them applicable.
struct WanApplyResult {
  int applied = 0;
  int conflicts = 0;
  int dropped = 0;
  int failed = 0;
};

// Durable per-server state: survives crashes (owned by the cluster).
struct DurableState {
  kv::Wal wal;
  // Dirty-set remove sequence (§5.4.1). Monotonic across crashes, else the
  // switch would treat all post-recovery removes as stale.
  uint64_t remove_seq = 0;
  uint64_t id_counter = 1;  // inode-id generation must not repeat
};

// Protocol counters surfaced to tests and benches. Every counter is declared
// once, in server_stats.def, which generates the fields and the member-wise
// sum (Cluster::TotalStats, the geo harness).
struct ServerStats {
#define SFS_SERVER_STAT(name) uint64_t name = 0;
#include "src/core/server_stats.def"
#undef SFS_SERVER_STAT

  ServerStats& operator+=(const ServerStats& add) {
#define SFS_SERVER_STAT(name) name += add.name;
#include "src/core/server_stats.def"
#undef SFS_SERVER_STAT
    return *this;
  }
};

// Volatile state of one server incarnation (wiped on crash; the
// sim::Incarnation its handler chains are bound to). Its containers
// are mutated by concurrently-interleaved coroutine handlers, so references,
// pointers, and iterators into them must not live across a co_await
// (sfs-lint rule borrow-across-suspend).
//
// The shards (src/core/shard.h) hold only the apply lanes and the per-owner
// pushers; everything else is one per server: the KV store, the lock
// tables, change logs, aggregation state and directory sessions, the
// invalidation list, hwm dedup lanes and moved tombstones, rename
// transaction locks, switch-cache bookkeeping, and the push idempotency
// tokens.
struct SFS_SUSPENSION_SHARED ServerVolatile : sim::Incarnation {
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
  struct OpWait {  // insert-ack / overflow-fallback wait (§5.2.1 step 7)
    bool acked = false;
    bool fallback_done = false;
    std::shared_ptr<sim::OneShot<int>> slot;  // armed per attempt
  };
  struct CacheEvictWait {  // switch-cache evict round trip (pre-commit)
    bool acked = false;
    std::shared_ptr<sim::OneShot<int>> slot;  // armed per attempt
  };
  // Moved tombstone (§5.2 rename race): installed by the source leg of a
  // directory rename in place of a bare dir-index removal. A section apply
  // that finds the directory gone consults this map: a hit turns the
  // ack-at-last-seq trim into a moved verdict (new fingerprint, new owner);
  // a miss keeps the removed-directory trim. `epoch` is the
  // rename's commit time at this server — newest wins on install, so a
  // replayed or duplicated commit of an earlier rename cannot clobber the
  // tombstone of a later one and re-key logs onto a superseded location.
  struct MovedDir {
    psw::Fingerprint old_fp = 0;  // the fingerprint this tombstone closed
    psw::Fingerprint new_fp = 0;
    uint32_t new_owner = 0;
    uint64_t epoch = 0;
    int64_t installed_at = 0;  // lazy TTL expiry base (kMovedTombstoneTtl)
    // Pre-rename applied high-water marks, (source server, seq), snapshotted
    // from `hwm` when the tombstone is installed. Moved verdicts hand each
    // source its row so the already-applied prefix (it migrated with the
    // entry list) is trimmed, not re-keyed. The live hwm rows are erased at
    // install: rebound logs are renumbered from 1 at the new owner, so a
    // directory that later returns to this server must start a fresh
    // dedup era — stale marks would silently swallow its new entries.
    std::vector<std::pair<uint32_t, uint64_t>> applied;

    // Marks are meaningful only in the numbering of the era this tombstone
    // closed: a server that hosted the directory under several fingerprints
    // across a rename chain keeps one (newest) tombstone, and handing its
    // marks to a push keyed to an older fingerprint would trim entries of a
    // numbering they never measured.
    uint64_t AppliedFor(uint32_t src, psw::Fingerprint section_fp) const {
      if (section_fp != old_fp) {
        return 0;
      }
      for (const auto& [s, seq] : applied) {
        if (s == src) {
          return seq;
        }
      }
      return 0;
    }
  };

  // `shard_count` lanes, at least one. The session table is seeded with the
  // incarnation's creation time so a handle minted before a crash cannot
  // alias a post-recovery session.
  SFS_SHARD_ROUTER ServerVolatile(sim::Simulator* sim, int shard_count = 1)
      : shards(static_cast<size_t>(std::max(1, shard_count))),
        inode_locks(sim, sim::LockClass::kInode),
        changelog_locks(sim, sim::LockClass::kChangelogGroup),
        agg_gates(sim, sim::LockClass::kAggGate),
        changelog_append_locks(sim, sim::LockClass::kAppend),
        dir_sessions(sim->Now()),
        push_token_counter(static_cast<uint64_t>(sim->Now()) + 1) {}

  // The apply lanes and push streams, sized once here and never resized, so
  // a shard stays put for the incarnation's life. Never index directly
  // outside the router helpers below (sfs-lint rule cross-shard-direct):
  // resolve a fingerprint group's shard via ShardFor, or walk them via
  // ShardAt.
  SFS_SHARD_PRIVATE std::vector<ServerShard> shards;
  // The server's metadata rows (§4.2: one RocksDB per server). Every shard
  // reads and writes it; callers charge each access to the CpuPool.
  kv::KvStore kv;

  SFS_SHARD_ROUTER size_t num_shards() const { return shards.size(); }
  SFS_SHARD_ROUTER ServerShard& ShardAt(size_t i) { return shards[i]; }
  SFS_SHARD_ROUTER const ServerShard& ShardAt(size_t i) const {
    return shards[i];
  }
  SFS_SHARD_ROUTER ServerShard& ShardFor(psw::Fingerprint fp) {
    return shards[ShardIndexForFp(fp, shards.size())];
  }

  // Lock order: agg gate -> change-log group -> inode -> append mutex.
  LockTable inode_locks;      // key: inode key, or AttrKey for a link's attrs
  LockTable changelog_locks;  // key: FpKey(fp) — one per fingerprint group
  LockTable agg_gates;        // key: FpKey(fp) — owner-side read/agg gate
  // Per-change-log append mutex (key: ClAppendKey(fp, dir)), innermost in
  // the lock order: held only across {seq capture -> WAL append -> Restore}
  // (or a rebind's renumbering DrainInto) with no other lock acquired
  // inside. Every appender takes it — including the rename/link commit legs
  // that cannot take the fp-group lock — so a captured seq can no longer go
  // stale against a concurrent append or rebind renumber of the same log.
  SFS_LOCK_INNERMOST LockTable changelog_append_locks;

  // Directory-stream sessions, capped at ServerConfig::max_dir_sessions.
  DirSessionTable dir_sessions;

  // Change logs: fingerprint group -> directory -> log.
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

  InvalidationList inval;
  // Owner-side applied high-water marks: (dir, src server, fingerprint the
  // entries were logged under) -> seq. The fingerprint is part of the key
  // because each (fp, dir) source log numbers independently: after a rename,
  // a source may hold both a kept old-fingerprint log (monotonic straggler
  // seqs) and a fresh new-fingerprint log restarting at 1, and a shared lane
  // would let one era's resolved-prefix bridge swallow the other era's
  // entries as duplicates.
  std::map<std::tuple<InodeId, uint32_t, psw::Fingerprint>, uint64_t> hwm;
  // Old-owner-side moved tombstones, keyed by the renamed directory's id.
  std::map<InodeId, MovedDir> moved_dirs;
  std::unordered_map<uint64_t, std::shared_ptr<OpWait>> op_waits;
  // Rename participant state: txn id -> held locks.
  std::unordered_map<uint64_t, std::vector<LockTable::Handle>> txn_locks;
  // Destination legs prepared here and not yet committed or aborted (same
  // keys as txn_locks) -> the destination's fingerprint. Between a directory
  // rename's two commit legs the directory exists nowhere: a section already
  // re-keyed toward this owner must wait for the destination leg, not be
  // trimmed as if the directory were removed (Aggregation::ApplySection).
  std::unordered_map<uint64_t, psw::Fingerprint> arriving_renames;
  bool RenameArriving(psw::Fingerprint fp) const {
    return std::any_of(arriving_renames.begin(), arriving_renames.end(),
                       [fp](const auto& leg) { return leg.second == fp; });
  }
  // In-switch read cache bookkeeping (owner side). cached_fps: fingerprints
  // this owner has (possibly) installed at the switch — the pre-commit evict
  // is skipped for fingerprints never installed. Volatile by design: a crash
  // forgets it, and recovery flushes the switch cache of everything this
  // owner could have installed (Cluster::RecoverServer).
  std::unordered_set<psw::Fingerprint> cached_fps;
  std::unordered_map<uint64_t, std::shared_ptr<CacheEvictWait>>
      cache_evict_waits;  // key: CacheHeader::token
  // Owner-side in-flight PushReq sections being applied (adaptive pacing
  // busy signal).
  int inflight_push_sections = 0;
  uint64_t op_token_counter = 1;
  uint64_t txn_counter = 1;

  // Push-batch idempotency (owner side, §5.3 loss recovery): the highest
  // (dir, src) batch token whose section committed, plus the acked seq it
  // reported — a duplicated delivery (RPC retransmit after a lost ack,
  // rebind replay) no-ops and re-acks instead of re-running the apply.
  // Tokens are minted monotonically per source (push_token_counter below is
  // seeded from sim time, so it stays monotonic across source crashes) and
  // persisted in the owner's kWalEntryApply records, so recovery rebuilds
  // this map and a pre-crash duplicate still dedups post-recovery.
  // `fp` scopes the state to the fingerprint era the token was committed
  // under: after a rename, old- and new-era sections for the same (dir,
  // src) travel different shard pipes and can arrive out of mint order — a
  // cross-era token must never dedup (nor re-ack into) the other era's
  // sections, whose acked_seq lives in a different numbering.
  struct PushTokenState {
    uint64_t token = 0;
    uint64_t acked_seq = 0;
    psw::Fingerprint fp = 0;
  };
  std::map<std::pair<InodeId, uint32_t>, PushTokenState> push_tokens;

  // Commits a (dir, src) section's batch token (0 = untokened: no-op):
  // max-merged within the fingerprint era, replaced when the era changes.
  // The one writer of push_tokens, for the live apply and WAL replay alike.
  void CommitPushToken(const InodeId& dir, uint32_t src, psw::Fingerprint fp,
                       uint64_t token, uint64_t acked_seq) {
    if (token == 0) {
      return;
    }
    PushTokenState& ts = push_tokens[{dir, src}];
    if (ts.fp == fp) {
      ts.token = std::max(ts.token, token);
      ts.acked_seq = std::max(ts.acked_seq, acked_seq);
    } else {
      ts = PushTokenState{token, acked_seq, fp};
    }
  }
  // Source side: next batch token to mint (per-server, shared by all
  // (dir, src) lanes — per-lane monotonicity is all the owner checks).
  uint64_t push_token_counter = 1;

  // The per-directory change-log within `fp`'s group, created on demand.
  ChangeLog& GetChangeLog(psw::Fingerprint fp, const InodeId& dir) {
    auto& per_dir = changelogs[fp];
    auto it = per_dir.find(dir);
    if (it == per_dir.end()) {
      it = per_dir.emplace(dir, ChangeLog(dir, fp)).first;
    }
    return it->second;
  }
  // The same log, or nullptr if there is none.
  ChangeLog* FindChangeLog(psw::Fingerprint fp, const InodeId& dir) {
    auto logs = changelogs.find(fp);
    if (logs == changelogs.end()) {
      return nullptr;
    }
    auto it = logs->second.find(dir);
    return it == logs->second.end() ? nullptr : &it->second;
  }
  // The fingerprint groups holding a pending change-log entry: what this
  // server reports to a rebuilding tracker (ScatteredSnapshotReq).
  std::vector<psw::Fingerprint> ScatteredFingerprints() const {
    std::vector<psw::Fingerprint> fps;
    for (const auto& [fp, dirs] : changelogs) {
      if (std::any_of(dirs.begin(), dirs.end(),
                      [](const auto& d) { return !d.second.empty(); })) {
        fps.push_back(fp);
      }
    }
    return fps;
  }

  // Resolves a directory id to its inode key + fingerprint via the "d" index.
  bool LookupDirIndex(const InodeId& dir, std::string* inode_key,
                      psw::Fingerprint* fp) const {
    auto value = kv.Get(DirIndexKey(dir));
    if (!value.has_value()) {
      return false;
    }
    DecodeDirIndex(*value, inode_key, fp);
    return true;
  }

  // The liveness test of a directory here: its dir-index row resolves to an
  // inode row. Returns that row (nullopt when the directory was removed or
  // renamed away), with its key and fingerprint.
  std::optional<std::string> LiveDirRow(const InodeId& dir,
                                        std::string* inode_key,
                                        psw::Fingerprint* fp) const {
    if (!LookupDirIndex(dir, inode_key, fp)) {
      return std::nullopt;
    }
    return kv.Get(*inode_key);
  }

  // Installs (or refreshes) a moved tombstone. The epoch check makes install
  // order irrelevant: a replayed commit of an earlier rename cannot displace
  // the tombstone of a later one.
  void InstallMovedTombstone(const InodeId& dir, const MovedDir& tomb) {
    auto& slot = moved_dirs[dir];
    if (slot.epoch <= tomb.epoch) {
      slot = tomb;
    }
  }

  // Live tombstone for `dir`, or nullptr. Expired tombstones (older than
  // kMovedTombstoneTtl) are erased on the way — after that a late section
  // for the moved directory degrades to the removed-directory trim.
  const MovedDir* FindMovedTombstone(const InodeId& dir, int64_t now) {
    auto it = moved_dirs.find(dir);
    if (it == moved_dirs.end()) {
      return nullptr;
    }
    if (now - it->second.installed_at > kMovedTombstoneTtl) {
      moved_dirs.erase(it);
      return nullptr;
    }
    return &it->second;
  }

  // Snapshot-and-erase of ALL of a directory's applied lanes (rename era
  // hygiene); returns only the rows of `fp`'s lane — the marks a moved
  // tombstone serves (MovedDir::AppliedFor is scoped to that fingerprint).
  std::vector<std::pair<uint32_t, uint64_t>> TakeHwmRows(const InodeId& dir,
                                                         psw::Fingerprint fp) {
    std::vector<std::pair<uint32_t, uint64_t>> rows;
    auto it = hwm.lower_bound({dir, 0, 0});
    while (it != hwm.end() && std::get<0>(it->first) == dir) {
      if (std::get<2>(it->first) == fp) {
        rows.emplace_back(std::get<1>(it->first), it->second);
      }
      it = hwm.erase(it);
    }
    return rows;
  }
};
using VolPtr = std::shared_ptr<ServerVolatile>;

// ---- shard apply lanes (defined in shard.cc) -------------------------------

// Enqueues `fn` on shard `shard`'s apply lane and starts its drainer if none
// runs. The lane runs its tasks one at a time, as chains bound to `v`. Tasks
// are retained (and still drained) after a crash: each is cancelled at its
// first await, and draining lets its scope guards settle the captured
// completion state (JoinCounters, WAN tallies) instead of leaking it.
//
// `fn` must be a PLAIN (non-coroutine) callable that builds its Task from a
// coroutine function taking the state as parameters (copied into the
// frame). Lambda captures live in the lambda object, not the coroutine
// frame, so a capturing coroutine lambda would tie its task to the queued
// `fn`, whose lifetime the lane does not promise.
void EnqueueApply(VolPtr v, size_t shard, std::function<sim::Task<void>()> fn);

// Tasks queued on the shards' apply lanes and not yet started: the work a
// lane stuck behind a blocked task holds (this server's work source, which
// the simulator reports as pending_source_work()).
size_t PendingShardTasks(const ServerVolatile& v);

// Non-owning view over one server's fixed parts, shared by all protocol
// modules. All pointers outlive the modules (SwitchServer owns both).
struct ServerContext {
  sim::Simulator* sim = nullptr;
  net::Network* net = nullptr;
  ClusterContext* cluster = nullptr;
  DurableState* durable = nullptr;
  const sim::CostModel* costs = nullptr;
  const ServerConfig* config = nullptr;
  sim::CpuPool* cpu = nullptr;
  net::RpcEndpoint* rpc = nullptr;
  ServerStats* stats = nullptr;
  // The cluster's dirty-set tracker (src/tracker/): where "directory X has
  // scattered deferred updates" is recorded, queried, and removed.
  tracker::DirtyTracker* dirty_tracker = nullptr;
  // WAN capture hook (null without a WAN tier; see WanSink above).
  WanSink* wan_sink = nullptr;

  int64_t Now() const { return sim->Now(); }
  net::NodeId node_id() const { return rpc->id(); }
  uint32_t OwnerOf(psw::Fingerprint fp) const {
    return cluster->ring().Owner(fp);
  }
  bool IsOwner(psw::Fingerprint fp) const {
    return OwnerOf(fp) == config->index;
  }
  // Trims `log` up to `acked_seq` and marks the trimmed entries' WAL records
  // applied: the one trim of every channel's verdict.
  void TrimLog(ChangeLog& log, uint64_t acked_seq) const {
    for (uint64_t lsn : log.AckUpTo(acked_seq)) {
      durable->wal.MarkApplied(lsn);
    }
  }

  void RespondStatus(const net::Packet& p, StatusCode code) const {
    rpc->Respond(p, net::MakeMsg<MetaResp>(code));
  }
  void RespondStale(const net::Packet& p, std::vector<InodeId> stale) const {
    auto resp = std::make_shared<MetaResp>(StatusCode::kStaleCache);
    resp->stale_ids = std::move(stale);
    rpc->Respond(p, resp);
  }
};

// Steps 6-7 of every writer's commit (§5.2.1; steps 3-5 are in
// write_path.h): publishes a deferred parent update through the configured
// tracker — marks the directory scattered (switch insert / tracker chain /
// owner set) and waits for the ack or the overflow fallback — or, with
// async_updates off (Fig 14's Baseline), applies it at the parent's owner
// before returning. Implemented by SwitchServer, which owns the insert retry
// machinery. `client_req` non-null: `client_resp` reaches the client (in
// async mode, on the insert-ack multicast); null: internal update, acks
// return to us only.
class UpdatePublisher {
 public:
  virtual ~UpdatePublisher() = default;
  virtual sim::Task<void> PublishUpdate(const net::Packet* client_req,
                                        VolPtr v, psw::Fingerprint fp,
                                        const InodeId& dir,
                                        net::MsgPtr client_resp) = 0;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_SERVER_CONTEXT_H_
