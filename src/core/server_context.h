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
#include <set>
#include <string>
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
  kDedicatedServer = 1,  // a DPDK server node maintains the dirty set
  kOwnerServer = 2,      // each directory's owner tracks its own state
  kReplicated = 3,       // chain-replicated tracker group with failover
};

struct ServerConfig {
  uint32_t index = 0;
  int cores = 4;
  // Fingerprint-group shards per server (clamped to [1, kMaxShards]). Each
  // shard owns its slice of the KV namespace, its lock tables, change logs,
  // pushers, and dir sessions, and drains its apply lane serially — so the
  // owner's apply throughput scales with min(shard_count, cores). 1 restores
  // the pre-sharding single-owner behavior (the bench_shard_scaling A/B).
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
  // Moved-tombstone retention (§5.2 rename race: the source leg of a
  // directory rename installs a moved tombstone so in-flight change-log
  // entries keyed to the old fingerprint are re-keyed to the new owner
  // instead of trimmed). This is the change-log retention horizon for
  // rebinds: a tombstone must outlive any source's unacked backlog for the
  // old fingerprint (pushes retry with backoff capped at
  // kPushRetryBackoff << kPushRetryMaxBackoffShift in push_engine.cc, so
  // seconds dwarf the retry cadence). After expiry a late push for the
  // moved directory degrades to the removed-directory trim. Expired lazily
  // on lookup.
  sim::SimTime moved_tombstone_ttl = sim::Seconds(10);
  sim::SimTime owner_quiet_period = sim::Microseconds(400);
  sim::SimTime insert_ack_timeout = sim::Microseconds(150);
  int insert_max_attempts = 100;
  sim::SimTime responder_session_timeout = sim::Milliseconds(20);
  // Directory-stream sessions (MetadataService v2): inactivity TTL of an
  // OpenDir cursor session at the owner. A page call after expiry gets
  // kStaleHandle and the client re-opens. The watchdog reuses the responder-
  // session pattern; the TTL must dwarf the per-page RPC cadence (~µs).
  sim::SimTime dir_session_ttl = sim::Milliseconds(20);
  // Table-wide session cap: past it, the least-recently-used session is
  // evicted (kStaleHandle on its next page) so a crash-looping scanner
  // abandoning handles cannot bloat the owner.
  size_t max_dir_sessions = 4096;
  // In-switch metadata read cache (requires TrackerMode::kSwitch — the cache
  // lives in the same data plane as the dirty set). Off by default; the
  // bench/test A/B lever. When on, owners piggyback installs on lookup/stat
  // replies and evict cached fingerprints before every committing write.
  bool switch_cache = false;
  // Writer's pre-commit evict round trip: retry cadence and budget (mirrors
  // the dirty-set insert-ack machinery). On budget exhaustion the write
  // proceeds — the evict executed at the switch unless the switch itself is
  // down, in which case the cache died with it.
  sim::SimTime cache_evict_timeout = sim::Microseconds(150);
  int cache_evict_max_attempts = 100;
  // Geo-replication identity: which cluster this server belongs to. Part of
  // every LWW commit stamp (the tie-break after the timestamp), so two
  // clusters stamping the same simulated instant still resolve
  // deterministically and identically everywhere.
  uint32_t cluster_id = 0;
};

// Context the cluster provides to servers and clients.
class ClusterContext {
 public:
  virtual ~ClusterContext() = default;
  virtual const HashRing& ring() const = 0;
  virtual net::NodeId ServerNode(uint32_t server_index) const = 0;
  virtual uint32_t ServerCount() const = 0;
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
// Most hot-path state now lives on the fingerprint-group shards
// (src/core/shard.h): lock tables, change logs, pushers, agg sessions, dir
// sessions, and the KV slices. What remains here is genuinely server-global:
// crash/incarnation state, the invalidation list, hwm dedup lanes and moved
// tombstones (consulted across rename-era fingerprints), rename transaction
// locks, switch-cache bookkeeping, and the push idempotency tokens.
struct SFS_SUSPENSION_SHARED ServerVolatile : sim::Incarnation {
  // Relocated to shard.h (the shards own them); aliases keep module
  // signatures readable.
  using AggWait = core::AggWait;
  using AggSession = core::AggSession;
  using OwnerPusher = core::OwnerPusher;

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
  // directory rename in place of a bare dir-index removal. A push or
  // aggregation that finds the directory gone consults this map: a hit turns
  // the ack-at-max-seq trim into a kMoved rebind verdict (new fingerprint,
  // new owner); a miss keeps the removed-directory trim. `epoch` is the
  // rename's commit time at this server — newest wins on install, so a
  // replayed or duplicated commit of an earlier rename cannot clobber the
  // tombstone of a later one and re-key logs onto a superseded location.
  struct MovedDir {
    psw::Fingerprint old_fp = 0;  // the fingerprint this tombstone closed
    psw::Fingerprint new_fp = 0;
    uint32_t new_owner = 0;
    uint64_t epoch = 0;
    int64_t installed_at = 0;  // lazy TTL expiry base (moved_tombstone_ttl)
    // Pre-rename applied high-water marks, (source server, seq), snapshotted
    // from `hwm` when the tombstone is installed. kMoved verdicts hand each
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

  // `shard_count` is clamped to [1, kMaxShards]; dir-session ids only have
  // kShardIdBits of routing space. Each shard's lock tables carry a
  // process-unique discipline tag, and each shard's DirSessionTable is
  // seeded with the incarnation's creation time so a handle minted before a
  // crash cannot alias a post-recovery session.
  SFS_SHARD_ROUTER ServerVolatile(sim::Simulator* sim, int shard_count = 1)
      : kv(&shards),
        push_token_counter(static_cast<uint64_t>(sim->Now()) + 1) {
    if (shard_count < 1) {
      shard_count = 1;
    }
    if (shard_count > static_cast<int>(kMaxShards)) {
      shard_count = static_cast<int>(kMaxShards);
    }
    const int64_t epoch = sim->Now();
    shards.reserve(static_cast<size_t>(shard_count));
    for (int i = 0; i < shard_count; ++i) {
      shards.push_back(std::make_unique<ServerShard>(sim, i, epoch));
    }
  }

  // The fingerprint-group shards. Never index directly outside the router
  // helpers below (sfs-lint rule cross-shard-direct): resolve a shard at op
  // entry via ShardFor/ShardForKey/SessionShard and route cross-shard work
  // through the handoff lane (EnqueueShardTask).
  SFS_SHARD_PRIVATE std::vector<std::unique_ptr<ServerShard>> shards;
  // Key-routing view over the shards' KV slices (point ops route, short
  // prefixes gather) — the one sanctioned way to reach another shard's rows.
  ShardedKv kv;

  SFS_SHARD_ROUTER size_t num_shards() const { return shards.size(); }
  SFS_SHARD_ROUTER ServerShard& ShardAt(size_t i) { return *shards[i]; }
  SFS_SHARD_ROUTER const ServerShard& ShardAt(size_t i) const {
    return *shards[i];
  }
  SFS_SHARD_ROUTER ServerShard& ShardFor(psw::Fingerprint fp) {
    return *shards[ShardIndexForFp(fp, shards.size())];
  }
  SFS_SHARD_ROUTER const ServerShard& ShardFor(psw::Fingerprint fp) const {
    return *shards[ShardIndexForFp(fp, shards.size())];
  }
  SFS_SHARD_ROUTER ServerShard& ShardForKey(std::string_view key) {
    return *shards[ShardIndexForKey(key, shards.size())];
  }
  // Shard that minted a directory-stream session id (the id's low bits; a
  // garbage handle clamps to a valid shard and misses in its table).
  SFS_SHARD_ROUTER ServerShard& SessionShard(uint64_t session_id) {
    return *shards[(session_id & (kMaxShards - 1)) % shards.size()];
  }

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

  // The per-directory change-log within `fp`'s group, created on demand
  // (routes to fp's shard; call sites are shard-agnostic).
  ChangeLog& GetChangeLog(psw::Fingerprint fp, const InodeId& dir) {
    return ShardFor(fp).GetChangeLog(fp, dir);
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
  // `ttl`) are erased on the way — after that a late push for the moved
  // directory degrades to the removed-directory trim.
  const MovedDir* FindMovedTombstone(const InodeId& dir, int64_t now,
                                     sim::SimTime ttl) {
    auto it = moved_dirs.find(dir);
    if (it == moved_dirs.end()) {
      return nullptr;
    }
    if (now - it->second.installed_at > ttl) {
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

// ---- shard run queues (defined in shard.cc) --------------------------------

enum class ShardLane {
  kApply,    // serial per-shard drain (push-batch section applies)
  kHandoff,  // cross-shard handoff (rename legs, hard-link splits): FIFO
             // dispatch, each task its own chain
};

// Enqueues `fn` on shard `shard`'s lane and ensures a drain is running.
// Lane tasks are chains bound to `v`. Tasks are retained (and still drained)
// after a crash: each is cancelled at its first await, and draining lets its
// scope guards settle the captured completion state (JoinCounters, WAN
// tallies) instead of leaking it.
//
// `fn` must be a PLAIN (non-coroutine) callable that builds its Task from a
// coroutine function taking the state as parameters (copied into the
// frame). A capturing coroutine lambda would dangle: lambda captures live
// in the lambda object, not the coroutine frame, and the handoff lane
// destroys `fn` right after spawning the task.
void EnqueueShardTask(VolPtr v, size_t shard, ShardLane lane,
                      std::function<sim::Task<void>()> fn);

// Queued-but-undrained tasks across all lanes of all shards (the
// simulator's run-while-work-pending predicate for this server).
size_t PendingShardTasks(const ServerVolatile& v);

// Re-spawns drains for any lane with queued work (the simulator's kick
// hook: work enqueued from outside a running event needs a fresh drainer).
void KickShardDrains(VolPtr v);

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
// tracker — marks the directory scattered (switch insert / dedicated tracker
// / owner set) and waits for the ack or the overflow fallback — or, with
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
