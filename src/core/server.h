// The SwitchFS metadata server (paper §4-§5).
//
// SwitchServer is the dispatch-and-lifecycle layer over four protocol
// modules that share a ServerContext (src/core/server_context.h):
//
//   aggregation.h         scatter/aggregate directory reads (§5.2.2),
//                         owner-side collect/apply + responder sessions
//   push_engine.h         proactive push & quiet-period timers (§5.3)
//   rename_coordinator.h  2PL/2PC rename legs + orphaned-loop check (§5.2)
//   link_manager.h        hard links via shared attributes objects (§5.5)
//
// The server itself keeps the client-facing upsert/read handlers (§5.2.1,
// §5.2.3), the deferred-update publication machinery (insert-ack wait,
// dirty-set overflow fallback, §6.2), and crash/recovery (§5.4.2, §A.1).
// Every writer, here and in the modules, runs §5.2.1's steps 3-7 through
// the same three functions: CheckAncestors and CommitOp (write_path.h), then
// PublishUpdate.
//
// Request handlers are coroutines; each captures a shared_ptr to the
// server's volatile state (ServerVolatile) and is spawned as a chain bound
// to it (sim::Spawn, src/sim/task.h). A simulated crash marks that state
// dead, so every in-flight chain throws sim::Cancelled at its next resume
// and unwinds through its RAII guards — no handler checks liveness itself —
// while the replacement state recovers from the WAL.
#ifndef SRC_CORE_SERVER_H_
#define SRC_CORE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/aggregation.h"
#include "src/core/link_manager.h"
#include "src/core/push_engine.h"
#include "src/core/rename_coordinator.h"
#include "src/core/server_context.h"

namespace switchfs::core {

class SwitchServer : public UpdatePublisher {
 public:
  // Protocol counters keep their historical nested name.
  using Stats = ServerStats;

  SwitchServer(sim::Simulator* sim, net::Network* net, ClusterContext* cluster,
               DurableState* durable, const sim::CostModel* costs,
               tracker::DirtyTracker* dirty_tracker, ServerConfig config);
  ~SwitchServer() override;  // unregisters the shard-queue work source

  net::NodeId node_id() const { return rpc_.id(); }
  uint32_t index() const { return config_.index; }
  const ServerConfig& config() const { return config_; }
  sim::CpuPool& cpu() { return cpu_; }

  // Seeds the root directory if this server owns it (cluster setup).
  void SeedRoot();

  // --- crash / recovery (§5.4.2) ---
  void Crash();
  sim::Task<void> Recover();
  bool serving() const { return serving_; }
  void SetServing(bool on) { serving_ = on; }

  // Flushes all change-log backlogs to their owners and waits (used by the
  // switch-recovery and reconfiguration procedures).
  sim::Task<void> FlushAllChangeLogs();
  // Aggregates every directory this server owns (recovery, reconfiguration).
  sim::Task<void> AggregateAllOwnedDirs();

  // --- introspection for tests and benches ---
  const Stats& stats() const { return stats_; }
  size_t PendingChangeLogEntries() const;
  size_t KvSize() const { return vol_->kv.size(); }
  const kv::KvStore& kv_for_test() const { return vol_->kv; }
  size_t wal_records_for_test() const { return durable_->wal.record_count(); }

  // Direct KV injection used by cluster preload (bench setup fast path).
  void PreloadInode(const std::string& key, const Attr& attr);
  void PreloadEntry(const InodeId& dir, const std::string& name, FileType t);
  void PreloadDirIndex(const InodeId& id, const std::string& inode_key,
                       psw::Fingerprint fp);

  // --- WAN replication (src/wan/) ---
  // Points the capture hook at the cluster's replicator (null detaches).
  void SetWanSink(WanSink* sink) { ctx_.wan_sink = sink; }
  // Queues one WAN-replicated entry onto its directory's shard apply lane
  // (the same serial lanes push-batch sections apply through). Outcomes are
  // tallied into `result`; `jc` resolves when the entry has been applied,
  // LWW-dropped, or cancelled by a crash (counted as `failed`, so the
  // applier withholds the batch ack and the origin re-ships).
  void EnqueueWanApply(const WanEntry& entry,
                       std::shared_ptr<WanApplyResult> result,
                       std::shared_ptr<sim::JoinCounter> jc);

  // Metadata migration support (cluster reconfiguration, §5.5/A.3).
  struct MigrationBatch {
    std::vector<std::pair<std::string, std::string>> pairs;  // raw kv pairs
  };
  // Extracts (and removes) everything that no longer belongs here per `ring`.
  MigrationBatch ExtractMisplaced(const HashRing& ring);
  void InstallBatch(const MigrationBatch& batch);

  // UpdatePublisher (§5.2.1 steps 6-7, every writer's one publish
  // decision): marks the directory scattered via the configured tracker and
  // waits for the ack (or the overflow fallback); with async_updates off it
  // applies the parent update synchronously instead. `client_req` non-null:
  // `client_resp` reaches the client (in async mode, on the insert-ack
  // multicast); null: internal update (rename legs), acks return to us only.
  sim::Task<void> PublishUpdate(const net::Packet* client_req, VolPtr v,
                                psw::Fingerprint fp, const InodeId& dir,
                                net::MsgPtr client_resp) override;

 private:
  int64_t Now() const;
  InodeId NewInodeId();
  uint32_t OwnerOf(psw::Fingerprint fp) const { return ctx_.OwnerOf(fp); }
  bool IsOwner(psw::Fingerprint fp) const { return ctx_.IsOwner(fp); }

  // ---- dispatch ----
  void OnRequest(net::Packet p);
  void OnRaw(net::Packet p);

  // ---- client-facing handlers ----
  sim::Task<void> HandleUpsert(net::Packet p, VolPtr v);   // create/mkdir/delete
  sim::Task<void> HandleRmdir(net::Packet p, VolPtr v);
  // Every single-target read: stat, open, close, statdir, readdir, opendir.
  // Directory reads pass GateDirRead first; then one shared inode lock,
  // ancestor check and inode read; then one tail per op.
  sim::Task<void> HandleRead(net::Packet p, VolPtr v);
  sim::Task<void> HandleLookup(net::Packet p, VolPtr v);
  // MetadataService v2: directory streams, batched lookups, attr deltas.
  sim::Task<void> HandleReaddirPage(net::Packet p, VolPtr v);
  sim::Task<void> HandleCloseDir(net::Packet p, VolPtr v);
  sim::Task<void> HandleBatchStat(net::Packet p, VolPtr v);
  sim::Task<void> HandleSetAttr(net::Packet p, VolPtr v);
  sim::Task<void> HandleBulkInsert(net::Packet p, VolPtr v);
  // Lands the directory group's deferred entries before a directory read
  // (§5.2.2): dirty-set check, then an aggregation under the exclusive agg
  // gate if needed; returns a held SHARED gate handle. A reader that saw the
  // dirty bit skips its own aggregation only after one that STARTED after
  // its check: every RunAggregation caller holds the exclusive gate, so
  // under the shared gate that run has finished, and it collected every
  // entry committed before it started. One that merely finished after the
  // check may have snapshotted a log before the entry the bit stands for.
  sim::Task<LockTable::Handle> GateDirRead(VolPtr v, const net::Packet& p,
                                           const MetaReq& req,
                                           psw::Fingerprint dir_fp);
  // Expires an idle directory-stream session after kDirSessionTtl
  // (responder-watchdog pattern; the table also expires lazily on access).
  sim::Task<void> DirSessionWatchdog(VolPtr v, uint64_t session_id);

  // ---- asynchronous update machinery ----
  // Synchronous parent update at the parent's owner (Baseline mode §7.3.1 and
  // the tracker-overflow fallback; both reached through PublishUpdate).
  sim::Task<Status> SyncParentUpdate(VolPtr v, psw::Fingerprint fp,
                                     const InodeId& dir);

  // ---- dirty-set fallback and acks ----
  sim::Task<void> HandleInsertFallback(net::Packet p, VolPtr v);
  void HandleFallbackDone(const FallbackDone& msg, VolPtr v);
  void HandleInsertAck(const net::Packet& p, VolPtr v);

  // ---- recovery helpers ----
  sim::Task<void> HandleInvalClone(net::Packet p, VolPtr v);
  // Redoes every WAL record through the apply function its live commit
  // ran (write_path.h), then restores unapplied change-log entries.
  void ReplayWalInto(ServerVolatile& v);

  // ---- WAN replay (geo-replication apply leg) ----
  sim::Task<void> ApplyWanEntryTask(VolPtr v, WanEntry we,
                                    std::shared_ptr<WanApplyResult> result,
                                    std::shared_ptr<sim::JoinCounter> jc);

  // In-switch read cache: reply to a read, piggybacking a cache install when
  // the request carried an mc.kRead stamp (plain Respond otherwise; see the
  // definition for the version-echo staleness guard).
  void RespondWithInstall(const net::Packet& p, net::MsgPtr resp, VolPtr v,
                          const Attr& attr, int64_t read_at);

  void RespondStatus(const net::Packet& p, StatusCode code) {
    ctx_.RespondStatus(p, code);
  }
  void RespondStale(const net::Packet& p, std::vector<InodeId> stale) {
    ctx_.RespondStale(p, std::move(stale));
  }

  sim::Simulator* sim_;
  net::Network* net_;
  ClusterContext* cluster_;
  DurableState* durable_;
  const sim::CostModel* costs_;
  ServerConfig config_;
  sim::CpuPool cpu_;
  net::RpcEndpoint rpc_;
  VolPtr vol_;
  bool serving_ = true;
  Stats stats_;
  uint64_t work_source_id_ = 0;  // apply-lane probe (pending_source_work)

  // Shared view + protocol modules (declaration order matters: ctx_ views
  // the members above; the modules hold references to ctx_ and each other).
  ServerContext ctx_;
  Aggregation agg_;
  PushEngine push_;
  LinkManager links_;
  RenameCoordinator rename_;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_SERVER_H_
