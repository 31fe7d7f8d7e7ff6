// Chain-replicated dirty-tracker group (§7.3.3 extension; NetChain-style
// chain replication): 2-3 TrackerServer replicas ordered head -> tail.
// Writes (insert / remove-with-seq) enter at the head, propagate down the
// chain, and are acknowledged by the tail's ack bubbling back — so an acked
// entry is on every live replica. Queries are served by the tail, whose
// state is always fully replicated.
//
// Failure handling: there is no standing heartbeat (the simulator drains to
// quiescence between bursts); detection is lazy and sim-clock driven — the
// first operation whose RPC budget expires against a replica (or whose
// chain ack reports a dead downstream hop) triggers failover. Failover
// removes the dead replica, re-wires the survivors into a shorter chain,
// and reconstructs the dirty set from the metadata servers' pending
// change-log state (the durable scattered-key state of §5.4.2 recovery).
// Operations arriving during the rebuild wait for it; client queries
// conservatively report "scattered", which at worst costs one spurious
// aggregation and never hides a deferred update.
#ifndef SRC_TRACKER_REPLICATED_TRACKER_H_
#define SRC_TRACKER_REPLICATED_TRACKER_H_

#include <memory>
#include <vector>

#include "src/common/annotations.h"
#include "src/sim/sync.h"
#include "src/tracker/dirty_tracker.h"
#include "src/tracker/tracker_server.h"

namespace switchfs::tracker {

struct ReplicatedTrackerConfig {
  int replicas = 3;
  psw::DirtySetConfig dirty_set;
  // Per-call budget for tracker ops. Full exhaustion against one replica is
  // the failure-detection signal, so detection latency is roughly
  // timeout * max_attempts of simulated time.
  net::CallOptions op_call = [] {
    net::CallOptions o;
    o.timeout = sim::Microseconds(250);
    o.max_attempts = 4;
    return o;
  }();
  // Whole-operation retries around failovers before giving up (an exhausted
  // insert falls back to the synchronous parent update, staying correct).
  int op_retry_rounds = 4;
};

// Chain membership (nodes_/chain_) is rewired by failover while query
// coroutines are suspended mid-RPC, so borrows of it must not cross a
// co_await (sfs-lint rule borrow-across-suspend).
class SFS_SUSPENSION_SHARED ReplicatedTracker : public DirtyTracker {
 public:
  ReplicatedTracker(sim::Simulator* sim, net::Network* net,
                    core::ClusterContext* cluster, const sim::CostModel* costs,
                    ReplicatedTrackerConfig config);

  const char* name() const override { return "replicated"; }

  sim::Task<InsertResult> Insert(core::ServerContext& ctx, core::VolPtr v,
                                 psw::Fingerprint fp, const core::InodeId& dir,
                                 const net::Packet* client_req,
                                 net::MsgPtr client_resp) override;
  sim::Task<void> RemoveAndMulticast(core::ServerContext& ctx, core::VolPtr v,
                                     psw::Fingerprint fp, uint64_t seq,
                                     net::Packet rm) override;
  bool ReadScattered(const core::ServerContext& ctx,
                     const core::ServerVolatile& v, const net::Packet& p,
                     const core::MetaReq& req,
                     psw::Fingerprint fp) const override;
  sim::Task<void> ClientPreRead(net::RpcEndpoint& rpc, psw::Fingerprint fp,
                                core::MetaReq& req,
                                net::CallOptions& opts) override;

  // --- introspection & fault orchestration (tests, benches) ---
  int replica_count() const { return static_cast<int>(nodes_.size()); }
  TrackerServer& node(int i) { return *nodes_[i]; }
  const std::vector<int>& chain() const { return chain_; }
  int head_index() const { return chain_.empty() ? -1 : chain_.front(); }
  int tail_index() const { return chain_.empty() ? -1 : chain_.back(); }
  // Kills a replica. Detection stays lazy: the next op that hits the dead
  // node starts the failover.
  void CrashNode(int i) { nodes_[i]->Crash(); }

  bool rebuilding() const { return rebuilding_; }
  uint64_t failovers() const { return failovers_; }
  sim::SimTime last_failover_duration() const {
    return last_failover_duration_;
  }
  // Instant the last rebuild finished (0 if none): lets callers that know
  // the crash instant compute detection + rebuild end to end.
  sim::SimTime last_failover_completed_at() const {
    return last_failover_completed_at_;
  }
  uint64_t reconstructed_entries() const { return reconstructed_entries_; }

 private:
  void SuspectNode(net::NodeId id);
  void SuspectIndex(int idx);
  void RewireChain();
  sim::Task<void> Rebuild(int dead_idx);
  sim::Task<void> WaitWhileRebuilding();
  // Shared write-path scaffolding: sends `op` to the current head, waiting
  // out rebuilds and suspecting unresponsive / chain-faulted replicas
  // between rounds. Returns the first usable TrackerResp, or nullptr once
  // the retry budget is exhausted or every replica is down.
  sim::Task<net::MsgPtr> CallHeadWithFailover(
      core::ServerContext& ctx, std::shared_ptr<core::TrackerOp> op);

  sim::Simulator* sim_;
  core::ClusterContext* cluster_;
  const sim::CostModel* costs_;
  ReplicatedTrackerConfig config_;
  std::vector<std::unique_ptr<TrackerServer>> nodes_;
  std::vector<int> chain_;    // live replica indices, head first
  net::RpcEndpoint ctl_rpc_;  // failover/reconstruction control traffic
  bool rebuilding_ = false;
  std::shared_ptr<sim::ManualEvent> rebuild_done_;
  uint64_t failovers_ = 0;
  sim::SimTime failover_started_ = 0;
  sim::SimTime last_failover_duration_ = 0;
  sim::SimTime last_failover_completed_at_ = 0;
  uint64_t reconstructed_entries_ = 0;
};

}  // namespace switchfs::tracker

#endif  // SRC_TRACKER_REPLICATED_TRACKER_H_
