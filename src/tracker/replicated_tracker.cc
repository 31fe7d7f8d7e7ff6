#include "src/tracker/replicated_tracker.h"

#include <algorithm>
#include <utility>

#include "src/tracker/scatter_snapshot.h"

namespace switchfs::tracker {

namespace {

// Per-call budget for tracker ops. Exhausting it against one replica is the
// failure-detection signal, so detection takes about timeout x attempts of
// simulated time.
net::CallOptions OpCall() {
  net::CallOptions o;
  o.timeout = sim::Microseconds(250);
  o.max_attempts = 4;
  return o;
}
// Whole-operation retries around failovers before giving up (an exhausted
// insert falls back to the synchronous parent update, staying correct).
constexpr int kOpRetryRounds = 4;

}  // namespace

ReplicatedTracker::ReplicatedTracker(sim::Simulator* sim, net::Network* net,
                                     core::ClusterContext* cluster,
                                     const sim::CostModel* costs, int replicas)
    : sim_(sim), cluster_(cluster), costs_(costs), ctl_rpc_(sim, net) {
  for (int i = 0; i < replicas; ++i) {
    nodes_.push_back(std::make_unique<TrackerServer>(sim, net, costs));
    chain_.push_back(i);
  }
  RewireChain();
}

void ReplicatedTracker::RewireChain() {
  for (size_t i = 0; i < chain_.size(); ++i) {
    const size_t hops_below = chain_.size() - 1 - i;
    nodes_[chain_[i]]->SetSuccessor(hops_below > 0
                                        ? nodes_[chain_[i + 1]]->node_id()
                                        : net::kInvalidNode);
    // Per-depth forward budgets: a node `h` hops above the tail waits
    // 3 x 40us x (1+h) on its successor, strictly more than the successor's
    // own 3 x 40us x h worst case — so when the tail dies, the chain_fault
    // verdict from the node above it outruns every upstream timeout and the
    // fault is pinned on the dead replica, not a healthy intermediate.
    nodes_[chain_[i]]->SetForwardBudget(
        sim::Microseconds(40 * static_cast<int64_t>(1 + hops_below)), 3);
  }
}

void ReplicatedTracker::SuspectNode(net::NodeId id) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->node_id() == id) {
      SuspectIndex(static_cast<int>(i));
      return;
    }
  }
}

void ReplicatedTracker::SuspectIndex(int idx) {
  if (rebuilding_) {
    return;  // a rebuild is already repairing the chain
  }
  auto it = std::find(chain_.begin(), chain_.end(), idx);
  if (it == chain_.end()) {
    return;  // already evicted
  }
  chain_.erase(it);
  failovers_++;
  StartRebuild();
}

sim::Task<void> ReplicatedTracker::RecoverNode(int i) {
  co_await WaitWhileRebuilding();
  nodes_[i]->Restart();
  if (std::find(chain_.begin(), chain_.end(), i) == chain_.end()) {
    chain_.push_back(i);
  }
  StartRebuild();
  co_await WaitWhileRebuilding();
}

void ReplicatedTracker::StartRebuild() {
  rebuilding_ = true;
  failover_started_ = sim_->Now();
  rebuild_done_ = std::make_shared<sim::ManualEvent>(sim_);
  sim::Spawn(Rebuild());
}

sim::Task<void> ReplicatedTracker::Rebuild() {
  // Health-probe the members before rewiring: a second replica may have
  // died undetected (or die with the suspect), and completing the rebuild
  // with a dead node in the chain would stall every subsequent op until yet
  // another failover round.
  std::vector<int> survivors;
  for (int i : chain_) {
    auto ping = std::make_shared<core::TrackerOp>();
    ping->op = net::DsOp::kQuery;
    net::CallOptions opts;
    opts.timeout = sim::Microseconds(100);
    opts.max_attempts = 3;
    auto r = co_await ctl_rpc_.Call(nodes_[i]->node_id(), ping, opts);
    if (r.ok()) {
      survivors.push_back(i);
    }
  }
  chain_ = std::move(survivors);
  RewireChain();
  // Members restart from empty: partially propagated writes and per-origin
  // remove-sequence state may diverge across replicas (and a rejoining
  // replica holds nothing), so the set is rebuilt from the single source of
  // truth — the servers' pending change-logs. An empty chain has nowhere to
  // install it.
  for (int i : chain_) {
    nodes_[i]->dirty_set().Clear();
  }
  if (!chain_.empty()) {
    auto fps = co_await CollectScatteredFingerprints(ctl_rpc_, *cluster_);
    for (int i : chain_) {
      for (psw::Fingerprint fp : fps) {
        nodes_[i]->dirty_set().Insert(fp);
      }
    }
    reconstructed_entries_ += fps.size();
    // Charge the reinstall traffic: one tracker packet per entry per replica.
    co_await sim::Delay(sim_, static_cast<sim::SimTime>(fps.size()) *
                                  static_cast<sim::SimTime>(chain_.size()) *
                                  costs_->tracker_packet_cost);
  }
  last_failover_duration_ = sim_->Now() - failover_started_;
  last_failover_completed_at_ = sim_->Now();
  rebuilding_ = false;
  rebuild_done_->Set();
}

sim::Task<void> ReplicatedTracker::WaitWhileRebuilding() {
  while (rebuilding_) {
    auto done = rebuild_done_;
    co_await done->Wait();
  }
}

sim::Task<net::MsgPtr> ReplicatedTracker::CallHeadWithFailover(
    core::ServerContext& ctx, std::shared_ptr<core::TrackerOp> op) {
  for (int round = 0; round < kOpRetryRounds; ++round) {
    if (rebuilding_) {
      co_await WaitWhileRebuilding();
    }
    const int head = head_index();
    if (head < 0) {
      break;  // every replica is down
    }
    auto r = co_await ctx.rpc->Call(nodes_[head]->node_id(), op, OpCall());
    if (!r.ok()) {
      SuspectIndex(head);
      continue;
    }
    const auto* resp = net::MsgAs<core::TrackerResp>(*r);
    if (resp == nullptr) {
      continue;
    }
    if (resp->chain_fault) {
      SuspectNode(resp->fault_node);
      continue;
    }
    co_return *r;
  }
  co_return nullptr;
}

sim::Task<InsertResult> ReplicatedTracker::Insert(core::ServerContext& ctx,
                                                  core::VolPtr v,
                                                  psw::Fingerprint fp,
                                                  const core::InodeId& dir,
                                                  const net::Packet* client_req,
                                                  net::MsgPtr client_resp) {
  (void)v;
  (void)dir;
  (void)client_req;
  (void)client_resp;
  auto op = std::make_shared<core::TrackerOp>();
  op->op = net::DsOp::kInsert;
  op->fp = fp;
  op->origin_server = ctx.config->index;
  net::MsgPtr r = co_await CallHeadWithFailover(ctx, op);
  const auto* resp = net::MsgAs<core::TrackerResp>(r);
  if (resp == nullptr || !resp->ok) {
    // Chain unavailable within the retry budget, or a genuine dirty-set
    // overflow: the synchronous fallback keeps the update visible without
    // the tracker.
    co_return InsertResult::kOverflow;
  }
  co_return InsertResult::kPublished;
}

sim::Task<void> ReplicatedTracker::RemoveAndMulticast(core::ServerContext& ctx,
                                                      core::VolPtr v,
                                                      psw::Fingerprint fp,
                                                      uint64_t seq,
                                                      net::Packet rm) {
  (void)v;
  auto op = std::make_shared<core::TrackerOp>();
  op->op = net::DsOp::kRemove;
  op->fp = fp;
  op->remove_seq = seq;
  op->origin_server = ctx.config->index;
  // ok=false without chain_fault means the remove was stale — either way
  // the entry is gone downstream, and on total failure the aggregation
  // proceeds regardless: a leftover tracker entry only costs one spurious
  // aggregation on a later read.
  net::MsgPtr r = co_await CallHeadWithFailover(ctx, op);
  (void)r;
  rm.ds.origin = ctx.node_id();
  ctx.rpc->Send(std::move(rm));
}

bool ReplicatedTracker::ReadScattered(const core::ServerContext& ctx,
                                      const core::ServerVolatile& v,
                                      const net::Packet& p,
                                      const core::MetaReq& req,
                                      psw::Fingerprint fp) const {
  (void)ctx;
  (void)v;
  (void)p;
  (void)fp;
  // While the set is being reconstructed a "fresh" hint cannot be trusted.
  return req.scattered_hint || rebuilding_;
}

sim::Task<void> ReplicatedTracker::ClientPreRead(net::RpcEndpoint& rpc,
                                                 psw::Fingerprint fp,
                                                 core::MetaReq& req,
                                                 net::CallOptions& opts) {
  (void)opts;
  if (rebuilding_) {
    req.scattered_hint = true;  // conservative: forces the aggregation path
    co_return;
  }
  const int tail = tail_index();
  if (tail < 0) {
    req.scattered_hint = true;
    co_return;
  }
  auto q = std::make_shared<core::TrackerOp>();
  q->op = net::DsOp::kQuery;
  q->fp = fp;
  auto r = co_await rpc.Call(nodes_[tail]->node_id(), q, OpCall());
  const auto* resp = r.ok() ? net::MsgAs<core::TrackerResp>(*r) : nullptr;
  if (resp == nullptr) {
    SuspectIndex(tail);
    req.scattered_hint = true;
    co_return;
  }
  req.scattered_hint = resp->present;
}

}  // namespace switchfs::tracker
