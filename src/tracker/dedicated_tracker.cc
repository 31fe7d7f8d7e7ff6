#include "src/tracker/dedicated_tracker.h"

#include <memory>
#include <utility>

#include "src/sim/sync.h"
#include "src/tracker/scatter_snapshot.h"

namespace switchfs::tracker {

sim::Task<InsertResult> DedicatedTracker::Insert(core::ServerContext& ctx,
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
  auto r = co_await ctx.rpc->Call(server_->node_id(), op);
  const auto* resp = r.ok() ? net::MsgAs<core::TrackerResp>(*r) : nullptr;
  if (resp == nullptr || !resp->ok) {
    // Overflow — or an unreachable tracker, which degrades the same way.
    co_return InsertResult::kOverflow;
  }
  co_return InsertResult::kPublished;
}

sim::Task<void> DedicatedTracker::RemoveAndMulticast(core::ServerContext& ctx,
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
  auto r = co_await ctx.rpc->Call(server_->node_id(), op);
  (void)r;  // stale removes and tracker outages both resolve conservatively
  rm.ds.origin = ctx.node_id();  // multicast exclusion key
  ctx.rpc->Send(std::move(rm));
}

bool DedicatedTracker::ReadScattered(const core::ServerContext& ctx,
                                     const core::ServerVolatile& v,
                                     const net::Packet& p,
                                     const core::MetaReq& req,
                                     psw::Fingerprint fp) const {
  (void)ctx;
  (void)v;
  (void)p;
  (void)fp;
  return req.scattered_hint;
}

sim::Task<void> DedicatedTracker::ClientPreRead(net::RpcEndpoint& rpc,
                                                psw::Fingerprint fp,
                                                core::MetaReq& req,
                                                net::CallOptions& opts) {
  // Extra RTT to the tracker before the request proper (Fig 15a).
  auto q = std::make_shared<core::TrackerOp>();
  q->op = net::DsOp::kQuery;
  q->fp = fp;
  net::CallOptions topts = opts;
  topts.ds = net::DsHeader{};
  auto tr = co_await rpc.Call(server_->node_id(), q, topts);
  req.scattered_hint = tr.ok() &&
                       net::MsgAs<core::TrackerResp>(*tr) != nullptr &&
                       net::MsgAs<core::TrackerResp>(*tr)->present;
}

sim::Task<void> DedicatedTracker::RecoverAndRebuild() {
  server_->Restart();
  auto fps = co_await CollectScatteredFingerprints(ctl_rpc_, *cluster_);
  for (psw::Fingerprint fp : fps) {
    server_->dirty_set().Insert(fp);
  }
  reconstructed_entries_ += fps.size();
  // Charge the reinstall cost (one tracker-packet worth per entry).
  co_await sim::Delay(sim_, static_cast<sim::SimTime>(fps.size()) *
                                costs_->tracker_packet_cost);
}

}  // namespace switchfs::tracker
