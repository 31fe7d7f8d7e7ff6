#include "src/tracker/switch_tracker.h"

#include <memory>
#include <utility>

#include "src/sim/sync.h"

namespace switchfs::tracker {

sim::Task<InsertResult> SwitchTracker::Insert(core::ServerContext& ctx,
                                              core::VolPtr v,
                                              psw::Fingerprint fp,
                                              const core::InodeId& dir,
                                              const net::Packet* client_req,
                                              net::MsgPtr client_resp) {
  core::ChangeLog& clog = v->GetChangeLog(fp, dir);
  const uint64_t token = v->op_token_counter++;
  auto wait = std::make_shared<core::ServerVolatile::OpWait>();
  v->op_waits[token] = wait;

  // The envelope rides the insert packet: on success the switch forwards it
  // to the client (7a) and mirrors it back to us as the release signal (7b);
  // on overflow the address rewriter redirects it — backlog included — to
  // the parent's owner for a synchronous apply (§6.2). Only the packet holds
  // the backlog: the completion record below keeps just `client_resp`.
  auto env = std::make_shared<core::InsertEnvelope>();
  env->client_resp = client_resp;
  env->dir = dir;
  env->fp = fp;
  env->src_server = ctx.config->index;
  env->op_token = token;
  env->backlog.assign(clog.pending().begin(), clog.pending().end());

  net::Packet ins;
  if (client_req != nullptr) {
    ins = ctx.rpc->MakeResponsePacket(*client_req, env);
  } else {
    ins.dst = ctx.node_id();
    ins.body = env;
  }
  ins.ds.op = net::DsOp::kInsert;
  ins.ds.fingerprint = fp;
  ins.ds.origin = ctx.node_id();
  ins.ds.notify = ins.dst;
  ins.ds.alt_dst = ctx.cluster->ServerNode(ctx.OwnerOf(fp));

  int result = 0;
  for (int attempt = 0; attempt < core::kSwitchRoundTripAttempts; ++attempt) {
    if (wait->acked) {
      result = 1;
      break;
    }
    if (wait->fallback_done) {
      result = 2;
      break;
    }
    wait->slot = std::make_shared<sim::OneShot<int>>(ctx.sim);
    ctx.rpc->Send(ins);
    auto slot = wait->slot;
    ctx.sim->ScheduleTimer(core::kSwitchRoundTripTimeout,
                           [slot] { slot->Set(0); });
    result = co_await slot->Wait();
    if (result != 0) {
      break;
    }
  }
  if (result == 0) {
    // Retry budget exhausted without an ack: the entry stays in the
    // change-log and the push path repairs dirty-set visibility; retransmits
    // are served from the completion record below.
    ctx.stats->insert_exhausted++;
  }
  v->op_waits.erase(token);
  if (client_req != nullptr) {
    // From here on, client retransmits get client_resp from the record.
    ctx.rpc->RecordResponse(*client_req, client_resp);
  }
  co_return InsertResult::kDelivered;
}

sim::Task<void> SwitchTracker::RemoveAndMulticast(core::ServerContext& ctx,
                                                  core::VolPtr v,
                                                  psw::Fingerprint fp,
                                                  uint64_t seq, net::Packet rm) {
  (void)v;
  rm.ds.op = net::DsOp::kRemove;
  rm.ds.fingerprint = fp;
  rm.ds.remove_seq = seq;
  rm.ds.origin = ctx.node_id();
  ctx.rpc->Send(std::move(rm));
  co_return;
}

bool SwitchTracker::ReadScattered(const core::ServerContext& ctx,
                                  const core::ServerVolatile& v,
                                  const net::Packet& p,
                                  const core::MetaReq& req,
                                  psw::Fingerprint fp) const {
  (void)ctx;
  (void)v;
  (void)req;
  (void)fp;
  // The switch answered the query in flight and stamped the RET bit.
  return p.ds.op == net::DsOp::kQuery && p.ds.ret;
}

sim::Task<void> SwitchTracker::ClientPreRead(net::RpcEndpoint& rpc,
                                             psw::Fingerprint fp,
                                             core::MetaReq& req,
                                             net::CallOptions& opts) {
  (void)rpc;
  (void)req;
  opts.ds.op = net::DsOp::kQuery;
  opts.ds.fingerprint = fp;
  co_return;
}

}  // namespace switchfs::tracker
