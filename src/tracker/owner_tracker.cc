#include "src/tracker/owner_tracker.h"

#include <memory>
#include <utility>

namespace switchfs::tracker {

sim::Task<InsertResult> OwnerTracker::Insert(core::ServerContext& ctx,
                                             core::VolPtr v,
                                             psw::Fingerprint fp,
                                             const core::InodeId& dir,
                                             const net::Packet* client_req,
                                             net::MsgPtr client_resp) {
  (void)dir;
  (void)client_req;
  (void)client_resp;
  if (ctx.IsOwner(fp)) {
    v->owner_scattered.insert(fp);
  } else {
    auto msg = std::make_shared<core::MarkScattered>();
    msg->fp = fp;
    auto r = co_await ctx.rpc->Call(ctx.cluster->ServerNode(ctx.OwnerOf(fp)),
                                    msg);
    if (!r.ok()) {
      // The owner never marked the directory scattered, so its next read
      // would skip aggregation: apply the entry synchronously instead.
      co_return InsertResult::kOverflow;
    }
  }
  co_return InsertResult::kPublished;
}

sim::Task<void> OwnerTracker::RemoveAndMulticast(core::ServerContext& ctx,
                                                 core::VolPtr v,
                                                 psw::Fingerprint fp,
                                                 uint64_t seq, net::Packet rm) {
  (void)seq;
  v->owner_scattered.erase(fp);
  rm.ds.origin = ctx.node_id();
  ctx.rpc->Send(std::move(rm));
  co_return;
}

bool OwnerTracker::ReadScattered(const core::ServerContext& ctx,
                                 const core::ServerVolatile& v,
                                 const net::Packet& p,
                                 const core::MetaReq& req,
                                 psw::Fingerprint fp) const {
  (void)ctx;
  (void)p;
  (void)req;
  return v.owner_scattered.count(fp) > 0;
}

sim::Task<void> OwnerTracker::ClientPreRead(net::RpcEndpoint& rpc,
                                            psw::Fingerprint fp,
                                            core::MetaReq& req,
                                            net::CallOptions& opts) {
  (void)rpc;
  (void)fp;
  (void)req;
  (void)opts;
  co_return;  // the owner consults its local state
}

}  // namespace switchfs::tracker
