// Owner-tracked dirty state (§7.3.3, Fig 16): each directory's owner keeps a
// local scattered set (ServerVolatile::owner_scattered). Non-owner inserts
// cost one MarkScattered RPC to the owner; reads consult the owner's local
// set for free; removes erase locally during the owner-run aggregation. An
// insert whose MarkScattered call fails returns kOverflow, so the writer
// applies the entry synchronously instead of leaving it unmarked.
#ifndef SRC_TRACKER_OWNER_TRACKER_H_
#define SRC_TRACKER_OWNER_TRACKER_H_

#include "src/tracker/dirty_tracker.h"

namespace switchfs::tracker {

class OwnerTracker : public DirtyTracker {
 public:
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
};

}  // namespace switchfs::tracker

#endif  // SRC_TRACKER_OWNER_TRACKER_H_
