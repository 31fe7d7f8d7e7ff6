// In-network dirty tracker (SwitchFS proper, §5.2.1/§6): inserts ride the
// operation's response packet through the programmable switch, which records
// the fingerprint and multicasts the ack to the client and the executing
// server (7a/7b); overflow redirects the packet to the parent's owner via
// the address rewriter (§6.2). Reads attach a query header the switch
// answers in flight, and removes are stamped onto the aggregation multicast.
#ifndef SRC_TRACKER_SWITCH_TRACKER_H_
#define SRC_TRACKER_SWITCH_TRACKER_H_

#include "src/tracker/dirty_tracker.h"

namespace switchfs::tracker {

class SwitchTracker : public DirtyTracker {
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

#endif  // SRC_TRACKER_SWITCH_TRACKER_H_
