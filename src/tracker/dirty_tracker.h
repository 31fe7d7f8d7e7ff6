// Pluggable dirty-set tracker subsystem (paper §7.3.3): where "directory X
// has deferred updates scattered across servers" is tracked is an
// exchangeable component. This interface hides the tracker choice — the
// in-network switch dirty set, the directory owner itself, or the tracker
// service (ReplicatedTracker: a chain of tracker servers, one replica for
// the dedicated tracker of Fig 15, three for the replicated group) — behind
// four hooks that correspond to the protocol's touch points:
//
//   Insert          §5.2.1 steps 6/7: after a deferred update commits, mark
//                   the parent scattered and wait for the acknowledgement
//                   (or the overflow signal that forces a synchronous apply).
//   RemoveAndMulticast
//                   §5.2.2 step 5: atomically-enough remove the fingerprint
//                   (with the §5.4.1 sequence number) and multicast the
//                   aggregation collect request to the server group.
//   ReadScattered   §5.2.2 step 1: owner-side test "is this directory in
//                   scattered state?" for an incoming directory read.
//   ClientPreRead   §4.2: what a client does before a directory read — stamp
//                   the in-network query header, or pre-query the tracker
//                   service and forward the bit as `scattered_hint`.
//
// Implementations are shared cluster-wide and stateless with respect to the
// calling server: every server-side hook receives the caller's ServerContext
// and volatile state, so one tracker object serves all servers and clients.
#ifndef SRC_TRACKER_DIRTY_TRACKER_H_
#define SRC_TRACKER_DIRTY_TRACKER_H_

#include "src/core/messages.h"
#include "src/core/server_context.h"
#include "src/net/packet.h"
#include "src/net/rpc.h"
#include "src/sim/task.h"

namespace switchfs::tracker {

// Outcome of publishing a deferred update through the tracker.
enum class InsertResult {
  // The tracker recorded the fingerprint; the caller still owes the client
  // its response.
  kPublished,
  // The tracker recorded the fingerprint AND the response was (or will be)
  // delivered in-band — the switch's insert-ack multicast carries it, or the
  // overflow redirect completed the operation at the parent's owner.
  kDelivered,
  // The tracker is full or unreachable: the caller must fall back to a
  // synchronous parent update (§5.2.1 fallback), then respond itself.
  kOverflow,
};

class DirtyTracker {
 public:
  virtual ~DirtyTracker() = default;

  // --- server side (runs inside the calling server's coroutines) ---

  // Marks `fp` scattered on behalf of `dir`'s deferred update and waits for
  // the acknowledgement. `client_req` non-null: the operation has a waiting
  // client whose `client_resp` may be delivered in-band (see InsertResult);
  // null: internal update (rename/link legs), acks return to the server only.
  virtual sim::Task<InsertResult> Insert(core::ServerContext& ctx,
                                         core::VolPtr v, psw::Fingerprint fp,
                                         const core::InodeId& dir,
                                         const net::Packet* client_req,
                                         net::MsgPtr client_resp) = 0;

  // Removes `fp` with remove-sequence `seq` (§5.4.1 duplicate protection)
  // and sends the prepared aggregation multicast `rm` (dst/body already set;
  // implementations stamp the dirty-set header or contact the tracker
  // service first, then send).
  virtual sim::Task<void> RemoveAndMulticast(core::ServerContext& ctx,
                                             core::VolPtr v,
                                             psw::Fingerprint fp, uint64_t seq,
                                             net::Packet rm) = 0;

  // Owner-side scattered test for the directory read in packet `p`.
  virtual bool ReadScattered(const core::ServerContext& ctx,
                             const core::ServerVolatile& v,
                             const net::Packet& p, const core::MetaReq& req,
                             psw::Fingerprint fp) const = 0;

  // --- client side ---

  // Pre-read hook: runs on `rpc` (the client's endpoint) before the read is
  // sent. `opts` are the read's call options (query header target); `req` is
  // the read request (scattered_hint target). Implementations needing an
  // extra tracker RTT derive their call options from `opts`.
  virtual sim::Task<void> ClientPreRead(net::RpcEndpoint& rpc,
                                        psw::Fingerprint fp,
                                        core::MetaReq& req,
                                        net::CallOptions& opts) = 0;
};

}  // namespace switchfs::tracker

#endif  // SRC_TRACKER_DIRTY_TRACKER_H_
