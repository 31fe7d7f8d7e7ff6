// Coroutine RPC endpoint over the simulated UDP fabric.
//
// Faithful to the paper's transport (§5.4.1, §7.1): UDP with client-side
// timeout/retransmission; receivers suppress duplicate requests by the
// (caller, call_id) tuple and replay cached responses; responses may be
// delivered out-of-band (SwitchFS's insert-ack multicast carries the create
// response through the switch rather than from the executing server).
// A completion record (the response to replay, null while in flight) lives
// only while its caller can still retransmit: a request carries the caller's
// lowest pending call id (RpcHeader::ended_below), and the receiver erases
// that caller's records below it and drops requests below it as late copies.
// Call ids only grow per NodeId, so one NodeId must name one endpoint.
#ifndef SRC_NET_RPC_H_
#define SRC_NET_RPC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "src/common/status.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/sim/cpu.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::net {

struct CallOptions {
  sim::SimTime timeout = sim::Microseconds(100);
  int max_attempts = 8;
  // Optional dirty-set operation header stamped on every attempt's packet
  // (SwitchFS directory reads attach a kQuery the switch answers in-flight).
  DsHeader ds;
  // Optional metadata-cache header (lookup/stat reads attach a kRead the
  // switch may answer from its register cache without reaching the owner).
  CacheHeader mc;
};

class RpcEndpoint : public Node {
 public:
  // Invoked for deduplicated inbound requests. The handler owns replying,
  // via Respond() (direct) or RecordResponse() (out-of-band delivery).
  using RequestHandler = std::function<void(Packet)>;
  // Invoked for non-RPC packets (dirty-set notifications, one-way signals).
  using RawHandler = std::function<void(Packet)>;

  RpcEndpoint(sim::Simulator* sim, Network* net);
  ~RpcEndpoint() override = default;

  NodeId id() const { return id_; }
  sim::Simulator* simulator() const { return sim_; }
  Network* network() const { return net_; }

  void SetRequestHandler(RequestHandler h) { request_handler_ = std::move(h); }
  void SetRawHandler(RawHandler h) { raw_handler_ = std::move(h); }
  // When set, rx/tx packet-processing costs are charged to this CPU pool.
  void SetCpu(sim::CpuPool* cpu) { cpu_ = cpu; }
  // Disabled endpoints drop all traffic (crashed / recovering node).
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  // Drops completion records and pending-call state (crash wipes DRAM).
  void ResetVolatileState();

  // --- client side ---
  sim::Task<StatusOr<MsgPtr>> Call(NodeId dst, MsgPtr request,
                                   CallOptions opts = CallOptions{});

  // --- server side ---
  // Sends `resp` to the caller of `request` and caches it for retransmits.
  void Respond(const Packet& request, MsgPtr resp, uint32_t size_bytes = 128);
  // Caches `resp` for retransmits without sending (the first copy was
  // delivered out-of-band, e.g. via the switch insert-ack multicast).
  void RecordResponse(const Packet& request, MsgPtr resp);
  // Builds the response packet for `request` without sending or caching
  // (used to hand the pre-built response to the switch data plane).
  Packet MakeResponsePacket(const Packet& request, MsgPtr resp,
                            uint32_t size_bytes = 128) const;

  // --- raw sends (dirty-set ops, one-way notifications) ---
  void Send(Packet p);
  // Convenience: one-way message (no call id, handled by the raw handler).
  void Notify(NodeId dst, MsgPtr msg, uint32_t size_bytes = 128);

  void HandlePacket(Packet p) override;

  uint64_t duplicate_requests_seen() const { return dup_requests_; }
  // Completion records held, in flight or completed, across all callers.
  size_t completion_records() const;
  uint64_t retransmits_sent() const { return retransmits_; }

 private:
  struct PendingCall {
    std::shared_ptr<sim::OneShot<MsgPtr>> slot;
  };
  // One caller's completion records, by call_id: the response to replay,
  // null while the handler runs. Calls below ended_below have ended.
  struct CallerRecords {
    uint64_t ended_below = 0;
    std::map<uint64_t, MsgPtr> records;
  };

  void DispatchRequest(Packet p);
  sim::Task<void> ChargedDeliver(Packet p);

  sim::Simulator* sim_;
  Network* net_;
  NodeId id_;
  sim::CpuPool* cpu_ = nullptr;
  bool enabled_ = true;

  RequestHandler request_handler_;
  RawHandler raw_handler_;

  uint64_t next_call_id_ = 1;
  std::map<uint64_t, PendingCall> pending_;  // ordered: begin() is the mark

  std::unordered_map<NodeId, CallerRecords> dedup_;

  uint64_t dup_requests_ = 0;
  uint64_t retransmits_ = 0;
};

}  // namespace switchfs::net

#endif  // SRC_NET_RPC_H_
