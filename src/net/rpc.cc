#include "src/net/rpc.h"

#include <cassert>
#include <utility>

namespace switchfs::net {

RpcEndpoint::RpcEndpoint(sim::Simulator* sim, Network* net)
    : sim_(sim), net_(net), id_(net->Register(this)) {}

void RpcEndpoint::ResetVolatileState() {
  pending_.clear();
  dedup_.clear();
}

size_t RpcEndpoint::completion_records() const {
  size_t n = 0;
  for (const auto& [caller, c] : dedup_) {
    n += c.records.size();
  }
  return n;
}

sim::Task<StatusOr<MsgPtr>> RpcEndpoint::Call(NodeId dst, MsgPtr request,
                                              CallOptions opts) {
  const uint64_t call_id = next_call_id_++;
  Packet p;
  p.src = id_;
  p.dst = dst;
  p.ds = opts.ds;
  p.mc = opts.mc;
  p.rpc = RpcHeader{call_id, id_, /*is_response=*/false};
  p.body = std::move(request);
  // However the call ends (reply, retries exhausted, endpoint down, or the
  // caller's chain cancelled mid-wait), its pending slot goes with it.
  sim::ScopeExit forget([this, call_id] { pending_.erase(call_id); });

  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    if (!enabled_) {
      co_return UnavailableError("caller endpoint down");
    }
    if (attempt > 0) {
      retransmits_++;
    }
    auto slot = std::make_shared<sim::OneShot<MsgPtr>>(sim_);
    pending_[call_id] = PendingCall{slot};
    p.rpc.ended_below = pending_.begin()->first;
    Send(p);
    sim_->ScheduleTimer(opts.timeout, [slot] { slot->Set(nullptr); });
    MsgPtr resp = co_await slot->Wait();
    if (resp != nullptr) {
      co_return resp;
    }
  }
  co_return TimeoutError("rpc retries exhausted");
}

Packet RpcEndpoint::MakeResponsePacket(const Packet& request, MsgPtr resp,
                                       uint32_t size_bytes) const {
  Packet p;
  p.src = id_;
  p.dst = request.rpc.caller;
  p.rpc = RpcHeader{request.rpc.call_id, request.rpc.caller,
                    /*is_response=*/true};
  p.body = std::move(resp);
  p.size_bytes = size_bytes;
  return p;
}

void RpcEndpoint::Respond(const Packet& request, MsgPtr resp,
                          uint32_t size_bytes) {
  RecordResponse(request, resp);
  Send(MakeResponsePacket(request, std::move(resp), size_bytes));
}

void RpcEndpoint::RecordResponse(const Packet& request, MsgPtr resp) {
  auto& records = dedup_[request.rpc.caller].records;
  auto it = records.find(request.rpc.call_id);
  if (it != records.end()) {  // else the caller gave up while we ran
    it->second = std::move(resp);
  }
}

void RpcEndpoint::Send(Packet p) {
  if (!enabled_) {
    return;
  }
  p.src = id_;
  if (cpu_ != nullptr) {
    const sim::SimTime tx = net_->costs()->tx_cost;
    sim::Spawn([](RpcEndpoint* self, Packet pkt, sim::SimTime cost)
                   -> sim::Task<void> {
      co_await self->cpu_->Run(cost);
      if (self->enabled_) {
        self->net_->Send(std::move(pkt));
      }
    }(this, std::move(p), tx));
    return;
  }
  net_->Send(std::move(p));
}

void RpcEndpoint::Notify(NodeId dst, MsgPtr msg, uint32_t size_bytes) {
  Packet p;
  p.src = id_;
  p.dst = dst;
  p.body = std::move(msg);
  p.size_bytes = size_bytes;
  Send(std::move(p));
}

void RpcEndpoint::HandlePacket(Packet p) {
  if (!enabled_) {
    return;
  }
  if (cpu_ != nullptr) {
    sim::Spawn(ChargedDeliver(std::move(p)));
    return;
  }
  DispatchRequest(std::move(p));
}

sim::Task<void> RpcEndpoint::ChargedDeliver(Packet p) {
  co_await cpu_->Run(net_->costs()->rx_cost);
  if (enabled_) {
    DispatchRequest(std::move(p));
  }
}

void RpcEndpoint::DispatchRequest(Packet p) {
  if (p.rpc.is_response) {
    // Response to one of our calls?
    if (p.rpc.caller == id_) {
      auto it = pending_.find(p.rpc.call_id);
      if (it != pending_.end()) {
        it->second.slot->Set(std::move(p.body));
        return;
      }
    }
    // Not ours / already resolved. SwitchFS reuses response packets as
    // dirty-set notifications (insert-ack mirror to the executing server);
    // hand those to the raw handler.
    if (p.has_ds_op() && raw_handler_) {
      raw_handler_(std::move(p));
    }
    return;
  }
  if (p.rpc.call_id == 0) {
    if (raw_handler_) {
      raw_handler_(std::move(p));
    }
    return;
  }
  // Inbound request: duplicate suppression by (caller, call_id), §5.4.1.
  CallerRecords& c = dedup_[p.rpc.caller];
  if (p.rpc.ended_below > c.ended_below) {
    c.ended_below = p.rpc.ended_below;
    c.records.erase(c.records.begin(), c.records.lower_bound(c.ended_below));
  }
  if (p.rpc.call_id < c.ended_below) {
    dup_requests_++;  // a late copy of an ended call: nobody waits for it
    return;
  }
  auto [it, fresh] = c.records.try_emplace(p.rpc.call_id);
  if (!fresh) {
    dup_requests_++;
    if (it->second != nullptr) {
      Send(MakeResponsePacket(p, it->second));
    }
    // In-flight duplicates are dropped; the response will reach the caller
    // when the original execution completes.
    return;
  }
  if (request_handler_) {
    request_handler_(std::move(p));
  }
}

}  // namespace switchfs::net
