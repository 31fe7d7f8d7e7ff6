#include "src/net/rpc.h"

#include <cassert>
#include <utility>

namespace switchfs::net {

RpcEndpoint::RpcEndpoint(sim::Simulator* sim, Network* net)
    : sim_(sim), net_(net), id_(net->Register(this)) {}

void RpcEndpoint::ResetVolatileState() {
  pending_.clear();
  dedup_.clear();
  dedup_fifo_.clear();
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
    Send(p);
    sim_->ScheduleAfter(opts.timeout, [slot] { slot->Set(nullptr); });
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

void RpcEndpoint::CacheResponse(const DedupKey& key, MsgPtr resp) {
  auto it = dedup_.find(key);
  if (it == dedup_.end()) {
    return;  // evicted during a long-running handler; nothing to update
  }
  it->second.completed = true;
  it->second.cached_response = std::move(resp);
}

void RpcEndpoint::Respond(const Packet& request, MsgPtr resp,
                          uint32_t size_bytes) {
  CacheResponse(DedupKey{request.rpc.caller, request.rpc.call_id}, resp);
  Send(MakeResponsePacket(request, std::move(resp), size_bytes));
}

void RpcEndpoint::RecordResponse(const Packet& request, MsgPtr resp) {
  CacheResponse(DedupKey{request.rpc.caller, request.rpc.call_id},
                std::move(resp));
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
  const DedupKey key{p.rpc.caller, p.rpc.call_id};
  auto it = dedup_.find(key);
  if (it != dedup_.end()) {
    dup_requests_++;
    if (it->second.completed && it->second.cached_response != nullptr) {
      Send(MakeResponsePacket(p, it->second.cached_response));
    }
    // In-flight duplicates are dropped; the response will reach the caller
    // when the original execution completes.
    return;
  }
  dedup_.emplace(key, DedupEntry{});
  dedup_fifo_.push_back(key);
  while (dedup_fifo_.size() > kMaxDedupEntries) {
    dedup_.erase(dedup_fifo_.front());
    dedup_fifo_.pop_front();
  }
  if (request_handler_) {
    request_handler_(std::move(p));
  }
}

}  // namespace switchfs::net
