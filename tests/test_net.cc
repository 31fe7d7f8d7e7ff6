// Tests for the simulated network fabric and the RPC layer: delivery
// latency, multicast expansion, fault injection, retransmission, duplicate
// suppression, completion-record lifetime, and out-of-band response caching.
#include <gtest/gtest.h>

#include <vector>

#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/net/rpc.h"
#include "src/sim/costs.h"
#include "src/sim/simulator.h"

namespace switchfs::net {
namespace {

struct PingMsg : Message {
  static constexpr uint32_t kType = 9001;
  explicit PingMsg(int v) : Message(kType), value(v) {}
  int value;
};

struct PongMsg : Message {
  static constexpr uint32_t kType = 9002;
  explicit PongMsg(int v) : Message(kType), value(v) {}
  int value;
};

class Harness {
 public:
  Harness() : costs_(), net_(&sim_, &costs_, /*seed=*/42), sw_(costs_.plain_switch_delay) {
    costs_.link_jitter = 0;  // deterministic latency for timing assertions
    net_.SetSwitch(&sw_);
  }

  sim::Simulator sim_;
  sim::CostModel costs_;
  Network net_;
  PlainSwitch sw_;
};

class Sink : public Node {
 public:
  void HandlePacket(Packet p) override { received.push_back(std::move(p)); }
  std::vector<Packet> received;
};

TEST(Network, DeliversThroughSwitchWithExpectedLatency) {
  Harness h;
  Sink a;
  Sink b;
  NodeId ida = h.net_.Register(&a);
  NodeId idb = h.net_.Register(&b);
  (void)ida;

  Packet p;
  p.src = ida;
  p.dst = idb;
  h.net_.Send(p);
  h.sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(a.received.empty());
  // link + switch + link
  EXPECT_EQ(h.sim_.Now(),
            2 * h.costs_.link_latency + h.costs_.plain_switch_delay);
}

TEST(Network, ServerMulticastExpandsToGroupExceptOrigin) {
  Harness h;
  Sink s0;
  Sink s1;
  Sink s2;
  NodeId i0 = h.net_.Register(&s0);
  NodeId i1 = h.net_.Register(&s1);
  NodeId i2 = h.net_.Register(&s2);
  h.sw_.SetServerGroup({i0, i1, i2});

  Packet p;
  p.src = i0;
  p.dst = kServerMulticast;
  p.ds.op = DsOp::kRemove;
  p.ds.origin = i0;
  h.net_.Send(p);
  h.sim_.Run();
  EXPECT_TRUE(s0.received.empty());
  EXPECT_EQ(s1.received.size(), 1u);
  EXPECT_EQ(s2.received.size(), 1u);
}

TEST(Network, LossDropsPackets) {
  Harness h;
  Sink a;
  Sink b;
  NodeId ida = h.net_.Register(&a);
  NodeId idb = h.net_.Register(&b);
  h.net_.SetFaults({.loss_probability = 0.5});
  for (int i = 0; i < 1000; ++i) {
    Packet p;
    p.src = ida;
    p.dst = idb;
    h.net_.Send(p);
  }
  h.sim_.Run();
  // Two hops at 50% each => ~25% delivery.
  EXPECT_GT(b.received.size(), 150u);
  EXPECT_LT(b.received.size(), 400u);
  EXPECT_GT(h.net_.stats().packets_dropped, 0u);
}

TEST(Network, DuplicationDeliversExtraCopies) {
  Harness h;
  Sink a;
  Sink b;
  NodeId ida = h.net_.Register(&a);
  NodeId idb = h.net_.Register(&b);
  h.net_.SetFaults({.duplicate_probability = 0.5});
  for (int i = 0; i < 500; ++i) {
    Packet p;
    p.src = ida;
    p.dst = idb;
    h.net_.Send(p);
  }
  h.sim_.Run();
  EXPECT_GT(b.received.size(), 600u);  // ~500 * (1.5)^2 hops-ish
  EXPECT_GT(h.net_.stats().packets_duplicated, 0u);
}

TEST(Network, SwitchDownDropsEverything) {
  Harness h;
  Sink a;
  Sink b;
  NodeId ida = h.net_.Register(&a);
  NodeId idb = h.net_.Register(&b);
  h.net_.SetSwitchDown(true);
  Packet p;
  p.src = ida;
  p.dst = idb;
  h.net_.Send(p);
  h.sim_.Run();
  EXPECT_TRUE(b.received.empty());
}

// --- RPC tests ---

class RpcHarness : public Harness {
 public:
  RpcHarness() : client_(&sim_, &net_), server_(&sim_, &net_) {
    server_.SetRequestHandler([this](Packet p) {
      requests_seen_++;
      auto* ping = MsgAs<PingMsg>(p.body);
      ASSERT_NE(ping, nullptr);
      server_.Respond(p, MakeMsg<PongMsg>(ping->value * 2));
    });
  }

  RpcEndpoint client_;
  RpcEndpoint server_;
  int requests_seen_ = 0;
};

TEST(Rpc, BasicCallResponse) {
  RpcHarness h;
  StatusOr<MsgPtr> result = NotFoundError();
  sim::Spawn([](RpcHarness* h, StatusOr<MsgPtr>* out) -> sim::Task<void> {
    *out = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(21));
  }(&h, &result));
  h.sim_.Run();
  ASSERT_TRUE(result.ok());
  const auto* pong = MsgAs<PongMsg>(*result);
  ASSERT_NE(pong, nullptr);
  EXPECT_EQ(pong->value, 42);
}

TEST(Rpc, RetransmitsUntilResponseUnderLoss) {
  RpcHarness h;
  h.net_.SetFaults({.loss_probability = 0.4});
  int ok_count = 0;
  constexpr int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) {
    sim::Spawn([](RpcHarness* h, int* ok) -> sim::Task<void> {
      CallOptions opts;
      opts.timeout = sim::Microseconds(20);
      opts.max_attempts = 30;
      auto r = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(1), opts);
      if (r.ok()) {
        (*ok)++;
      }
    }(&h, &ok_count));
  }
  h.sim_.Run();
  EXPECT_EQ(ok_count, kCalls);
  EXPECT_GT(h.client_.retransmits_sent(), 0u);
}

TEST(Rpc, DuplicateRequestsAreSuppressed) {
  RpcHarness h;
  h.net_.SetFaults({.duplicate_probability = 0.6});
  int ok_count = 0;
  constexpr int kCalls = 40;
  for (int i = 0; i < kCalls; ++i) {
    sim::Spawn([](RpcHarness* h, int* ok) -> sim::Task<void> {
      auto r = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(1));
      if (r.ok()) {
        (*ok)++;
      }
    }(&h, &ok_count));
  }
  h.sim_.Run();
  EXPECT_EQ(ok_count, kCalls);
  // The handler must have run exactly once per logical call even though the
  // network injected duplicates.
  EXPECT_EQ(h.requests_seen_, kCalls);
  EXPECT_GT(h.server_.duplicate_requests_seen(), 0u);
}

TEST(Rpc, LateCopyOfEndedCallNeverRerunsHandler) {
  // Enough calls to push the first out of a 65,536-entry cache: only the
  // caller's mark, not a size cap, can recognize its late copy.
  constexpr int kCalls = (1 << 16) + 2;
  Harness h;
  RpcEndpoint client(&h.sim_, &h.net_);
  RpcEndpoint server(&h.sim_, &h.net_);
  int handler_runs = 0;
  Packet first;
  server.SetRequestHandler([&](Packet p) {
    if (handler_runs++ == 0) {
      first = p;
    }
    server.Respond(p, MakeMsg<PongMsg>(0));
  });
  int ok = 0;
  sim::Spawn([](RpcEndpoint* c, RpcEndpoint* s, int* ok) -> sim::Task<void> {
    for (int i = 0; i < kCalls; ++i) {
      auto r = co_await c->Call(s->id(), MakeMsg<PingMsg>(i));
      *ok += r.ok() ? 1 : 0;
    }
  }(&client, &server, &ok));
  h.sim_.Run();
  ASSERT_EQ(ok, kCalls);
  ASSERT_EQ(handler_runs, kCalls);
  ASSERT_EQ(first.rpc.call_id, 1u);

  const uint64_t delivered = h.net_.stats().packets_delivered;
  client.Send(first);
  h.sim_.Run();
  EXPECT_EQ(handler_runs, kCalls);
  // Only the late copy itself arrived: the server sent nothing back.
  EXPECT_EQ(h.net_.stats().packets_delivered, delivered + 1);
  EXPECT_EQ(server.duplicate_requests_seen(), 1u);
}

TEST(Rpc, CompletionRecordsAreBoundedByCallsInFlight) {
  RpcHarness h;
  int ok = 0;
  sim::Spawn([](RpcHarness* h, int* ok) -> sim::Task<void> {
    for (int i = 0; i < 1000; ++i) {
      auto r = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(i));
      *ok += r.ok() ? 1 : 0;
    }
  }(&h, &ok));
  h.sim_.Run();
  ASSERT_EQ(ok, 1000);
  EXPECT_LE(h.server_.completion_records(), 1u);

  // K calls parked in a handler that has not replied: one record each.
  constexpr int kParked = 5;
  h.server_.SetRequestHandler([](Packet) {});
  for (int i = 0; i < kParked; ++i) {
    sim::Spawn([](RpcHarness* h) -> sim::Task<void> {
      co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(0));
    }(&h));
  }
  // Before the first timeout (CallOptions' default 100 us) fires.
  h.sim_.RunUntil(h.sim_.Now() + sim::Microseconds(50));
  EXPECT_EQ(h.server_.completion_records(), static_cast<size_t>(kParked));
  h.sim_.Run();
}

TEST(Rpc, CallTimesOutAgainstDeadServer) {
  RpcHarness h;
  h.server_.SetEnabled(false);
  Status status = OkStatus();
  sim::Spawn([](RpcHarness* h, Status* out) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Microseconds(10);
    opts.max_attempts = 3;
    auto r = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(1), opts);
    *out = r.status();
  }(&h, &status));
  h.sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
}

TEST(Rpc, OutOfBandResponseSatisfiesRetransmittedRequest) {
  // Models SwitchFS's create flow: the server records the response without
  // sending it (first copy rides the switch multicast, which we drop here);
  // the client's retransmit is then answered from the completion record.
  Harness h;
  RpcEndpoint client(&h.sim_, &h.net_);
  RpcEndpoint server(&h.sim_, &h.net_);
  int handler_runs = 0;
  server.SetRequestHandler([&](Packet p) {
    handler_runs++;
    server.RecordResponse(p, MakeMsg<PongMsg>(7));  // no packet sent
  });
  StatusOr<MsgPtr> result = NotFoundError();
  sim::Spawn([](RpcEndpoint* c, RpcEndpoint* s,
                StatusOr<MsgPtr>* out) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Microseconds(15);
    opts.max_attempts = 5;
    *out = co_await c->Call(s->id(), MakeMsg<PingMsg>(1), opts);
  }(&client, &server, &result));
  h.sim_.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(MsgAs<PongMsg>(*result)->value, 7);
  EXPECT_EQ(handler_runs, 1);
}

TEST(Rpc, NotifyReachesRawHandler) {
  Harness h;
  RpcEndpoint a(&h.sim_, &h.net_);
  RpcEndpoint b(&h.sim_, &h.net_);
  int raw_count = 0;
  b.SetRawHandler([&](Packet p) {
    EXPECT_NE(MsgAs<PingMsg>(p.body), nullptr);
    raw_count++;
  });
  a.Notify(b.id(), MakeMsg<PingMsg>(5));
  h.sim_.Run();
  EXPECT_EQ(raw_count, 1);
}

TEST(Rpc, CpuChargingSerializesPacketProcessing) {
  Harness h;
  sim::CpuPool cpu(&h.sim_, 1);
  RpcEndpoint client(&h.sim_, &h.net_);
  RpcEndpoint server(&h.sim_, &h.net_);
  server.SetCpu(&cpu);
  server.SetRequestHandler(
      [&](Packet p) { server.Respond(p, MakeMsg<PongMsg>(0)); });
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    sim::Spawn([](RpcEndpoint* c, RpcEndpoint* s, int* d) -> sim::Task<void> {
      auto r = co_await c->Call(s->id(), MakeMsg<PingMsg>(1));
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        (*d)++;
      }
    }(&client, &server, &done));
  }
  h.sim_.Run();
  EXPECT_EQ(done, 10);
  // 10 requests * (rx + tx) on one core.
  EXPECT_EQ(cpu.busy_time(), 10 * (h.costs_.rx_cost + h.costs_.tx_cost));
}

}  // namespace
}  // namespace switchfs::net
