// Unit tests for the tracker subsystem (src/tracker/): each tracker
// implementation is driven against a bare ServerContext on a simulated
// network — no Cluster, no SwitchFsClient — covering the ROADMAP fault
// paths (insert-ack retry exhaustion, tracker overflow) plus the tracker
// chain's propagation, lazy failure detection, and dirty-set
// reconstruction.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/core/keys.h"
#include "src/tracker/replicated_tracker.h"
#include "src/tracker/switch_tracker.h"
#include "src/tracker/tracker_server.h"

namespace switchfs::tracker {
namespace {

class OneServerCluster : public core::ClusterContext {
 public:
  OneServerCluster() { ring_.AddServer(0); }
  void SetNode(net::NodeId n) { node_ = n; }
  const core::HashRing& ring() const override { return ring_; }
  net::NodeId ServerNode(uint32_t) const override { return node_; }
  uint32_t ServerCount() const override { return 1; }

 private:
  core::HashRing ring_;
  net::NodeId node_ = net::kInvalidNode;
};

// One metadata server's context over a plain L2 fabric, with a request
// handler that answers ScatteredSnapshotReq from the harness's change-logs
// (what tracker reconstruction collects).
class TrackerHarness {
 public:
  TrackerHarness()
      : net(&sim, &costs, /*seed=*/11),
        sw(costs.plain_switch_delay),
        cpu(&sim, config.cores),
        rpc(&sim, &net),
        vol(std::make_shared<core::ServerVolatile>(&sim)) {
    net.SetSwitch(&sw);
    sw.SetServerGroup({rpc.id()});
    cluster.SetNode(rpc.id());
    ctx = core::ServerContext{&sim,    &net, &cluster, &durable, &costs,
                              &config, &cpu, &rpc,     &stats,   nullptr};
    rpc.SetRequestHandler([this](net::Packet p) {
      if (p.body != nullptr && p.body->type == core::ScatteredSnapshotReq::kType) {
        auto resp = std::make_shared<core::ScatteredSnapshotResp>();
        resp->fps = vol->ScatteredFingerprints();
        rpc.Respond(p, resp);
      }
    });
  }

  // Appends a pending change-log entry so `fp` counts as scattered.
  void AddPendingEntry(psw::Fingerprint fp, uint64_t tag) {
    core::InodeId dir;
    dir.w[0] = tag;
    dir.w[3] = 2;
    core::ChangeLogEntry e;
    e.seq = 1;
    e.op = core::OpType::kCreate;
    e.name = "f";
    e.entry_type = core::FileType::kFile;
    e.size_delta = 1;
    vol->GetChangeLog(fp, dir).Restore(std::move(e));
  }

  InsertResult RunInsert(DirtyTracker& tracker, psw::Fingerprint fp) {
    InsertResult out = InsertResult::kPublished;
    core::InodeId dir;
    dir.w[0] = 1;
    dir.w[3] = 2;
    sim::Spawn([](DirtyTracker* t, TrackerHarness* h, psw::Fingerprint f,
                  core::InodeId d, InsertResult* o) -> sim::Task<void> {
      *o = co_await t->Insert(h->ctx, h->vol, f, d, nullptr, nullptr);
    }(&tracker, this, fp, dir, &out));
    sim.Run();
    return out;
  }

  sim::Simulator sim;
  sim::CostModel costs;
  net::Network net;
  net::PlainSwitch sw;
  core::ServerConfig config;
  core::DurableState durable;
  sim::CpuPool cpu;
  net::RpcEndpoint rpc;
  core::ServerStats stats;
  OneServerCluster cluster;
  core::ServerContext ctx;
  core::VolPtr vol;
};

// ROADMAP fault path: with nothing acking in-network inserts (plain switch,
// no data plane), the insert-ack retry budget runs out (after
// kSwitchRoundTripAttempts x kSwitchRoundTripTimeout, 15 ms of simulated
// time); the operation still completes (push path repairs visibility) and
// the wait state is cleaned up.
TEST(SwitchTrackerTest, InsertAckRetryExhaustionIsCountedAndCleanedUp) {
  TrackerHarness h;
  SwitchTracker tracker;
  const InsertResult r = h.RunInsert(tracker, /*fp=*/1234);
  EXPECT_EQ(r, InsertResult::kDelivered);
  EXPECT_EQ(h.stats.insert_exhausted, 1u);
  EXPECT_TRUE(h.vol->op_waits.empty());
}

// ROADMAP fault path: a full dedicated tracker (the one-replica chain)
// signals overflow, which the server turns into the synchronous-update
// fallback (§7.3.2 analog).
TEST(DedicatedTrackerTest, OverflowSignalsSynchronousFallback) {
  TrackerHarness h;
  ReplicatedTracker tracker(&h.sim, &h.net, &h.cluster, &h.costs,
                            /*replicas=*/1);
  tracker.node(0).SetForceInsertOverflow(true);
  EXPECT_EQ(h.RunInsert(tracker, 77), InsertResult::kOverflow);
  tracker.node(0).SetForceInsertOverflow(false);
  EXPECT_EQ(h.RunInsert(tracker, 77), InsertResult::kPublished);
  EXPECT_TRUE(tracker.node(0).dirty_set().Query(77));
  EXPECT_EQ(tracker.failovers(), 0u);
}

// Satellite regression: a malformed / unknown-op packet must get an
// ok=false reply, not a silent drop that leaves the caller retransmitting.
TEST(TrackerServerTest, RepliesOkFalseToMalformedPackets) {
  TrackerHarness h;
  TrackerServer server(&h.sim, &h.net, &h.costs);
  Status status = InternalError("not run");
  bool ok_field = true;
  sim::Spawn([](TrackerHarness* hh, net::NodeId dst, Status* st,
                bool* ok) -> sim::Task<void> {
    net::CallOptions opts;
    opts.timeout = sim::Microseconds(200);
    opts.max_attempts = 3;
    auto r = co_await hh->rpc.Call(dst, net::MakeMsg<core::Ack>(), opts);
    *st = r.status();
    if (r.ok()) {
      if (const auto* resp = net::MsgAs<core::TrackerResp>(*r)) {
        *ok = resp->ok;
      }
    }
  }(&h, server.node_id(), &status, &ok_field));
  h.sim.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(ok_field);
  // The malformed packet was answered without a single retransmission.
  EXPECT_EQ(h.rpc.retransmits_sent(), 0u);
}

TEST(ReplicatedTrackerTest, WritesPropagateDownTheChain) {
  TrackerHarness h;
  ReplicatedTracker tracker(&h.sim, &h.net, &h.cluster, &h.costs,
                            /*replicas=*/3);
  EXPECT_EQ(h.RunInsert(tracker, 4242), InsertResult::kPublished);
  for (int i = 0; i < tracker.replica_count(); ++i) {
    EXPECT_TRUE(tracker.node(i).dirty_set().Query(4242)) << "replica " << i;
  }
  // Remove-with-seq propagates too.
  sim::Spawn([](ReplicatedTracker* t, TrackerHarness* hh) -> sim::Task<void> {
    net::Packet rm;
    rm.dst = hh->rpc.id();  // self-addressed stand-in for the multicast
    co_await t->RemoveAndMulticast(hh->ctx, hh->vol, 4242, /*seq=*/1, rm);
  }(&tracker, &h));
  h.sim.Run();
  for (int i = 0; i < tracker.replica_count(); ++i) {
    EXPECT_FALSE(tracker.node(i).dirty_set().Query(4242)) << "replica " << i;
  }
  EXPECT_EQ(tracker.failovers(), 0u);
}

// Head crash: the next insert's RPC budget expiring is the failure signal;
// failover drops the head, rewires the survivors, reconstructs the set from
// the server's pending change-logs, and the blocked insert then lands on
// the new head — nothing is lost.
TEST(ReplicatedTrackerTest, HeadCrashFailsOverAndReconstructs) {
  TrackerHarness h;
  ReplicatedTracker tracker(&h.sim, &h.net, &h.cluster, &h.costs,
                            /*replicas=*/3);

  // Pre-crash state: fp 7 acked through the chain and still pending in the
  // server's change-log (the durable scattered-key state).
  h.AddPendingEntry(7, /*tag=*/70);
  EXPECT_EQ(h.RunInsert(tracker, 7), InsertResult::kPublished);

  const int old_head = tracker.head_index();
  tracker.CrashNode(old_head);
  EXPECT_FALSE(tracker.node(old_head).alive());

  // Mid-burst insert of a fresh fingerprint: detects the dead head, waits
  // out the rebuild, and succeeds against the new chain.
  h.AddPendingEntry(9, /*tag=*/90);
  EXPECT_EQ(h.RunInsert(tracker, 9), InsertResult::kPublished);

  EXPECT_EQ(tracker.failovers(), 1u);
  EXPECT_FALSE(tracker.rebuilding());
  EXPECT_EQ(static_cast<int>(tracker.chain().size()), 2);
  EXPECT_NE(tracker.head_index(), old_head);
  EXPECT_GT(tracker.last_failover_duration(), 0);
  EXPECT_EQ(tracker.reconstructed_entries(), 2u);  // fps 7 and 9 re-collected
  for (int i : tracker.chain()) {
    EXPECT_TRUE(tracker.node(i).dirty_set().Query(7)) << "replica " << i;
    EXPECT_TRUE(tracker.node(i).dirty_set().Query(9)) << "replica " << i;
  }
}

// Regression: a dead TAIL must evict only the tail. The node above the dead
// tail burns its whole forward budget before replying chain_fault, so the
// upstream forward budgets must be strictly larger per depth — with equal
// budgets the head would time out on the healthy middle replica first and
// the failover would evict the wrong node (observed: two failovers, chain
// degraded 3 -> 1 with the middle alive but expelled).
TEST(ReplicatedTrackerTest, TailCrashEvictsOnlyTheTail) {
  TrackerHarness h;
  ReplicatedTracker tracker(&h.sim, &h.net, &h.cluster, &h.costs,
                            /*replicas=*/3);
  h.AddPendingEntry(11, /*tag=*/110);
  EXPECT_EQ(h.RunInsert(tracker, 11), InsertResult::kPublished);

  const int tail = tracker.tail_index();
  const int mid = tracker.chain()[1];
  tracker.CrashNode(tail);

  EXPECT_EQ(h.RunInsert(tracker, 12), InsertResult::kPublished);
  EXPECT_EQ(tracker.failovers(), 1u);
  ASSERT_EQ(tracker.chain().size(), 2u);
  EXPECT_TRUE(tracker.node(mid).alive());
  EXPECT_EQ(tracker.tail_index(), mid);  // the healthy middle became tail
  for (int i : tracker.chain()) {
    EXPECT_TRUE(tracker.node(i).dirty_set().Query(11)) << "replica " << i;
    EXPECT_TRUE(tracker.node(i).dirty_set().Query(12)) << "replica " << i;
  }
}

// Tail crash is detected by the client-side query path and resolves the
// same way; queries during/after the rebuild stay conservative.
TEST(ReplicatedTrackerTest, TailCrashDetectedByQueryPath) {
  TrackerHarness h;
  ReplicatedTracker tracker(&h.sim, &h.net, &h.cluster, &h.costs,
                            /*replicas=*/2);
  EXPECT_EQ(h.RunInsert(tracker, 5), InsertResult::kPublished);

  tracker.CrashNode(tracker.tail_index());

  core::MetaReq req;
  net::CallOptions opts;
  sim::Spawn([](ReplicatedTracker* t, TrackerHarness* hh, core::MetaReq* rq,
                net::CallOptions* op) -> sim::Task<void> {
    co_await t->ClientPreRead(hh->rpc, 5, *rq, *op);
  }(&tracker, &h, &req, &opts));
  h.sim.Run();

  // The failed query reported "scattered" (conservative) and kicked off the
  // failover; the surviving single-node chain still answers for fp 5.
  EXPECT_TRUE(req.scattered_hint);
  EXPECT_EQ(tracker.failovers(), 1u);
  EXPECT_EQ(static_cast<int>(tracker.chain().size()), 1);
  // fp 5 was reconstructed only if still pending at the server; it was not
  // (no change-log entry), so a fresh query reports clean — and that is
  // correct: nothing is pending anywhere.
  core::MetaReq req2;
  sim::Spawn([](ReplicatedTracker* t, TrackerHarness* hh, core::MetaReq* rq,
                net::CallOptions* op) -> sim::Task<void> {
    co_await t->ClientPreRead(hh->rpc, 5, *rq, *op);
  }(&tracker, &h, &req2, &opts));
  h.sim.Run();
  EXPECT_FALSE(req2.scattered_hint);
}

}  // namespace
}  // namespace switchfs::tracker
