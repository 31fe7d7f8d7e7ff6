// Sharded-owner suite: the multi-shard storm property test (no dirent is
// lost or duplicated when creates/renames/unlinks land on different
// fingerprint-group shards of the same servers), duplicate-push idempotency
// (a retransmitted batch applies exactly once, across the owner's token
// era), and the shard apply lanes: serial per shard, drained through a
// crash, and reported to the simulator's work-source probe while stuck.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/aggregation.h"
#include "src/core/keys.h"
#include "src/core/push_engine.h"
#include "src/core/schema.h"
#include "src/core/wal_records.h"
#include "src/net/network.h"
#include "src/sim/discipline.h"
#include "src/tracker/owner_tracker.h"
#include "tests/switchfs_test_util.h"

namespace switchfs::core {
namespace {

// ---------------------------------------------------------------------------
// Multi-shard storm property test
// ---------------------------------------------------------------------------

// Random create/rename/unlink traffic over directories spread across the
// fingerprint-group shards of a 4-server cluster, checked against a model
// map. Renames between directories push and apply on different shards'
// lanes; the discipline checker must see no violation of its lock rules
// (meaningful in Debug builds where SFS_DISCIPLINE_CHECKS is on; trivially
// zero in Release).
TEST(MultiShardStorm, RandomOpsAcrossShardsMatchModel) {
  constexpr int kDirs = 6;
  constexpr int kOps = 110;
  for (uint64_t seed : {11u, 23u, 37u, 53u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::DisciplineChecker::Reset();

    ClusterConfig cfg = SmallClusterConfig(4);
    cfg.server_template.shard_count = 4;
    FsHarness fs(cfg);

    std::map<int, std::set<std::string>> model;
    for (int d = 0; d < kDirs; ++d) {
      ASSERT_TRUE(fs.Mkdir("/s" + std::to_string(d)).ok());
      model[d] = {};
    }

    Rng rng(seed);
    int name_counter = 0;
    auto random_member = [&rng](const std::set<std::string>& s) {
      auto it = s.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(s.size())));
      return *it;
    };

    for (int op = 0; op < kOps; ++op) {
      const int kind = static_cast<int>(rng.NextBelow(10));
      const int d = static_cast<int>(rng.NextBelow(kDirs));
      const std::string dir = "/s" + std::to_string(d);
      if (kind < 5 || model[d].empty()) {
        // Create (also the fallback when the picked dir is empty).
        const std::string name = "f" + std::to_string(name_counter++);
        ASSERT_TRUE(fs.Create(dir + "/" + name).ok()) << dir << "/" << name;
        model[d].insert(name);
      } else if (kind < 8) {
        // Rename into a (usually different) directory — fresh destination
        // name, so no overwrite semantics in play.
        const std::string src = random_member(model[d]);
        const int d2 = static_cast<int>(rng.NextBelow(kDirs));
        const std::string dst = "r" + std::to_string(name_counter++);
        ASSERT_TRUE(
            fs.Rename(dir + "/" + src, "/s" + std::to_string(d2) + "/" + dst)
                .ok())
            << dir << "/" << src;
        model[d].erase(src);
        model[d2].insert(dst);
      } else {
        const std::string victim = random_member(model[d]);
        ASSERT_TRUE(fs.Unlink(dir + "/" + victim).ok()) << dir << "/" << victim;
        model[d].erase(victim);
      }
    }

    // Run the queue dry; no apply-lane task may be left parked.
    fs.cluster.sim().Run();
    EXPECT_EQ(fs.cluster.sim().pending_source_work(), 0u);

    for (int d = 0; d < kDirs; ++d) {
      auto listing = fs.Readdir("/s" + std::to_string(d));
      ASSERT_TRUE(listing.ok()) << "/s" << d;
      std::set<std::string> got;
      for (const DirEntry& e : *listing) {
        EXPECT_TRUE(got.insert(e.name).second)
            << "duplicate dirent " << e.name << " in /s" << d;
      }
      EXPECT_EQ(got, model[d]) << "/s" << d;
    }
    EXPECT_EQ(sim::DisciplineChecker::violations_seen(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Duplicate-push idempotency (module level)
// ---------------------------------------------------------------------------

class SingleNodeCluster : public ClusterContext {
 public:
  explicit SingleNodeCluster(net::NodeId node) : node_(node) {
    ring_.AddServer(0);
  }
  const HashRing& ring() const override { return ring_; }
  net::NodeId ServerNode(uint32_t) const override { return node_; }
  uint32_t ServerCount() const override { return 1; }

 private:
  HashRing ring_;
  net::NodeId node_;
};

// One owner's aggregation + push modules over a bare context: the smallest
// stack that runs HandlePush's real apply path (shard apply lane, WAL
// records, token commit) against crafted PushReqs.
class PushOwnerHarness {
 public:
  PushOwnerHarness()
      : net(&sim, &costs, /*seed=*/7),
        sw(costs.plain_switch_delay),
        cpu(&sim, config.cores),
        rpc(&sim, &net),
        vol(std::make_shared<ServerVolatile>(&sim, config.shard_count)) {
    net.SetSwitch(&sw);
    cluster = std::make_unique<SingleNodeCluster>(rpc.id());
    sw.SetServerGroup({rpc.id()});
    ctx = ServerContext{&sim,    &net, cluster.get(), &durable, &costs,
                        &config, &cpu, &rpc,          &stats,   &tracker_impl};
    agg = std::make_unique<Aggregation>(ctx);
    push = std::make_unique<PushEngine>(ctx, *agg);
    agg->SetPushEngine(push.get());
    rpc.SetCpu(&cpu);
    rpc.SetRequestHandler([this](net::Packet p) {
      if (p.body->type == PushReq::kType) {
        VolPtr v = vol;
        sim::Spawn(push->HandlePush(std::move(p), std::move(v)));
      }
    });
  }

  InodeId SeedDir(const InodeId& pid, const std::string& name, uint64_t tag) {
    InodeId id;
    id.w[0] = tag;
    id.w[3] = 2;
    Attr attr;
    attr.id = id;
    attr.type = FileType::kDirectory;
    attr.mode = 0755;
    const std::string ikey = InodeKey(pid, name);
    vol->kv.Put(ikey, attr.Encode());
    vol->kv.Put(DirIndexKey(id),
                EncodeDirIndex(ikey, FingerprintOf(pid, name)));
    return id;
  }

  Attr ReadAttr(const InodeId& pid, const std::string& name) {
    auto value = vol->kv.Get(InodeKey(pid, name));
    EXPECT_TRUE(value.has_value());
    return value.has_value() ? Attr::Decode(*value) : Attr{};
  }

  // Delivers one PushReq over the fabric and returns the owner's response
  // (an out-of-group endpoint plays the pushing source server).
  PushResp Deliver(net::MsgPtr req) {
    PushResp out;
    out.status = StatusCode::kInternal;
    net::RpcEndpoint source(&sim, &net);
    sim::Spawn([](net::RpcEndpoint* cli, net::NodeId server, net::MsgPtr msg,
                  PushResp* o) -> sim::Task<void> {
      net::CallOptions opts;
      opts.timeout = sim::Milliseconds(100);
      opts.max_attempts = 2;
      auto r = co_await cli->Call(server, msg, opts);
      if (r.ok()) {
        if (const auto* resp = net::MsgAs<PushResp>(*r)) {
          *o = *resp;
        }
      }
    }(&source, rpc.id(), std::move(req), &out));
    sim.Run();
    return out;
  }

  sim::Simulator sim;
  sim::CostModel costs;
  net::Network net;
  net::PlainSwitch sw;
  ServerConfig config;
  tracker::OwnerTracker tracker_impl;
  DurableState durable;
  sim::CpuPool cpu;
  net::RpcEndpoint rpc;
  ServerStats stats;
  std::unique_ptr<SingleNodeCluster> cluster;
  ServerContext ctx;
  VolPtr vol;
  std::unique_ptr<Aggregation> agg;
  std::unique_ptr<PushEngine> push;
};

ChangeLogEntry MakeEntry(uint64_t seq, const std::string& name, OpType op,
                         int64_t ts) {
  ChangeLogEntry e;
  e.seq = seq;
  e.timestamp = ts;
  e.op = op;
  e.name = name;
  e.entry_type = FileType::kFile;
  e.size_delta = op == OpType::kCreate ? 1 : -1;
  return e;
}

net::MsgPtr MakePush(const InodeId& dir, psw::Fingerprint fp,
                     uint64_t batch_token, uint64_t first_seq,
                     uint64_t last_seq) {
  auto req = std::make_shared<PushReq>();
  req->src_server = 0;
  PushReq::PerDir pd;
  pd.dir = dir;
  pd.fp = fp;
  pd.batch_token = batch_token;
  for (uint64_t s = first_seq; s <= last_seq; ++s) {
    pd.entries.push_back(MakeEntry(s, "f" + std::to_string(s), OpType::kCreate,
                                   100 + static_cast<int64_t>(s)));
  }
  req->dirs.push_back(std::move(pd));
  return req;
}

// A retransmitted section (same token — lost ack, rebind replay) must apply
// exactly once: the owner no-ops the duplicate via its committed token and
// re-acks the original high-water mark.
TEST(DuplicatePush, RetransmittedBatchAppliesExactlyOnce) {
  PushOwnerHarness h;
  const InodeId parent = RootId();
  const InodeId dir = h.SeedDir(parent, "docs", /*tag=*/501);
  const psw::Fingerprint fp = FingerprintOf(parent, "docs");

  net::MsgPtr req = MakePush(dir, fp, /*batch_token=*/42, 1, 3);
  PushResp first = h.Deliver(req);
  ASSERT_EQ(first.status, StatusCode::kOk);
  ASSERT_EQ(first.acked.size(), 1u);
  EXPECT_EQ(first.acked[0].acked_seq, 3u);
  EXPECT_EQ(h.stats.entries_applied, 3u);

  // Same message again: the wire-level duplicate.
  PushResp second = h.Deliver(req);
  ASSERT_EQ(second.status, StatusCode::kOk);
  ASSERT_EQ(second.acked.size(), 1u);
  EXPECT_FALSE(second.acked[0].moved);
  EXPECT_EQ(second.acked[0].acked_seq, 3u);

  EXPECT_EQ(h.stats.entries_applied, 3u);
  EXPECT_EQ(h.stats.push_batches_deduped, 1u);
  EXPECT_EQ(h.ReadAttr(parent, "docs").size, 3u);
  EXPECT_EQ(h.vol->kv.CountPrefix(EntryPrefix(dir)), 3u);

  // The token rode the WAL apply records, so the filter survives recovery.
  int tokened = 0;
  for (const auto& r : h.durable.wal.records()) {
    if (r.type != kWalEntryApply) {
      continue;
    }
    if (EntryApplyRecord::Decode(r.payload).batch_token == 42) {
      ++tokened;
    }
  }
  EXPECT_EQ(tokened, 3);
}

// Newer tokens keep applying; a stale token arriving after a newer one has
// been committed still no-ops (token comparison is <=, not ==).
TEST(DuplicatePush, StaleTokenAfterNewerCommitStillNoOps) {
  PushOwnerHarness h;
  const InodeId parent = RootId();
  const InodeId dir = h.SeedDir(parent, "docs", /*tag=*/502);
  const psw::Fingerprint fp = FingerprintOf(parent, "docs");

  (void)h.Deliver(MakePush(dir, fp, /*batch_token=*/42, 1, 3));
  PushResp next = h.Deliver(MakePush(dir, fp, /*batch_token=*/43, 4, 5));
  ASSERT_EQ(next.acked.size(), 1u);
  EXPECT_EQ(next.acked[0].acked_seq, 5u);
  EXPECT_EQ(h.stats.entries_applied, 5u);
  EXPECT_EQ(h.stats.push_batches_deduped, 0u);

  // The straggler duplicate of the FIRST batch, after 43 committed.
  PushResp stale = h.Deliver(MakePush(dir, fp, /*batch_token=*/42, 1, 3));
  ASSERT_EQ(stale.acked.size(), 1u);
  EXPECT_EQ(stale.acked[0].acked_seq, 5u);
  EXPECT_EQ(h.stats.entries_applied, 5u);
  EXPECT_EQ(h.stats.push_batches_deduped, 1u);
  EXPECT_EQ(h.ReadAttr(parent, "docs").size, 5u);
}

// Untokened sections (legacy/aggregation paths) bypass the token filter and
// fall back to the per-lane high-water-mark dedup.
TEST(DuplicatePush, UntokenedDuplicateFallsBackToHwmDedup) {
  PushOwnerHarness h;
  const InodeId parent = RootId();
  const InodeId dir = h.SeedDir(parent, "docs", /*tag=*/503);
  const psw::Fingerprint fp = FingerprintOf(parent, "docs");

  (void)h.Deliver(MakePush(dir, fp, /*batch_token=*/0, 1, 3));
  (void)h.Deliver(MakePush(dir, fp, /*batch_token=*/0, 1, 3));

  EXPECT_EQ(h.stats.entries_applied, 3u);
  EXPECT_EQ(h.stats.push_batches_deduped, 0u);  // not the token path
  EXPECT_EQ(h.stats.entries_deduped, 3u);       // hwm caught the replay
  EXPECT_EQ(h.ReadAttr(parent, "docs").size, 3u);
}

// ---------------------------------------------------------------------------
// Shard apply lanes
// ---------------------------------------------------------------------------

// A lane task for the tests below: free coroutine over copied args (a
// coroutine lambda's captures live in the queued thunk object, not in the
// task — the same rule production call sites follow).
sim::Task<void> RecordTask(sim::Simulator* sim,
                           std::vector<std::string>* events, std::string tag,
                           sim::SimTime busy) {
  events->push_back(tag + ":start");
  co_await sim::Delay(sim, busy);
  events->push_back(tag + ":end");
}

// The apply lane is a serial drainer: per shard, task N+1 starts only after
// task N finished, even when N suspends mid-task. Different shards drain
// independently.
TEST(ShardLanes, ApplyLaneSerializesPerShardOnly) {
  sim::Simulator sim;
  auto vol = std::make_shared<ServerVolatile>(&sim, 4);
  std::vector<std::string> events;

  auto task = [&](std::string tag, size_t shard) {
    EnqueueApply(vol, shard, [&sim, &events, tag]() {
      return RecordTask(&sim, &events, tag, sim::Milliseconds(1));
    });
  };
  task("a1", 0);
  task("a2", 0);  // same shard: must wait for a1
  task("b1", 1);  // other shard: overlaps with a1
  sim.Run();

  ASSERT_EQ(events.size(), 6u);
  // Shard 0 is strictly serialized...
  std::vector<std::string> shard0;
  for (const auto& e : events) {
    if (e[0] == 'a') {
      shard0.push_back(e);
    }
  }
  EXPECT_EQ(shard0,
            (std::vector<std::string>{"a1:start", "a1:end", "a2:start",
                                      "a2:end"}));
  // ...while shard 1's task started before shard 0 finished its queue.
  EXPECT_LT(std::find(events.begin(), events.end(), "b1:start"),
            std::find(events.begin(), events.end(), "a2:start"));
}

// One lane task that settles its tally in a scope guard, as the push and
// WAN apply tasks settle their JoinCounters.
sim::Task<void> GuardedTask(sim::Simulator* sim, int* settled, int* finished) {
  sim::ScopeExit settle([settled] { ++*settled; });
  co_await sim::Delay(sim, sim::Milliseconds(1));
  ++*finished;
}

// A crash mid-drain strands nothing: the drainer runs on through the dead
// incarnation, every task left is cancelled at its first await with its
// scope guard run, and each lane ends idle — under plain Run(), with no
// work-source step to restart a lane.
TEST(ShardLanes, ApplyLaneDrainsThroughACrash) {
  sim::Simulator sim;
  auto vol = std::make_shared<ServerVolatile>(&sim, 4);
  constexpr int kPerShard = 3;
  int settled = 0;
  int finished = 0;
  for (size_t shard : {size_t{0}, size_t{2}}) {
    for (int i = 0; i < kPerShard; ++i) {
      EnqueueApply(vol, shard, [&sim, &settled, &finished]() {
        return GuardedTask(&sim, &settled, &finished);
      });
    }
  }
  // Each lane's first task ends at 1 ms; the crash lands inside its second.
  sim.ScheduleAt(sim::Microseconds(1500), [&vol] { vol->dead = true; });
  sim.Run();

  EXPECT_EQ(finished, 2);  // the first task of each lane
  EXPECT_EQ(settled, 2 * kPerShard);
  EXPECT_EQ(PendingShardTasks(*vol), 0u);
  for (size_t i = 0; i < vol->num_shards(); ++i) {
    EXPECT_FALSE(vol->ShardAt(i).apply_draining) << "shard " << i;
  }
}

sim::Task<void> HoldMutex(sim::Mutex* mu, sim::Mutex::Guard* held) {
  *held = co_await mu->Acquire();
}

sim::Task<void> LockedTask(sim::Mutex* mu, int* ran) {
  auto guard = co_await mu->Acquire();
  ++*ran;
}

// A lane whose running task waits on a lock nobody releases holds the tasks
// queued behind it: the event queue empties without them, and the server's
// work source is what still reports them (perfbench's parked_end check).
TEST(ShardLanes, BlockedLaneReportsQueuedTaskAsSourceWork) {
  sim::Simulator sim;
  auto vol = std::make_shared<ServerVolatile>(&sim, 2);
  const uint64_t id = sim.RegisterWorkSource(
      sim::Simulator::WorkSource{[&vol] { return PendingShardTasks(*vol); }});
  sim::Mutex mu(&sim);
  sim::Mutex::Guard held;
  sim::Spawn(HoldMutex(&mu, &held));
  int ran = 0;
  for (int i = 0; i < 2; ++i) {
    EnqueueApply(vol, 1, [&mu, &ran]() { return LockedTask(&mu, &ran); });
  }
  sim.Run();

  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(vol->ShardAt(1).apply_draining);
  EXPECT_EQ(sim.pending_source_work(), 1u);  // the task behind the blocked one

  // Releasing the lock lets the lane finish (and frees the parked frames).
  held.Release();
  sim.Run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.pending_source_work(), 0u);
  sim.UnregisterWorkSource(id);
}

}  // namespace
}  // namespace switchfs::core
