// Sharded-owner suite: the multi-shard storm property test (no dirent is
// lost or duplicated when creates/renames/unlinks land on different
// fingerprint-group shards of the same servers), duplicate-push idempotency
// (a retransmitted batch applies exactly once, across the owner's token
// era), per-shard dir-session caps, shard run-queue lane semantics, the
// sharded KV's gather scans, and the simulator's run-while-work-pending mode.
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
// map. Renames between directories exercise the sanctioned cross-shard
// handoff (prepare/commit legs on different shards); the discipline checker
// must see no cross-shard lock violation (meaningful in Debug builds where
// SFS_DISCIPLINE_CHECKS is on; trivially zero in Release).
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

    // Drain parked shard-queue work (apply lanes, handoffs) before reading.
    fs.cluster.sim().RunWhileWorkPending();

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
    agg->SetRebinder(push.get());
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
  EXPECT_EQ(second.acked[0].status, PushResp::SectionStatus::kApplied);
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
// Per-shard dir-session cap
// ---------------------------------------------------------------------------

// The table cap divides across shards, and evictions are charged to the
// shard owning the directory's fingerprint group (all sessions of one
// directory land there — session ids encode their minting shard).
TEST(PerShardDirSessions, EvictionsLandOnTheOwningShard) {
  ClusterConfig cfg = SmallClusterConfig(4);
  cfg.server_template.shard_count = 4;
  cfg.server_template.max_dir_sessions = 8;  // 2 per shard
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());

  fs.Run([](SwitchFsClient* c) -> sim::Task<void> {
    std::vector<DirHandle> handles;
    for (int i = 0; i < 5; ++i) {
      auto h = co_await c->OpenDir("/d");
      if (h.ok()) {
        handles.push_back(*h);
      }
    }
    for (const DirHandle& h : handles) {
      (void)co_await c->CloseDir(h);
    }
  }(fs.client.get()));

  const psw::Fingerprint fp = FingerprintOf(RootId(), "d");
  const uint32_t owner = fs.cluster.ring().Owner(fp);
  const ServerVolatile& v = fs.cluster.server(owner).vol_for_test();
  // 5 concurrent sessions against a per-shard cap of 2: three LRU evictions,
  // all on the directory's own shard.
  EXPECT_EQ(v.ShardFor(fp).dir_sessions_evicted, 3u);
  uint64_t total = 0;
  for (size_t i = 0; i < v.num_shards(); ++i) {
    total += v.ShardAt(i).dir_sessions_evicted;
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(fs.cluster.server(owner).stats().dir_sessions_evicted, 3u);
}

// ---------------------------------------------------------------------------
// Shard run-queue lanes
// ---------------------------------------------------------------------------

// A lane task for the tests below: free coroutine over copied args (a
// coroutine lambda's captures would dangle once the queued thunk object is
// destroyed — same rule production call sites follow).
sim::Task<void> RecordTask(sim::Simulator* sim,
                           std::vector<std::string>* events, std::string tag,
                           sim::SimTime busy) {
  events->push_back(tag + ":start");
  co_await sim::Delay(sim, busy);
  events->push_back(tag + ":end");
}

sim::Task<void> BumpTask(int* counter) {
  ++*counter;
  co_return;
}

// The apply lane is a serial drainer: per shard, task N+1 starts only after
// task N finished, even when N suspends mid-task. Different shards drain
// independently.
TEST(ShardLanes, ApplyLaneSerializesPerShardOnly) {
  sim::Simulator sim;
  auto vol = std::make_shared<ServerVolatile>(&sim, 4);
  std::vector<std::string> events;

  auto task = [&](std::string tag, size_t shard) {
    EnqueueShardTask(vol, shard, ShardLane::kApply,
                     [&sim, &events, tag]() {
                       return RecordTask(&sim, &events, tag,
                                         sim::Milliseconds(1));
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

// Handoff-lane tasks dispatch FIFO but run as independent chains: a task
// that parks (awaiting a later event) must not block the next one.
TEST(ShardLanes, HandoffLaneDoesNotSerialize) {
  sim::Simulator sim;
  auto vol = std::make_shared<ServerVolatile>(&sim, 2);
  std::vector<std::string> events;

  EnqueueShardTask(vol, 0, ShardLane::kHandoff, [&sim, &events]() {
    return RecordTask(&sim, &events, "slow", sim::Milliseconds(5));
  });
  EnqueueShardTask(vol, 0, ShardLane::kHandoff, [&sim, &events]() {
    return RecordTask(&sim, &events, "fast", sim::SimTime{0});
  });
  sim.Run();

  EXPECT_EQ(events,
            (std::vector<std::string>{"slow:start", "fast:start", "fast:end",
                                      "slow:end"}));
}

// ---------------------------------------------------------------------------
// Sharded KV gather scans
// ---------------------------------------------------------------------------

// A short-prefix scan gathers every shard's rows in global key order, so a
// 4-shard ShardedKv scans exactly like a 1-shard one over the same rows,
// cursor scans included.
TEST(ShardedKvGather, FourShardsScanLikeOne) {
  sim::Simulator sim;
  ServerVolatile one(&sim, 1);
  ServerVolatile four(&sim, 4);
  Rng rng(7);
  for (int d = 0; d < 24; ++d) {
    InodeId dir;
    dir.w[0] = rng.Next();
    dir.w[1] = rng.Next();
    const std::string name = "d" + std::to_string(d);
    for (ServerVolatile* v : {&one, &four}) {
      v->kv.Put(InodeKey(InodeId{}, name), "attr" + name);
      v->kv.Put(DirIndexKey(dir), "index" + name);
      v->kv.Put(AttrKey(dir), "shared" + name);
      for (int f = 0; f < 6; ++f) {
        const std::string file = "file-with-a-long-name-" + std::to_string(f);
        v->kv.Put(InodeKey(dir, file), "attr" + file);
        v->kv.Put(EntryKey(dir, file), "e");
        v->kv.Put(LwwStampKey(dir, file), "stamp");
      }
    }
  }
  auto scan = [](const ServerVolatile& v, std::string_view prefix,
                 const std::string& after) {
    std::vector<std::pair<std::string, std::string>> rows;
    auto visit = [&rows](const std::string& k, const std::string& val) {
      rows.emplace_back(k, val);
      return true;
    };
    if (after.empty()) {
      v.kv.ScanPrefix(prefix, visit);
    } else {
      v.kv.ScanFrom(prefix, after, visit);
    }
    return rows;
  };
  for (const std::string prefix : {"", "i"}) {
    SCOPED_TRACE("prefix \"" + prefix + "\"");
    const auto all = scan(one, prefix, "");
    ASSERT_FALSE(all.empty());
    EXPECT_EQ(scan(four, prefix, ""), all);
    EXPECT_EQ(four.kv.CountPrefix(prefix), all.size());
    // Cursors below the prefix, inside it, and on its last row.
    for (const std::string& after :
         {std::string("a"), all[all.size() / 2].first, all.back().first}) {
      EXPECT_EQ(scan(four, prefix, after), scan(one, prefix, after));
    }
  }
  EXPECT_EQ(four.kv.size(), one.kv.size());
}

// ---------------------------------------------------------------------------
// Run-while-work-pending mode
// ---------------------------------------------------------------------------

// Run() stops at an empty event queue even when a registered source still
// holds parked work; RunWhileWorkPending kicks the source until it drains.
TEST(RunWhileWorkPending, DrainsRegisteredSourceBacklog) {
  sim::Simulator sim;
  std::vector<int> backlog = {1, 2, 3};
  int processed = 0;
  bool drain_scheduled = false;
  const uint64_t id = sim.RegisterWorkSource(sim::Simulator::WorkSource{
      [&backlog] { return backlog.size(); },
      [&] {
        if (backlog.empty() || drain_scheduled) {
          return;
        }
        drain_scheduled = true;
        sim.ScheduleAfter(sim::Microseconds(1), [&] {
          drain_scheduled = false;
          if (!backlog.empty()) {
            backlog.pop_back();
            ++processed;
          }
        });
      }});

  sim.Run();
  EXPECT_EQ(processed, 0);
  EXPECT_EQ(sim.pending_source_work(), 3u);

  sim.RunWhileWorkPending();
  EXPECT_EQ(processed, 3);
  EXPECT_EQ(sim.pending_source_work(), 0u);
  sim.UnregisterWorkSource(id);
}

// A source that reports pending work but never schedules anything must not
// livelock the loop (the no-progress guard).
TEST(RunWhileWorkPending, StuckSourceDoesNotLivelock) {
  sim::Simulator sim;
  const uint64_t id = sim.RegisterWorkSource(sim::Simulator::WorkSource{
      [] { return static_cast<size_t>(1); }, [] {}});
  sim.RunWhileWorkPending();  // must return
  EXPECT_EQ(sim.pending_source_work(), 1u);
  sim.UnregisterWorkSource(id);
}

// Parked shard-queue work on a server volatile drains through the same
// source mechanism SwitchServer registers: pending counts it, a kick round
// starts the lane drainers.
TEST(RunWhileWorkPending, KickStartsShardLaneDrains) {
  sim::Simulator sim;
  auto vol = std::make_shared<ServerVolatile>(&sim, 4);
  int ran = 0;
  // Park tasks without the auto-kick by enqueueing from inside an event:
  // EnqueueShardTask spawns a drainer, but the drainer is itself an event —
  // after Run() both are done; the interesting case is a fresh backlog
  // surfacing between Run() and the verify, which the source reports.
  const uint64_t id = sim.RegisterWorkSource(sim::Simulator::WorkSource{
      [&vol] { return PendingShardTasks(*vol); },
      [&vol] { KickShardDrains(vol); }});

  // Seed a backlog directly onto the queue the way a crashed drain leaves
  // it: tasks present, no drainer running.
  vol->ShardAt(1).apply_queue.push_back([&ran]() { return BumpTask(&ran); });
  vol->ShardAt(3).handoff_queue.push_back([&ran]() { return BumpTask(&ran); });
  EXPECT_EQ(sim.pending_source_work(), 2u);

  sim.RunWhileWorkPending();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(PendingShardTasks(*vol), 0u);
  sim.UnregisterWorkSource(id);
}

}  // namespace
}  // namespace switchfs::core
