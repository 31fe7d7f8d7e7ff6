// Geo-replication (src/wan/): split-brain convergence, catch-up after a
// replicator crash, duplicate-batch idempotency, star forwarding, and the
// phantom-dirent LWW regression (ROADMAP item 1 rider — the local cross-era
// resolver is the same stamp comparison the WAN apply uses).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/wan/geo.h"
#include "tests/switchfs_test_util.h"

namespace switchfs::core {
namespace {

wan::GeoConfig SmallGeoConfig(uint32_t clusters, uint64_t seed) {
  wan::GeoConfig g;
  g.num_clusters = clusters;
  g.cluster_template = SmallClusterConfig(4);
  g.seed = seed;
  g.link.latency = sim::Milliseconds(5);
  g.link.jitter = sim::Microseconds(200);
  g.replication.batch_interval = sim::Milliseconds(2);
  g.replication.ack_timeout = sim::Milliseconds(25);
  g.replication.max_backoff = sim::Milliseconds(100);
  return g;
}

// Per-cluster warmed clients + run/inspect helpers over a GeoCluster.
class GeoHarness {
 public:
  explicit GeoHarness(wan::GeoConfig cfg) : geo(std::move(cfg)) {}

  // Clients are created lazily so tests can preload the namespace first
  // (warming snapshots the preloaded path set).
  SwitchFsClient* client(uint32_t i) {
    if (clients_.size() < geo.size()) {
      clients_.resize(geo.size());
    }
    if (!clients_[i]) {
      clients_[i] = geo.cluster(i).MakeClient();
      geo.cluster(i).WarmClient(*clients_[i]);
    }
    return clients_[i].get();
  }

  // Serialized listing of `path` as cluster `i` sees it: sorted
  // "name/kind" lines — byte-identical across clusters iff the replicated
  // directories converged.
  std::string Listing(uint32_t i, const std::string& path) {
    StatusOr<std::vector<DirEntry>> out = InternalError("not run");
    sim::Spawn([](SwitchFsClient* c, std::string p,
                  StatusOr<std::vector<DirEntry>>* o) -> sim::Task<void> {
      *o = co_await c->Readdir(p);
    }(client(i), path, &out));
    geo.sim().Run();
    EXPECT_TRUE(out.ok()) << "cluster " << i << " readdir " << path;
    if (!out.ok()) {
      return "<readdir failed>";
    }
    std::vector<std::string> lines;
    for (const DirEntry& e : *out) {
      lines.push_back(e.name +
                      (e.type == FileType::kDirectory ? "/d" : "/f"));
    }
    std::sort(lines.begin(), lines.end());
    std::string s;
    for (const std::string& l : lines) {
      s += l;
      s += '\n';
    }
    return s;
  }

  uint64_t DirSize(uint32_t i, const std::string& path) {
    StatusOr<Attr> out = InternalError("not run");
    sim::Spawn([](SwitchFsClient* c, std::string p,
                  StatusOr<Attr>* o) -> sim::Task<void> {
      *o = co_await c->StatDir(p);
    }(client(i), path, &out));
    geo.sim().Run();
    EXPECT_TRUE(out.ok()) << "cluster " << i << " statdir " << path;
    return out.ok() ? out->size : 0;
  }

  wan::GeoCluster geo;

 private:
  std::vector<std::unique_ptr<SwitchFsClient>> clients_;
};

// ---------------------------------------------------------------------------
// Split-brain property sweep: two clusters accept concurrent writes to the
// same directory while partitioned — conflicting same-name creates plus
// unique-per-site traffic — and must converge to byte-identical listings
// after the heal, with the conflicts settled by LWW (wan_conflicts_lww > 0:
// at the cluster holding the newer write, the older arrival is dropped).
class SplitBrainSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SplitBrainSweep, ClustersConvergeAfterHeal) {
  const uint64_t seed = GetParam();
  GeoHarness h(SmallGeoConfig(2, seed));
  h.geo.PreloadDirAll("/shared");

  h.geo.SetPartitioned(0, 1, true);

  constexpr int kConflictNames = 8;
  constexpr int kUniqueNames = 8;
  std::vector<bool> done(2, false);
  for (uint32_t site = 0; site < 2; ++site) {
    sim::Spawn([](sim::Simulator* sm, SwitchFsClient* c, uint32_t site,
                  uint64_t seed, std::vector<bool>* done) -> sim::Task<void> {
      Rng rng(seed ^ (0x9e37ULL * (site + 1)));
      // Conflicting names: both sites create c0..c7 at interleaved commit
      // times, so for every name one site's write is strictly older.
      for (int k = 0; k < kConflictNames; ++k) {
        co_await sim::Delay(sm, sim::Microseconds(5 + rng.NextBelow(40)));
        (void)co_await c->Create("/shared/c" + std::to_string(k));
      }
      // Unique traffic, some of it unlinked again before the heal — the
      // remote must end up without those names (in-batch dedup ships only
      // the newest same-name write).
      for (int k = 0; k < kUniqueNames; ++k) {
        co_await sim::Delay(sm, sim::Microseconds(5 + rng.NextBelow(40)));
        const std::string path =
            "/shared/u" + std::to_string(site) + "_" + std::to_string(k);
        Status s = co_await c->Create(path);
        if (s.ok() && k % 4 == 3) {
          (void)co_await c->Unlink(path);
        }
      }
      (*done)[site] = true;
    }(&h.geo.sim(), h.client(site), site, seed, &done));
  }
  // While partitioned, ship retries keep the event queue alive — drive with
  // a deadline, then heal and quiesce.
  h.geo.sim().RunUntil(sim::Seconds(2));
  ASSERT_TRUE(done[0] && done[1]);
  EXPECT_GT(h.geo.TotalStats().wan_batches_shipped, 0u);

  h.geo.SetPartitioned(0, 1, false);
  h.geo.sim().Run();

  EXPECT_TRUE(h.geo.WanIdle());
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(h.geo.cluster(i).TotalPendingChangeLogEntries(), 0u)
        << "cluster " << i;
  }

  const std::string l0 = h.Listing(0, "/shared");
  const std::string l1 = h.Listing(1, "/shared");
  EXPECT_FALSE(l0.empty());
  EXPECT_EQ(l0, l1) << "cluster 0:\n" << l0 << "cluster 1:\n" << l1;
  // Conflict names survived exactly once each; unique names replicated.
  for (int k = 0; k < kConflictNames; ++k) {
    const std::string needle = "c" + std::to_string(k) + "/f\n";
    EXPECT_NE(l0.find(needle), std::string::npos) << needle;
  }
  // Entry counts (size attribute) match the converged listings on both
  // sides — the presence-aware delta half of the LWW apply.
  const uint64_t entries =
      static_cast<uint64_t>(std::count(l0.begin(), l0.end(), '\n'));
  EXPECT_EQ(h.DirSize(0, "/shared"), entries);
  EXPECT_EQ(h.DirSize(1, "/shared"), entries);

  const auto st = h.geo.TotalStats();
  EXPECT_GT(st.wan_conflicts_lww, 0u);
  EXPECT_GT(st.wan_entries_applied, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitBrainSweep,
                         ::testing::Values(31, 32, 33, 34),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Duplicate delivery of the same batch (a retransmit, or a catch-up re-ship
// after the origin lost the ack) must ack again without re-applying.
TEST(WanApplier, DuplicateBatchIsIdempotent) {
  GeoHarness h(SmallGeoConfig(2, 7));
  h.geo.PreloadDirAll("/shared");
  const Cluster::PreloadedDir* dir = h.geo.cluster(1).preloaded("/shared");
  ASSERT_NE(dir, nullptr);

  wan::WanBatch batch;
  batch.origin_cluster = 0;
  batch.batch_seq = 1;
  core::WanEntry we;
  we.dir = dir->id;
  we.dir_fp = dir->fp;
  we.origin_cluster = 0;
  we.src_server = 2;
  we.entry.seq = 1;
  we.entry.timestamp = sim::Milliseconds(1);
  we.entry.op = OpType::kCreate;
  we.entry.name = "x";
  we.entry.entry_type = FileType::kFile;
  we.entry.size_delta = 1;
  batch.entries.push_back(we);

  int acks = 0;
  h.geo.applier(1).Deliver(batch, [&acks] { acks++; });
  h.geo.sim().Run();
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(h.geo.cluster(1).TotalStats().wan_entries_applied, 1u);

  h.geo.applier(1).Deliver(batch, [&acks] { acks++; });
  h.geo.sim().Run();
  EXPECT_EQ(acks, 2);
  const auto st = h.geo.cluster(1).TotalStats();
  EXPECT_EQ(st.wan_entries_applied, 1u) << "duplicate must not re-apply";
  EXPECT_EQ(st.wan_catchup_replays, 1u);

  EXPECT_EQ(h.Listing(1, "/shared"), "x/f\n");
  EXPECT_EQ(h.DirSize(1, "/shared"), 1u);
  // No echo: the WAN replay entered through EnqueueWanApply, not the local
  // commit capture, so cluster 1 has nothing of its own to ship back.
  EXPECT_TRUE(h.geo.replicator(1).Idle());
  EXPECT_EQ(h.Listing(0, "/shared"), "");
}

// ---------------------------------------------------------------------------
// Replicator crash after the batch was delivered but before its ack made it
// home: the recovered daemon re-ships from the durable spool, the peer
// dedups on its per-origin watermark (wan_catchup_replays), and the world
// still converges with every entry applied exactly once.
TEST(WanReplicator, CrashCatchUpReplaysAreDeduped) {
  wan::GeoConfig cfg = SmallGeoConfig(2, 11);
  cfg.link.jitter = 0;  // deterministic single-step timeline
  GeoHarness h(cfg);
  h.geo.PreloadDirAll("/shared");

  constexpr int kFiles = 5;
  bool done = false;
  sim::Spawn([](SwitchFsClient* c, bool* done) -> sim::Task<void> {
    for (int k = 0; k < kFiles; ++k) {
      Status s = co_await c->Create("/shared/f" + std::to_string(k));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    *done = true;
  }(h.client(0), &done));

  // Single-step until cluster 1 has applied origin 0's first batch — at
  // that exact moment its ack is in flight and the origin has not seen it.
  int safety = 0;
  while (h.geo.applier(1).watermark(0) == 0) {
    ASSERT_TRUE(h.geo.sim().Step()) << "drained before the batch applied";
    ASSERT_LT(++safety, 2000000);
  }
  ASSERT_TRUE(done);

  h.geo.replicator(0).Crash();
  h.geo.replicator(0).Recover();  // bumps the era, re-ships everything
  h.geo.sim().Run();

  const auto st1 = h.geo.cluster(1).TotalStats();
  EXPECT_GE(st1.wan_catchup_replays, 1u);
  EXPECT_EQ(st1.wan_entries_applied, static_cast<uint64_t>(kFiles));
  EXPECT_TRUE(h.geo.WanIdle());
  EXPECT_EQ(h.Listing(0, "/shared"), h.Listing(1, "/shared"));
  EXPECT_EQ(h.DirSize(1, "/shared"), static_cast<uint64_t>(kFiles));
}

// ---------------------------------------------------------------------------
// Star topology: a spoke's batches reach the other spoke through the hub,
// origin identity preserved; the origin never hears its own writes back.
TEST(WanStar, SpokeTrafficForwardsThroughHub) {
  GeoHarness h(SmallGeoConfig(3, 13));
  h.geo.PreloadDirAll("/shared");

  constexpr int kFiles = 6;
  sim::Spawn([](SwitchFsClient* c) -> sim::Task<void> {
    for (int k = 0; k < kFiles; ++k) {
      Status s = co_await c->Create("/shared/spoke1_" + std::to_string(k));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }(h.client(1)));
  h.geo.sim().Run();

  EXPECT_TRUE(h.geo.WanIdle());
  const std::string l1 = h.Listing(1, "/shared");
  EXPECT_EQ(static_cast<int>(std::count(l1.begin(), l1.end(), '\n')), kFiles);
  EXPECT_EQ(h.Listing(0, "/shared"), l1);  // hub applied
  EXPECT_EQ(h.Listing(2, "/shared"), l1);  // forwarded to the other spoke
  EXPECT_GE(h.geo.applier(2).watermark(1), 1u) << "origin identity preserved";
  // Echo check: nothing came back to the origin as a WAN apply.
  EXPECT_EQ(h.geo.cluster(1).TotalStats().wan_entries_applied, 0u);
}

// ---------------------------------------------------------------------------
// Phantom-dirent regression (ROADMAP item 1 rider). The LOCAL change-log
// apply runs the same per-name LWW stamp comparison as the WAN path: an
// older write arriving after a newer same-name write — the cross-era
// inversion the rename-epoch machinery could not see — is dropped at the
// apply instead of materializing a phantom dirent.
TEST(PhantomDirentLww, StaleOlderWriteIsDroppedAtApply) {
  FsHarness fs;
  const Cluster::PreloadedDir& dir = fs.cluster.PreloadMkdir("/d");
  fs.cluster.WarmClient(*fs.client);

  // Plant a newer same-name write through the WAN apply leg: an unlink of
  // "x" stamped far in this cluster's future (as if another era/cluster
  // already settled the name).
  core::WanEntry we;
  we.dir = dir.id;
  we.dir_fp = dir.fp;
  we.origin_cluster = 9;
  we.src_server = 0;
  we.entry.seq = 1;
  we.entry.timestamp = sim::Seconds(100);
  we.entry.op = OpType::kUnlink;
  we.entry.name = "x";
  we.entry.entry_type = FileType::kFile;
  auto result = std::make_shared<core::WanApplyResult>();
  auto jc = std::make_shared<sim::JoinCounter>(&fs.cluster.sim(), 1);
  const uint32_t owner = fs.cluster.ring().Owner(dir.fp);
  fs.cluster.server(owner).EnqueueWanApply(we, result, jc);
  fs.cluster.sim().Run();
  ASSERT_EQ(result->applied, 1);

  // The local create commits (its inode exists) but its deferred dirent
  // apply carries an older commit timestamp — the resolver must drop it.
  ASSERT_TRUE(fs.Create("/d/x").ok());

  auto listing = fs.Readdir("/d");
  ASSERT_TRUE(listing.ok());
  EXPECT_TRUE(listing->empty())
      << "stale older create resurrected a settled name";
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 0u);
  EXPECT_GE(fs.cluster.TotalStats().wan_conflicts_lww, 1u);
}

// ---------------------------------------------------------------------------
// Rename-storm with NAME REUSE across rename eras (derived from the PR-4
// sweep): workers recycle a small name pool while the renamer moves the
// directories, so same-name entries cross era boundaries. The exact-listing
// invariant must hold with the LWW resolver on — no committed dirent
// vanishes, no settled name resurrects.
class RenameReuseStorm : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RenameReuseStorm, ExactListingsUnderCrossEraReuse) {
  const uint64_t seed = GetParam();
  ClusterConfig cfg = SmallClusterConfig(4);
  cfg.seed = seed;
  FsHarness fs(cfg);

  constexpr int kSlots = 3;
  constexpr int kWorkers = 3;
  constexpr int kOpsPerWorker = 40;
  constexpr int kNamePool = 4;  // per worker — forces cross-era reuse
  constexpr int kRenameRounds = 3;

  std::vector<std::string> current(kSlots);
  for (int i = 0; i < kSlots; ++i) {
    current[i] = "/d" + std::to_string(i);
    ASSERT_TRUE(fs.Mkdir(current[i]).ok());
  }

  struct WorkerLog {
    std::set<std::pair<int, std::string>> live;
  };
  std::vector<WorkerLog> logs(kWorkers);
  std::vector<std::unique_ptr<SwitchFsClient>> clients;
  for (int w = 0; w < kWorkers; ++w) {
    clients.push_back(fs.cluster.MakeClient());
  }
  for (int w = 0; w < kWorkers; ++w) {
    sim::Spawn([](SwitchFsClient* c, const std::vector<std::string>* cur,
                  int id, uint64_t seed, WorkerLog* log) -> sim::Task<void> {
      Rng rng(seed ^ (0x7a11ULL * (id + 1)));
      for (int i = 0; i < kOpsPerWorker; ++i) {
        const int slot = static_cast<int>(rng.NextBelow(kSlots));
        const std::string name = "w" + std::to_string(id) + "_" +
                                 std::to_string(rng.NextBelow(kNamePool));
        if (rng.NextBelow(10) < 6) {
          Status s = co_await c->Create((*cur)[slot] + "/" + name);
          if (s.ok() || s.code() == StatusCode::kAlreadyExists) {
            log->live.insert({slot, name});
          }
        } else {
          Status s = co_await c->Unlink((*cur)[slot] + "/" + name);
          if (s.ok()) {
            log->live.erase({slot, name});
          }
        }
      }
    }(clients[w].get(), &current, w, seed, &logs[w]));
  }
  bool renames_done = false;
  sim::Spawn([](sim::Simulator* sm, SwitchFsClient* c,
                std::vector<std::string>* cur, uint64_t seed,
                bool* done) -> sim::Task<void> {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (int round = 0; round < kRenameRounds; ++round) {
      for (int i = 0; i < kSlots; ++i) {
        co_await sim::Delay(sm, sim::Microseconds(20 + rng.NextBelow(60)));
        const std::string to =
            "/m" + std::to_string(i) + "_" + std::to_string(round);
        Status s = co_await c->Rename((*cur)[i], to);
        if (!s.ok()) {
          ADD_FAILURE() << (*cur)[i] << " -> " << to << ": " << s.ToString();
          co_return;
        }
        (*cur)[i] = to;
      }
    }
    *done = true;
  }(&fs.cluster.sim(), fs.client.get(), &current, seed, &renames_done));
  fs.cluster.sim().Run();
  ASSERT_TRUE(renames_done);

  // Merge per-worker expectations (names are worker-unique, so no overlap).
  std::vector<std::set<std::string>> expected(kSlots);
  for (const WorkerLog& log : logs) {
    for (const auto& [slot, name] : log.live) {
      expected[slot].insert(name);
    }
  }

  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  for (int i = 0; i < kSlots; ++i) {
    auto sd = fs.StatDir(current[i]);
    ASSERT_TRUE(sd.ok()) << current[i];
    auto listing = fs.Readdir(current[i]);
    ASSERT_TRUE(listing.ok()) << current[i];
    std::set<std::string> got;
    for (const DirEntry& e : *listing) {
      got.insert(e.name);
    }
    EXPECT_EQ(sd->size, got.size()) << current[i];
    EXPECT_EQ(got, expected[i]) << current[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenameReuseStorm, ::testing::Values(17, 18),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace switchfs::core
