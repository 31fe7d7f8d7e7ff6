// Baseline-system tests: parameterized POSIX-correctness suite across all
// four emulated comparators, plus placement assertions that pin down the
// structural behaviours the paper's motivation relies on (P/C grouping
// hotspots vs P/C separation balance, Tab 1 / Fig 2).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/baselines/baseline.h"

namespace switchfs::baselines {
namespace {

using core::Attr;
using core::DirEntry;
using core::MetadataService;

class BaselineHarness {
 public:
  explicit BaselineHarness(SystemKind kind, uint32_t servers = 4) {
    BaselineConfig cfg;
    cfg.kind = kind;
    cfg.num_servers = servers;
    cluster = std::make_unique<BaselineCluster>(cfg);
    client = cluster->NewClient(false);
  }

  void Run(sim::Task<void> script) {
    sim::Spawn(std::move(script));
    cluster->sim().Run();
  }

  Status Mkdir(const std::string& p) { return RunStatus(&MetadataService::Mkdir, p); }
  Status Create(const std::string& p) { return RunStatus(&MetadataService::Create, p); }
  Status Unlink(const std::string& p) { return RunStatus(&MetadataService::Unlink, p); }
  Status Rmdir(const std::string& p) { return RunStatus(&MetadataService::Rmdir, p); }

  StatusOr<Attr> Stat(const std::string& p) {
    StatusOr<Attr> out = InternalError("");
    Run([](MetadataService* c, std::string path, StatusOr<Attr>* o) -> sim::Task<void> {
      *o = co_await c->Stat(path);
    }(client.get(), p, &out));
    return out;
  }
  StatusOr<Attr> StatDir(const std::string& p) {
    StatusOr<Attr> out = InternalError("");
    Run([](MetadataService* c, std::string path, StatusOr<Attr>* o) -> sim::Task<void> {
      *o = co_await c->StatDir(path);
    }(client.get(), p, &out));
    return out;
  }
  StatusOr<std::vector<DirEntry>> Readdir(const std::string& p) {
    StatusOr<std::vector<DirEntry>> out = InternalError("");
    Run([](MetadataService* c, std::string path,
           StatusOr<std::vector<DirEntry>>* o) -> sim::Task<void> {
      *o = co_await c->Readdir(path);
    }(client.get(), p, &out));
    return out;
  }
  Status Rename(const std::string& f, const std::string& t) {
    Status out = InternalError("");
    Run([](MetadataService* c, std::string from, std::string to,
           Status* o) -> sim::Task<void> {
      *o = co_await c->Rename(from, to);
    }(client.get(), f, t, &out));
    return out;
  }

  std::unique_ptr<BaselineCluster> cluster;
  std::unique_ptr<MetadataService> client;

 private:
  using StatusFn = sim::Task<Status> (MetadataService::*)(const std::string&);
  Status RunStatus(StatusFn fn, const std::string& p) {
    Status out = InternalError("");
    Run([](MetadataService* c, StatusFn f, std::string path,
           Status* o) -> sim::Task<void> {
      *o = co_await (c->*f)(path);
    }(client.get(), fn, p, &out));
    return out;
  }
};

class BaselineSuite : public ::testing::TestWithParam<SystemKind> {};

TEST_P(BaselineSuite, BasicRoundTrip) {
  BaselineHarness fs(GetParam());
  EXPECT_TRUE(fs.Mkdir("/a").ok());
  EXPECT_TRUE(fs.Create("/a/f").ok());
  auto st = fs.Stat("/a/f");
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->is_dir());
  auto sd = fs.StatDir("/a");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
}

TEST_P(BaselineSuite, CreateVisibilityIsImmediate) {
  // Synchronous systems apply the parent update on the create path itself.
  BaselineHarness fs(GetParam());
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
    auto sd = fs.StatDir("/d");
    ASSERT_TRUE(sd.ok());
    EXPECT_EQ(sd->size, static_cast<uint64_t>(i + 1));
  }
}

TEST_P(BaselineSuite, ErrorsMatchPosix) {
  BaselineHarness fs(GetParam());
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f").ok());
  EXPECT_EQ(fs.Create("/a/f").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(fs.Stat("/a/missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fs.Unlink("/a").code(), StatusCode::kIsADirectory);
  EXPECT_EQ(fs.Rmdir("/a").code(), StatusCode::kNotEmpty);
  ASSERT_TRUE(fs.Unlink("/a/f").ok());
  EXPECT_TRUE(fs.Rmdir("/a").ok());
  EXPECT_EQ(fs.StatDir("/a").status().code(), StatusCode::kNotFound);
}

TEST_P(BaselineSuite, ReaddirListsEntries) {
  BaselineHarness fs(GetParam());
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  std::set<std::string> expected;
  for (int i = 0; i < 15; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fs.Create("/d/" + name).ok());
    expected.insert(name);
  }
  auto entries = fs.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  std::set<std::string> got;
  for (const DirEntry& e : *entries) {
    got.insert(e.name);
  }
  EXPECT_EQ(got, expected);
}

TEST_P(BaselineSuite, DeepPaths) {
  BaselineHarness fs(GetParam());
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/a/b").ok());
  ASSERT_TRUE(fs.Mkdir("/a/b/c").ok());
  ASSERT_TRUE(fs.Create("/a/b/c/f").ok());
  EXPECT_TRUE(fs.Stat("/a/b/c/f").ok());
  auto sd = fs.StatDir("/a/b/c");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
}

TEST_P(BaselineSuite, RenameFile) {
  BaselineHarness fs(GetParam());
  ASSERT_TRUE(fs.Mkdir("/src").ok());
  ASSERT_TRUE(fs.Mkdir("/dst").ok());
  ASSERT_TRUE(fs.Create("/src/f").ok());
  ASSERT_TRUE(fs.Rename("/src/f", "/dst/g").ok());
  EXPECT_EQ(fs.Stat("/src/f").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(fs.Stat("/dst/g").ok());
  auto s = fs.StatDir("/src");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size, 0u);
  auto d = fs.StatDir("/dst");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->size, 1u);
}

TEST_P(BaselineSuite, ConcurrentCreatesAllLand) {
  BaselineHarness fs(GetParam());
  ASSERT_TRUE(fs.Mkdir("/hot").ok());
  constexpr int kClients = 4;
  constexpr int kPerClient = 10;
  std::vector<std::unique_ptr<MetadataService>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(fs.cluster->NewClient(false));
  }
  int ok = 0;
  for (int c = 0; c < kClients; ++c) {
    sim::Spawn([](MetadataService* cl, int id, int n, int* ok) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) {
        Status s = co_await cl->Create("/hot/c" + std::to_string(id) + "_" +
                                       std::to_string(i));
        if (s.ok()) {
          (*ok)++;
        }
      }
    }(clients[c].get(), c, kPerClient, &ok));
  }
  fs.cluster->sim().Run();
  EXPECT_EQ(ok, kClients * kPerClient);
  auto sd = fs.StatDir("/hot");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, static_cast<uint64_t>(kClients * kPerClient));
}

TEST_P(BaselineSuite, PreloadIsProtocolConsistent) {
  BaselineHarness fs(GetParam());
  fs.cluster->PreloadDir("/data");
  for (int i = 0; i < 20; ++i) {
    fs.cluster->PreloadFileAt("/data/img" + std::to_string(i));
  }
  fs.client = fs.cluster->NewClient(true);
  auto sd = fs.StatDir("/data");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 20u);
  EXPECT_TRUE(fs.Stat("/data/img5").ok());
  ASSERT_TRUE(fs.Unlink("/data/img5").ok());
  sd = fs.StatDir("/data");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 19u);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, BaselineSuite,
                         ::testing::Values(SystemKind::kEInfiniFS,
                                           SystemKind::kECfs,
                                           SystemKind::kCephFS,
                                           SystemKind::kIndexFS),
                         [](const auto& info) {
                           std::string n = SystemName(info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

// --- structural placement behaviours (Tab 1) ---

TEST(BaselinePlacementTest, GroupingColocatesSiblingsSeparationSpreadsThem) {
  core::HashRing ring({0, 1, 2, 3, 4, 5, 6, 7});
  core::InodeId dir;
  dir.w[0] = 42;
  BaselinePlacement grouping(SystemKind::kEInfiniFS, &ring);
  BaselinePlacement separation(SystemKind::kECfs, &ring);

  std::set<uint32_t> grouping_servers;
  std::set<uint32_t> separation_servers;
  for (int i = 0; i < 200; ++i) {
    const std::string name = "file" + std::to_string(i);
    grouping_servers.insert(grouping.FileServer(dir, name, "top"));
    separation_servers.insert(separation.FileServer(dir, name, "top"));
  }
  // P/C grouping: every sibling on the parent's server (the Fig 2a hotspot).
  EXPECT_EQ(grouping_servers.size(), 1u);
  // P/C separation: siblings spread across (nearly) all servers.
  EXPECT_GE(separation_servers.size(), 6u);
}

TEST(BaselinePlacementTest, CephSubtreePinsWholePathsToOneServer) {
  core::HashRing ring({0, 1, 2, 3});
  BaselinePlacement ceph(SystemKind::kCephFS, &ring);
  core::InodeId a;
  a.w[0] = 1;
  core::InodeId b;
  b.w[0] = 2;
  // Different directories, same top-level component -> same server.
  EXPECT_EQ(ceph.FileServer(a, "x", "project1"),
            ceph.FileServer(b, "y", "project1"));
  EXPECT_EQ(ceph.DirServer(a, "project1"), ceph.DirServer(b, "project1"));
}

TEST(BaselineLatencyTest, CephFsIsOrdersOfMagnitudeSlower) {
  // Fig 13: CephFS's per-op software stack dwarfs the emulated systems.
  BaselineHarness ceph(SystemKind::kCephFS);
  BaselineHarness infinifs(SystemKind::kEInfiniFS);
  ASSERT_TRUE(ceph.Mkdir("/a").ok());
  ASSERT_TRUE(infinifs.Mkdir("/a").ok());

  // Latency must be measured inside the coroutine: the harness drains the
  // whole event queue (including leftover RPC-timeout timers) per call.
  auto timed_create = [](BaselineHarness& fs, const std::string& path) {
    sim::SimTime latency = 0;
    fs.Run([](BaselineHarness* h, std::string p,
              sim::SimTime* out) -> sim::Task<void> {
      const sim::SimTime start = h->cluster->sim().Now();
      Status s = co_await h->client->Create(p);
      EXPECT_TRUE(s.ok());
      *out = h->cluster->sim().Now() - start;
    }(&fs, path, &latency));
    return latency;
  };
  const sim::SimTime ceph_lat = timed_create(ceph, "/a/f");
  const sim::SimTime ifs_lat = timed_create(infinifs, "/a/f");
  EXPECT_GT(ceph_lat, 20 * ifs_lat);
  EXPECT_GT(ceph_lat, sim::Microseconds(500));
  EXPECT_LT(ifs_lat, sim::Microseconds(60));
}

}  // namespace
}  // namespace switchfs::baselines
