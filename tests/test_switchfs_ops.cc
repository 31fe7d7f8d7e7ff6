// SwitchFS protocol tests: the asynchronous double-inode operations
// (§5.2.1), directory reads with aggregation (§5.2.2), rmdir (§5.2.3),
// rename, and POSIX visibility semantics (an operation's effects are visible
// to every operation issued after it returns — paper §A.2 Property 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/tracker/replicated_tracker.h"
#include "src/tracker/tracker_server.h"
#include "tests/switchfs_test_util.h"

namespace switchfs::core {
namespace {

TEST(SwitchFsOps, MkdirCreateStatRoundTrip) {
  FsHarness fs;
  EXPECT_TRUE(fs.Mkdir("/a").ok());
  EXPECT_TRUE(fs.Create("/a/f1").ok());
  auto st = fs.Stat("/a/f1");
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->is_dir());
  auto sd = fs.StatDir("/a");
  ASSERT_TRUE(sd.ok());
  EXPECT_TRUE(sd->is_dir());
  EXPECT_EQ(sd->size, 1u);
}

TEST(SwitchFsOps, CreateIsVisibleToImmediateStatDir) {
  // The core asynchronous-update guarantee: even though the parent update is
  // deferred, a statdir issued right after create returns must observe it.
  FsHarness fs;
  Status create_status = InternalError("");
  StatusOr<Attr> statdir_result = InternalError("");
  fs.Run([](SwitchFsClient* c, Status* cs,
            StatusOr<Attr>* sd) -> sim::Task<void> {
    (void)co_await c->Mkdir("/dir");
    *cs = co_await c->Create("/dir/file");
    *sd = co_await c->StatDir("/dir");  // no delay in between
  }(fs.client.get(), &create_status, &statdir_result));
  EXPECT_TRUE(create_status.ok());
  ASSERT_TRUE(statdir_result.ok());
  EXPECT_EQ(statdir_result->size, 1u);
  // The aggregation path must actually have been exercised at least once
  // (mkdir /dir marks the root scattered, create marks /dir scattered).
  EXPECT_GE(fs.cluster.TotalStats().aggregations, 1u);
}

TEST(SwitchFsOps, ReaddirListsAllCreatedFiles) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  std::set<std::string> expected;
  for (int i = 0; i < 25; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fs.Create("/d/" + name).ok());
    expected.insert(name);
  }
  auto entries = fs.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  std::set<std::string> got;
  for (const DirEntry& e : *entries) {
    got.insert(e.name);
    EXPECT_EQ(e.type, FileType::kFile);
  }
  EXPECT_EQ(got, expected);
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 25u);
}

TEST(SwitchFsOps, CreateExistingFails) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f").ok());
  EXPECT_EQ(fs.Create("/a/f").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(fs.Mkdir("/a").code(), StatusCode::kAlreadyExists);
}

TEST(SwitchFsOps, StatMissingFails) {
  FsHarness fs;
  EXPECT_EQ(fs.Stat("/nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  EXPECT_EQ(fs.Stat("/a/nope").status().code(), StatusCode::kNotFound);
  // Missing intermediate directory.
  EXPECT_EQ(fs.Create("/b/c/d").code(), StatusCode::kNotFound);
}

TEST(SwitchFsOps, UnlinkRemovesAndUpdatesParent) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f").ok());
  ASSERT_TRUE(fs.Unlink("/a/f").ok());
  EXPECT_EQ(fs.Stat("/a/f").status().code(), StatusCode::kNotFound);
  auto sd = fs.StatDir("/a");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 0u);
  EXPECT_EQ(fs.Unlink("/a/f").code(), StatusCode::kNotFound);
  // Unlink of a directory is EISDIR.
  EXPECT_EQ(fs.Unlink("/a").code(), StatusCode::kIsADirectory);
}

TEST(SwitchFsOps, RmdirEnforcesEmptiness) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f").ok());
  // Deferred create must be observed by the rmdir emptiness check even
  // though the parent inode was never read in between (Fig 6 step 7).
  EXPECT_EQ(fs.Rmdir("/a").code(), StatusCode::kNotEmpty);
  ASSERT_TRUE(fs.Unlink("/a/f").ok());
  EXPECT_TRUE(fs.Rmdir("/a").ok());
  EXPECT_EQ(fs.StatDir("/a").status().code(), StatusCode::kNotFound);
  // Operations under the removed directory fail after cache invalidation.
  EXPECT_EQ(fs.Create("/a/g").code(), StatusCode::kNotFound);
}

TEST(SwitchFsOps, RmdirOfRootAndMissing) {
  FsHarness fs;
  EXPECT_EQ(fs.Rmdir("/gone").code(), StatusCode::kNotFound);
  ASSERT_TRUE(fs.Create("/file").ok());
  EXPECT_EQ(fs.Rmdir("/file").code(), StatusCode::kNotADirectory);
}

TEST(SwitchFsOps, DeepPathsResolve) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/a/b").ok());
  ASSERT_TRUE(fs.Mkdir("/a/b/c").ok());
  ASSERT_TRUE(fs.Create("/a/b/c/file").ok());
  auto st = fs.Stat("/a/b/c/file");
  ASSERT_TRUE(st.ok());
  auto sd = fs.StatDir("/a/b/c");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
  auto sb = fs.StatDir("/a/b");
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sb->size, 1u);  // contains only "c"
}

TEST(SwitchFsOps, OpenCloseWork) {
  FsHarness fs;
  ASSERT_TRUE(fs.Create("/f").ok());
  StatusOr<Attr> open_result = InternalError("");
  Status close_status = InternalError("");
  fs.Run([](SwitchFsClient* c, StatusOr<Attr>* o, Status* cl) -> sim::Task<void> {
    *o = co_await c->Open("/f");
    *cl = co_await c->Close("/f");
  }(fs.client.get(), &open_result, &close_status));
  EXPECT_TRUE(open_result.ok());
  EXPECT_TRUE(close_status.ok());
  StatusOr<Attr> missing = InternalError("");
  fs.Run([](SwitchFsClient* c, StatusOr<Attr>* o) -> sim::Task<void> {
    *o = co_await c->Open("/missing");
  }(fs.client.get(), &missing));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SwitchFsOps, MtimeAdvancesOnCreate) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  auto before = fs.StatDir("/a");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(fs.Create("/a/f").ok());
  auto after = fs.StatDir("/a");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->mtime, before->mtime);
}

TEST(SwitchFsOps, DirtySetTransitionsNormalScatteredNormal) {
  // Fig 3: directories transition normal -> scattered on update and back to
  // normal once a read aggregates.
  ClusterConfig cfg = SmallClusterConfig();
  // Long quiet period so the proactive aggregation doesn't race the test.
  cfg.server_template.owner_quiet_period = sim::Milliseconds(500);
  cfg.server_template.push_idle_timeout = sim::Milliseconds(500);
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/a").ok());

  const auto* dir = fs.cluster.preloaded("/");
  ASSERT_NE(dir, nullptr);

  // Issue a create and check the switch state before any read.
  Status create_status = InternalError("");
  fs.Run([](SwitchFsClient* c, Status* out) -> sim::Task<void> {
    *out = co_await c->Create("/a/f");
  }(fs.client.get(), &create_status));
  ASSERT_TRUE(create_status.ok());

  // After the full drain the proactive path has NOT yet aggregated (long
  // timers), so /a's fingerprint is still in the dirty set... unless the
  // quiet timer fired. With 500ms timers and a drained queue the timer DID
  // fire during Run(). Instead verify the end state: after a statdir the
  // fingerprint must be absent.
  auto sd = fs.StatDir("/a");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
  const auto* a = fs.cluster.preloaded("/a");
  (void)a;
  // The directory fingerprint of /a is derived from (root id, "a").
  const psw::Fingerprint fp = FingerprintOf(RootId(), "a");
  EXPECT_FALSE(fs.cluster.data_plane()->Contains(fp));
}

TEST(SwitchFsOps, ConcurrentCreatesInOneDirectoryAllLand) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/hot").ok());
  constexpr int kClients = 8;
  constexpr int kPerClient = 20;
  std::vector<std::unique_ptr<SwitchFsClient>> clients;
  int ok_count = 0;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(fs.cluster.MakeClient());
  }
  for (int c = 0; c < kClients; ++c) {
    sim::Spawn([](SwitchFsClient* cl, int id, int n, int* ok) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) {
        Status s = co_await cl->Create("/hot/c" + std::to_string(id) + "_" +
                                       std::to_string(i));
        if (s.ok()) {
          (*ok)++;
        }
      }
    }(clients[c].get(), c, kPerClient, &ok_count));
  }
  fs.cluster.sim().Run();
  EXPECT_EQ(ok_count, kClients * kPerClient);
  auto sd = fs.StatDir("/hot");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, static_cast<uint64_t>(kClients * kPerClient));
  auto entries = fs.Readdir("/hot");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kClients * kPerClient));
  // No change-log entries may linger after the drain.
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
}

TEST(SwitchFsOps, MixedCreateDeleteSameNamePreservesFifoOrder) {
  // §5.3: repeated insertions/removals of the same name must apply in commit
  // order (they share a change-log since (pid, name) hashing is stable).
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  Status s1 = InternalError(""), s2 = InternalError(""), s3 = InternalError("");
  fs.Run([](SwitchFsClient* c, Status* a, Status* b, Status* d) -> sim::Task<void> {
    *a = co_await c->Create("/d/x");
    *b = co_await c->Unlink("/d/x");
    *d = co_await c->Create("/d/x");
  }(fs.client.get(), &s1, &s2, &s3));
  EXPECT_TRUE(s1.ok());
  EXPECT_TRUE(s2.ok());
  EXPECT_TRUE(s3.ok());
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);  // net effect: x exists once
  auto entries = fs.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "x");
}

TEST(SwitchFsOps, RenameFileMovesInode) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/src").ok());
  ASSERT_TRUE(fs.Mkdir("/dst").ok());
  ASSERT_TRUE(fs.Create("/src/f").ok());
  ASSERT_TRUE(fs.Rename("/src/f", "/dst/g").ok());
  EXPECT_EQ(fs.Stat("/src/f").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(fs.Stat("/dst/g").ok());
  auto src = fs.StatDir("/src");
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(src->size, 0u);
  auto dst = fs.StatDir("/dst");
  ASSERT_TRUE(dst.ok());
  EXPECT_EQ(dst->size, 1u);
}

TEST(SwitchFsOps, RenameDirectoryMovesSubtree) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/a/sub").ok());
  ASSERT_TRUE(fs.Create("/a/sub/f").ok());
  ASSERT_TRUE(fs.Mkdir("/b").ok());
  ASSERT_TRUE(fs.Rename("/a/sub", "/b/moved").ok());
  EXPECT_EQ(fs.StatDir("/a/sub").status().code(), StatusCode::kNotFound);
  auto moved = fs.StatDir("/b/moved");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->size, 1u);
  EXPECT_TRUE(fs.Stat("/b/moved/f").ok());
  EXPECT_EQ(fs.Stat("/a/sub/f").status().code(), StatusCode::kNotFound);
}

TEST(SwitchFsOps, RenameRejectsOrphanedLoop) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/a/b").ok());
  // Moving /a under its own descendant /a/b would orphan the loop.
  EXPECT_EQ(fs.Rename("/a", "/a/b/c").code(), StatusCode::kCrossDevice);
}

TEST(SwitchFsOps, RenameMissingSourceOrExistingDestFails) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/exists").ok());
  EXPECT_EQ(fs.Rename("/d/missing", "/d/x").code(), StatusCode::kNotFound);
  ASSERT_TRUE(fs.Create("/d/src").ok());
  EXPECT_EQ(fs.Rename("/d/src", "/d/exists").code(),
            StatusCode::kAlreadyExists);
}

TEST(SwitchFsOps, ManyDirectoriesManyFiles) {
  FsHarness fs;
  constexpr int kDirs = 8;
  constexpr int kFiles = 12;
  for (int d = 0; d < kDirs; ++d) {
    ASSERT_TRUE(fs.Mkdir("/dir" + std::to_string(d)).ok());
  }
  for (int d = 0; d < kDirs; ++d) {
    for (int f = 0; f < kFiles; ++f) {
      ASSERT_TRUE(fs.Create("/dir" + std::to_string(d) + "/f" +
                            std::to_string(f)).ok());
    }
  }
  for (int d = 0; d < kDirs; ++d) {
    auto sd = fs.StatDir("/dir" + std::to_string(d));
    ASSERT_TRUE(sd.ok());
    EXPECT_EQ(sd->size, static_cast<uint64_t>(kFiles));
  }
  auto root = fs.StatDir("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->size, static_cast<uint64_t>(kDirs));
}

TEST(SwitchFsOps, PreloadedNamespaceIsProtocolConsistent) {
  // Bench preloads must be indistinguishable from protocol-created state.
  FsHarness fs;
  fs.cluster.PreloadMkdir("/data");
  for (int i = 0; i < 50; ++i) {
    fs.cluster.PreloadFile("/data/img" + std::to_string(i));
  }
  fs.cluster.WarmClient(*fs.client);
  auto sd = fs.StatDir("/data");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 50u);
  EXPECT_TRUE(fs.Stat("/data/img7").ok());
  ASSERT_TRUE(fs.Unlink("/data/img7").ok());
  ASSERT_TRUE(fs.Create("/data/img50").ok());
  sd = fs.StatDir("/data");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 50u);
  // rmdir of a preloaded non-empty dir fails.
  EXPECT_EQ(fs.Rmdir("/data").code(), StatusCode::kNotEmpty);
}

TEST(SwitchFsOps, OwnerServerTrackerModeWorks) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.tracker = TrackerMode::kOwnerServer;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f").ok());
  auto sd = fs.StatDir("/a");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
}

TEST(SwitchFsOps, DedicatedTrackerModeWorks) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.tracker = TrackerMode::kDedicatedServer;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f").ok());
  auto sd = fs.StatDir("/a");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
  EXPECT_GT(fs.cluster.tracker()->ops(), 0u);
}

TEST(SwitchFsOps, ReplicatedTrackerModeWorks) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.tracker = TrackerMode::kReplicated;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f").ok());
  auto sd = fs.StatDir("/a");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
  auto* rep = fs.cluster.replicated_tracker();
  ASSERT_NE(rep, nullptr);
  // Writes propagated down the whole chain: every replica processed ops and
  // the tail answered the read query.
  for (int i = 0; i < rep->replica_count(); ++i) {
    EXPECT_GT(rep->node(i).ops(), 0u) << "replica " << i;
  }
  EXPECT_EQ(rep->failovers(), 0u);
}

TEST(SwitchFsOps, SynchronousBaselineModeWorks) {
  // Fig 14's Baseline: every writer updates its parent in place, so not one
  // deferred update ever reaches the dirty set.
  ClusterConfig cfg = SmallClusterConfig();
  cfg.async_updates = false;
  FsHarness fs(cfg);
  const auto expect_size = [&fs](const std::string& dir, uint64_t size) {
    auto sd = fs.StatDir(dir);
    ASSERT_TRUE(sd.ok()) << dir;
    EXPECT_EQ(sd->size, size) << dir;
  };
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/b").ok());
  expect_size("/", 2);
  ASSERT_TRUE(fs.Create("/a/f").ok());
  ASSERT_TRUE(fs.Create("/a/g").ok());
  expect_size("/a", 2);
  ASSERT_TRUE(fs.Unlink("/a/g").ok());
  expect_size("/a", 1);
  ASSERT_TRUE(fs.Mkdir("/a/sub").ok());
  expect_size("/a", 2);
  ASSERT_TRUE(fs.Rmdir("/a/sub").ok());
  expect_size("/a", 1);
  ASSERT_TRUE(fs.Rename("/a/f", "/b/f").ok());
  expect_size("/a", 0);
  expect_size("/b", 1);
  ASSERT_TRUE(fs.Link("/b/f", "/a/l").ok());
  expect_size("/a", 1);
  expect_size("/b", 1);
  expect_size("/", 2);
  EXPECT_EQ(fs.cluster.data_plane()->stats().inserts, 0u);
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
}

}  // namespace
}  // namespace switchfs::core
