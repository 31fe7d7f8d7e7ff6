// Fault-tolerance tests (paper §5.4, §A.1): unreliable-network handling
// (loss, duplication, reordering), dirty-set overflow fallback (§7.3.2),
// server crash recovery with WAL replay, switch crash recovery, and crashes
// during aggregation.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/core/cluster.h"
#include "src/tracker/dedicated_tracker.h"
#include "src/tracker/replicated_tracker.h"
#include "src/tracker/tracker_server.h"
#include "tests/switchfs_test_util.h"

namespace switchfs::core {
namespace {

ClusterConfig FaultyConfig(double loss, double dup, sim::SimTime jitter) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.faults.loss_probability = loss;
  cfg.faults.duplicate_probability = dup;
  cfg.faults.reorder_jitter = jitter;
  return cfg;
}

void CreateManyVerify(FsHarness& fs, int dirs, int files_per_dir) {
  for (int d = 0; d < dirs; ++d) {
    ASSERT_TRUE(fs.Mkdir("/d" + std::to_string(d)).ok()) << d;
  }
  int ok = 0;
  for (int d = 0; d < dirs; ++d) {
    for (int f = 0; f < files_per_dir; ++f) {
      Status s =
          fs.Create("/d" + std::to_string(d) + "/f" + std::to_string(f));
      ASSERT_TRUE(s.ok()) << d << "/" << f << ": " << s.ToString();
      ok++;
    }
  }
  ASSERT_EQ(ok, dirs * files_per_dir);
  for (int d = 0; d < dirs; ++d) {
    auto sd = fs.StatDir("/d" + std::to_string(d));
    ASSERT_TRUE(sd.ok()) << d;
    EXPECT_EQ(sd->size, static_cast<uint64_t>(files_per_dir)) << d;
    auto entries = fs.Readdir("/d" + std::to_string(d));
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<size_t>(files_per_dir));
  }
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
}

TEST(SwitchFsFault, SurvivesPacketLoss) {
  FsHarness fs(FaultyConfig(0.05, 0.0, 0));
  CreateManyVerify(fs, 4, 10);
  EXPECT_GT(fs.cluster.network().stats().packets_dropped, 0u);
}

TEST(SwitchFsFault, SurvivesDuplication) {
  FsHarness fs(FaultyConfig(0.0, 0.10, 0));
  CreateManyVerify(fs, 4, 10);
  EXPECT_GT(fs.cluster.network().stats().packets_duplicated, 0u);
}

TEST(SwitchFsFault, SurvivesReordering) {
  FsHarness fs(FaultyConfig(0.0, 0.0, sim::Microseconds(6)));
  CreateManyVerify(fs, 4, 10);
}

TEST(SwitchFsFault, SurvivesCombinedFaults) {
  FsHarness fs(FaultyConfig(0.03, 0.05, sim::Microseconds(3)));
  CreateManyVerify(fs, 3, 8);
}

TEST(SwitchFsFault, DuplicateRemovesCannotEvictLaterInserts) {
  // §5.4.1: a duplicated remove processed after the aggregation completes
  // must not remove fingerprints inserted by subsequent operations. High
  // duplication probability exercises exactly this path; correctness shows
  // as no lost updates.
  FsHarness fs(FaultyConfig(0.0, 0.3, sim::Microseconds(2)));
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(round)).ok());
    auto sd = fs.StatDir("/d");
    ASSERT_TRUE(sd.ok());
    EXPECT_EQ(sd->size, static_cast<uint64_t>(round + 1));
  }
  EXPECT_GT(fs.cluster.data_plane()->stats().stale_removes +
                fs.cluster.data_plane()->dirty_set(0).stale_removes() +
                fs.cluster.data_plane()->dirty_set(1).stale_removes(),
            0u);
}

TEST(SwitchFsFault, OverflowFallsBackToSynchronousUpdate) {
  // §7.3.2: with inserts forced to fail, every double-inode op redirects to
  // the parent's owner for a synchronous update — and remains correct.
  FsHarness fs;
  fs.cluster.data_plane()->SetForceInsertOverflow(true);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 20u);
  EXPECT_GT(fs.cluster.TotalStats().fallbacks, 0u);
  EXPECT_GT(fs.cluster.data_plane()->stats().insert_fallbacks, 0u);
  // Nothing is pending: the synchronous path applies immediately.
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  ASSERT_TRUE(fs.Unlink("/d/f3").ok());
  sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 19u);
}

// Parameter: async_updates. Every committed mutation — whichever writer
// committed it, deferred or synchronous parent update — must survive a crash
// of every server via WAL replay (§5.4.2).
class ServerCrashReplay : public ::testing::TestWithParam<bool> {};

std::set<std::string> Names(const StatusOr<std::vector<DirEntry>>& listing) {
  std::set<std::string> names;
  if (listing.ok()) {
    for (const DirEntry& e : *listing) {
      names.insert(e.name);
    }
  }
  return names;
}

// The server owning `name` inside the directory at `parent`.
uint32_t OwnerOfChild(FsHarness& fs, const std::string& parent,
                      const std::string& name) {
  auto dir = fs.StatDir(parent);
  if (!dir.ok()) {
    ADD_FAILURE() << "statdir " << parent << ": " << dir.status().ToString();
    return UINT32_MAX;
  }
  return fs.cluster.ring().Owner(FingerprintOf(dir->id, name));
}

using KvRows = std::map<std::string, std::string>;

KvRows SnapshotKv(const SwitchServer& server) {
  KvRows rows;
  server.kv_for_test().ScanPrefix(
      "", [&](const std::string& key, const std::string& value) {
        rows.emplace(key, value);
        return true;
      });
  return rows;
}

// One line per row that is missing on either side or holds another value.
// Keys are binary; the schema prefix and the key length identify the row.
std::string DescribeKvDiff(const KvRows& before, const KvRows& after) {
  std::string out;
  const auto note = [&out](const std::string& key, const char* what) {
    out += "  '" + key.substr(0, 1) + "' row (" + std::to_string(key.size()) +
           "-byte key): " + what + "\n";
  };
  for (const auto& [key, value] : before) {
    auto it = after.find(key);
    if (it == after.end()) {
      note(key, "lost by recovery");
    } else if (it->second != value) {
      note(key, "value changed by recovery");
    }
  }
  for (const auto& row : after) {
    if (before.count(row.first) == 0) {
      note(row.first, "added by recovery");
    }
  }
  return out;
}

TEST_P(ServerCrashReplay, ServerCrashRecoversCommittedState) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.async_updates = GetParam();
  FsHarness fs(cfg);
  // One commit through every writer: mkdir, create, unlink, rmdir, rename,
  // link, SetAttr through a link, SetAttr on a directory.
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Mkdir("/e").ok());
  std::set<std::string> in_d;
  for (int i = 0; i < 30; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fs.Create("/d/" + name).ok());
    in_d.insert(name);
  }
  for (int i = 0; i < 5; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fs.Unlink("/d/" + name).ok());
    in_d.erase(name);
  }
  ASSERT_TRUE(fs.Mkdir("/d/gone").ok());
  ASSERT_TRUE(fs.Rmdir("/d/gone").ok());
  ASSERT_TRUE(fs.Mkdir("/e/sub").ok());
  ASSERT_TRUE(fs.Rename("/d/f5", "/e/moved").ok());
  in_d.erase("f5");
  ASSERT_TRUE(fs.Link("/d/f6", "/e/alias").ok());
  ASSERT_TRUE(fs.Chmod("/e/alias", 0600).ok());
  ASSERT_TRUE(fs.Chmod("/e/sub", 0700).ok());
  // A populated directory renamed to another owner: its old owner drops the
  // inode, dir-index and entry rows, the new owner installs them.
  ASSERT_TRUE(fs.Mkdir("/e/tree").ok());
  ASSERT_TRUE(fs.Create("/e/tree/x").ok());
  ASSERT_NE(OwnerOfChild(fs, "/e", "tree"), OwnerOfChild(fs, "/d", "tree"));
  ASSERT_TRUE(fs.Rename("/e/tree", "/d/tree").ok());
  in_d.insert("tree");

  // Replay rebuilds exactly the rows the live path wrote: the cluster is
  // quiescent, so each server's KV must come back row for row.
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    const KvRows before = SnapshotKv(fs.cluster.server(s));
    fs.cluster.CrashServer(s);
    fs.Run(fs.cluster.RecoverServer(s));
    EXPECT_TRUE(fs.cluster.server(s).serving());
    EXPECT_GT(fs.cluster.server(s).stats().wal_replayed, 0u);
    const KvRows after = SnapshotKv(fs.cluster.server(s));
    EXPECT_TRUE(after == before)
        << "server " << s << ":\n" << DescribeKvDiff(before, after);
  }

  EXPECT_EQ(Names(fs.Readdir("/")), (std::set<std::string>{"d", "e"}));
  EXPECT_EQ(Names(fs.Readdir("/d")), in_d);
  EXPECT_EQ(Names(fs.Readdir("/d/tree")), (std::set<std::string>{"x"}));
  EXPECT_EQ(Names(fs.Readdir("/e")),
            (std::set<std::string>{"alias", "moved", "sub"}));
  const std::pair<const char*, uint64_t> sizes[] = {
      {"/", 2}, {"/d", in_d.size()}, {"/e", 3}};
  for (const auto& [dir, size] : sizes) {
    auto sd = fs.StatDir(dir);
    ASSERT_TRUE(sd.ok()) << dir;
    EXPECT_EQ(sd->size, size) << dir;
  }
  EXPECT_EQ(fs.StatDir("/d/gone").status().code(), StatusCode::kNotFound);
  for (const char* path : {"/d/f6", "/e/alias"}) {
    auto st = fs.Stat(path);
    ASSERT_TRUE(st.ok()) << path;
    EXPECT_EQ(st->nlink, 2u) << path;
    EXPECT_EQ(st->mode, 0600u) << path;
  }
  auto moved = fs.Stat("/e/moved");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->mode, 0644u);
  auto sub = fs.StatDir("/e/sub");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->mode, 0700u);
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
}

INSTANTIATE_TEST_SUITE_P(UpdateModes, ServerCrashReplay, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "Async" : "Sync");
                         });

// A directory renamed away leaves no entry rows at its old owner, and
// recovery must not bring them back: a later rename back would merge them
// with the shipped entry list, resurrecting an entry unlinked in between.
TEST(SwitchFsFault, UnlinkedEntryStaysGoneAfterRenameBack) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/p").ok());
  ASSERT_TRUE(fs.Mkdir("/q").ok());
  ASSERT_TRUE(fs.Mkdir("/p/D").ok());
  ASSERT_TRUE(fs.Create("/p/D/x").ok());
  ASSERT_TRUE(fs.Create("/p/D/y").ok());
  ASSERT_NE(OwnerOfChild(fs, "/p", "D"), OwnerOfChild(fs, "/q", "D"));
  ASSERT_TRUE(fs.Rename("/p/D", "/q/D").ok());
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    fs.cluster.CrashServer(s);
    fs.Run(fs.cluster.RecoverServer(s));
    ASSERT_TRUE(fs.cluster.server(s).serving());
  }
  ASSERT_TRUE(fs.Unlink("/q/D/x").ok());
  ASSERT_TRUE(fs.Rename("/q/D", "/p/D").ok());
  EXPECT_EQ(Names(fs.Readdir("/p/D")), (std::set<std::string>{"y"}));
  auto sd = fs.StatDir("/p/D");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
}

TEST(SwitchFsFault, CrashBeforeAggregationDoesNotLoseDeferredUpdates) {
  // Crash a server while its change-logs still hold un-applied entries; the
  // WAL must rebuild them and recovery must flush them (§A.1).
  ClusterConfig cfg = SmallClusterConfig();
  // Very long timers: pushes/aggregations will not fire on their own.
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  // Issue creates but stop the simulation before background flushes.
  std::vector<Status> results(10, InternalError(""));
  sim::Spawn([](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = co_await c->Create("/d/f" + std::to_string(i));
    }
  }(fs.client.get(), &results));
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(50));
  for (const Status& s : results) {
    ASSERT_TRUE(s.ok());
  }
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // Crash every server (deferred entries live on unknown owners), then
  // recover them all.
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    fs.cluster.CrashServer(s);
  }
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    sim::Spawn(fs.cluster.RecoverServer(s));
  }
  fs.cluster.sim().Run();
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    ASSERT_TRUE(fs.cluster.server(s).serving());
  }
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 10u);
  auto entries = fs.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 10u);
}

TEST(SwitchFsFault, SwitchCrashRecoveryRestoresConsistency) {
  // §5.4.2 switch failure: all dirty-set state is lost; recovery flushes all
  // change-logs so every directory returns to normal state.
  ClusterConfig cfg = SmallClusterConfig();
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  std::vector<Status> results(12, InternalError(""));
  sim::Spawn([](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = co_await c->Create("/d/f" + std::to_string(i));
    }
  }(fs.client.get(), &results));
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(50));
  for (const Status& s : results) {
    ASSERT_TRUE(s.ok());
  }
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  fs.cluster.CrashSwitch();
  fs.Run(fs.cluster.RecoverSwitch());
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // All deferred updates were applied; reads see them without aggregation.
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 12u);
  // And the system keeps working after recovery.
  ASSERT_TRUE(fs.Create("/d/after").ok());
  sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 13u);
}

TEST(SwitchFsFault, OwnerCrashMidPushDrainsBacklogAfterRestart) {
  // A directory's owner dies while other servers hold deferred updates for
  // it. Their pushes fail; the per-owner pusher must re-arm and drain the
  // backlog once the owner is back — no stranded change-logs.
  ClusterConfig cfg = SmallClusterConfig();
  // Long owner-side quiet period so the drain is attributable to the push
  // path, not the owner's proactive aggregation timer.
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  // Warm the client's path cache with /d so later creates resolve without a
  // lookup at the (about to crash) owner.
  ASSERT_TRUE(fs.Create("/d/warm").ok());
  const psw::Fingerprint dir_fp = FingerprintOf(RootId(), "d");
  const uint32_t owner = fs.cluster.ring().Owner(dir_fp);
  fs.cluster.CrashServer(owner);

  // Creates execute on the file-hash servers; the ones landing on healthy
  // servers commit and defer a parent update toward the dead owner. Issue
  // them concurrently — a create whose executing server is the dead one
  // spins through its retry budget and must not serialize the rest.
  int ok = 0;
  for (int i = 0; i < 24; ++i) {
    sim::Spawn([](SwitchFsClient* c, int i, int* ok) -> sim::Task<void> {
      Status s = co_await c->Create("/d/f" + std::to_string(i));
      if (s.ok()) {
        (*ok)++;
      }
    }(fs.client.get(), i, &ok));
  }
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(200));
  ASSERT_GT(ok, 0);
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  EXPECT_GT(fs.cluster.TotalStats().push_failures, 0u);

  fs.Run(fs.cluster.RecoverServer(owner));
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, static_cast<uint64_t>(ok) + 1);
  auto entries = fs.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(ok) + 1);
}

TEST(SwitchFsFault, RmdirRaceObsoletePushIsTrimmedNotRepushed) {
  // rmdir race (§5.2.3): a source still holding entries for a directory that
  // has since been removed must have its backlog trimmed by the owner's
  // "vanished directory" ack — pending entries drain to zero instead of
  // being re-pushed forever.
  ClusterConfig cfg = SmallClusterConfig();
  // Slow pushes so /e's deferred entries are still pending when it dies.
  cfg.server_template.push_idle_timeout = sim::Milliseconds(5);
  cfg.server_template.owner_quiet_period = sim::Milliseconds(8);
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/e").ok());
  std::vector<Status> results(6, InternalError(""));
  bool removed = false;
  sim::Spawn([](SwitchFsClient* c, std::vector<Status>* out,
                bool* removed) -> sim::Task<void> {
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = co_await c->Create("/e/f" + std::to_string(i));
    }
    for (size_t i = 0; i < out->size(); ++i) {
      co_await c->Unlink("/e/f" + std::to_string(i));
    }
    *removed = (co_await c->Rmdir("/e")).ok();
  }(fs.client.get(), &results, &removed));
  fs.cluster.sim().Run();
  for (const Status& s : results) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ASSERT_TRUE(removed);
  // Whatever entries remained for the removed directory were trimmed (either
  // applied before the rmdir or acked as obsolete) — nothing lingers.
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  // And the namespace keeps working.
  ASSERT_TRUE(fs.Mkdir("/e").ok());
  auto sd = fs.StatDir("/e");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 0u);
}

TEST(SwitchFsFault, RenameRaceRebindRetriesAcrossNewOwnerCrash) {
  // §5.2 rename race + new-owner crash: creates race a directory rename, so
  // some commit under the old fingerprint and are still pending when the
  // rename finishes. The new owner then crashes BEFORE the rebound push can
  // land: sources get the kMoved verdict from the old owner's tombstone,
  // re-key their logs, and the re-push toward the dead new owner must
  // retry — not strand — until it recovers. Afterwards every acknowledged
  // create must be observable at the directory's new location.
  ClusterConfig cfg = SmallClusterConfig();
  // Pushes idle long enough that raced entries are still pending when the
  // rename commits (the race window below lasts a few hundred us).
  cfg.server_template.push_idle_timeout = sim::Milliseconds(2);
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/b").ok());
  ASSERT_TRUE(fs.Mkdir("/a/d").ok());
  ASSERT_TRUE(fs.Create("/a/d/warm").ok());  // warms the clients' path caches

  const psw::Fingerprint old_fp =
      FingerprintOf(fs.Stat("/a")->id, "d");
  const InodeId b_id = fs.Stat("/b")->id;
  // Pick a destination name whose owner differs from the old owner (same
  // owner would re-create the dir index in place and never need the
  // tombstone) so the cross-server rebind actually happens.
  std::string dst_name;
  for (int i = 0;; ++i) {
    dst_name = "d2_" + std::to_string(i);
    if (fs.cluster.ring().Owner(FingerprintOf(b_id, dst_name)) !=
        fs.cluster.ring().Owner(old_fp)) {
      break;
    }
  }
  const uint32_t new_owner =
      fs.cluster.ring().Owner(FingerprintOf(b_id, dst_name));

  // Concurrent creates from several warmed clients race the rename; the
  // ones that commit between the rename's pre-lock aggregation snapshot and
  // its source-leg commit are exactly the moved_fp race window.
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::unique_ptr<SwitchFsClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(fs.cluster.MakeClient());
  }
  // Warm each extra client's cache on the pre-rename path.
  for (int c = 0; c < kClients; ++c) {
    Status warm = InternalError("");
    sim::Spawn([](SwitchFsClient* cl, int c, Status* out) -> sim::Task<void> {
      *out = co_await cl->Create("/a/d/wc" + std::to_string(c));
    }(clients[c].get(), c, &warm));
    fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(5));
    ASSERT_TRUE(warm.ok());
  }
  int ok_creates = 0;
  bool renamed = false;
  for (int c = 0; c < kClients; ++c) {
    sim::Spawn([](SwitchFsClient* cl, int c, int* ok) -> sim::Task<void> {
      for (int i = 0; i < kPerClient; ++i) {
        Status s =
            co_await cl->Create("/a/d/f" + std::to_string(c) + "_" +
                                std::to_string(i));
        if (s.ok()) {
          (*ok)++;
        }
      }
    }(clients[c].get(), c, &ok_creates));
  }
  sim::Spawn([](sim::Simulator* sm, SwitchFsClient* cl, const std::string dst,
                bool* out) -> sim::Task<void> {
    // A beat after the burst starts, so creates land on both sides of the
    // rename's race window.
    co_await sim::Delay(sm, sim::Microseconds(40));
    *out = (co_await cl->Rename("/a/d", dst)).ok();
  }(&fs.cluster.sim(), fs.client.get(), "/b/" + dst_name, &renamed));
  while (!renamed) {
    fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Microseconds(50));
  }
  // Rename committed: the tombstone is installed at the old owner. Crash the
  // new owner before the 2 ms push-idle timers fire, so every raced entry's
  // rebound push finds it dead.
  fs.cluster.CrashServer(new_owner);
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(30));

  const auto mid = fs.cluster.TotalStats();
  EXPECT_GT(mid.entries_rebound + mid.agg_entries_rebound, 0u)
      << "the race window was not exercised: no raced entries were rebound";
  EXPECT_GT(mid.push_failures, 0u)
      << "rebound pushes must have been retried against the dead new owner";
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u)
      << "rebound entries must stay pending, not be trimmed";

  fs.Run(fs.cluster.RecoverServer(new_owner));
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u)
      << "rebind retries must drain once the new owner is back";

  // Every acknowledged create (and the five warm files) is observable at the
  // new location: nothing vanished, nothing double-applied.
  auto sd = fs.StatDir("/b/" + dst_name);
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, static_cast<uint64_t>(ok_creates) + 1 + kClients);
  auto entries = fs.Readdir("/b/" + dst_name);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(ok_creates) + 1 + kClients);
}

TEST(SwitchFsFault, RecoveryIsIdempotent) {
  // §A.1: recovering twice (nested crash during recovery) must not
  // double-apply entries.
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  for (int round = 0; round < 2; ++round) {
    fs.cluster.CrashServer(1);
    fs.Run(fs.cluster.RecoverServer(1));
  }
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 10u);
}

TEST(SwitchFsFault, OperationsDuringCrashEventuallyFailOrSucceedCleanly) {
  // Ops racing a crashed server either time out or succeed after recovery;
  // none may corrupt state.
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  fs.cluster.CrashServer(2);
  int ok = 0;
  int failed = 0;
  sim::Spawn([](FsHarness* h, int* ok, int* failed) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      Status s = co_await h->client->Create("/d/x" + std::to_string(i));
      if (s.ok()) {
        (*ok)++;
      } else {
        (*failed)++;
      }
    }
  }(&fs, &ok, &failed));
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(100));
  fs.Run(fs.cluster.RecoverServer(2));
  EXPECT_EQ(ok + failed, 20);
  // Whatever succeeded must be visible and consistent.
  auto entries = fs.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, entries->size());
}

// ---------------------------------------------------------------------------
// Crash-point sweep: one fixed create/unlink/rename script, re-run with a
// server crashed after event k for evenly spaced k. While the server is down
// its WAL must not grow (a crash-cancelled chain can no longer reach
// Wal::Append). After recovery, every acked create/unlink that no later op
// touches is visible, and every directory's size equals its listing.
// Renames run (their 2PC legs append to the WAL) but two known 2PC gaps,
// tracked in ROADMAP item 5, shape the sweep: a destination participant that
// crashes between prepare and commit loses the volatile prepare and acks the
// retried commit without applying it, so rename outcomes are not asserted;
// and a coordinator crash mid-2PC leaves the prepared legs' locks parked at
// the participants forever, so the rename coordinator (server 0) is never
// the victim.
// ---------------------------------------------------------------------------

struct SweepOp {
  OpType op;
  std::string path;
  std::string to;  // rename target
  Status status = InternalError("not run");
};

// Client `c`'s script: six creates spread over /d0../d3; the second of each
// three is then unlinked, the third renamed into the next directory. Names
// are per client, so only the client's own later ops touch them.
std::vector<SweepOp> SweepScript(int c) {
  std::vector<SweepOp> ops;
  for (int n = 0; n < 6; ++n) {
    const std::string dir = "/d" + std::to_string((c + n) % 4);
    const std::string name = "c" + std::to_string(c) + "_" + std::to_string(n);
    ops.push_back({OpType::kCreate, dir + "/" + name, ""});
    if (n % 3 == 1) {
      ops.push_back({OpType::kUnlink, dir + "/" + name, ""});
    } else if (n % 3 == 2) {
      ops.push_back({OpType::kRename, dir + "/" + name,
                     "/d" + std::to_string((c + n + 1) % 4) + "/" + name +
                         "r"});
    }
  }
  return ops;
}

sim::Task<void> RunSweepScript(SwitchFsClient* c, std::vector<SweepOp>* ops) {
  for (SweepOp& op : *ops) {
    switch (op.op) {
      case OpType::kCreate:
        op.status = co_await c->Create(op.path);
        break;
      case OpType::kUnlink:
        op.status = co_await c->Unlink(op.path);
        break;
      default:
        op.status = co_await c->Rename(op.path, op.to);
        break;
    }
  }
}

// Runs the four scripts on a fresh 4-server cluster. Without `crash_after`,
// drains the simulation and returns the number of events it took. With it,
// crashes server 1 + crash_after % 3 after that many events and checks the
// invariants above; returns 0.
uint64_t RunCrashSweepPoint(std::optional<uint64_t> crash_after) {
  FsHarness fs(SmallClusterConfig(4));
  for (int d = 0; d < 4; ++d) {
    EXPECT_TRUE(fs.Mkdir("/d" + std::to_string(d)).ok()) << d;
  }
  std::vector<std::vector<SweepOp>> scripts;
  std::vector<std::unique_ptr<SwitchFsClient>> clients;
  for (int c = 0; c < 4; ++c) {
    scripts.push_back(SweepScript(c));
    clients.push_back(fs.cluster.MakeClient());
  }
  for (int c = 0; c < 4; ++c) {
    sim::Spawn(RunSweepScript(clients[c].get(), &scripts[c]));
  }
  sim::Simulator& sim = fs.cluster.sim();
  if (!crash_after.has_value()) {
    uint64_t events = 0;
    while (sim.Step()) {
      ++events;
    }
    return events;
  }

  for (uint64_t i = 0; i < *crash_after && sim.Step(); ++i) {
  }
  const uint32_t victim = 1 + static_cast<uint32_t>(*crash_after % 3);
  fs.cluster.CrashServer(victim);
  const size_t wal_at_crash = fs.cluster.server(victim).wal_records_for_test();
  sim.RunUntil(sim.Now() + sim::Milliseconds(5));
  EXPECT_EQ(fs.cluster.server(victim).wal_records_for_test(), wal_at_crash)
      << "a dead incarnation appended to the WAL";
  sim::Spawn(fs.cluster.RecoverServer(victim));
  sim.RunWhileWorkPending();

  // Expected presence of every path whose last touching op is an acked
  // create or unlink.
  std::map<std::string, bool> expect_present;
  for (const std::vector<SweepOp>& ops : scripts) {
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_NE(ops[i].status.code(), StatusCode::kInternal) << ops[i].path;
      bool touched_later = false;
      for (size_t j = i + 1; j < ops.size(); ++j) {
        touched_later = touched_later || ops[j].path == ops[i].path;
      }
      if (ops[i].status.ok() && ops[i].op != OpType::kRename &&
          !touched_later) {
        expect_present[ops[i].path] = ops[i].op == OpType::kCreate;
      }
    }
  }
  std::map<std::string, std::set<std::string>> listings;
  for (int d = 0; d < 4; ++d) {
    const std::string dir = "/d" + std::to_string(d);
    auto listing = fs.Readdir(dir);
    EXPECT_TRUE(listing.ok()) << dir;
    auto sd = fs.StatDir(dir);
    EXPECT_TRUE(sd.ok()) << dir;
    if (!listing.ok() || !sd.ok()) {
      continue;
    }
    EXPECT_EQ(sd->size, listing->size()) << dir;
    for (const DirEntry& e : *listing) {
      listings[dir].insert(e.name);
    }
  }
  for (const auto& [path, present] : expect_present) {
    const std::string dir(ParentPath(path));
    EXPECT_EQ(listings[dir].count(std::string(Basename(path))) > 0, present)
        << path;
  }
  return 0;
}

TEST(SwitchFsFault, CrashPointSweepKeepsAckedOpsAndDeadWalsFrozen) {
  const uint64_t events = RunCrashSweepPoint(std::nullopt);
  ASSERT_GT(events, 1000u);
  constexpr uint64_t kPoints = 84;
  for (uint64_t j = 0; j < kPoints; ++j) {
    const uint64_t k = events * (j + 1) / (kPoints + 1);
    SCOPED_TRACE("crash of server " + std::to_string(1 + k % 3) +
                 " after event " + std::to_string(k));
    RunCrashSweepPoint(k);
    if (HasFailure()) {
      return;
    }
  }
}

// Tracker-fault tests: push/quiet timers are set to 100 s so deferred
// updates stay pending and the ONLY way a read can observe them is through
// the tracker. That also means these tests must never drain the simulator
// with Run() (which would fast-forward 100 s and fire the masked timers) —
// all work runs in bounded RunUntil windows.
sim::SimTime RunWindow(FsHarness& fs, sim::SimTime window,
                       sim::Task<void> script) {
  sim::Spawn(std::move(script));
  return fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + window);
}

struct DirCheck {
  Status stat_status = InternalError("not run");
  uint64_t size = 0;
  Status list_status = InternalError("not run");
  size_t entries = 0;
};

sim::Task<void> CheckDirs(SwitchFsClient* c, std::vector<std::string> dirs,
                          std::vector<DirCheck>* out) {
  for (size_t i = 0; i < dirs.size(); ++i) {
    auto sd = co_await c->StatDir(dirs[i]);
    (*out)[i].stat_status = sd.status();
    if (sd.ok()) {
      (*out)[i].size = sd->size;
    }
    auto listing = co_await c->Readdir(dirs[i]);
    (*out)[i].list_status = listing.status();
    if (listing.ok()) {
      (*out)[i].entries = listing->size();
    }
  }
}

// Replicated tracker group (§7.3.3 extension): killing the chain's head
// mid-burst must not lose a single dirty-set entry. If the reconstructed
// dirty set dropped an entry, some directory below would serve a stale
// size. Invariants checked test_property_consistency style: (I1) size ==
// |entries| == acked creates per directory, (I3) no change-log entries
// linger after the reads.
TEST(SwitchFsFault, ReplicatedTrackerHeadCrashMidBurstLosesNoEntries) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.tracker = TrackerMode::kReplicated;
  // Deferred updates stay pending: no proactive pushes or quiet-period
  // aggregations to mask a lost tracker entry.
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  auto* rep = fs.cluster.replicated_tracker();
  ASSERT_NE(rep, nullptr);

  constexpr int kDirs = 4;
  constexpr int kFilesPerDir = 10;
  std::vector<std::string> dirs;
  std::vector<Status> mkdirs(kDirs, InternalError(""));
  for (int d = 0; d < kDirs; ++d) {
    dirs.push_back("/d" + std::to_string(d));
  }
  RunWindow(fs, sim::Milliseconds(20),
            [](SwitchFsClient* c, std::vector<std::string> ds,
               std::vector<Status>* out) -> sim::Task<void> {
              for (size_t i = 0; i < ds.size(); ++i) {
                (*out)[i] = co_await c->Mkdir(ds[i]);
              }
            }(fs.client.get(), dirs, &mkdirs));
  for (const Status& s : mkdirs) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // Burst of creates; the head dies while they are in flight.
  std::vector<Status> results(kDirs * kFilesPerDir, InternalError(""));
  sim::Spawn([](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
    for (size_t i = 0; i < out->size(); ++i) {
      const std::string path = "/d" + std::to_string(i % kDirs) + "/f" +
                               std::to_string(i / kDirs);
      (*out)[i] = co_await c->Create(path);
    }
  }(fs.client.get(), &results));
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Microseconds(400));

  const int old_head = rep->head_index();
  rep->CrashNode(old_head);
  // The burst finishes through lazy detection + failover.
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(100));

  for (const Status& s : results) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_EQ(rep->failovers(), 1u);
  EXPECT_FALSE(rep->rebuilding());
  EXPECT_EQ(rep->chain().size(), 2u);
  EXPECT_NE(rep->head_index(), old_head);
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // Every directory read must observe every acked create — possible only if
  // the rebuilt tracker kept all scattered directories (no lost entries).
  std::vector<DirCheck> checks(dirs.size());
  RunWindow(fs, sim::Milliseconds(100),
            CheckDirs(fs.client.get(), dirs, &checks));
  for (size_t d = 0; d < checks.size(); ++d) {
    ASSERT_TRUE(checks[d].stat_status.ok()) << dirs[d];
    EXPECT_EQ(checks[d].size, static_cast<uint64_t>(kFilesPerDir)) << dirs[d];
    ASSERT_TRUE(checks[d].list_status.ok()) << dirs[d];
    EXPECT_EQ(checks[d].entries, static_cast<size_t>(kFilesPerDir)) << dirs[d];
  }
  // The mkdirs' own deferred updates against "/" drain the same way.
  std::vector<DirCheck> root_check(1);
  RunWindow(fs, sim::Milliseconds(100),
            CheckDirs(fs.client.get(), {"/"}, &root_check));
  ASSERT_TRUE(root_check[0].stat_status.ok());
  EXPECT_EQ(root_check[0].size, static_cast<uint64_t>(kDirs));
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // And the cluster keeps serving through the shortened chain.
  ASSERT_TRUE(fs.Create("/d0/after_failover").ok());
  auto sd = fs.StatDir("/d0");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, static_cast<uint64_t>(kFilesPerDir) + 1);
}

// The dedicated tracker is a single point of failure: while it is down,
// inserts degrade to synchronous fallbacks (correct but slow). Operator
// recovery restarts it empty and reconstructs the set from the servers'
// pending change-logs, after which reads observe every deferred update.
TEST(SwitchFsFault, DedicatedTrackerCrashRecoveryRebuildsDirtySet) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.tracker = TrackerMode::kDedicatedServer;
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);

  // Setup + 8 pre-crash creates whose deferred updates stay pending.
  std::vector<Status> pre(10, InternalError(""));
  RunWindow(fs, sim::Milliseconds(20),
            [](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
              (*out)[0] = co_await c->Mkdir("/d");
              (*out)[1] = co_await c->Mkdir("/e");
              for (int i = 0; i < 8; ++i) {
                (*out)[2 + i] = co_await c->Create("/d/pre" + std::to_string(i));
              }
            }(fs.client.get(), &pre));
  for (const Status& s : pre) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  fs.cluster.tracker()->Crash();
  // Ops during the outage succeed via the synchronous fallback (against a
  // different directory so /d's backlog is untouched by the fallback flush).
  std::vector<Status> during(4, InternalError(""));
  RunWindow(fs, sim::Milliseconds(100),
            [](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
              for (size_t i = 0; i < out->size(); ++i) {
                (*out)[i] = co_await c->Create("/e/x" + std::to_string(i));
              }
            }(fs.client.get(), &during));
  for (const Status& s : during) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_GT(fs.cluster.TotalStats().fallbacks, 0u);

  // Operator-driven recovery: restart + reconstruct from server snapshots.
  bool recovered = false;
  RunWindow(fs, sim::Milliseconds(100),
            [](Cluster* c, bool* out) -> sim::Task<void> {
              co_await c->dedicated_tracker()->RecoverAndRebuild();
              *out = true;
            }(&fs.cluster, &recovered));
  ASSERT_TRUE(recovered);
  EXPECT_GT(fs.cluster.dedicated_tracker()->reconstructed_entries(), 0u);

  // Reads now observe every pre-crash deferred update via the rebuilt set.
  std::vector<DirCheck> checks(3);
  RunWindow(fs, sim::Milliseconds(100),
            CheckDirs(fs.client.get(), {"/d", "/e", "/"}, &checks));
  ASSERT_TRUE(checks[0].stat_status.ok());
  EXPECT_EQ(checks[0].size, 8u);
  EXPECT_EQ(checks[0].entries, 8u);
  ASSERT_TRUE(checks[1].stat_status.ok());
  EXPECT_EQ(checks[1].size, 4u);
  ASSERT_TRUE(checks[2].stat_status.ok());
  EXPECT_EQ(checks[2].size, 2u);
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // Keeps serving post-recovery — and the full drain inside these helpers
  // retires the parked long timers so teardown is quiescent.
  ASSERT_TRUE(fs.Create("/d/after_recovery").ok());
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 9u);
}

TEST(SwitchFsFault, ReconfigurationMigratesAndKeepsServing) {
  // §5.5/§A.3: stop-the-world reconfiguration. Add a server; all metadata
  // must remain reachable and balanced afterward.
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  const uint32_t before = fs.cluster.ServerCount();
  fs.Run(fs.cluster.AddServerAndRebalance());
  EXPECT_EQ(fs.cluster.ServerCount(), before + 1);
  // New server owns some portion of the namespace.
  EXPECT_GT(fs.cluster.server(before).KvSize(), 0u);
  // Everything is still reachable; ops keep working.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fs.Stat("/d/f" + std::to_string(i)).ok()) << i;
  }
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 40u);
  ASSERT_TRUE(fs.Create("/d/post_reconfig").ok());
  ASSERT_TRUE(fs.Unlink("/d/f0").ok());
  sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 40u);
}

}  // namespace
}  // namespace switchfs::core
