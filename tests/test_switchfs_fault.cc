// Fault-tolerance tests (paper §5.4, §A.1): unreliable-network handling
// (loss, duplication, reordering), dirty-set overflow fallback (§7.3.2),
// server crash recovery with WAL replay, switch crash recovery, and crashes
// during aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/core/cluster.h"
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

// Forwards every packet through `inner`, except that it drops the first
// InsertEnvelope the switch sends to `victim` (a create's in-band ack, 7a).
// It counts every InsertEnvelope addressed to `victim`, dropped or not.
class DropFirstInsertAck : public net::SwitchBehavior {
 public:
  DropFirstInsertAck(net::SwitchBehavior* inner, net::NodeId victim)
      : inner_(inner), victim_(victim) {}

  std::vector<net::Packet> Process(net::Packet p) override {
    std::vector<net::Packet> out = inner_->Process(std::move(p));
    auto is_envelope = [&](const net::Packet& q) {
      return q.dst == victim_ && net::MsgAs<InsertEnvelope>(q.body) != nullptr;
    };
    envelopes += std::count_if(out.begin(), out.end(), is_envelope);
    auto ack = std::find_if(out.begin(), out.end(), is_envelope);
    if (!dropped && ack != out.end()) {
      out.erase(ack);
      dropped = true;
    }
    return out;
  }
  sim::SimTime PipelineDelay() const override {
    return inner_->PipelineDelay();
  }

  bool dropped = false;
  int64_t envelopes = 0;

 private:
  net::SwitchBehavior* inner_;
  net::NodeId victim_;
};

TEST(SwitchFsFault, LostCreateAckCompletesFromCompletionRecord) {
  // The switch's ack to the client is lost after the insert took effect; the
  // client's retransmit is answered from the server's completion record.
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  DropFirstInsertAck dropper(fs.cluster.data_plane(), fs.client->rpc().id());
  fs.cluster.network().SetSwitch(&dropper);
  ASSERT_TRUE(fs.Create("/d/f").ok());
  EXPECT_TRUE(dropper.dropped);
  EXPECT_EQ(fs.client->rpc().retransmits_sent(), 1u);
  // The replay is the bare create response: the record does not hold the
  // envelope and its change-log backlog.
  EXPECT_EQ(dropper.envelopes, 1);
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
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
  cfg.server_template.async_updates = GetParam();
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

// Once armed, holds every packet `match` selects (retransmits included, so a
// held RPC cannot slip past on its next attempt) until Release re-injects
// them in arrival order. `held` counts the packets it ever held.
class HoldPackets : public net::SwitchBehavior {
 public:
  HoldPackets(net::SwitchBehavior* inner,
              std::function<bool(const net::Packet&)> match)
      : inner_(inner), match_(std::move(match)) {}

  std::vector<net::Packet> Process(net::Packet p) override {
    std::vector<net::Packet> out = inner_->Process(std::move(p));
    if (!armed) {
      return out;
    }
    const auto kept = std::stable_partition(
        out.begin(), out.end(),
        [&](const net::Packet& q) { return !match_(q); });
    held += out.end() - kept;
    for (auto it = kept; it != out.end(); ++it) {
      packets_.push_back(std::move(*it));
    }
    out.erase(kept, out.end());
    return out;
  }
  sim::SimTime PipelineDelay() const override {
    return inner_->PipelineDelay();
  }

  void Release(net::Network& network) {
    armed = false;
    for (net::Packet& q : packets_) {
      network.Send(std::move(q));
    }
    packets_.clear();
  }

  bool armed = false;
  int64_t held = 0;

 private:
  net::SwitchBehavior* inner_;
  std::function<bool(const net::Packet&)> match_;
  std::vector<net::Packet> packets_;
};

struct InFlightAggregationRun {
  Status other_created = InternalError("not run");
  Status mine_created = InternalError("not run");
  StatusOr<std::vector<DirEntry>> peer_listing = InternalError("not run");
  StatusOr<std::vector<DirEntry>> listing = InternalError("not run");
};

sim::Task<void> ReaddirInto(SwitchFsClient* c, std::string path,
                            StatusOr<std::vector<DirEntry>>* out) {
  *out = co_await c->Readdir(path);
}

// The peer scatters /d with `other` and starts a readdir whose aggregation
// the hold keeps in flight; 5 µs later the harness client creates `mine`
// and lists /d; 30 µs after that the held replies are released.
sim::Task<void> CreateDuringAggregation(FsHarness* fs, SwitchFsClient* peer,
                                        HoldPackets* hold,
                                        std::string other, std::string mine,
                                        InFlightAggregationRun* run) {
  run->other_created = co_await peer->Create("/d/" + other);
  hold->armed = true;
  sim::Spawn(ReaddirInto(peer, "/d", &run->peer_listing));
  co_await sim::Delay(&fs->cluster.sim(), sim::Microseconds(5));
  run->mine_created = co_await fs->client->Create("/d/" + mine);
  sim::Spawn(ReaddirInto(fs->client.get(), "/d", &run->listing));
  co_await sim::Delay(&fs->cluster.sim(), sim::Microseconds(30));
  hold->Release(fs->cluster.network());
}

TEST(SwitchFsFault, ReaddirListsOwnCreateCommittedDuringAggregation) {
  // A create commits at /d's owner after the owner's in-flight aggregation
  // took its local snapshot, and sets the dirty bit again. The creator's
  // next readdir queues behind that aggregation; it may skip its own only
  // after an aggregation that STARTED after its dirty-set check (§5.2.2).
  // Long push timers keep every entry deferred until a read collects it.
  ClusterConfig cfg = SmallClusterConfig();
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  auto d = fs.StatDir("/d");
  ASSERT_TRUE(d.ok());
  const uint32_t owner = fs.cluster.ring().Owner(FingerprintOf(RootId(), "d"));
  // `mine` must live at /d's owner: a remote create would wait on its
  // server's shared change-log lock until the aggregation's AggDone, but
  // the owner snapshots its own logs once, without holding that lock.
  std::string mine;
  std::string other;
  for (int i = 0; mine.empty() || other.empty(); ++i) {
    const std::string name = "n" + std::to_string(i);
    const bool at_owner =
        fs.cluster.ring().Owner(FingerprintOf(d->id, name)) == owner;
    (at_owner ? mine : other) = name;
  }

  // Holds the AggEntries replies to the owner's aggregation, so it stays in
  // flight until the script releases them.
  const net::NodeId owner_node = fs.cluster.ServerNode(owner);
  HoldPackets hold(fs.cluster.data_plane(), [&](const net::Packet& q) {
    return q.dst == owner_node && net::MsgAs<AggEntries>(q.body) != nullptr;
  });
  fs.cluster.network().SetSwitch(&hold);
  std::unique_ptr<SwitchFsClient> peer = fs.cluster.MakeClient();
  InFlightAggregationRun run;
  fs.Run(CreateDuringAggregation(&fs, peer.get(), &hold, other, mine, &run));
  ASSERT_TRUE(run.other_created.ok());
  ASSERT_TRUE(run.mine_created.ok());
  EXPECT_GT(hold.held, 0);
  EXPECT_EQ(Names(run.peer_listing).count(other), 1u);
  ASSERT_TRUE(run.listing.ok()) << run.listing.status().ToString();
  EXPECT_EQ(Names(run.listing), (std::set<std::string>{mine, other}))
      << "readdir missed the caller's own create";
}

// Once armed, drops every copy of the AggEntries reply `responder` sends
// `initiator` for the first collect round it sees, so the initiator's
// aggregation times out and retries that round.
class DropFirstAggEntries : public net::SwitchBehavior {
 public:
  DropFirstAggEntries(net::SwitchBehavior* inner, net::NodeId responder,
                      net::NodeId initiator)
      : inner_(inner), responder_(responder), initiator_(initiator) {}

  std::vector<net::Packet> Process(net::Packet p) override {
    std::vector<net::Packet> out = inner_->Process(std::move(p));
    if (!armed) {
      return out;
    }
    auto lost = [&](const net::Packet& q) {
      const auto* reply = net::MsgAs<AggEntries>(q.body);
      if (reply == nullptr || q.src != responder_ || q.dst != initiator_) {
        return false;
      }
      if (!seq_.has_value()) {
        seq_ = reply->agg_seq;
      }
      return reply->agg_seq == *seq_;
    };
    const auto kept = std::remove_if(out.begin(), out.end(), lost);
    dropped += out.end() - kept;
    out.erase(kept, out.end());
    return out;
  }
  sim::SimTime PipelineDelay() const override {
    return inner_->PipelineDelay();
  }

  bool armed = false;
  int64_t dropped = 0;

 private:
  net::SwitchBehavior* inner_;
  net::NodeId responder_;
  net::NodeId initiator_;
  std::optional<uint64_t> seq_;
};

// The peer scatters /d with `other` and starts a readdir whose first collect
// round `drop` loses; 5 µs later the harness client creates `mine`, and 3 ms
// later, after the owner's collect retry, it lists /d.
sim::Task<void> CreateBetweenCollectAttempts(FsHarness* fs,
                                             SwitchFsClient* peer,
                                             DropFirstAggEntries* drop,
                                             std::string other,
                                             std::string mine,
                                             InFlightAggregationRun* run) {
  run->other_created = co_await peer->Create("/d/" + other);
  drop->armed = true;
  sim::Spawn(ReaddirInto(peer, "/d", &run->peer_listing));
  co_await sim::Delay(&fs->cluster.sim(), sim::Microseconds(5));
  run->mine_created = co_await fs->client->Create("/d/" + mine);
  co_await sim::Delay(&fs->cluster.sim(), sim::Milliseconds(3));
  run->listing = co_await fs->client->Readdir("/d");
}

TEST(SwitchFsFault, ReaddirListsOwnCreateCommittedBetweenCollectAttempts) {
  // A collect retry removes /d's dirty bit again, so it must also collect
  // what the owner's own logs took since its first snapshot: here, a create
  // at the owner committed while the first round's reply was being lost.
  ClusterConfig cfg = SmallClusterConfig();
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  auto d = fs.StatDir("/d");
  ASSERT_TRUE(d.ok());
  const uint32_t owner = fs.cluster.ring().Owner(FingerprintOf(RootId(), "d"));
  std::string mine;
  std::string other;
  for (int i = 0; mine.empty() || other.empty(); ++i) {
    const std::string name = "n" + std::to_string(i);
    const bool at_owner =
        fs.cluster.ring().Owner(FingerprintOf(d->id, name)) == owner;
    (at_owner ? mine : other) = name;
  }
  const uint32_t other_server =
      fs.cluster.ring().Owner(FingerprintOf(d->id, other));

  DropFirstAggEntries drop(fs.cluster.data_plane(),
                           fs.cluster.ServerNode(other_server),
                           fs.cluster.ServerNode(owner));
  fs.cluster.network().SetSwitch(&drop);
  std::unique_ptr<SwitchFsClient> peer = fs.cluster.MakeClient();
  const uint64_t retries_before = fs.cluster.TotalStats().agg_retries;
  InFlightAggregationRun run;
  fs.Run(CreateBetweenCollectAttempts(&fs, peer.get(), &drop, other, mine,
                                      &run));
  ASSERT_TRUE(run.other_created.ok());
  ASSERT_TRUE(run.mine_created.ok());
  EXPECT_GE(drop.dropped, 1);
  EXPECT_GT(fs.cluster.TotalStats().agg_retries, retries_before);
  ASSERT_TRUE(run.listing.ok()) << run.listing.status().ToString();
  EXPECT_EQ(Names(run.listing), (std::set<std::string>{mine, other}))
      << "readdir missed the caller's own create";
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

// The channel that carries the racing create's parent update to /p/D's owner.
enum class ParentUpdateChannel {
  kSyncLocal,   // async_updates off, the creating server owns /p/D's group
  kSyncRemote,  // async_updates off, another server owns it
  kOverflow,    // dirty-set inserts overflow: the §6.2 redirect to the owner
};

// A rename of /p/D to /q/D (another owner) races a create in /p/D: the
// rename's source commit leg is held while the create commits, and on the
// remote channel the create's parent update is also held until the rename
// commits. Whichever way the parent update's apply at the old owner ends,
// the entry must follow the directory: /q/D lists it, its size is exact, and
// no change-log entry stays pending.
void RunRenameRacingParentUpdate(ParentUpdateChannel channel) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.server_template.async_updates =
      channel == ParentUpdateChannel::kOverflow;
  FsHarness fs(cfg);
  if (channel == ParentUpdateChannel::kOverflow) {
    fs.cluster.data_plane()->SetForceInsertOverflow(true);
  }
  ASSERT_TRUE(fs.Mkdir("/p").ok());
  ASSERT_TRUE(fs.Mkdir("/q").ok());
  const InodeId p_id = fs.Stat("/p")->id;
  const InodeId q_id = fs.Stat("/q")->id;
  std::string dname;
  for (int i = 0;; ++i) {
    dname = "D" + std::to_string(i);
    if (fs.cluster.ring().Owner(FingerprintOf(p_id, dname)) !=
        fs.cluster.ring().Owner(FingerprintOf(q_id, dname))) {
      break;
    }
  }
  const std::string from = "/p/" + dname;
  const std::string to = "/q/" + dname;
  const uint32_t old_owner = fs.cluster.ring().Owner(FingerprintOf(p_id, dname));
  ASSERT_TRUE(fs.Mkdir(from).ok());
  // Warms the client's path cache: the racing create must not resolve /p/D
  // while the rename holds it.
  ASSERT_TRUE(fs.Create(from + "/warm").ok());
  const InodeId d_id = fs.Stat(from)->id;
  std::string name;
  for (int i = 0;; ++i) {
    name = "x" + std::to_string(i);
    const bool local =
        fs.cluster.ring().Owner(FingerprintOf(d_id, name)) == old_owner;
    if (local == (channel == ParentUpdateChannel::kSyncLocal)) {
      break;
    }
  }
  const net::NodeId old_owner_node = fs.cluster.ServerNode(old_owner);
  HoldPackets hold_commit(fs.cluster.data_plane(), [&](const net::Packet& q) {
    const auto* c = net::MsgAs<RenameCommit>(q.body);
    return c != nullptr && c->delete_inode && q.dst == old_owner_node;
  });
  HoldPackets hold_push(&hold_commit, [&](const net::Packet& q) {
    return q.dst == old_owner_node && net::MsgAs<PushReq>(q.body) != nullptr;
  });
  fs.cluster.network().SetSwitch(&hold_push);
  sim::Simulator& sim = fs.cluster.sim();
  const auto run_until = [&](const std::function<bool()>& done) {
    for (int step = 0; step < 1000 && !done(); ++step) {
      sim.RunUntil(sim.Now() + sim::Microseconds(2));
    }
    return done();
  };

  hold_commit.armed = true;
  Status renamed = InternalError("not run");
  std::unique_ptr<SwitchFsClient> renamer = fs.cluster.MakeClient();
  sim::Spawn([](SwitchFsClient* c, std::string f, std::string t,
                Status* out) -> sim::Task<void> {
    *out = co_await c->Rename(f, t);
  }(renamer.get(), from, to, &renamed));
  ASSERT_TRUE(run_until([&] { return hold_commit.held > 0; }));

  hold_push.armed = channel == ParentUpdateChannel::kSyncRemote;
  Status created = InternalError("not run");
  sim::Spawn([](SwitchFsClient* c, std::string path,
                Status* out) -> sim::Task<void> {
    *out = co_await c->Create(path);
  }(fs.client.get(), from + "/" + name, &created));
  if (channel == ParentUpdateChannel::kSyncRemote) {
    ASSERT_TRUE(run_until([&] { return hold_push.held > 0; }));
  } else {
    // Committed, and its parent update waits on /p/D's inode lock, which
    // the prepared rename holds.
    ASSERT_TRUE(run_until(
        [&] { return fs.cluster.TotalPendingChangeLogEntries() > 0; }));
    sim.RunUntil(sim.Now() + sim::Microseconds(20));
  }
  hold_commit.Release(fs.cluster.network());
  ASSERT_TRUE(run_until([&] { return renamed.ok(); }))
      << renamed.ToString();
  hold_push.Release(fs.cluster.network());
  sim.RunWhileWorkPending();

  ASSERT_TRUE(created.ok()) << created.ToString();
  EXPECT_GT(fs.cluster.TotalStats().entries_rebound, 0u)
      << "the race was not exercised: the entry was never re-keyed";
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  EXPECT_EQ(Names(fs.Readdir(to)), (std::set<std::string>{"warm", name}));
  auto sd = fs.StatDir(to);
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 2u);
}

TEST(SwitchFsFault, RenameRacingSyncLocalParentUpdateKeepsTheEntry) {
  RunRenameRacingParentUpdate(ParentUpdateChannel::kSyncLocal);
}

TEST(SwitchFsFault, RenameRacingSyncRemoteParentUpdateKeepsTheEntry) {
  RunRenameRacingParentUpdate(ParentUpdateChannel::kSyncRemote);
}

TEST(SwitchFsFault, RenameRacingOverflowFallbackKeepsTheEntry) {
  RunRenameRacingParentUpdate(ParentUpdateChannel::kOverflow);
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

TEST(SwitchFsFault, RecoveredServerKeepsChangeLogNumbering) {
  // Every change-log entry a server logged for /d is applied before it
  // crashes, so replay restores none of them as pending. The recovered log
  // must still number its next entries past the replayed ones: restarting
  // at 1 would reuse seqs the owner's high-water mark has passed, the owner
  // would drop the new entries as duplicates, and the source would trim
  // them — acked creates missing from readdir and statdir.
  FsHarness fs;
  std::string dir;
  for (int i = 0;; ++i) {
    dir = "/d" + std::to_string(i);
    if (fs.cluster.ring().Owner(FingerprintOf(RootId(), dir.substr(1))) !=
        0) {
      break;
    }
  }
  ASSERT_TRUE(fs.Mkdir(dir).ok());
  const InodeId dir_id = fs.StatDir(dir)->id;
  // Names whose inodes (and so change-log entries) live on server 0.
  const auto on_server0 = [&](const std::vector<std::string>& names) {
    int n = 0;
    for (const std::string& name : names) {
      n += fs.cluster.ring().Owner(FingerprintOf(dir_id, name)) == 0 ? 1 : 0;
    }
    return n;
  };
  std::vector<std::string> before;
  std::vector<std::string> after;
  for (int i = 0; i < 40; ++i) {
    before.push_back("f" + std::to_string(i));
  }
  for (int i = 0; i < 8; ++i) {
    after.push_back("g" + std::to_string(i));
  }
  ASSERT_GT(on_server0(before), 0);
  ASSERT_GT(on_server0(after), 0);

  for (const std::string& name : before) {
    ASSERT_TRUE(fs.Create(dir + "/" + name).ok()) << name;
  }
  ASSERT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  fs.cluster.CrashServer(0);
  fs.Run(fs.cluster.RecoverServer(0));
  ASSERT_TRUE(fs.cluster.server(0).serving());
  for (const std::string& name : after) {
    ASSERT_TRUE(fs.Create(dir + "/" + name).ok()) << name;
    ASSERT_TRUE(fs.Stat(dir + "/" + name).ok()) << name;
  }

  auto listing = fs.Readdir(dir);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), before.size() + after.size());
  auto sd = fs.StatDir(dir);
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, before.size() + after.size());
  EXPECT_EQ(fs.cluster.TotalStats().entries_deduped, 0u);
}

TEST(SwitchFsFault, RenameAndLinkRetryWhileTheCoordinatorRecovers) {
  // Ops that reach a recovering server are answered kUnavailable. Renames
  // (coordinated by server 0) and links (sent to the owner of the new name)
  // back off and retry like every other op instead of failing, and take
  // effect once the server serves again.
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/old").ok());
  ASSERT_TRUE(fs.Create("/d/src").ok());
  const InodeId d_id = fs.StatDir("/d")->id;
  const InodeId old_id = fs.Stat("/d/old")->id;
  const InodeId src_id = fs.Stat("/d/src")->id;
  // A link name owned by the recovering server, so the link meets it too.
  std::string lnk;
  for (int i = 0;; ++i) {
    lnk = "lnk" + std::to_string(i);
    if (fs.cluster.ring().Owner(FingerprintOf(d_id, lnk)) ==
        kRenameCoordinator) {
      break;
    }
  }

  fs.cluster.CrashServer(kRenameCoordinator);
  sim::Spawn(fs.cluster.RecoverServer(kRenameCoordinator));
  Status renamed = InternalError("not run");
  Status linked = InternalError("not run");
  std::vector<Status> creates(8, InternalError("not run"));
  sim::Spawn([](SwitchFsClient* c, Status* out) -> sim::Task<void> {
    *out = co_await c->Rename("/d/old", "/d/new");
  }(fs.client.get(), &renamed));
  sim::Spawn([](SwitchFsClient* c, std::string dst,
                Status* out) -> sim::Task<void> {
    *out = co_await c->Link("/d/src", dst);
  }(fs.client.get(), "/d/" + lnk, &linked));
  sim::Spawn([](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = co_await c->Create("/d/x" + std::to_string(i));
    }
  }(fs.client.get(), &creates));
  ASSERT_FALSE(fs.cluster.server(kRenameCoordinator).serving());
  fs.cluster.sim().Run();
  ASSERT_TRUE(fs.cluster.server(kRenameCoordinator).serving());

  EXPECT_TRUE(renamed.ok()) << renamed.ToString();
  EXPECT_TRUE(linked.ok()) << linked.ToString();
  for (const Status& s : creates) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_EQ(fs.Stat("/d/old").status().code(), StatusCode::kNotFound);
  auto moved = fs.Stat("/d/new");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->id, old_id);
  auto alias = fs.Stat("/d/" + lnk);
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias->id, src_id);
  EXPECT_EQ(alias->nlink, 2u);
  auto listing = fs.Readdir("/d");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(Names(listing).count("new"), 1u);
  EXPECT_EQ(Names(listing).count(lnk), 1u);
  EXPECT_EQ(listing->size(), 3u + creates.size());
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

// The dedicated tracker is the one-replica chain, a single point of
// failure: while its node is down, inserts degrade to synchronous fallbacks
// and every directory read is treated as scattered, so the reads still see
// the deferred updates that were pending at the crash. RecoverNode restarts
// it empty and reconstructs the set from the servers' pending change-logs.
TEST(SwitchFsFault, DedicatedTrackerCrashRecoveryRebuildsDirtySet) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.tracker = TrackerMode::kDedicatedServer;
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  auto* rep = fs.cluster.replicated_tracker();
  ASSERT_NE(rep, nullptr);
  ASSERT_EQ(rep->replica_count(), 1);

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

  rep->CrashNode(0);
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
  EXPECT_TRUE(rep->chain().empty());

  // Reads during the outage aggregate: every acked create of /d is visible.
  std::vector<DirCheck> outage(1);
  RunWindow(fs, sim::Milliseconds(100),
            CheckDirs(fs.client.get(), {"/d"}, &outage));
  ASSERT_TRUE(outage[0].stat_status.ok());
  EXPECT_EQ(outage[0].size, 8u) << "statdir during the tracker outage";
  ASSERT_TRUE(outage[0].list_status.ok());
  EXPECT_EQ(outage[0].entries, 8u) << "readdir during the tracker outage";

  // Operator-driven recovery: restart + reconstruct from server snapshots.
  bool recovered = false;
  RunWindow(fs, sim::Milliseconds(100),
            [](tracker::ReplicatedTracker* t, bool* out) -> sim::Task<void> {
              co_await t->RecoverNode(0);
              *out = true;
            }(rep, &recovered));
  ASSERT_TRUE(recovered);
  EXPECT_EQ(rep->chain(), std::vector<int>{0});
  EXPECT_GT(rep->reconstructed_entries(), 0u);

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

// A crashed replica rejoins the chain at its tail through the failover's
// rebuild (RecoverNode), so a second crash later still leaves two replicas
// serving instead of one.
TEST(SwitchFsFault, RecoveredTrackerReplicaRejoinsTheChain) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.tracker = TrackerMode::kReplicated;
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  auto* rep = fs.cluster.replicated_tracker();
  ASSERT_NE(rep, nullptr);
  ASSERT_EQ(rep->chain().size(), 3u);

  constexpr int kDirs = 4;
  std::vector<std::string> dirs;
  for (int d = 0; d < kDirs; ++d) {
    dirs.push_back("/d" + std::to_string(d));
  }
  // Creates `per_dir` files named <tag><i> in every directory.
  auto creates = [&fs, &dirs](const std::string& tag, int per_dir) {
    std::vector<Status> results(dirs.size() * per_dir, InternalError(""));
    RunWindow(fs, sim::Milliseconds(100),
              [](SwitchFsClient* c, std::vector<std::string> ds, std::string t,
                 std::vector<Status>* out) -> sim::Task<void> {
                for (size_t i = 0; i < out->size(); ++i) {
                  (*out)[i] = co_await c->Create(ds[i % ds.size()] + "/" + t +
                                                 std::to_string(i / ds.size()));
                }
              }(fs.client.get(), dirs, tag, &results));
    return results;
  };
  std::vector<Status> mkdirs(kDirs, InternalError(""));
  RunWindow(fs, sim::Milliseconds(20),
            [](SwitchFsClient* c, std::vector<std::string> ds,
               std::vector<Status>* out) -> sim::Task<void> {
              for (size_t i = 0; i < ds.size(); ++i) {
                (*out)[i] = co_await c->Mkdir(ds[i]);
              }
            }(fs.client.get(), dirs, &mkdirs));
  for (const Status& st : mkdirs) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  // The head dies; the next insert fails the chain over to two replicas.
  const int old_head = rep->head_index();
  rep->CrashNode(old_head);
  for (const Status& st : creates("a", 3)) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  ASSERT_EQ(rep->chain().size(), 2u);
  EXPECT_EQ(rep->failovers(), 1u);

  // The crashed replica rejoins at the tail, and every member holds the
  // rebuilt set: each directory's deferred creates are still pending.
  bool recovered = false;
  RunWindow(fs, sim::Milliseconds(100),
            [](tracker::ReplicatedTracker* t, int i,
               bool* out) -> sim::Task<void> {
              co_await t->RecoverNode(i);
              *out = true;
            }(rep, old_head, &recovered));
  ASSERT_TRUE(recovered);
  ASSERT_EQ(rep->chain().size(), 3u);
  EXPECT_EQ(rep->tail_index(), old_head);
  EXPECT_FALSE(rep->rebuilding());
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  for (const std::string& d : dirs) {
    const psw::Fingerprint fp = FingerprintOf(RootId(), d.substr(1));
    for (int i : rep->chain()) {
      EXPECT_TRUE(rep->node(i).dirty_set().Query(fp))
          << d << " on replica " << i;
    }
  }

  // Another replica dies: the chain fails over to two and keeps serving.
  rep->CrashNode(rep->head_index());
  for (const Status& st : creates("b", 3)) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(rep->failovers(), 2u);
  ASSERT_EQ(rep->chain().size(), 2u);
  EXPECT_EQ(std::count(rep->chain().begin(), rep->chain().end(), old_head), 1);

  std::vector<DirCheck> checks(kDirs + 1);
  std::vector<std::string> read_dirs = dirs;
  read_dirs.push_back("/");
  RunWindow(fs, sim::Milliseconds(100),
            CheckDirs(fs.client.get(), read_dirs, &checks));
  for (int d = 0; d < kDirs; ++d) {
    ASSERT_TRUE(checks[d].stat_status.ok()) << dirs[d];
    EXPECT_EQ(checks[d].size, 6u) << dirs[d];
    ASSERT_TRUE(checks[d].list_status.ok()) << dirs[d];
    EXPECT_EQ(checks[d].entries, 6u) << dirs[d];
  }
  ASSERT_TRUE(checks[kDirs].stat_status.ok());
  EXPECT_EQ(checks[kDirs].size, static_cast<uint64_t>(kDirs));
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // Keeps serving through the two survivors (the helpers drain the parked
  // long timers, so teardown is quiescent).
  ASSERT_TRUE(fs.Create("/d0/after_rejoin").ok());
  auto sd = fs.StatDir("/d0");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 7u);
}

// Owner-tracked mode: a create whose MarkScattered call to the directory's
// owner fails must not be acked as deferred, since the owner's next read
// would skip aggregation. It falls back to the synchronous parent update.
TEST(SwitchFsFault, OwnerTrackerFallsBackWhenMarkScatteredFails) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.tracker = TrackerMode::kOwnerServer;
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  const uint32_t owner = fs.cluster.ring().Owner(FingerprintOf(RootId(), "d"));
  auto dir = fs.StatDir("/d");
  ASSERT_TRUE(dir.ok());
  // Eight names whose creates run on a server other than /d's owner, so
  // each one marks /d scattered through a MarkScattered RPC.
  std::vector<std::string> names;
  for (int i = 0; names.size() < 8; ++i) {
    const std::string name = "f" + std::to_string(i);
    if (fs.cluster.ring().Owner(FingerprintOf(dir->id, name)) != owner) {
      names.push_back(name);
    }
  }

  net::PlainSwitch plain(fs.cluster.costs().plain_switch_delay);
  std::vector<net::NodeId> group;
  for (uint32_t i = 0; i < fs.cluster.ServerCount(); ++i) {
    group.push_back(fs.cluster.ServerNode(i));
  }
  plain.SetServerGroup(group);
  HoldPackets dropper(&plain, [](const net::Packet& q) {
    return net::MsgAs<MarkScattered>(q.body) != nullptr;
  });
  dropper.armed = true;
  fs.cluster.network().SetSwitch(&dropper);

  std::vector<Status> results(names.size(), InternalError(""));
  RunWindow(fs, sim::Milliseconds(100),
            [](SwitchFsClient* c, std::vector<std::string> ns,
               std::vector<Status>* out) -> sim::Task<void> {
              for (size_t i = 0; i < ns.size(); ++i) {
                (*out)[i] = co_await c->Create("/d/" + ns[i]);
              }
            }(fs.client.get(), names, &results));
  for (const Status& st : results) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_GE(dropper.held, 8);

  std::vector<DirCheck> checks(1);
  RunWindow(fs, sim::Milliseconds(100),
            CheckDirs(fs.client.get(), {"/d"}, &checks));
  ASSERT_TRUE(checks[0].stat_status.ok());
  EXPECT_EQ(checks[0].size, 8u);
  ASSERT_TRUE(checks[0].list_status.ok());
  EXPECT_EQ(checks[0].entries, 8u);
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  fs.cluster.sim().Run();  // retire the parked timers while `dropper` lives
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
