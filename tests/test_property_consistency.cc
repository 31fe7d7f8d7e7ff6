// Property-based consistency sweeps: random operation soups across seeds and
// fault profiles, checked against global invariants after quiescence:
//  (I1) every directory's size attribute equals its entry-list cardinality,
//  (I2) every file whose create was acknowledged (and not later unlinked)
//       is visible to stat AND listed by readdir,
//  (I3) no change-log entries linger after the drain,
//  (I4) the switch dirty set ends empty (every scattered directory returned
//       to normal state via reads or proactive aggregation, Fig 3).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/strings.h"
#include "tests/switchfs_test_util.h"

namespace switchfs::core {
namespace {

struct SweepParam {
  uint64_t seed;
  double loss;
  double dup;
  int jitter_us;
};

class ConsistencySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConsistencySweep, RandomOpSoupUpholdsInvariants) {
  const SweepParam param = GetParam();
  ClusterConfig cfg = SmallClusterConfig(4);
  cfg.seed = param.seed;
  cfg.faults.loss_probability = param.loss;
  cfg.faults.duplicate_probability = param.dup;
  cfg.faults.reorder_jitter = sim::Microseconds(param.jitter_us);
  FsHarness fs(cfg);

  constexpr int kDirs = 6;
  std::vector<std::string> dirs;
  for (int d = 0; d < kDirs; ++d) {
    dirs.push_back("/d" + std::to_string(d));
    ASSERT_TRUE(fs.Mkdir(dirs.back()).ok());
  }

  // Concurrent workers mutate a partitioned namespace (each worker owns its
  // name suffix so the expected end state is exact).
  constexpr int kWorkers = 6;
  constexpr int kOpsPerWorker = 60;
  struct WorkerLog {
    std::set<std::string> live;  // paths this worker believes exist
  };
  std::vector<WorkerLog> logs(kWorkers);
  std::vector<std::unique_ptr<SwitchFsClient>> clients;
  for (int w = 0; w < kWorkers; ++w) {
    clients.push_back(fs.cluster.MakeClient());
  }

  for (int w = 0; w < kWorkers; ++w) {
    sim::Spawn([](SwitchFsClient* c, std::vector<std::string> dirs, int id,
                  uint64_t seed, WorkerLog* log) -> sim::Task<void> {
      Rng rng(seed ^ (0xabcdefULL * (id + 1)));
      int counter = 0;
      for (int i = 0; i < kOpsPerWorker; ++i) {
        const std::string& dir = dirs[rng.NextBelow(dirs.size())];
        const int action = static_cast<int>(rng.NextBelow(10));
        if (action < 5 || log->live.empty()) {
          // Create a fresh file. Under lossy transport a client-level retry
          // can observe ALREADY_EXISTS for its *own* earlier success (names
          // are worker-unique), so that outcome also means "exists".
          const std::string path =
              dir + "/w" + std::to_string(id) + "_" + std::to_string(counter++);
          Status s = co_await c->Create(path);
          if (s.ok() || s.code() == StatusCode::kAlreadyExists) {
            log->live.insert(path);
          }
        } else if (action < 7) {
          // Delete one of ours; NOT_FOUND after retries likewise means the
          // earlier attempt already executed.
          const std::string path = *log->live.begin();
          Status s = co_await c->Unlink(path);
          if (s.ok() || s.code() == StatusCode::kNotFound) {
            log->live.erase(path);
          }
        } else if (action < 9) {
          (void)co_await c->StatDir(dir);
        } else {
          (void)co_await c->Readdir(dir);
        }
      }
    }(clients[w].get(), dirs, w, param.seed, &logs[w]));
  }
  fs.cluster.sim().Run();

  // Expected end state per directory.
  std::map<std::string, std::set<std::string>> expected;
  for (const auto& d : dirs) {
    expected[d] = {};
  }
  for (const WorkerLog& log : logs) {
    for (const std::string& path : log.live) {
      expected[std::string(switchfs::ParentPath(path))].insert(
          std::string(switchfs::Basename(path)));
    }
  }

  // (I3): nothing pending after the drain.
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  for (const auto& d : dirs) {
    // (I1) + (I2): size == |entries| == expected set.
    auto sd = fs.StatDir(d);
    ASSERT_TRUE(sd.ok()) << d;
    auto listing = fs.Readdir(d);
    ASSERT_TRUE(listing.ok()) << d;
    std::set<std::string> got;
    for (const DirEntry& e : *listing) {
      got.insert(e.name);
    }
    EXPECT_EQ(sd->size, got.size()) << d;
    EXPECT_EQ(got, expected[d]) << d;
    for (const std::string& name : expected[d]) {
      EXPECT_TRUE(fs.Stat(d + "/" + name).ok()) << d << "/" << name;
    }
  }

  // (I4): all fingerprints cleared from the dirty set after the reads above.
  uint64_t population = 0;
  for (int pipe = 0; pipe < 2; ++pipe) {
    population += fs.cluster.data_plane()->dirty_set(pipe).Population();
  }
  EXPECT_EQ(population, 0u);
}

// Rename-storm sweep (§5.2 rename race, moved_fp rebind): concurrent
// directory renames race create/unlink storms inside the renamed
// directories. Entries that commit under a directory's old fingerprint in
// the race window must be re-keyed to the new owner (moved tombstone), so
// the end-state invariant is absolute: no committed dirent ever vanishes —
// every directory's listing at its final path equals the exact set of
// acknowledged creates minus acknowledged unlinks, and size matches.
class RenameStormSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RenameStormSweep, NoCommittedDirentVanishes) {
  const uint64_t seed = GetParam();
  ClusterConfig cfg = SmallClusterConfig(4);
  cfg.seed = seed;
  FsHarness fs(cfg);

  constexpr int kSlots = 4;
  constexpr int kWorkers = 4;
  constexpr int kOpsPerWorker = 40;
  constexpr int kRenameRounds = 3;

  // current[i] is directory slot i's path right now; the renamer updates it
  // after each successful rename (coroutines are cooperative, so workers
  // read a consistent value).
  std::vector<std::string> current(kSlots);
  for (int i = 0; i < kSlots; ++i) {
    current[i] = "/d" + std::to_string(i);
    ASSERT_TRUE(fs.Mkdir(current[i]).ok());
  }

  struct WorkerLog {
    std::set<std::pair<int, std::string>> live;  // (slot, name) believed alive
  };
  std::vector<WorkerLog> logs(kWorkers);
  std::vector<std::unique_ptr<SwitchFsClient>> clients;
  for (int w = 0; w < kWorkers; ++w) {
    clients.push_back(fs.cluster.MakeClient());
  }
  for (int w = 0; w < kWorkers; ++w) {
    sim::Spawn([](SwitchFsClient* c, const std::vector<std::string>* cur,
                  int id, uint64_t seed, WorkerLog* log) -> sim::Task<void> {
      Rng rng(seed ^ (0x51acULL * (id + 1)));
      int counter = 0;
      for (int i = 0; i < kOpsPerWorker; ++i) {
        const int slot = static_cast<int>(rng.NextBelow(kSlots));
        if (rng.NextBelow(10) < 7 || log->live.empty()) {
          const std::string name =
              "w" + std::to_string(id) + "_" + std::to_string(counter++);
          Status s = co_await c->Create((*cur)[slot] + "/" + name);
          // A failed create (NOT_FOUND mid-rename, retries exhausted) did
          // not execute; only acknowledged creates are expected to survive.
          if (s.ok() || s.code() == StatusCode::kAlreadyExists) {
            log->live.insert({slot, name});
          }
        } else {
          const auto [slot2, name] = *log->live.begin();
          Status s = co_await c->Unlink((*cur)[slot2] + "/" + name);
          // Names are worker-unique, so the executing server cannot report
          // NOT_FOUND for a live file; a failure here means the unlink never
          // resolved (rename race) and the file is still live.
          if (s.ok()) {
            log->live.erase({slot2, name});
          }
        }
      }
    }(clients[w].get(), &current, w, seed, &logs[w]));
  }
  // The renamer storms every slot while the workers run.
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
        if (!s.ok()) {  // gtest ASSERT cannot `return` from a coroutine
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

  // Expected exact end state per slot.
  std::vector<std::set<std::string>> expected(kSlots);
  for (const WorkerLog& log : logs) {
    for (const auto& [slot, name] : log.live) {
      expected[slot].insert(name);
    }
  }

  // The storm must actually exercise the race: entries committed under old
  // fingerprints were re-keyed, not trimmed.
  const auto st = fs.cluster.TotalStats();
  EXPECT_GT(st.entries_rebound + st.agg_entries_rebound, 0u);

  // (I3) nothing pending after the drain, and (I1)+(I2) at the final paths.
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
    for (const std::string& name : expected[i]) {
      EXPECT_TRUE(fs.Stat(current[i] + "/" + name).ok())
          << current[i] << "/" << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenameStormSweep,
                         ::testing::Values(11, 12, 13, 14),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(
    SeedsAndFaults, ConsistencySweep,
    ::testing::Values(SweepParam{1, 0.0, 0.0, 0},
                      SweepParam{2, 0.0, 0.0, 0},
                      SweepParam{3, 0.0, 0.0, 4},
                      SweepParam{4, 0.02, 0.0, 0},
                      SweepParam{5, 0.0, 0.05, 0},
                      SweepParam{6, 0.02, 0.03, 2},
                      SweepParam{7, 0.05, 0.05, 4},
                      SweepParam{8, 0.0, 0.1, 8}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_loss" +
             std::to_string(static_cast<int>(info.param.loss * 100)) +
             "_dup" + std::to_string(static_cast<int>(info.param.dup * 100)) +
             "_jit" + std::to_string(info.param.jitter_us);
    });

}  // namespace
}  // namespace switchfs::core
