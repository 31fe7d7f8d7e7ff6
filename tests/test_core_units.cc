// Unit tests for core building blocks that the protocol suites exercise only
// indirectly: the reference-counted lock table, the client cache, the
// timestamped invalidation list, change-log compaction state, schema keys,
// consistent-hash placement, and the server counter sum.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/change_log.h"
#include "src/core/client_cache.h"
#include "src/core/invalidation.h"
#include "src/core/lock_table.h"
#include "src/core/placement.h"
#include "src/core/schema.h"
#include "src/core/server_context.h"
#include "src/sim/simulator.h"

namespace switchfs::core {
namespace {

TEST(LockTable, SlotsAreReclaimedWhenIdle) {
  sim::Simulator sim;
  LockTable table(&sim);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    sim::Spawn([](sim::Simulator* s, LockTable* t, int* d) -> sim::Task<void> {
      auto h = co_await t->AcquireExclusive("key");
      co_await sim::Delay(s, 5);
      (*d)++;
    }(&sim, &table, &done));
  }
  EXPECT_GE(table.slot_count(), 1u);
  sim.Run();
  EXPECT_EQ(done, 8);
  EXPECT_EQ(table.slot_count(), 0u);  // last release reclaims the slot
}

// A waiter whose chain is cancelled while queued: the grant handed to it
// lands in its Handle, so the unwind releases the lock AND the slot.
TEST(LockTable, CancelledWaiterReleasesGrantAndSlot) {
  sim::Simulator sim;
  LockTable table(&sim);
  sim::Incarnation inc;
  std::vector<std::string> order;
  sim::Spawn([](sim::Simulator* s, LockTable* t,
                std::vector<std::string>* o) -> sim::Task<void> {
    auto h = co_await t->AcquireExclusive("k");
    co_await sim::Delay(s, 10);
    o->push_back("holder");
  }(&sim, &table, &order));
  sim::Spawn([](LockTable* t, std::vector<std::string>* o) -> sim::Task<void> {
    auto h = co_await t->AcquireShared("k");
    o->push_back("cancelled reader");
  }(&table, &order), &inc);
  sim::Spawn([](LockTable* t, std::vector<std::string>* o) -> sim::Task<void> {
    auto h = co_await t->AcquireExclusive("k");
    o->push_back("writer");
  }(&table, &order));
  sim.ScheduleAt(5, [&inc] { inc.dead = true; });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"holder", "writer"}));
  EXPECT_EQ(table.slot_count(), 0u);
}

TEST(LockTable, MixedSharedExclusiveFifo) {
  sim::Simulator sim;
  LockTable table(&sim);
  std::string order;
  auto reader = [](sim::Simulator* s, LockTable* t, std::string* o,
                   char tag) -> sim::Task<void> {
    auto h = co_await t->AcquireShared("k");
    o->push_back(tag);
    co_await sim::Delay(s, 10);
  };
  auto writer = [](sim::Simulator* s, LockTable* t, std::string* o,
                   char tag) -> sim::Task<void> {
    auto h = co_await t->AcquireExclusive("k");
    o->push_back(tag);
    co_await sim::Delay(s, 10);
  };
  sim.ScheduleAt(0, [&] { sim::Spawn(reader(&sim, &table, &order, 'a')); });
  sim.ScheduleAt(1, [&] { sim::Spawn(writer(&sim, &table, &order, 'W')); });
  sim.ScheduleAt(2, [&] { sim::Spawn(reader(&sim, &table, &order, 'b')); });
  sim.Run();
  EXPECT_EQ(order, "aWb");
  EXPECT_EQ(table.slot_count(), 0u);
}

TEST(LockTable, IndependentKeysDoNotInterfere) {
  sim::Simulator sim;
  LockTable table(&sim);
  sim::SimTime done_a = 0;
  sim::SimTime done_b = 0;
  sim::Spawn([](sim::Simulator* s, LockTable* t, sim::SimTime* out)
                 -> sim::Task<void> {
    auto h = co_await t->AcquireExclusive("a");
    co_await sim::Delay(s, 100);
    *out = s->Now();
  }(&sim, &table, &done_a));
  sim::Spawn([](sim::Simulator* s, LockTable* t, sim::SimTime* out)
                 -> sim::Task<void> {
    auto h = co_await t->AcquireExclusive("b");
    co_await sim::Delay(s, 100);
    *out = s->Now();
  }(&sim, &table, &done_b));
  sim.Run();
  EXPECT_EQ(done_a, 100);
  EXPECT_EQ(done_b, 100);  // parallel, not serialized
}

TEST(ClientCache, InvalidateIdDropsDependentEntries) {
  ClientCache cache;
  InodeId a;
  a.w[0] = 1;
  InodeId b;
  b.w[0] = 2;
  InodeId c;
  c.w[0] = 3;
  CachedDir da{a, 0, 0755, {{RootId(), 0}, {a, 10}}};
  CachedDir db{b, 0, 0755, {{RootId(), 0}, {a, 10}, {b, 11}}};
  CachedDir dc{c, 0, 0755, {{RootId(), 0}, {c, 12}}};
  cache.Put("/a", da);
  cache.Put("/a/b", db);
  cache.Put("/c", dc);
  EXPECT_EQ(cache.InvalidateId(a), 2u);  // /a and /a/b
  EXPECT_EQ(cache.Get("/a"), nullptr);
  EXPECT_EQ(cache.Get("/a/b"), nullptr);
  EXPECT_NE(cache.Get("/c"), nullptr);
}

TEST(Invalidation, TimestampOrderingGovernsStaleness) {
  InvalidationList list;
  InodeId id;
  id.w[0] = 7;
  list.Add(id, /*now=*/100);
  // Cached before the invalidation: stale.
  std::vector<AncestorRef> old_chain = {{id, 50}};
  EXPECT_EQ(list.Check(old_chain).size(), 1u);
  // Cached at the same instant: conservatively stale.
  std::vector<AncestorRef> same_chain = {{id, 100}};
  EXPECT_EQ(list.Check(same_chain).size(), 1u);
  // Re-fetched after: fresh (a failed rmdir cannot poison the cache forever).
  std::vector<AncestorRef> new_chain = {{id, 101}};
  EXPECT_TRUE(list.Check(new_chain).empty());
}

TEST(Invalidation, SnapshotMergeKeepsNewestTimestamps) {
  InvalidationList a;
  InvalidationList b;
  InodeId id;
  id.w[0] = 9;
  a.Add(id, 100);
  b.Add(id, 50);
  b.Merge(a.Snapshot());
  std::vector<AncestorRef> chain = {{id, 75}};
  EXPECT_EQ(b.Check(chain).size(), 1u);  // newest (100) wins
}

TEST(Invalidation, PruneDropsOldEntries) {
  InvalidationList list;
  InodeId id1;
  id1.w[0] = 1;
  InodeId id2;
  id2.w[0] = 2;
  list.Add(id1, 10);
  list.Add(id2, 200);
  list.PruneBefore(100);
  EXPECT_FALSE(list.Contains(id1));
  EXPECT_TRUE(list.Contains(id2));
}

TEST(ChangeLog, AppendAssignsFifoSeqAndTracksCompactedState) {
  ChangeLog log(InodeId{}, 42);
  ChangeLogEntry e1;
  e1.timestamp = 10;
  e1.name = "a";
  e1.size_delta = 1;
  ChangeLogEntry e2;
  e2.timestamp = 30;
  e2.name = "b";
  e2.size_delta = 1;
  ChangeLogEntry e3;
  e3.timestamp = 20;
  e3.name = "a";
  e3.size_delta = -1;
  EXPECT_EQ(log.Append(e1), 1u);
  EXPECT_EQ(log.Append(e2), 2u);
  EXPECT_EQ(log.Append(e3), 3u);
  // Compaction state (Fig 7): max timestamp + net size delta.
  EXPECT_EQ(log.max_timestamp(), 30);
  EXPECT_EQ(log.pending_size_delta(), 1);
  EXPECT_EQ(log.size(), 3u);
}

TEST(ChangeLog, AckUpToDropsPrefixAndReturnsWalLsns) {
  ChangeLog log(InodeId{}, 1);
  for (int i = 0; i < 5; ++i) {
    ChangeLogEntry e;
    e.name = "f" + std::to_string(i);
    e.wal_lsn = 100 + i;
    log.Append(e);
  }
  auto lsns = log.AckUpTo(3);
  EXPECT_EQ(lsns, (std::vector<uint64_t>{100, 101, 102}));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.pending().front().seq, 4u);
  // Re-acking is a no-op.
  EXPECT_TRUE(log.AckUpTo(3).empty());
}

TEST(ChangeLog, RestorePreservesSeqAcrossRecovery) {
  ChangeLog log(InodeId{}, 1);
  ChangeLogEntry e;
  e.seq = 7;
  e.name = "x";
  log.Restore(e);
  EXPECT_EQ(log.last_appended_seq(), 7u);
  ChangeLogEntry next;
  next.name = "y";
  EXPECT_EQ(log.Append(next), 8u);
}

TEST(ChangeLogEntry, EncodeDecodeRoundTrip) {
  ChangeLogEntry e;
  e.seq = 42;
  e.timestamp = 123456789;
  e.op = OpType::kRmdir;
  e.name = "subdir";
  e.entry_type = FileType::kDirectory;
  e.size_delta = -1;
  Encoder enc;
  e.EncodeTo(enc);
  Decoder dec(enc.data());
  ChangeLogEntry d = ChangeLogEntry::DecodeFrom(dec);
  EXPECT_EQ(d.seq, 42u);
  EXPECT_EQ(d.timestamp, 123456789);
  EXPECT_EQ(d.op, OpType::kRmdir);
  EXPECT_EQ(d.name, "subdir");
  EXPECT_EQ(d.entry_type, FileType::kDirectory);
  EXPECT_EQ(d.size_delta, -1);
}

TEST(Schema, KeysRoundTripAndPartitionDeterministically) {
  InodeId pid;
  pid.w[0] = 0xdead;
  const std::string ikey = InodeKey(pid, "file.txt");
  EXPECT_EQ(ikey.size(), 1 + 32 + 8u);
  EXPECT_EQ(ikey[0], 'i');
  const std::string ekey = EntryKey(pid, "file.txt");
  EXPECT_EQ(EntryNameFromKey(ekey), "file.txt");
  EXPECT_EQ(NameHash(pid, "file.txt"), NameHash(pid, "file.txt"));
  EXPECT_NE(NameHash(pid, "file.txt"), NameHash(pid, "file2.txt"));
  EXPECT_NE(FingerprintOf(pid, "a"), FingerprintOf(pid, "b"));
}

TEST(Placement, RingIsBalancedAndStableUnderGrowth) {
  HashRing ring({0, 1, 2, 3, 4, 5, 6, 7});
  switchfs::Rng rng(3);
  std::vector<int> counts(8, 0);
  std::vector<psw::Fingerprint> fps;
  for (int i = 0; i < 80000; ++i) {
    fps.push_back(psw::FingerprintFromHash(rng.Next()));
    counts[ring.Owner(fps.back())]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 5000);
    EXPECT_LT(c, 16000);
  }
  // Adding a server moves only ~1/9 of the keys (consistent hashing, §5.5).
  HashRing bigger = ring;
  bigger.AddServer(8);
  int moved = 0;
  for (psw::Fingerprint fp : fps) {
    if (ring.Owner(fp) != bigger.Owner(fp)) {
      moved++;
    }
  }
  EXPECT_LT(moved, 80000 / 5);
  EXPECT_GT(moved, 80000 / 30);
}

TEST(Attr, EncodeDecodeRoundTripIncludingReferences) {
  Attr a;
  a.id.w[0] = 5;
  a.type = FileType::kReference;
  a.mode = 0640;
  a.size = 3;  // attr-server index for references
  a.nlink = 4;
  Attr b = Attr::Decode(a.Encode());
  EXPECT_EQ(b.id, a.id);
  EXPECT_EQ(b.type, FileType::kReference);
  EXPECT_EQ(b.mode, 0640u);
  EXPECT_EQ(b.size, 3u);
  EXPECT_EQ(b.nlink, 4u);
}

// Walks the counter list: every counter gets a distinct value in both
// blocks, and += must sum each one. The struct must hold exactly the listed
// counters, so a counter declared outside server_stats.def (and therefore
// missing from +=) fails here.
TEST(ServerStats, PlusEqualsSumsEveryListedCounter) {
  ServerStats total;
  ServerStats add;
  uint64_t n = 0;
#define SFS_SERVER_STAT(name) \
  ++n;                        \
  total.name = n;             \
  add.name = 1000 * n;
#include "src/core/server_stats.def"
#undef SFS_SERVER_STAT
  EXPECT_EQ(sizeof(ServerStats), n * sizeof(uint64_t));

  total += add;
  n = 0;
#define SFS_SERVER_STAT(name) \
  ++n;                        \
  EXPECT_EQ(total.name, 1001 * n) << #name;
#include "src/core/server_stats.def"
#undef SFS_SERVER_STAT
}

}  // namespace
}  // namespace switchfs::core
