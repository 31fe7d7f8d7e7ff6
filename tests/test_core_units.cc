// Unit tests for core building blocks that the protocol suites exercise only
// indirectly: the reference-counted lock table, the client cache, the
// timestamped invalidation list, change-log compaction state, schema keys,
// consistent-hash placement, and the server counter sum.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/strings.h"
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

// The reference model: every entry in one private map.
class PrivateMapCache {
 public:
  const CachedDir* Get(const std::string& path) const {
    auto it = map_.find(path);
    return it == map_.end() ? nullptr : &it->second;
  }
  void Put(const std::string& path, CachedDir entry) {
    map_[path] = std::move(entry);
  }
  void ErasePath(const std::string& path) { map_.erase(path); }
  size_t InvalidateId(const InodeId& id) {
    size_t dropped = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      bool hit = false;
      for (const AncestorRef& a : it->second.ancestors) {
        hit = hit || a.id == id;
      }
      if (hit) {
        it = map_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }
  size_t size() const { return map_.size(); }

 private:
  std::unordered_map<std::string, CachedDir> map_;
};

void ExpectSameEntry(const CachedDir* got, const CachedDir* want,
                     const std::string& path) {
  ASSERT_EQ(got == nullptr, want == nullptr) << path;
  if (got == nullptr) {
    return;
  }
  EXPECT_EQ(got->id, want->id) << path;
  EXPECT_EQ(got->fp, want->fp) << path;
  ASSERT_EQ(got->ancestors.size(), want->ancestors.size()) << path;
  for (size_t i = 0; i < got->ancestors.size(); ++i) {
    EXPECT_EQ(got->ancestors[i].id, want->ancestors[i].id) << path;
    EXPECT_EQ(got->ancestors[i].cached_at, want->ancestors[i].cached_at)
        << path;
  }
}

InodeId TestId(uint64_t n) {
  InodeId id;
  id.w[0] = n;
  return id;
}

TEST(ClientCache, WarmSetBehavesLikePrivatePuts) {
  // "/", /a0../a9 and /aI/b0../aI/b2, each with its ancestor chain.
  std::vector<std::string> paths = {"/"};
  std::vector<InodeId> ids = {RootId()};
  auto set = std::make_shared<WarmSet>();
  (*set)["/"] = CachedDir{RootId(), 1, 0755, {{RootId(), 0}}};
  for (int i = 0; i < 10; ++i) {
    const std::string a = "/a" + std::to_string(i);
    const InodeId aid = TestId(100 + i);
    CachedDir da{aid, 100u + i, 0755, {{RootId(), 0}, {aid, 0}}};
    for (int j = 0; j < 3; ++j) {
      const std::string b = a + "/b" + std::to_string(j);
      const InodeId bid = TestId(1000 + 10 * i + j);
      CachedDir db = da;
      db.id = bid;
      db.fp = 1000u + 10 * i + j;
      db.ancestors.push_back({bid, 0});
      (*set)[b] = db;
      paths.push_back(b);
      ids.push_back(bid);
    }
    (*set)[a] = da;
    paths.push_back(a);
    ids.push_back(aid);
  }
  // Paths outside the set; Puts give them fresh ids.
  for (const char* p : {"/a0/b3", "/a9/b9", "/c0", "/c1", "/c0/d"}) {
    paths.push_back(p);
  }
  // The midway set changes /a3's fingerprint, adds /c1 and lacks /a7/b1 and
  // /a8.
  auto set2 = std::make_shared<WarmSet>(*set);
  (*set2)["/a3"].fp = 7777;
  set2->erase("/a7/b1");
  set2->erase("/a8");
  (*set2)["/c1"] = CachedDir{TestId(50), 50, 0755, {{RootId(), 0},
                                                   {TestId(50), 0}}};
  ids.push_back(TestId(50));

  ClientCache cache;
  PrivateMapCache ref;
  auto warm_ref = [&ref](const WarmSet& s) {
    for (const auto& [path, entry] : s) {
      ref.Put(path, entry);
    }
  };
  // As a client does: its constructor Puts "/", then it is warmed.
  cache.Put("/", set->at("/"));
  ref.Put("/", set->at("/"));
  cache.Warm(set);
  warm_ref(*set);
  ClientCache untouched;
  untouched.Warm(set);

  switchfs::Rng rng(11);
  uint64_t next_id = 5000;
  for (int op = 0; op < 5000; ++op) {
    const std::string& path = paths[rng.NextBelow(paths.size())];
    const uint64_t kind = rng.NextBelow(100);
    if (op == 2500) {
      // Re-warming from `set` shows all of it again; `set2` then drops
      // /a7/b1 and /a8 while they are visible, so they stay as if Put.
      for (const auto& s : {set, set2}) {
        cache.Warm(s);
        warm_ref(*s);
        ASSERT_EQ(cache.size(), ref.size()) << op;
      }
    } else if (kind < 40) {
      ExpectSameEntry(cache.Get(path), ref.Get(path), path);
    } else if (kind < 70) {
      // Chain through the parent's current entry when there is one, so later
      // invalidations of the parent reach the new entry.
      const std::string parent(ParentPath(path));
      const CachedDir* p = path == "/" ? nullptr : ref.Get(parent);
      CachedDir entry;
      entry.id = TestId(next_id++);
      entry.fp = rng.Next();
      entry.ancestors = p == nullptr
                            ? std::vector<AncestorRef>{{RootId(), 0}}
                            : p->ancestors;
      entry.ancestors.push_back({entry.id, static_cast<int64_t>(op)});
      ids.push_back(entry.id);
      cache.Put(path, entry);
      ref.Put(path, entry);
    } else if (kind < 90) {
      cache.ErasePath(path);
      ref.ErasePath(path);
    } else {
      const InodeId& id = ids[rng.NextBelow(ids.size())];
      ASSERT_EQ(cache.InvalidateId(id), ref.InvalidateId(id)) << op;
    }
    ASSERT_EQ(cache.size(), ref.size()) << op;
    for (const std::string& p : paths) {
      ExpectSameEntry(cache.Get(p), ref.Get(p), p);
    }
  }

  // The shared set is never written through a client.
  EXPECT_EQ(untouched.size(), set->size());
  for (const auto& [path, entry] : *set) {
    ExpectSameEntry(untouched.Get(path), &entry, path);
  }
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
