// Tests for the storage substrate: KV store semantics (get/put/delete,
// ordered prefix scans, cursor scans, and a differential check against an
// ordered-map reference over schema-shaped keys) and WAL
// append/apply-marker/truncate behaviour.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/kv/kvstore.h"
#include "src/kv/wal.h"

namespace switchfs::kv {
namespace {

TEST(KvStore, GetPutDelete) {
  KvStore store;
  EXPECT_FALSE(store.Get("a").has_value());
  store.Put("a", "1");
  EXPECT_EQ(store.Get("a"), "1");
  store.Put("a", "2");  // overwrite
  EXPECT_EQ(store.Get("a"), "2");
  EXPECT_TRUE(store.Delete("a"));
  EXPECT_FALSE(store.Delete("a"));
  EXPECT_FALSE(store.Contains("a"));
}

TEST(KvStore, PrefixScanIsOrderedAndBounded) {
  KvStore store;
  store.Put("dir1/a", "1");
  store.Put("dir1/c", "3");
  store.Put("dir1/b", "2");
  store.Put("dir2/a", "x");
  store.Put("dir0/z", "y");
  std::vector<std::string> keys;
  store.ScanPrefix("dir1/", [&](const std::string& k, const std::string&) {
    keys.push_back(k);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"dir1/a", "dir1/b", "dir1/c"}));
  EXPECT_EQ(store.CountPrefix("dir1/"), 3u);
  EXPECT_EQ(store.CountPrefix("dir9/"), 0u);
}

TEST(KvStore, ScanEarlyStop) {
  KvStore store;
  for (int i = 0; i < 10; ++i) {
    store.Put("k" + std::to_string(i), "v");
  }
  int visited = 0;
  store.ScanPrefix("k", [&](const std::string&, const std::string&) {
    return ++visited < 3;
  });
  EXPECT_EQ(visited, 3);
}

// A cursor that sorts below the prefix seeks to the prefix's first row, and
// one that sorts above it visits nothing.
TEST(KvStore, ScanFromCursorOutsidePrefix) {
  KvStore store;
  store.Put("a1", "x");
  store.Put("b1", "y");
  store.Put("b2", "z");
  store.Put("c1", "w");
  auto scan = [&store](std::string_view prefix, const std::string& after) {
    std::vector<std::string> keys;
    store.ScanFrom(prefix, after, [&](const std::string& k, const std::string&) {
      keys.push_back(k);
      return true;
    });
    return keys;
  };
  EXPECT_EQ(scan("b", "a0"), (std::vector<std::string>{"b1", "b2"}));
  EXPECT_EQ(scan("b", "a1"), (std::vector<std::string>{"b1", "b2"}));
  EXPECT_EQ(scan("b", "b1"), (std::vector<std::string>{"b2"}));
  EXPECT_EQ(scan("b", "b9"), (std::vector<std::string>{}));
  EXPECT_EQ(scan("b", "c0"), (std::vector<std::string>{}));
}

TEST(KvStore, ClearWipes) {
  KvStore store;
  store.Put("a", "1");
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.group_count(), 0u);
}

// ---- differential check against an ordered-map reference -------------------

using Rows = std::vector<std::pair<std::string, std::string>>;

// Schema-shaped keys (type byte + 32-byte id + name) over a few ids, some of
// which differ only in a late byte, mixed with short keys, some of which are
// prefixes of a group name.
class KeyGen {
 public:
  explicit KeyGen(Rng* rng) : rng_(rng) {
    for (int i = 0; i < 8; ++i) {
      std::string id(32, '\0');
      for (char& c : id) {
        c = static_cast<char>(rng_->NextBelow(256));
      }
      ids_.push_back(std::move(id));
    }
    ids_[1] = ids_[0];
    ids_[1][31] = static_cast<char>(ids_[0][31] ^ 0x80);
    ids_[2] = ids_[0];
    ids_[2][19] = static_cast<char>(ids_[0][19] + 1);
    ids_[3] = std::string(32, '\xff');
  }

  std::string GroupName() {
    return std::string(1, "iedw"[rng_->NextBelow(4)]) +
           ids_[rng_->NextBelow(ids_.size())];
  }

  // Names of 0-24 bytes; the longer ones pass std::string's inline 15.
  std::string Name() {
    const size_t len = rng_->NextBelow(25);
    std::string name = "f" + std::to_string(rng_->NextBelow(12)) +
                       std::string(24, 'z');
    return name.substr(0, len);
  }

  std::string Key() {
    switch (rng_->NextBelow(10)) {
      case 0: {
        static const char* const kShort[] = {"", "i", "e", "k1", "k2", "z"};
        return kShort[rng_->NextBelow(6)];
      }
      case 1:
        return GroupName().substr(0, 1 + rng_->NextBelow(32));
      default:
        return GroupName() + Name();
    }
  }

 private:
  Rng* rng_;
  std::vector<std::string> ids_;
};

TEST(KvStore, MatchesOrderedMapReference) {
  Rng rng(20261019);
  KeyGen gen(&rng);
  KvStore store;
  std::map<std::string, std::string> ref;

  // The reference: rows under `prefix` above `after` (an empty cursor scans
  // from the start of the prefix), first `limit` of them.
  auto ref_scan = [&ref](const std::string& prefix, const std::string& after,
                         size_t limit) {
    Rows out;
    for (auto it = ref.lower_bound(prefix);
         it != ref.end() && it->first.starts_with(prefix) && out.size() < limit;
         ++it) {
      if (after.empty() || it->first > after) {
        out.emplace_back(it->first, it->second);
      }
    }
    return out;
  };
  // Rows per group name: an emptied group must leave the store.
  std::map<std::string, int> ref_groups;
  auto group_of = [](const std::string& key) {
    return key.substr(0, KvStore::kGroupBytes);
  };
  // A scan prefix of 0, 1, 20, 32, 33 or 34+ bytes of a random key.
  auto pick_prefix = [&] {
    static const size_t kLens[] = {0, 1, 20, 32, 33, 34, 36, 40};
    std::string key = gen.GroupName() + gen.Name();
    return key.substr(0, kLens[rng.NextBelow(8)]);
  };
  // A cursor before, inside or after the prefix's rows.
  auto pick_cursor = [&](const std::string& prefix) -> std::string {
    switch (rng.NextBelow(6)) {
      case 0:
        return "";
      case 1:
        return gen.Key();
      case 2:  // before: the prefix minus its last byte
        return prefix.empty() ? "" : prefix.substr(0, prefix.size() - 1);
      case 3: {  // inside: an existing row under the prefix, or near one
        auto rows = ref_scan(prefix, "", 64);
        if (rows.empty()) {
          return prefix + gen.Name();
        }
        return rows[rng.NextBelow(rows.size())].first;
      }
      case 4:  // inside, not a row
        return prefix + gen.Name() + "m";
      default: {  // after: the prefix with its last byte raised
        std::string after = prefix.empty() ? "\xff" : prefix;
        after.back() = static_cast<char>(after.back() + 1);
        return after;
      }
    }
  };

  constexpr int kOps = 20000;
  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const uint64_t kind = rng.NextBelow(20);
    if (kind < 7) {
      const std::string key = gen.Key();
      const std::string value = "v" + std::to_string(op);
      store.Put(key, value);
      if (ref.insert_or_assign(key, value).second) {
        ++ref_groups[group_of(key)];
      }
    } else if (kind < 11) {
      const std::string key = gen.Key();
      const bool existed = ref.erase(key) > 0;
      ASSERT_EQ(store.Delete(key), existed);
      if (existed && --ref_groups[group_of(key)] == 0) {
        ref_groups.erase(group_of(key));
      }
    } else if (kind < 13) {
      const std::string key = gen.Key();
      auto it = ref.find(key);
      const auto got = store.Get(key);
      ASSERT_EQ(got.has_value(), it != ref.end());
      if (got.has_value()) {
        ASSERT_EQ(*got, it->second);
      }
      ASSERT_EQ(store.Contains(key), it != ref.end());
    } else if (kind < 15) {
      const std::string prefix = pick_prefix();
      ASSERT_EQ(store.CountPrefix(prefix), ref_scan(prefix, "", SIZE_MAX).size())
          << "prefix bytes " << prefix.size();
    } else {
      const std::string prefix = pick_prefix();
      const std::string after = kind < 17 ? "" : pick_cursor(prefix);
      // Half the scans stop early, after 1-4 rows.
      const size_t limit = rng.NextBool(0.5) ? 1 + rng.NextBelow(4) : SIZE_MAX;
      Rows got;
      auto visit = [&got, limit](const std::string& k, const std::string& v) {
        got.emplace_back(k, v);
        return got.size() < limit;
      };
      if (after.empty() && rng.NextBool(0.5)) {
        store.ScanPrefix(prefix, visit);
      } else {
        store.ScanFrom(prefix, after, visit);
      }
      ASSERT_EQ(got, ref_scan(prefix, after, limit))
          << "prefix bytes " << prefix.size() << ", cursor bytes "
          << after.size();
    }
    ASSERT_EQ(store.size(), ref.size());
    ASSERT_EQ(store.group_count(), ref_groups.size());
  }
  EXPECT_GT(ref.size(), 500u);
  Rows all;
  store.ScanPrefix("", [&all](const std::string& k, const std::string& v) {
    all.emplace_back(k, v);
    return true;
  });
  EXPECT_EQ(all, Rows(ref.begin(), ref.end()));
}

TEST(Wal, AppendAssignsMonotonicLsns) {
  Wal wal;
  EXPECT_EQ(wal.Append(1, "a"), 1u);
  EXPECT_EQ(wal.Append(2, "b"), 2u);
  EXPECT_EQ(wal.Append(1, "c"), 3u);
  EXPECT_EQ(wal.record_count(), 3u);
  EXPECT_EQ(wal.records()[1].payload, "b");
  EXPECT_EQ(wal.records()[1].type, 2u);
}

TEST(Wal, MarkAppliedTracksUnapplied) {
  Wal wal;
  const uint64_t l1 = wal.Append(1, "a");
  const uint64_t l2 = wal.Append(1, "b");
  wal.Append(1, "c");
  EXPECT_EQ(wal.unapplied_count(), 3u);
  wal.MarkApplied(l1);
  wal.MarkApplied(l2);
  EXPECT_EQ(wal.unapplied_count(), 1u);
  EXPECT_TRUE(wal.records()[0].applied);
  EXPECT_FALSE(wal.records()[2].applied);
}

TEST(Wal, TruncatePreservesLsnAddressing) {
  Wal wal;
  for (int i = 0; i < 5; ++i) {
    wal.Append(1, std::to_string(i));
  }
  wal.TruncateUpTo(2);
  EXPECT_EQ(wal.record_count(), 3u);
  EXPECT_EQ(wal.records().front().lsn, 3u);
  // Marking a surviving record still works; truncated lsns are no-ops.
  wal.MarkApplied(4);
  EXPECT_TRUE(wal.records()[1].applied);
  wal.MarkApplied(1);  // no crash
  EXPECT_EQ(wal.unapplied_count(), 2u);
}

}  // namespace
}  // namespace switchfs::kv
