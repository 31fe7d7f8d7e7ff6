// In-memory ordered key-value store standing in for RocksDB (paper §4.2:
// "a server stores its metadata in a key-value store (i.e., RocksDB)").
// The store is a plain data structure; callers charge the corresponding CPU
// service times (CostModel::kv_*) before mutating it, and concurrency
// control lives above it (per-key lock tables on the metadata servers), as
// it does in the real systems.
//
// Layout: every schema key is a type byte, a 256-bit id and a name
// (src/core/schema.h, keys.h), so rows are grouped by their first
// kGroupBytes bytes, as RocksDB's fixed-length prefix extractor groups them
// in its hash-skiplist memtable. One hash table maps a group name, held
// inline, to that group's rows: an ordered map from the rest of the key to
// the value. A key of kGroupBytes bytes or fewer is its group's only row,
// under the empty rest, so a non-schema key (tests, micro-benchmarks) is a
// group of its own. A point op is one hash probe plus a search of one
// group; a scan whose prefix pins a group walks that group alone.
// (group, rest) order is full-key order: a group name shorter than
// kGroupBytes is a whole key, and two kGroupBytes-byte names differ within
// them.
//
// Contents are volatile: a server crash wipes the store and recovery rebuilds
// it from the WAL (§5.4.2).
#ifndef SRC_KV_KVSTORE_H_
#define SRC_KV_KVSTORE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/annotations.h"

namespace switchfs::kv {

class SFS_SUSPENSION_SHARED KvStore {
 public:
  // Bytes of a key that name its group: the schema's type byte plus the
  // 256-bit id.
  static constexpr size_t kGroupBytes = 33;

  std::optional<std::string> Get(const std::string& key) const;
  bool Contains(const std::string& key) const;
  void Put(const std::string& key, std::string value);
  // Returns true if the key existed.
  bool Delete(const std::string& key);

  // Visits all (key, value) pairs whose key starts with `prefix`, in key
  // order. Visitor returns false to stop early. The visitor's key is a
  // buffer reused across the scan: it is valid only during the call, so a
  // visitor copies what it keeps. The store must not change during a scan.
  void ScanPrefix(std::string_view prefix,
                  const std::function<bool(const std::string&,
                                           const std::string&)>& visit) const;
  size_t CountPrefix(std::string_view prefix) const;

  // Cursor variant of ScanPrefix: visits pairs with key strictly greater
  // than `after` (still restricted to `prefix`), in key order. `after` need
  // not exist — a deleted cursor key simply seeks to its successor — and may
  // sort before the prefix. An empty `after` scans from the start of the
  // prefix.
  void ScanFrom(std::string_view prefix, const std::string& after,
                const std::function<bool(const std::string&,
                                         const std::string&)>& visit) const;

  size_t size() const { return size_; }
  // Groups that hold at least one row: the hash table's entries, which a
  // prefix shorter than kGroupBytes scans through.
  size_t group_count() const { return groups_.size(); }
  void Clear();

  uint64_t gets() const { return gets_; }
  uint64_t puts() const { return puts_; }
  uint64_t deletes() const { return deletes_; }

 private:
  // A key's first min(size, kGroupBytes) bytes, zero-padded.
  struct GroupName {
    std::array<char, kGroupBytes> bytes{};
    uint8_t len = 0;

    std::string_view view() const { return {bytes.data(), len}; }
    bool operator==(const GroupName& o) const {
      return len == o.len && bytes == o.bytes;
    }
  };
  struct GroupNameHash {
    size_t operator()(const GroupName& name) const;
  };
  // One group's rows: the rest of each key (its name) -> value.
  using Rows = std::map<std::string, std::string, std::less<>>;
  using Groups = std::unordered_map<GroupName, Rows, GroupNameHash>;

  static GroupName GroupOf(std::string_view key);
  const Rows* FindGroup(std::string_view key) const;
  // Groups whose name starts with `prefix` (shorter than kGroupBytes) and
  // does not sort below `from`, in name order.
  std::vector<const Groups::value_type*> SortedGroups(
      std::string_view prefix, std::string_view from) const;

  Groups groups_;
  size_t size_ = 0;
  mutable uint64_t gets_ = 0;
  uint64_t puts_ = 0;
  uint64_t deletes_ = 0;
};

}  // namespace switchfs::kv

#endif  // SRC_KV_KVSTORE_H_
