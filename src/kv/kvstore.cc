#include "src/kv/kvstore.h"

#include <algorithm>
#include <cstring>

#include "src/common/hash.h"

namespace switchfs::kv {

namespace {

// The part of `key` after its group name (empty for a key of kGroupBytes
// bytes or fewer).
std::string_view RestOf(std::string_view key) {
  return key.substr(std::min(key.size(), KvStore::kGroupBytes));
}

}  // namespace

size_t KvStore::GroupNameHash::operator()(const GroupName& name) const {
  uint64_t w[4];
  std::memcpy(w, name.bytes.data(), sizeof(w));
  const uint64_t tail =
      static_cast<uint8_t>(name.bytes[32]) | (uint64_t{name.len} << 8);
  return HashCombine(HashCombine(w[0], w[1]), HashCombine(w[2], w[3] ^ tail));
}

KvStore::GroupName KvStore::GroupOf(std::string_view key) {
  GroupName name;
  name.len = static_cast<uint8_t>(std::min(key.size(), kGroupBytes));
  std::memcpy(name.bytes.data(), key.data(), name.len);
  return name;
}

const KvStore::Rows* KvStore::FindGroup(std::string_view key) const {
  auto it = groups_.find(GroupOf(key));
  return it == groups_.end() ? nullptr : &it->second;
}

std::vector<const KvStore::Groups::value_type*> KvStore::SortedGroups(
    std::string_view prefix, std::string_view from) const {
  std::vector<const Groups::value_type*> out;
  for (const auto& group : groups_) {
    const std::string_view name = group.first.view();
    if (name.starts_with(prefix) && name >= from) {
      out.push_back(&group);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    return a->first.view() < b->first.view();
  });
  return out;
}

std::optional<std::string> KvStore::Get(const std::string& key) const {
  gets_++;
  const Rows* rows = FindGroup(key);
  if (rows == nullptr) {
    return std::nullopt;
  }
  auto it = rows->find(RestOf(key));
  if (it == rows->end()) {
    return std::nullopt;
  }
  return it->second;
}

bool KvStore::Contains(const std::string& key) const {
  gets_++;
  const Rows* rows = FindGroup(key);
  return rows != nullptr && rows->contains(RestOf(key));
}

void KvStore::Put(const std::string& key, std::string value) {
  puts_++;
  Rows& rows = groups_[GroupOf(key)];
  const std::string_view rest = RestOf(key);
  auto it = rows.lower_bound(rest);
  if (it != rows.end() && it->first == rest) {
    it->second = std::move(value);
    return;
  }
  rows.emplace_hint(it, std::string(rest), std::move(value));
  ++size_;
}

bool KvStore::Delete(const std::string& key) {
  deletes_++;
  auto group = groups_.find(GroupOf(key));
  if (group == groups_.end()) {
    return false;
  }
  auto it = group->second.find(RestOf(key));
  if (it == group->second.end()) {
    return false;
  }
  group->second.erase(it);
  --size_;
  if (group->second.empty()) {
    groups_.erase(group);
  }
  return true;
}

void KvStore::Clear() {
  groups_.clear();
  size_ = 0;
}

void KvStore::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(const std::string&, const std::string&)>& visit)
    const {
  ScanFrom(prefix, {}, visit);
}

void KvStore::ScanFrom(
    std::string_view prefix, const std::string& after,
    const std::function<bool(const std::string&, const std::string&)>& visit)
    const {
  const std::string_view cursor = after;
  const std::string_view cursor_group = cursor.substr(0, kGroupBytes);
  const std::string_view cursor_rest = RestOf(cursor);
  std::string key;
  // Visits one group's rows whose rest starts with `rest_prefix` and whose
  // key sorts after the cursor; false once the visitor stops. A group that
  // sorts above the cursor's group holds only keys above the cursor.
  auto walk = [&](std::string_view name, const Rows& rows,
                  std::string_view rest_prefix) {
    // Seek to whichever comes later: the first row under the prefix or the
    // cursor's successor.
    auto it = !cursor.empty() && name == cursor_group &&
                      cursor_rest >= rest_prefix
                  ? rows.upper_bound(cursor_rest)
                  : rows.lower_bound(rest_prefix);
    key.assign(name);
    for (; it != rows.end() && it->first.starts_with(rest_prefix); ++it) {
      key.resize(name.size());
      key += it->first;
      if (!visit(key, it->second)) {
        return false;
      }
    }
    return true;
  };
  if (prefix.size() >= kGroupBytes) {
    const std::string_view name = prefix.substr(0, kGroupBytes);
    if (!cursor.empty() && name < cursor_group) {
      return;  // every key under the prefix sorts below the cursor
    }
    if (const Rows* rows = FindGroup(name)) {
      walk(name, *rows, RestOf(prefix));
    }
    return;
  }
  // A prefix shorter than a group name: every group under it, in name order,
  // from the cursor's group on.
  for (const auto* group : SortedGroups(prefix, cursor_group)) {
    if (!walk(group->first.view(), group->second, {})) {
      return;
    }
  }
}

size_t KvStore::CountPrefix(std::string_view prefix) const {
  if (prefix.size() == kGroupBytes) {
    const Rows* rows = FindGroup(prefix);
    return rows == nullptr ? 0 : rows->size();
  }
  size_t n = 0;
  ScanPrefix(prefix, [&n](const std::string&, const std::string&) {
    ++n;
    return true;
  });
  return n;
}

}  // namespace switchfs::kv
