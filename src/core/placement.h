// Inode placement: consistent hashing from the 49-bit fingerprint space to
// metadata servers (paper §5.5: "SwitchFS uses consistent hashing to map
// inodes to servers"). Virtual nodes smooth the load distribution; the ring
// lives on clients and servers (the switch never needs it, §5.5).
//
// Because the placement key *is* the fingerprint, all directories in one
// fingerprint group land on one server — the invariant §4.3 requires.
#ifndef SRC_CORE_PLACEMENT_H_
#define SRC_CORE_PLACEMENT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/hash.h"
#include "src/pswitch/fingerprint.h"

namespace switchfs::core {

// Server index that coordinates every rename (§5.2: renames run as
// distributed transactions through one central coordinator).
inline constexpr uint32_t kRenameCoordinator = 0;

class HashRing {
 public:
  static constexpr int kVnodesPerServer = 64;

  HashRing() = default;
  explicit HashRing(const std::vector<uint32_t>& server_indices) {
    for (uint32_t s : server_indices) {
      AddServer(s);
    }
  }

  void AddServer(uint32_t server_index);
  void RemoveServer(uint32_t server_index);

  // Owner server of a fingerprint.
  uint32_t Owner(psw::Fingerprint fp) const;

  size_t server_count() const { return servers_.size(); }
  const std::vector<uint32_t>& servers() const { return servers_; }

 private:
  std::map<uint64_t, uint32_t> ring_;
  std::vector<uint32_t> servers_;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_PLACEMENT_H_
