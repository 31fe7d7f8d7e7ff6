// Emulated baseline distributed filesystems on the shared substrate
// (paper §7.1: "Emulated-InfiniFS, Emulated-CFS, and SwitchFS share the same
// storage and networking framework, ensuring a fair comparison"). Four
// comparators, all synchronous-update designs:
//
//  * Emulated-InfiniFS — parent/children grouping via per-directory hashing:
//    all children of directory D (file inodes + entry list + D's content
//    attrs) live on hash(D.id). create/delete/stat are single-server;
//    mkdir/rmdir are cross-server 2PC (Tab 1); a hot directory pins one
//    server (Fig 2a/2c).
//  * Emulated-CFS — parent/children separation via per-file hashing: file
//    inodes spread by hash(pid, name); the parent's entry list and attrs
//    live with the parent's inode, so double-inode ops are cross-server
//    2PC serialized at the directory's server (Fig 2b-2d).
//  * CephFS-sim — static subtree partitioning by top-level path component
//    plus the heavy MDS software stack and journaling (Fig 13's
//    587-1140 us means).
//  * IndexFS-sim — per-directory partitioning like E-InfiniFS with
//    lease-based client caching (per-op lease validation overhead).
#ifndef SRC_BASELINES_BASELINE_H_
#define SRC_BASELINES_BASELINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/client_cache.h"
#include "src/core/dir_session.h"
#include "src/core/fs_world.h"
#include "src/core/invalidation.h"
#include "src/core/lock_table.h"
#include "src/core/messages.h"
#include "src/core/metadata_service.h"
#include "src/core/placement.h"
#include "src/core/schema.h"
#include "src/core/types.h"
#include "src/kv/kvstore.h"
#include "src/kv/wal.h"
#include "src/net/network.h"
#include "src/net/rpc.h"
#include "src/sim/costs.h"
#include "src/sim/cpu.h"

namespace switchfs::baselines {

enum class SystemKind {
  kEInfiniFS = 0,
  kECfs = 1,
  kCephFS = 2,
  kIndexFS = 3,
};

const char* SystemName(SystemKind kind);

struct BaselineConfig {
  SystemKind kind = SystemKind::kEInfiniFS;
  uint32_t num_servers = 8;
  int cores_per_server = 4;
  sim::CostModel costs;
  net::Network::FaultConfig faults;
  uint64_t seed = 42;
  // MetadataService v2 directory streams: the session-inactivity TTL.
  // Pages fill to the shared kPageMtuBytes / kPageMtuEntries budget
  // (metadata_service.h), so all five systems keep one page-size contract.
  sim::SimTime dir_session_ttl = sim::Milliseconds(20);
};

// --- placement ---
//
// E-InfiniFS / IndexFS / CephFS place a file by its *parent directory*
// (grouping); E-CFS places by the (pid, name) hash (separation). Directory
// "content" (attrs + entry list) always lives on the directory's home
// server: hash(dir id) for grouping systems, hash of the dir's own
// (pid, name) for E-CFS, and the subtree server for CephFS.
class BaselinePlacement {
 public:
  BaselinePlacement(SystemKind kind, const core::HashRing* ring)
      : kind_(kind), ring_(ring) {}

  // Server holding the inode of (pid, name) — also where create/delete/stat
  // for that name execute. `top` is the path's top-level component (CephFS).
  uint32_t FileServer(const core::InodeId& pid, const std::string& name,
                      const std::string& top) const;
  // Server holding directory content (attrs + entry list).
  uint32_t DirServer(const core::InodeId& dir_id, const std::string& top) const;

 private:
  SystemKind kind_;
  const core::HashRing* ring_;
};

// --- baseline-specific messages (type tags 200+) ---

// Synchronous directory update: add/remove an entry + attr read-modify-write
// under the directory lock (the serialized section of Challenge #2).
struct DirUpdateReq : net::Message {
  static constexpr uint32_t kType = 200;
  DirUpdateReq() : Message(kType) {}
  core::InodeId dir;
  std::string name;
  core::FileType entry_type = core::FileType::kFile;
  bool remove = false;
  int64_t timestamp = 0;
};

struct DirUpdateResp : net::Message {
  static constexpr uint32_t kType = 201;
  DirUpdateResp() : Message(kType) {}
  StatusCode status = StatusCode::kOk;
};

// Directory-content ops at the dir's home server: initialize content on
// mkdir, check-empty + drop content on rmdir.
struct DirContentReq : net::Message {
  static constexpr uint32_t kType = 202;
  DirContentReq() : Message(kType) {}
  enum class Kind : uint8_t { kInit = 0, kCheckEmptyAndDrop = 1 };
  Kind kind = Kind::kInit;
  core::InodeId dir;
};

struct DirContentResp : net::Message {
  static constexpr uint32_t kType = 203;
  DirContentResp() : Message(kType) {}
  StatusCode status = StatusCode::kOk;
};

class BaselineCluster;

// One baseline metadata server. Handles every op kind for every system; the
// SystemKind picks the placement and cost behaviour.
class BaselineServer {
 public:
  BaselineServer(sim::Simulator* sim, net::Network* net,
                 BaselineCluster* cluster, const sim::CostModel* costs,
                 const BaselineConfig& config, uint32_t index);

  net::NodeId node_id() const { return rpc_.id(); }
  uint32_t index() const { return index_; }
  sim::CpuPool& cpu() { return cpu_; }
  uint64_t ops() const { return ops_; }

  void SeedRoot();
  void PreloadInode(const std::string& key, const core::Attr& attr);
  void PreloadEntry(const core::InodeId& dir, const std::string& name,
                    core::FileType t);
  kv::KvStore& kv() { return kv_; }

 private:
  friend class BaselineClient;

  void OnRequest(net::Packet p);
  sim::Task<void> HandleMeta(net::Packet p);
  sim::Task<void> HandleLookup(net::Packet p);
  sim::Task<void> HandleDirUpdate(net::Packet p);
  sim::Task<void> HandleDirContent(net::Packet p);
  sim::Task<void> HandleRename(net::Packet p);  // coordinator
  sim::Task<void> HandleRenamePrepare(net::Packet p);
  sim::Task<void> HandleRenameCommit(net::Packet p);

  sim::Task<void> DoUpsert(net::Packet p, const core::MetaReq& req);
  sim::Task<void> DoRmdir(net::Packet p, const core::MetaReq& req);
  sim::Task<void> DoRead(net::Packet p, const core::MetaReq& req);
  // MetadataService v2: directory streams, batched lookups, attr deltas.
  sim::Task<void> DoOpenDir(net::Packet p, const core::MetaReq& req);
  sim::Task<void> DoReaddirPage(net::Packet p, const core::MetaReq& req);
  sim::Task<void> DoCloseDir(net::Packet p, const core::MetaReq& req);
  sim::Task<void> DoBatchStat(net::Packet p, const core::MetaReq& req);
  sim::Task<void> DoSetAttr(net::Packet p, const core::MetaReq& req);
  sim::Task<void> DoBulkInsert(net::Packet p, const core::MetaReq& req);
  sim::Task<void> DirSessionWatchdog(uint64_t session_id);

  // Applies a directory entry/attr update locally under the dir lock,
  // charging the serialized critical section.
  sim::Task<Status> ApplyDirUpdateLocal(const core::InodeId& dir,
                                        const std::string& name,
                                        core::FileType type, bool remove,
                                        int64_t timestamp);
  // Routes a directory update to the dir's home server (local or RPC).
  sim::Task<Status> DirUpdate(const core::InodeId& dir, const std::string& top,
                              const std::string& name, core::FileType type,
                              bool remove);

  // Per-system extra CPU charge of every read and update.
  sim::SimTime OpOverhead() const;

  void RespondStatus(const net::Packet& p, StatusCode code);

  sim::Simulator* sim_;
  BaselineCluster* cluster_;
  const sim::CostModel* costs_;
  BaselineConfig config_;
  uint32_t index_;
  sim::CpuPool cpu_;
  net::RpcEndpoint rpc_;
  kv::KvStore kv_;
  kv::Wal wal_;
  core::LockTable locks_;
  core::InvalidationList inval_;
  // Directory-stream sessions (MetadataService v2). Baseline servers have
  // no crash/recovery machinery, so epoch 0 suffices.
  core::DirSessionTable dir_sessions_;
  // CephFS-sim: the MDS journal serializes update commits per server.
  sim::Mutex journal_mu_;
  std::unordered_map<uint64_t, std::vector<core::LockTable::Handle>> txn_locks_;
  uint64_t txn_counter_ = 1;
  uint64_t id_counter_ = 1;
  uint64_t ops_ = 0;
};

class BaselineClient : public core::MetadataService {
 public:
  BaselineClient(sim::Simulator* sim, net::Network* net,
                 BaselineCluster* cluster, const sim::CostModel* costs);

  sim::Task<Status> Create(const std::string& path) override;
  sim::Task<Status> Unlink(const std::string& path) override;
  sim::Task<Status> Mkdir(const std::string& path) override;
  sim::Task<Status> Rmdir(const std::string& path) override;
  sim::Task<StatusOr<core::Attr>> Stat(const std::string& path) override;
  sim::Task<StatusOr<core::Attr>> StatDir(const std::string& path) override;
  sim::Task<StatusOr<core::Attr>> Open(const std::string& path) override;
  sim::Task<Status> Close(const std::string& path) override;
  sim::Task<Status> SetAttr(const std::string& path,
                            const core::AttrDelta& delta) override;
  sim::Task<StatusOr<core::DirHandle>> OpenDir(
      const std::string& path) override;
  sim::Task<StatusOr<core::DirPage>> ReaddirPage(const core::DirHandle& handle,
                                                 uint64_t cookie) override;
  sim::Task<Status> CloseDir(const core::DirHandle& handle) override;
  sim::Task<std::vector<StatusOr<core::Attr>>> BatchStat(
      const std::vector<std::string>& paths) override;
  sim::Task<std::vector<Status>> BulkInsert(
      const core::DirHandle& handle,
      const std::vector<std::string>& names) override;
  sim::Task<Status> Rename(const std::string& from,
                           const std::string& to) override;

  void WarmCache(const std::string& path, const core::CachedDir& entry) {
    cache_.Put(path, entry);
  }

 private:
  struct OpResult {
    Status status;
    core::Attr attr;
    std::vector<core::DirEntry> entries;
    uint64_t dir_session = 0;
    uint64_t next_cookie = 0;
    bool at_end = false;
  };

  sim::Task<StatusOr<core::CachedDir>> ResolveDir(const std::string& path);
  sim::Task<StatusOr<core::PathRef>> ResolveParent(const std::string& path);
  sim::Task<OpResult> Issue(core::OpType op, const std::string& path,
                            const core::AttrDelta* delta = nullptr);
  // Session-addressed ops (ReaddirPage / CloseDir): routed straight to the
  // home server pinned in the handle state, no path resolution.
  sim::Task<OpResult> IssueSessionOp(core::OpType op, uint32_t server,
                                     uint64_t session, uint64_t cookie);

  sim::Simulator* sim_;
  BaselineCluster* cluster_;
  const sim::CostModel* costs_;
  net::RpcEndpoint rpc_;
  net::CallOptions call_;
  net::CallOptions txn_call_;      // renames (multi-RPC transactions)
  net::CallOptions opendir_call_;  // O(directory) snapshot scan at the server
  core::ClientCache cache_;
};

class BaselineCluster : public core::FsWorld {
 public:
  explicit BaselineCluster(BaselineConfig config);
  ~BaselineCluster() override;

  // FsWorld:
  sim::Simulator& world_sim() override { return sim_; }
  std::unique_ptr<core::MetadataService> NewClient(bool warm) override;
  void PreloadDir(const std::string& path) override;
  void PreloadFileAt(const std::string& path) override;
  std::string name() const override { return SystemName(config_.kind); }

  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return *net_; }
  const BaselineConfig& config() const { return config_; }
  const core::HashRing& ring() const { return ring_; }
  const BaselinePlacement& placement() const { return *placement_; }
  net::NodeId ServerNode(uint32_t i) const { return servers_[i]->node_id(); }
  uint32_t ServerCount() const {
    return static_cast<uint32_t>(servers_.size());
  }
  BaselineServer& server(uint32_t i) { return *servers_[i]; }

  struct PreloadedDir {
    core::InodeId id;
    std::vector<core::AncestorRef> ancestors;
    std::string top;  // top-level component (CephFS routing)
  };
  const PreloadedDir* preloaded(const std::string& path) const {
    auto it = preloaded_.find(path);
    return it == preloaded_.end() ? nullptr : &it->second;
  }

 private:
  friend class BaselineClient;
  friend class BaselineServer;

  void BumpPreloadedDirSize(const std::string& dir_path);

  BaselineConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<net::PlainSwitch> switch_;
  core::HashRing ring_;
  std::unique_ptr<BaselinePlacement> placement_;
  std::vector<std::unique_ptr<BaselineServer>> servers_;
  std::unordered_map<std::string, PreloadedDir> preloaded_;
};

}  // namespace switchfs::baselines

#endif  // SRC_BASELINES_BASELINE_H_
