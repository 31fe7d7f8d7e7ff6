#include "src/core/cluster.h"

#include <cassert>

#include "src/common/strings.h"
#include "src/tracker/owner_tracker.h"
#include "src/tracker/replicated_tracker.h"
#include "src/tracker/switch_tracker.h"

namespace switchfs::core {

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  if (config_.shared_sim != nullptr) {
    sim_ = config_.shared_sim;  // multi-cluster world: one shared clock
  } else {
    owned_sim_ = std::make_unique<sim::Simulator>();
    sim_ = owned_sim_.get();
  }
  net_ = std::make_unique<net::Network>(sim_, &config_.costs, config_.seed);

  if (config_.tracker == TrackerMode::kSwitch) {
    data_plane_ = std::make_unique<psw::DataPlane>(config_.switch_config);
    net_->SetSwitch(data_plane_.get());
    dirty_tracker_ = std::make_unique<tracker::SwitchTracker>();
  } else {
    plain_switch_ =
        std::make_unique<net::PlainSwitch>(config_.costs.plain_switch_delay);
    net_->SetSwitch(plain_switch_.get());
    if (config_.tracker == TrackerMode::kOwnerServer) {
      dirty_tracker_ = std::make_unique<tracker::OwnerTracker>();
    } else {
      // kDedicatedServer is the one-replica chain, kReplicated three.
      auto chain = std::make_unique<tracker::ReplicatedTracker>(
          sim_, net_.get(), this, &config_.costs,
          config_.tracker == TrackerMode::kReplicated ? 3 : 1);
      replicated_ = chain.get();
      dirty_tracker_ = std::move(chain);
    }
  }
  net_->SetFaults(config_.faults);

  // The metadata read cache lives in the programmable data plane; without it
  // (alternative tracker modes) there is nothing to install into.
  if (config_.tracker != TrackerMode::kSwitch) {
    config_.server_template.switch_cache = false;
  }

  for (uint32_t i = 0; i < config_.num_servers; ++i) {
    ring_.AddServer(i);
  }
  for (uint32_t i = 0; i < config_.num_servers; ++i) {
    AddServer(i);
  }
  std::vector<net::NodeId> group;
  for (const auto& s : servers_) {
    group.push_back(s->node_id());
  }
  if (data_plane_ != nullptr) {
    data_plane_->SetServerGroup(group);
  }
  if (plain_switch_ != nullptr) {
    plain_switch_->SetServerGroup(group);
  }
  for (const auto& s : servers_) {
    s->SeedRoot();
  }

  PreloadedDir root;
  root.id = RootId();
  root.fp = FingerprintOf(InodeId{}, "/");
  root.ancestors = {RootId()};
  preloaded_["/"] = root;
}

Cluster::~Cluster() = default;

void Cluster::AddServer(uint32_t index) {
  ServerConfig sc = config_.server_template;
  sc.index = index;
  sc.cores = config_.cores_per_server;
  durables_.push_back(std::make_unique<DurableState>());
  servers_.push_back(std::make_unique<SwitchServer>(
      sim_, net_.get(), this, durables_.back().get(), &config_.costs,
      dirty_tracker_.get(), sc));
  servers_.back()->SetWanSink(wan_sink_);
}

std::unique_ptr<SwitchFsClient> Cluster::MakeClient() {
  SwitchFsClient::Config cc;
  cc.dirty_tracker = dirty_tracker_.get();
  cc.switch_cache = config_.server_template.switch_cache;
  return std::make_unique<SwitchFsClient>(sim_, net_.get(), this,
                                          &config_.costs, cc);
}

void Cluster::CrashServer(uint32_t i) { servers_[i]->Crash(); }

sim::Task<void> Cluster::RecoverServer(uint32_t i) {
  // The crashed incarnation's installed-set bookkeeping (cached_fps) died
  // with it, so it can no longer evict what it installed. Control-plane
  // flush: drop every cached entry the recovering owner is responsible for
  // BEFORE it serves (and commits writes) again.
  if (data_plane_ != nullptr) {
    // sfs-lint: allow(evict-requires-lock, recovery flush — the crashed owner is down and nothing serves or commits for these fps until Recover() returns)
    data_plane_->EvictCachedIf(
        [this, i](psw::Fingerprint fp) { return ring_.Owner(fp) == i; });
  }
  co_await servers_[i]->Recover();
}

void Cluster::CrashSwitch() {
  net_->SetSwitchDown(true);
  if (data_plane_ != nullptr) {
    data_plane_->Reset();  // all register state is lost
  }
}

sim::Task<void> Cluster::RecoverSwitch() {
  // The switch reboots with an empty dirty set (already Reset). All servers
  // stop serving, flush their change-logs so every deferred update is applied
  // and every directory is back in normal state, then resume (§5.4.2).
  for (auto& s : servers_) {
    s->SetServing(false);
  }
  net_->SetSwitchDown(false);
  for (auto& s : servers_) {
    co_await s->FlushAllChangeLogs();
  }
  for (auto& s : servers_) {
    s->SetServing(true);
  }
}

sim::Task<void> Cluster::AddServerAndRebalance() {
  // Step 1: stop the world and aggregate everything (§A.3).
  for (auto& s : servers_) {
    s->SetServing(false);
  }
  for (auto& s : servers_) {
    co_await s->FlushAllChangeLogs();
  }
  for (auto& s : servers_) {
    co_await s->AggregateAllOwnedDirs();
  }

  // Step 2: extend the ring, then migrate misplaced metadata (two-phase
  // commit degenerates to install-then-delete here because the simulated
  // coordinator cannot crash mid-procedure; see DESIGN.md).
  const uint32_t new_index = static_cast<uint32_t>(servers_.size());
  AddServer(new_index);
  ring_.AddServer(new_index);

  std::vector<net::NodeId> group;
  for (const auto& s : servers_) {
    group.push_back(s->node_id());
  }
  if (data_plane_ != nullptr) {
    data_plane_->SetServerGroup(group);
  }
  if (plain_switch_ != nullptr) {
    plain_switch_->SetServerGroup(group);
  }

  for (uint32_t i = 0; i < new_index; ++i) {
    SwitchServer::MigrationBatch batch = servers_[i]->ExtractMisplaced(ring_);
    // All misplaced data moves to the new server under consistent hashing
    // with a single added node.
    servers_[new_index]->InstallBatch(batch);
  }
  servers_[new_index]->SeedRoot();

  // Step 3: resume.
  for (auto& s : servers_) {
    s->SetServing(true);
  }
}

namespace {

// Inode key of a preloaded directory path: (parent id, name); the root is
// keyed (0, "/").
std::string PreloadInodeKeyFor(
    const std::unordered_map<std::string, Cluster::PreloadedDir>& dirs,
    const std::string& path) {
  if (path == "/") {
    return InodeKey(InodeId{}, "/");
  }
  const std::string parent(ParentPath(path));
  return InodeKey(dirs.at(parent).id, Basename(path));
}

}  // namespace

void Cluster::BumpPreloadedDirSize(const std::string& dir_path) {
  const PreloadedDir& dir = preloaded_.at(dir_path);
  SwitchServer& owner = *servers_[ring_.Owner(dir.fp)];
  const std::string ikey = PreloadInodeKeyFor(preloaded_, dir_path);
  auto value = owner.kv_for_test().Get(ikey);
  if (value.has_value()) {
    Attr attr = Attr::Decode(*value);
    attr.size += 1;
    owner.PreloadInode(ikey, attr);
  }
}

const Cluster::PreloadedDir& Cluster::PreloadMkdir(const std::string& path) {
  auto it = preloaded_.find(path);
  if (it != preloaded_.end()) {
    return it->second;
  }
  const std::string parent_path(ParentPath(path));
  auto pit = preloaded_.find(parent_path);
  assert(pit != preloaded_.end() && "preload parents before children");
  const PreloadedDir& parent = pit->second;
  const std::string name(Basename(path));

  PreloadedDir dir;
  dir.id.w[0] = HashString(path);
  dir.id.w[1] = HashString(path, 1);
  dir.id.w[2] = HashString(path, 2);
  dir.id.w[3] = 3;
  dir.fp = FingerprintOf(parent.id, name);
  dir.ancestors = parent.ancestors;
  dir.ancestors.push_back(dir.id);

  Attr attr;
  attr.id = dir.id;
  attr.type = FileType::kDirectory;
  attr.mode = 0755;
  const std::string ikey = InodeKey(parent.id, name);
  SwitchServer& owner = *servers_[ring_.Owner(dir.fp)];
  owner.PreloadInode(ikey, attr);
  owner.PreloadDirIndex(dir.id, ikey, dir.fp);

  servers_[ring_.Owner(parent.fp)]->PreloadEntry(parent.id, name,
                                                 FileType::kDirectory);
  const PreloadedDir& result = preloaded_[path] = dir;
  warm_set_.reset();
  BumpPreloadedDirSize(parent_path);
  return result;
}

void Cluster::PreloadFile(const std::string& path) {
  const std::string parent_path(ParentPath(path));
  auto pit = preloaded_.find(parent_path);
  assert(pit != preloaded_.end() && "preload the parent directory first");
  const PreloadedDir& parent = pit->second;
  const std::string name(Basename(path));

  Attr attr;
  attr.id.w[0] = HashString(path);
  attr.id.w[1] = HashString(path, 7);
  attr.id.w[3] = 4;
  attr.type = FileType::kFile;
  attr.mode = 0644;
  const psw::Fingerprint fp = FingerprintOf(parent.id, name);
  servers_[ring_.Owner(fp)]->PreloadInode(InodeKey(parent.id, name), attr);

  servers_[ring_.Owner(parent.fp)]->PreloadEntry(parent.id, name,
                                                 FileType::kFile);
  BumpPreloadedDirSize(parent_path);
}

const Cluster::PreloadedDir* Cluster::preloaded(const std::string& path) const {
  auto it = preloaded_.find(path);
  return it == preloaded_.end() ? nullptr : &it->second;
}

void Cluster::WarmClient(SwitchFsClient& client) {
  if (warm_set_ == nullptr) {
    auto set = std::make_shared<WarmSet>();
    for (const auto& [path, dir] : preloaded_) {
      CachedDir& entry = (*set)[path];
      entry.id = dir.id;
      entry.fp = dir.fp;
      entry.mode = 0755;
      for (const InodeId& a : dir.ancestors) {
        entry.ancestors.push_back(AncestorRef{a, 0});
      }
    }
    warm_set_ = std::move(set);
  }
  client.WarmCache(warm_set_);
}

void Cluster::SetWanSink(WanSink* sink) {
  wan_sink_ = sink;
  for (auto& s : servers_) {
    s->SetWanSink(sink);
  }
}

SwitchServer::Stats Cluster::TotalStats() const {
  SwitchServer::Stats total;
  for (const auto& s : servers_) {
    total += s->stats();
  }
  for (const ServerStats* st : extra_stats_) {
    total += *st;
  }
  return total;
}

size_t Cluster::TotalPendingChangeLogEntries() const {
  size_t total = 0;
  for (const auto& s : servers_) {
    total += s->PendingChangeLogEntries();
  }
  return total;
}

}  // namespace switchfs::core
