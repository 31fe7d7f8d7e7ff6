// Cluster wiring for SwitchFS: the simulator, the network fabric with the
// programmable-switch data plane (or a plain L2 switch for the alternative
// tracker modes), metadata servers with their durable state, and client
// factories. Also drives the fault-injection procedures of §5.4.2/§7.7
// (server crash, switch crash) and stop-the-world reconfiguration (§5.5/A.3).
#ifndef SRC_CORE_CLUSTER_H_
#define SRC_CORE_CLUSTER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/client.h"
#include "src/core/fs_world.h"
#include "src/core/placement.h"
#include "src/core/server.h"
#include "src/net/network.h"
#include "src/pswitch/data_plane.h"
#include "src/sim/costs.h"
#include "src/sim/simulator.h"

namespace switchfs::tracker {
class DirtyTracker;
class ReplicatedTracker;
}  // namespace switchfs::tracker

namespace switchfs::core {

struct ClusterConfig {
  uint32_t num_servers = 8;
  int cores_per_server = 4;
  // Geo-replication (src/wan/): an optional externally-owned simulator so
  // several clusters share one event loop and virtual clock (the
  // multi-cluster harness owns it). Null = the cluster owns a private
  // simulator (the default, and the single-cluster behavior).
  sim::Simulator* shared_sim = nullptr;
  TrackerMode tracker = TrackerMode::kSwitch;
  psw::DataPlaneConfig switch_config;
  net::Network::FaultConfig faults;
  sim::CostModel costs;
  uint64_t seed = 42;
  // Copied into every server's config (feature flags, timers, MTU, retry
  // budgets, cluster_id); only `index` and `cores` are set per server.
  ServerConfig server_template;
};

class Cluster : public ClusterContext, public FsWorld {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster() override;

  // --- FsWorld ---
  sim::Simulator& world_sim() override { return *sim_; }
  std::unique_ptr<MetadataService> NewClient(bool warm) override {
    auto client = MakeClient();
    if (warm) {
      WarmClient(*client);
    }
    return client;
  }
  void PreloadDir(const std::string& path) override { PreloadMkdir(path); }
  void PreloadFileAt(const std::string& path) override { PreloadFile(path); }
  std::string name() const override { return "SwitchFS"; }

  // --- ClusterContext ---
  const HashRing& ring() const override { return ring_; }
  net::NodeId ServerNode(uint32_t server_index) const override {
    return servers_[server_index]->node_id();
  }
  uint32_t ServerCount() const override {
    return static_cast<uint32_t>(servers_.size());
  }

  sim::Simulator& sim() { return *sim_; }
  net::Network& network() { return *net_; }
  const sim::CostModel& costs() const { return config_.costs; }
  psw::DataPlane* data_plane() { return data_plane_.get(); }
  // The tracker subsystem (src/tracker/). `dirty_tracker` is always set;
  // `replicated_tracker` is the tracker chain of kDedicatedServer (one
  // replica) and kReplicated (three), null in the other modes.
  tracker::DirtyTracker* dirty_tracker() { return dirty_tracker_.get(); }
  tracker::ReplicatedTracker* replicated_tracker() { return replicated_; }
  SwitchServer& server(uint32_t i) { return *servers_[i]; }
  const ClusterConfig& config() const { return config_; }

  std::unique_ptr<SwitchFsClient> MakeClient();

  // --- fault orchestration ---
  void CrashServer(uint32_t i);
  // Coroutine completes when the server is serving again.
  sim::Task<void> RecoverServer(uint32_t i);
  // Switch failure: all in-flight traffic drops until RecoverSwitch.
  void CrashSwitch();
  // §5.4.2: reinitialize an empty dirty set, stop all servers, flush every
  // change-log, then resume. Completes when the cluster serves again.
  sim::Task<void> RecoverSwitch();

  // --- stop-the-world reconfiguration (§5.5 / §A.3) ---
  // Adds a server (2-phase: drain + aggregate everywhere, then migrate).
  sim::Task<void> AddServerAndRebalance();

  // --- bench/test namespace preload (bypasses the protocol) ---
  struct PreloadedDir {
    InodeId id;
    psw::Fingerprint fp = 0;
    std::vector<InodeId> ancestors;
  };
  // Creates directory metadata directly in the owners' stores. Parents must
  // already exist ("/" always does).
  const PreloadedDir& PreloadMkdir(const std::string& path);
  void PreloadFile(const std::string& path);
  const PreloadedDir* preloaded(const std::string& path) const;
  // Seeds a client's path cache with every preloaded directory. Clients
  // warmed between two PreloadMkdirs share one WarmSet.
  void WarmClient(SwitchFsClient& client);

  // --- WAN replication wiring (src/wan/) ---
  // Points every server's capture hook at the cluster's replicator (null
  // detaches; servers added later by AddServerAndRebalance inherit it).
  void SetWanSink(WanSink* sink);
  // Registers an externally-owned counter block (replicator/applier-side
  // wan_* counters) to be summed into TotalStats. The pointer must outlive
  // the cluster.
  void RegisterExtraStats(const ServerStats* stats) {
    extra_stats_.push_back(stats);
  }

  // Aggregate totals across servers (bench reporting).
  SwitchServer::Stats TotalStats() const;
  size_t TotalPendingChangeLogEntries() const;

 private:
  void BumpPreloadedDirSize(const std::string& dir_path);
  // Appends server `index` (its durable state and its SwitchServer, built
  // from server_template) to the cluster; the ring and switch group are
  // the caller's.
  void AddServer(uint32_t index);

  ClusterConfig config_;
  // Owned unless ClusterConfig::shared_sim points at an external simulator
  // (multi-cluster worlds share one event loop); sim_ is the working alias.
  std::unique_ptr<sim::Simulator> owned_sim_;
  sim::Simulator* sim_ = nullptr;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<psw::DataPlane> data_plane_;
  std::unique_ptr<net::PlainSwitch> plain_switch_;
  std::unique_ptr<tracker::DirtyTracker> dirty_tracker_;
  tracker::ReplicatedTracker* replicated_ = nullptr;  // aliases dirty_tracker_
  std::vector<std::unique_ptr<DurableState>> durables_;
  std::vector<std::unique_ptr<SwitchServer>> servers_;
  HashRing ring_;
  std::unordered_map<std::string, PreloadedDir> preloaded_;
  // preloaded_ as cache entries; built by WarmClient, dropped by PreloadMkdir.
  std::shared_ptr<const WarmSet> warm_set_;
  WanSink* wan_sink_ = nullptr;
  std::vector<const ServerStats*> extra_stats_;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_CLUSTER_H_
