// Multi-cluster world for geo-replication tests, benches, and examples.
//
// GeoCluster owns the one shared simulator every member cluster runs on
// (ClusterConfig::shared_sim — one event loop, one virtual clock, so LWW
// commit timestamps are comparable across clusters), the WanFabric between
// them, and per-cluster replication daemons: a WanDurable spool, a
// WanReplicator (attached as the cluster's WanSink) and a WanApplier.
// Topology is a star around `hub` (cluster 0 by default): spokes ship to
// the hub; the hub ships its own batches to every spoke and forwards each
// foreign batch to the spokes that did not originate it. With two clusters
// the star degenerates to a direct pair.
//
// Shared namespace: PreloadDirAll/PreloadFileAll preload the same path into
// every cluster. Cluster::PreloadMkdir derives directory InodeIds from the
// path hash, so the same path has the SAME identity everywhere — the
// requirement for cross-cluster entry routing (WanEntry carries the dir id
// and fingerprint; the receiving applier resolves the owner on its own
// ring, which may differ in size and layout from the origin's).
//
// Run discipline: replication timers are one-shot and armed only while
// work is pending, so sim().Run() terminates once every cluster is synced.
// While a partition stands, retry timers keep the queue non-empty — drive
// partitioned phases with sim().RunUntil(deadline), heal, then sim().Run()
// to quiesce. (RunWhileWorkPending(deadline) runs the same events as
// RunUntil but leaves the clock at the last event instead of the deadline.)
#ifndef SRC_WAN_GEO_H_
#define SRC_WAN_GEO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/sim/simulator.h"
#include "src/wan/applier.h"
#include "src/wan/replicator.h"
#include "src/wan/wan_batch.h"
#include "src/wan/wan_fabric.h"

namespace switchfs::wan {

struct GeoConfig {
  uint32_t num_clusters = 2;
  uint32_t hub = 0;
  // Template for every member; server_template.cluster_id, shared_sim, and
  // seed are overwritten per cluster.
  core::ClusterConfig cluster_template;
  WanLinkConfig link;
  WanReplicatorConfig replication;
  uint64_t seed = 42;
};

class GeoCluster {
 public:
  explicit GeoCluster(GeoConfig config);

  sim::Simulator& sim() { return sim_; }
  WanFabric& fabric() { return fabric_; }
  uint32_t size() const { return static_cast<uint32_t>(clusters_.size()); }
  core::Cluster& cluster(uint32_t i) { return *clusters_[i]; }
  WanReplicator& replicator(uint32_t i) { return *replicators_[i]; }
  WanApplier& applier(uint32_t i) { return *appliers_[i]; }

  // Preloads the path into EVERY cluster (shared replicated namespace).
  void PreloadDirAll(const std::string& path);
  void PreloadFileAll(const std::string& path);

  void SetPartitioned(uint32_t a, uint32_t b, bool on) {
    fabric_.SetPartitioned(a, b, on);
  }

  // True when every origin has nothing left to ship (open + closed +
  // forward spools all empty everywhere).
  bool WanIdle() const;

  // Full cross-cluster quiescence: WanIdle, no batch mid-apply anywhere,
  // and every cluster's local change logs drained. The point benches and
  // tests call "converged".
  bool Converged() const;

  // Sum over all member clusters (replicator/applier blocks included via
  // Cluster::RegisterExtraStats).
  core::SwitchServer::Stats TotalStats() const;

 private:
  GeoConfig config_;
  sim::Simulator sim_;
  WanFabric fabric_;
  std::vector<std::unique_ptr<core::Cluster>> clusters_;
  std::vector<std::unique_ptr<WanDurable>> durables_;
  std::vector<std::unique_ptr<WanReplicator>> replicators_;
  std::vector<std::unique_ptr<WanApplier>> appliers_;
};

}  // namespace switchfs::wan

#endif  // SRC_WAN_GEO_H_
