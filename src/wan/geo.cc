#include "src/wan/geo.h"

#include <cassert>

namespace switchfs::wan {

GeoCluster::GeoCluster(GeoConfig config)
    : config_(std::move(config)),
      fabric_(&sim_, config_.link, config_.seed) {
  assert(config_.num_clusters >= 2 && "a geo world needs at least two sites");
  assert(config_.hub < config_.num_clusters);
  for (uint32_t i = 0; i < config_.num_clusters; ++i) {
    core::ClusterConfig cc = config_.cluster_template;
    cc.server_template.cluster_id = i;
    cc.shared_sim = &sim_;
    cc.seed = config_.seed + 1000 * i;  // distinct intra-DC jitter per site
    clusters_.push_back(std::make_unique<core::Cluster>(std::move(cc)));
  }
  for (uint32_t i = 0; i < config_.num_clusters; ++i) {
    std::vector<uint32_t> peers;
    if (i == config_.hub) {
      for (uint32_t j = 0; j < config_.num_clusters; ++j) {
        if (j != i) {
          peers.push_back(j);
        }
      }
    } else {
      peers.push_back(config_.hub);
    }
    durables_.push_back(std::make_unique<WanDurable>());
    replicators_.push_back(std::make_unique<WanReplicator>(
        &sim_, &fabric_, durables_.back().get(), i, std::move(peers),
        config_.replication));
    appliers_.push_back(
        std::make_unique<WanApplier>(&sim_, clusters_[i].get(), i));
  }
  for (uint32_t i = 0; i < config_.num_clusters; ++i) {
    for (uint32_t j = 0; j < config_.num_clusters; ++j) {
      if (j != i) {
        replicators_[i]->SetPeerApplier(j, appliers_[j].get());
      }
    }
    clusters_[i]->SetWanSink(replicators_[i].get());
    clusters_[i]->RegisterExtraStats(replicators_[i]->stats_block());
    clusters_[i]->RegisterExtraStats(appliers_[i]->stats_block());
  }
  // Star forwarding: a foreign batch the hub applied goes on to every spoke
  // that did not originate it (origin identity preserved end to end).
  WanReplicator* hub_repl = replicators_[config_.hub].get();
  appliers_[config_.hub]->SetOnApplied(
      [hub_repl](const WanBatch& b) { hub_repl->ForwardBatch(b); });
}

void GeoCluster::PreloadDirAll(const std::string& path) {
  for (auto& c : clusters_) {
    c->PreloadMkdir(path);
  }
}

void GeoCluster::PreloadFileAll(const std::string& path) {
  for (auto& c : clusters_) {
    c->PreloadFile(path);
  }
}

bool GeoCluster::WanIdle() const {
  for (const auto& r : replicators_) {
    if (!r->Idle()) {
      return false;
    }
  }
  return true;
}

bool GeoCluster::Converged() const {
  for (const auto& c : clusters_) {
    if (c->TotalPendingChangeLogEntries() != 0) {
      return false;
    }
  }
  for (const auto& a : appliers_) {
    if (a->busy()) {
      return false;
    }
  }
  return WanIdle();
}

core::SwitchServer::Stats GeoCluster::TotalStats() const {
  core::SwitchServer::Stats total;
  for (const auto& c : clusters_) {
    total += c->TotalStats();
  }
  return total;
}

}  // namespace switchfs::wan
