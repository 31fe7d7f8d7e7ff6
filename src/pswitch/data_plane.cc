#include "src/pswitch/data_plane.h"

#include <cassert>
#include <utility>

namespace switchfs::psw {

DataPlane::DataPlane(const DataPlaneConfig& config) : config_(config) {
  assert(config_.num_pipes >= 1);
  // The total register budget (10 stages x 2^17 registers, §6.5) is split
  // evenly across pipes: each pipe serves 1/P of the fingerprint space with
  // 1/P of the per-stage registers.
  DirtySetConfig shard = config_.dirty_set;
  shard.registers_per_stage =
      std::max<uint32_t>(1, shard.registers_per_stage /
                                static_cast<uint32_t>(config_.num_pipes));
  MetaCacheConfig cache_shard;
  cache_shard.num_sets =
      std::max<uint32_t>(1, cache_shard.num_sets /
                                static_cast<uint32_t>(config_.num_pipes));
  for (int i = 0; i < config_.num_pipes; ++i) {
    pipes_.push_back(std::make_unique<DirtySet>(shard));
    caches_.push_back(std::make_unique<MetaCache>(cache_shard));
  }
}

void DataPlane::SetServerGroup(std::vector<net::NodeId> servers) {
  server_group_ = std::move(servers);
}

int DataPlane::PipeOfNode(net::NodeId node) const {
  return static_cast<int>(node % static_cast<net::NodeId>(config_.num_pipes));
}

int DataPlane::HomePipe(Fingerprint fp) const {
  // Route by fingerprint prefix (the paper's router matches on the prefix).
  return static_cast<int>((fp >> (kFingerprintBits - 8)) %
                          static_cast<uint64_t>(config_.num_pipes));
}

bool DataPlane::Contains(Fingerprint fp) const {
  return pipes_[HomePipe(fp)]->Query(fp);
}

bool DataPlane::CacheContains(Fingerprint fp) {
  return caches_[HomePipe(fp)]->Contains(fp);
}

size_t DataPlane::EvictCachedIf(const std::function<bool(Fingerprint)>& pred) {
  size_t dropped = 0;
  for (auto& cache : caches_) {
    dropped += cache->EvictIf(pred);
  }
  return dropped;
}

sim::SimTime DataPlane::PipelineDelay() const {
  sim::SimTime d = kPipelineDelay;
  if (last_crossed_pipes_) {
    d += kCrossPipeMirrorDelay;
    last_crossed_pipes_ = false;
  }
  if (last_cache_served_) {
    d += kCacheServeDelay;
    last_cache_served_ = false;
  }
  return d;
}

// Metadata-cache stage, traversed by every packet carrying an mc header
// before the dirty-set stages. Returns true when the packet was fully
// answered from the cache (a kRead hit): `out` then holds the synthesized
// response and the original packet must not be forwarded.
bool DataPlane::ProcessCacheHeader(net::Packet& p,
                                   std::vector<net::Packet>& out) {
  const Fingerprint fp = p.mc.fingerprint;
  MetaCache& cache = *caches_[HomePipe(fp)];
  switch (p.mc.op) {
    case net::McOp::kRead: {
      auto resp = std::make_shared<CacheHitResp>();
      if (cache.Lookup(fp, &resp->record)) {
        stats_.mc_hits++;
        last_cache_served_ = true;
        // Rewrite the request into its own response: swap the envelope
        // around and attach the record — the owner never sees the packet.
        net::Packet hit;
        hit.src = p.dst;
        hit.dst = p.src;
        hit.rpc = net::RpcHeader{p.rpc.call_id, p.rpc.caller,
                                 /*is_response=*/true};
        hit.body = std::move(resp);
        out.push_back(std::move(hit));
        return true;
      }
      stats_.mc_misses++;
      // Export the set version for the owner's install to echo: an evict
      // between now and the install bumps it and the install is rejected.
      p.mc.version = cache.VersionOf(fp);
      return false;
    }
    case net::McOp::kInstall: {
      if (cache.Install(fp, p.mc.record, p.mc.version)) {
        stats_.mc_installs++;
      } else {
        stats_.mc_install_rejects++;
      }
      return false;  // the reply continues to the client untouched
    }
    case net::McOp::kEvict: {
      cache.Evict(fp);
      stats_.mc_evicts++;
      return false;  // forwards on: self-addressed evicts become the ack
    }
    case net::McOp::kNone:
      return false;
  }
  return false;
}

std::vector<net::Packet> DataPlane::Process(net::Packet p) {
  std::vector<net::Packet> out;
  if (p.has_mc_op() && ProcessCacheHeader(p, out)) {
    return out;  // answered from the cache; the owner never sees the read
  }
  if (!p.has_ds_op()) {
    // Regular packet: route by destination MAC (server multicast is expanded
    // for baseline-system broadcasts as well).
    if (p.dst == net::kServerMulticast) {
      for (net::NodeId s : server_group_) {
        if (s == p.src) {
          continue;
        }
        net::Packet copy = p;
        copy.dst = s;
        stats_.multicast_packets++;
        out.push_back(std::move(copy));
      }
    } else {
      stats_.regular_forwarded++;
      out.push_back(std::move(p));
    }
    return out;
  }

  const Fingerprint fp = p.ds.fingerprint;
  const int home = HomePipe(fp);
  if (PipeOfNode(p.src) != home) {
    stats_.cross_pipe_mirrors++;
    last_crossed_pipes_ = true;
  }
  DirtySet& ds = *pipes_[home];

  switch (p.ds.op) {
    case net::DsOp::kQuery: {
      stats_.queries++;
      p.ds.ret = ds.Query(fp);
      out.push_back(std::move(p));
      break;
    }
    case net::DsOp::kInsert: {
      stats_.inserts++;
      // A dirty directory is a cache-invalid one: drop any cached record for
      // this fingerprint in the same traversal (both outcomes — on overflow
      // the write still commits, via the synchronous fallback), preserving
      // the invariant dirty(fp) => not cached(fp).
      if (caches_[home]->Evict(fp)) {
        stats_.mc_evicts++;
      }
      const bool ok = !force_insert_overflow_ && ds.Insert(fp);
      if (force_insert_overflow_) {
        // Account the attempted insert for the overflow study.
      }
      p.ds.ret = ok;
      if (ok) {
        // 7a: completion notification to the destination (the client).
        // 7b: mirror to the origin server (lock release signal).
        net::Packet mirror = p;
        mirror.dst = p.ds.origin;
        stats_.multicast_packets += 2;
        out.push_back(std::move(p));
        out.push_back(std::move(mirror));
      } else {
        stats_.insert_fallbacks++;
        // Address rewriter: overwrite the destination with the alternative
        // address for the synchronous fallback (§6.2).
        if (p.ds.alt_dst != net::kInvalidNode) {
          p.dst = p.ds.alt_dst;
          out.push_back(std::move(p));
        }
      }
      break;
    }
    case net::DsOp::kRemove: {
      const bool executed =
          ds.Remove(fp, p.ds.origin, p.ds.remove_seq);
      if (!executed) {
        stats_.stale_removes++;
        break;  // stale duplicate: no multicast, no state change (§5.4.1)
      }
      stats_.removes++;
      for (net::NodeId s : server_group_) {
        if (s == p.ds.origin) {
          continue;
        }
        net::Packet copy = p;
        copy.dst = s;
        stats_.multicast_packets++;
        out.push_back(std::move(copy));
      }
      break;
    }
    case net::DsOp::kNone:
      break;
  }
  return out;
}

void DataPlane::Reset() {
  for (auto& pipe : pipes_) {
    pipe->Clear();
  }
  for (auto& cache : caches_) {
    // Clear() keeps set versions monotonic so installs whose reads predate
    // the reboot stay rejected (see MetaCache).
    cache->Clear();
  }
}

size_t DataPlane::MemoryBytes() const {
  size_t total = 0;
  for (const auto& pipe : pipes_) {
    total += pipe->MemoryBytes();
  }
  for (const auto& cache : caches_) {
    total += cache->MemoryBytes();
  }
  return total;
}

}  // namespace switchfs::psw
