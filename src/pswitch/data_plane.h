// SwitchFS programmable switch data plane (paper §6.2, Fig 8).
//
// Pipeline: Parser -> Router -> Dirty set -> Address rewriter.
//  * Regular packets (no dirty-set header) forward by destination.
//  * kQuery: the dirty set writes RET into the header; packet forwards on.
//  * kInsert: on success the packet is multicast to its destination (the
//    client awaiting the operation's completion) and mirrored to the origin
//    server (lock release signal) — §5.2.1 steps 7a/7b. On overflow the
//    address rewriter redirects the packet to the alternative address (the
//    parent directory's owner) for the synchronous fallback.
//  * kRemove: executed with per-origin sequence-number protection, then the
//    packet is multicast to all metadata servers except the origin
//    (aggregation request, §5.2.2 step 5). Stale removes are dropped.
//
// Multi-pipe layout (§6.2): pipes do not share state, so the dirty set is
// sharded by fingerprint prefix across pipes; a packet entering through a
// different pipe is mirrored to the home pipe, adding a fixed delay.
#ifndef SRC_PSWITCH_DATA_PLANE_H_
#define SRC_PSWITCH_DATA_PLANE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/annotations.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/pswitch/dirty_set.h"
#include "src/pswitch/meta_cache.h"
#include "src/sim/time.h"

namespace switchfs::psw {

struct DataPlaneConfig {
  DirtySetConfig dirty_set;
  int num_pipes = 4;  // Tofino 6.4Tbps: 4 pipes
};

// Latency of one pass through the pipeline.
inline constexpr sim::SimTime kPipelineDelay = sim::Nanoseconds(350);
// Added when a packet enters through another pipe than its fingerprint's
// home pipe and is mirrored there.
inline constexpr sim::SimTime kCrossPipeMirrorDelay = sim::Nanoseconds(120);
// Extra stages traversed when a read is answered from the metadata cache
// (record read + response rewrite).
inline constexpr sim::SimTime kCacheServeDelay = sim::Nanoseconds(150);

class DataPlane : public net::SwitchBehavior {
 public:
  explicit DataPlane(const DataPlaneConfig& config = DataPlaneConfig{});

  void SetServerGroup(std::vector<net::NodeId> servers);
  // Pipe assignment of a host port; defaults to node id modulo pipe count.
  int PipeOfNode(net::NodeId node) const;

  std::vector<net::Packet> Process(net::Packet p) override;
  sim::SimTime PipelineDelay() const override;

  // Switch reboot: wipes all register state (dirty set + remove sequences +
  // metadata cache).
  void Reset();

  DirtySet& dirty_set(int pipe) { return *pipes_[pipe]; }
  MetaCache& meta_cache(int pipe) { return *caches_[pipe]; }
  int HomePipe(Fingerprint fp) const;
  // Queries across the pipe shards (test/verification helper).
  bool Contains(Fingerprint fp) const;
  // Metadata-cache presence across the pipe shards (test helper).
  bool CacheContains(Fingerprint fp);
  // Control-plane predicate flush of the metadata cache (owner recovery:
  // drop everything a crashed owner may have installed). Returns entries
  // dropped. Outside recovery, call sites must hold the exclusive inode
  // lock of every fingerprint the predicate can match (rule
  // evict-requires-lock), or a stale record can be re-installed between the
  // flush and the commit.
  SFS_REQUIRES_EXCLUSIVE(inode_locks)
  size_t EvictCachedIf(const std::function<bool(Fingerprint)>& pred);

  // Forces every insert to fail (dirty-set overflow study, §7.3.2).
  void SetForceInsertOverflow(bool v) { force_insert_overflow_ = v; }

  struct Stats {
    uint64_t regular_forwarded = 0;
    uint64_t queries = 0;
    uint64_t inserts = 0;
    uint64_t insert_fallbacks = 0;
    uint64_t removes = 0;
    uint64_t stale_removes = 0;
    uint64_t multicast_packets = 0;
    uint64_t cross_pipe_mirrors = 0;
    // Metadata read cache.
    uint64_t mc_hits = 0;
    uint64_t mc_misses = 0;
    uint64_t mc_installs = 0;
    uint64_t mc_install_rejects = 0;
    uint64_t mc_evicts = 0;
  };
  const Stats& stats() const { return stats_; }

  size_t MemoryBytes() const;

 private:
  // Handles the metadata-cache header; returns true when the packet was
  // answered from the cache (kRead hit) and must not be forwarded.
  bool ProcessCacheHeader(net::Packet& p, std::vector<net::Packet>& out);

  DataPlaneConfig config_;
  // One dirty-set shard per pipe (shared-nothing, §6.2).
  std::vector<std::unique_ptr<DirtySet>> pipes_;
  // One metadata-cache shard per pipe (same shared-nothing split).
  std::vector<std::unique_ptr<MetaCache>> caches_;
  std::vector<net::NodeId> server_group_;
  bool force_insert_overflow_ = false;
  // Set during Process() when the packet crossed pipes, consumed by
  // PipelineDelay(); the Network queries the delay right after Process().
  mutable bool last_crossed_pipes_ = false;
  // Set when Process() answered the packet from the metadata cache; adds the
  // record-read/rewrite stages to the next PipelineDelay() query.
  mutable bool last_cache_served_ = false;
  Stats stats_;
};

}  // namespace switchfs::psw

#endif  // SRC_PSWITCH_DATA_PLANE_H_
