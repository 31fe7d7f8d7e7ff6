// Calibration constants for the simulated hardware. Single source of truth
// for every latency/cost parameter in the repository; benches construct one
// CostModel and hand it to the cluster builder.
//
// Calibration targets (paper, §7.1 testbed: Xeon Gold 5317 servers, Optane
// PMEM, ConnectX-5 100GbE, Tofino switch):
//   * client<->server RTT through the ToR switch ~= 3 us (§7.3.3 reports the
//     extra dedicated-server hop as "an additional RTT (~3 us)").
//   * E-InfiniFS stat latency ~= 6 us, create ~= 15-20 us (Fig 2b, Fig 13).
//   * A DPDK dedicated tracker caps at ~11 Mops/s (Fig 15b).
//   * Serialized directory-update critical sections limit contended create
//     to ~60-120 Kops/s regardless of servers/cores (Fig 2c, 2d).
#ifndef SRC_SIM_COSTS_H_
#define SRC_SIM_COSTS_H_

#include "src/sim/time.h"

namespace switchfs::sim {

struct CostModel {
  // --- network fabric ---
  SimTime link_latency = Nanoseconds(750);       // host <-> switch, one way
  SimTime plain_switch_delay = Nanoseconds(300); // regular L2 switch per packet
  SimTime link_jitter = Nanoseconds(60);         // exponential jitter mean

  // --- server packet processing (DPDK-style userspace stack) ---
  SimTime rx_cost = Nanoseconds(450);  // per received packet
  SimTime tx_cost = Nanoseconds(350);  // per sent packet

  // --- local storage (RocksDB on PMEM; WAL persists to Optane) ---
  SimTime kv_get = Nanoseconds(1500);
  SimTime kv_put = Nanoseconds(2100);
  SimTime kv_delete = Nanoseconds(1800);
  SimTime kv_scan_per_entry = Nanoseconds(140);
  SimTime wal_append = Nanoseconds(850);
  // WAL appends issued inside a batched (group-committed) apply loop.
  SimTime wal_append_batched = Nanoseconds(260);
  SimTime wal_replay_per_record = Nanoseconds(3600);  // recovery redo cost

  // --- metadata operation logic ---
  SimTime op_dispatch = Nanoseconds(350);    // request decode + routing
  SimTime path_check = Nanoseconds(220);     // invalidation/permission check per component
  SimTime reply_build = Nanoseconds(250);
  // Read-modify-write of a directory inode (attrs + entry list) under the
  // directory lock. The full window is the serialized section that caps
  // contended create throughput in conventional designs (Challenge #2);
  // only dir_update_cpu of it occupies a core (the rest is storage latency
  // that overlaps with other requests when the directory is uncontended).
  SimTime dir_update_critical = Nanoseconds(8800);
  SimTime dir_update_cpu = Nanoseconds(2500);
  SimTime changelog_append = Nanoseconds(420);   // local per-server log append
  SimTime changelog_apply_entry = Nanoseconds(1500);  // entry-list op at owner
  SimTime attr_merge_apply = Nanoseconds(900);   // one consolidated attr put
  SimTime readdir_per_entry = Nanoseconds(90);

  // --- distributed transactions (baselines, rename, hard links) ---
  SimTime txn_prepare = Nanoseconds(1200);   // participant prepare (incl. WAL)
  SimTime txn_commit = Nanoseconds(800);     // participant commit apply

  // --- CephFS-sim heavy software stack (matches Fig 13's 587-1140 us) ---
  SimTime ceph_op_overhead = Microseconds(575);  // per-op MDS stack cost
  SimTime ceph_journal = Microseconds(240);      // serialized journal commit
  // --- IndexFS-sim lease-based client caching ---
  SimTime indexfs_lease_check = Nanoseconds(700);

  // --- dedicated dirty-set tracker (Fig 15): DPDK server, per-packet cost.
  // 12 cores / 1.05 us per packet ~= 11.4 Mops/s ceiling.
  SimTime tracker_packet_cost = Nanoseconds(1050);
  int tracker_cores = 12;

  // --- client-side costs ---
  SimTime client_op_cost = Nanoseconds(300);  // LibFS bookkeeping per op
  SimTime cache_lookup = Nanoseconds(80);

  // --- data plane (Fig 19 end-to-end) ---
  SimTime data_request_cost = Microseconds(3);   // per data-node request
  double data_bandwidth_gbps = 50.0;             // per data node
};

}  // namespace switchfs::sim

#endif  // SRC_SIM_COSTS_H_
