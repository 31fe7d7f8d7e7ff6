// Dirty-set tracker server (paper §7.3.3, Fig 15): a regular DPDK server
// maintaining the same set-associative dirty set the switch would. Unlike
// the switch, every operation costs server CPU (per-packet processing at
// ~1 us on 12 cores caps it near 11 Mops/s) and an extra RTT, which is
// exactly the trade-off Fig 15 quantifies.
//
// Each node is one replica of the tracker chain (ReplicatedTracker,
// NetChain-style); a one-replica chain is the paper's dedicated tracker.
// With a successor configured, insert/remove ops are applied locally,
// forwarded downstream, and acknowledged only once the rest of the chain
// has acknowledged — so the tail's state is always a subset of every
// predecessor's and queries served at the tail observe fully replicated
// entries.
#ifndef SRC_TRACKER_TRACKER_SERVER_H_
#define SRC_TRACKER_TRACKER_SERVER_H_

#include "src/core/messages.h"
#include "src/net/rpc.h"
#include "src/pswitch/dirty_set.h"
#include "src/sim/costs.h"
#include "src/sim/cpu.h"

namespace switchfs::tracker {

class TrackerServer {
 public:
  TrackerServer(sim::Simulator* sim, net::Network* net,
                const sim::CostModel* costs)
      : sim_(sim),
        costs_(costs),
        cpu_(sim, costs->tracker_cores),
        rpc_(sim, net) {
    rpc_.SetRequestHandler([this](net::Packet p) {
      sim::Spawn(Handle(std::move(p)));
    });
  }

  net::NodeId node_id() const { return rpc_.id(); }
  psw::DirtySet& dirty_set() { return dirty_set_; }
  void SetForceInsertOverflow(bool v) { force_overflow_ = v; }

  // Chain replication: forward insert/remove to `n` before acknowledging.
  // kInvalidNode (the default) makes this node the tail.
  void SetSuccessor(net::NodeId n) { successor_ = n; }
  net::NodeId successor() const { return successor_; }
  // RPC budget for the forward hop. Budgets must SHRINK down the chain
  // (total timeout x attempts at depth d strictly above depth d+1's total):
  // when the tail dies, the node above it burns its whole successor budget
  // before replying chain_fault, and every upstream node must outwait that
  // reply or it would misattribute the fault to its own healthy successor.
  void SetForwardBudget(sim::SimTime timeout, int attempts) {
    forward_timeout_ = timeout;
    forward_attempts_ = attempts;
  }

  // Crash: the node drops all traffic and loses its DRAM dirty set.
  void Crash() {
    alive_ = false;
    rpc_.SetEnabled(false);
    rpc_.ResetVolatileState();
    dirty_set_.Clear();
  }
  // Restart with an empty dirty set; the chain's rebuild reinstalls entries.
  void Restart() {
    alive_ = true;
    rpc_.SetEnabled(true);
  }
  bool alive() const { return alive_; }

  uint64_t ops() const { return ops_; }

 private:
  sim::Task<void> Handle(net::Packet p);

  sim::Simulator* sim_;
  const sim::CostModel* costs_;
  sim::CpuPool cpu_;
  net::RpcEndpoint rpc_;
  psw::DirtySet dirty_set_;
  net::NodeId successor_ = net::kInvalidNode;
  sim::SimTime forward_timeout_ = sim::Microseconds(200);
  int forward_attempts_ = 4;
  bool alive_ = true;
  bool force_overflow_ = false;
  uint64_t ops_ = 0;
};

}  // namespace switchfs::tracker

#endif  // SRC_TRACKER_TRACKER_SERVER_H_
