// Simulated single-rack datacenter network: every host hangs off one
// top-of-rack switch, and every packet traverses it (paper §6.4, single-rack
// deployment). The switch behaviour is pluggable: the SwitchFS programmable
// data plane (src/pswitch) or a plain L2 switch for the baselines.
//
// Fault injection (loss, duplication, reorder jitter) is applied per physical
// hop with a seeded RNG, exercising the §5.4.1 fault-handling machinery.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/random.h"
#include "src/net/packet.h"
#include "src/sim/costs.h"
#include "src/sim/simulator.h"

namespace switchfs::net {

class Node {
 public:
  virtual ~Node() = default;
  virtual void HandlePacket(Packet p) = 0;
};

// What the ToR switch does to each packet. Implementations must be pure
// packet-in/packets-out functions of switch state (no time dependence); the
// Network layers on the pipeline delay.
class SwitchBehavior {
 public:
  virtual ~SwitchBehavior() = default;
  // Returns the packets to emit (possibly rewritten / multicast-expanded).
  virtual std::vector<Packet> Process(Packet p) = 0;
  // Per-packet traversal delay of this switch.
  virtual sim::SimTime PipelineDelay() const = 0;
};

// Default L2 behaviour: forward by destination, expand server-multicast.
class PlainSwitch : public SwitchBehavior {
 public:
  explicit PlainSwitch(sim::SimTime delay) : delay_(delay) {}

  void SetServerGroup(std::vector<NodeId> servers) {
    server_group_ = std::move(servers);
  }

  std::vector<Packet> Process(Packet p) override;
  sim::SimTime PipelineDelay() const override { return delay_; }

 private:
  sim::SimTime delay_;
  std::vector<NodeId> server_group_;
};

class Network {
 public:
  struct FaultConfig {
    double loss_probability = 0.0;
    double duplicate_probability = 0.0;
    sim::SimTime reorder_jitter = 0;  // extra uniform delay in [0, jitter]
  };

  struct Stats {
    uint64_t packets_sent = 0;
    uint64_t packets_delivered = 0;
    uint64_t packets_dropped = 0;
    uint64_t packets_duplicated = 0;
    uint64_t switch_traversals = 0;
  };

  Network(sim::Simulator* sim, const sim::CostModel* costs, uint64_t seed);

  // Each node gets a fresh id for good (RPC receivers key records by it).
  NodeId Register(Node* node);

  void SetSwitch(SwitchBehavior* behavior) { switch_ = behavior; }
  void SetFaults(const FaultConfig& cfg) { faults_ = cfg; }
  // While true, the switch drops everything (switch reboot window, §7.7).
  void SetSwitchDown(bool down) { switch_down_ = down; }

  // Injects a packet from `p.src`; it traverses the switch and is delivered
  // to the destination(s) chosen by the switch behaviour.
  void Send(Packet p);

  const Stats& stats() const { return stats_; }
  sim::Simulator* simulator() const { return sim_; }
  const sim::CostModel* costs() const { return costs_; }

 private:
  void DeliverToHost(Packet p);
  sim::SimTime HopDelay();
  // Returns false if the packet is dropped; schedules a duplicate if drawn.
  bool ApplyFaults(const Packet& p, std::function<void(Packet)> redeliver);

  sim::Simulator* sim_;
  const sim::CostModel* costs_;
  SwitchBehavior* switch_ = nullptr;
  std::vector<Node*> nodes_;
  FaultConfig faults_;
  bool switch_down_ = false;
  Rng rng_;
  Stats stats_;
};

}  // namespace switchfs::net

#endif  // SRC_NET_NETWORK_H_
