#include "src/net/network.h"

#include <cassert>
#include <utility>

namespace switchfs::net {

std::vector<Packet> PlainSwitch::Process(Packet p) {
  std::vector<Packet> out;
  if (p.dst == kServerMulticast) {
    out.reserve(server_group_.size());
    for (NodeId s : server_group_) {
      if (s == p.ds.origin) {
        continue;
      }
      Packet copy = p;
      copy.dst = s;
      out.push_back(std::move(copy));
    }
  } else {
    out.push_back(std::move(p));
  }
  return out;
}

Network::Network(sim::Simulator* sim, const sim::CostModel* costs, uint64_t seed)
    : sim_(sim), costs_(costs), rng_(seed) {}

NodeId Network::Register(Node* node) {
  nodes_.push_back(node);
  return static_cast<NodeId>(nodes_.size() - 1);
}

sim::SimTime Network::HopDelay() {
  sim::SimTime d = costs_->link_latency;
  if (costs_->link_jitter > 0) {
    d += static_cast<sim::SimTime>(
        rng_.NextExponential(static_cast<double>(costs_->link_jitter)));
  }
  if (faults_.reorder_jitter > 0) {
    d += static_cast<sim::SimTime>(
        rng_.NextBelow(static_cast<uint64_t>(faults_.reorder_jitter) + 1));
  }
  return d;
}

bool Network::ApplyFaults(const Packet& p, std::function<void(Packet)> redeliver) {
  if (faults_.duplicate_probability > 0.0 &&
      rng_.NextBool(faults_.duplicate_probability)) {
    stats_.packets_duplicated++;
    Packet dup = p;
    sim_->ScheduleAfter(HopDelay(), [redeliver, dup = std::move(dup)]() mutable {
      redeliver(std::move(dup));
    });
  }
  if (faults_.loss_probability > 0.0 && rng_.NextBool(faults_.loss_probability)) {
    stats_.packets_dropped++;
    return false;
  }
  return true;
}

void Network::Send(Packet p) {
  assert(switch_ != nullptr && "Network requires a switch behaviour");
  stats_.packets_sent++;
  // Hop 1: host -> switch.
  auto to_switch = [this](Packet pkt) {
    if (switch_down_) {
      stats_.packets_dropped++;
      return;
    }
    stats_.switch_traversals++;
    std::vector<Packet> out = switch_->Process(std::move(pkt));
    const sim::SimTime pipeline = switch_->PipelineDelay();
    for (Packet& o : out) {
      // Hop 2: switch -> host (per multicast leg, independently faulted).
      if (!ApplyFaults(o, [this](Packet q) { DeliverToHost(std::move(q)); })) {
        continue;
      }
      sim_->ScheduleAfter(pipeline + HopDelay(),
                          [this, o = std::move(o)]() mutable {
                            DeliverToHost(std::move(o));
                          });
    }
  };
  if (!ApplyFaults(p, to_switch)) {
    return;
  }
  sim_->ScheduleAfter(HopDelay(), [to_switch, p = std::move(p)]() mutable {
    to_switch(std::move(p));
  });
}

void Network::DeliverToHost(Packet p) {
  if (p.dst >= nodes_.size() || nodes_[p.dst] == nullptr) {
    stats_.packets_dropped++;
    return;
  }
  stats_.packets_delivered++;
  nodes_[p.dst]->HandlePacket(std::move(p));
}

}  // namespace switchfs::net
