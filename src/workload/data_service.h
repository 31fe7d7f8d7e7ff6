// Simulated data-node tier (Fig 19 end-to-end runs): N data servers, each a
// FIFO bandwidth queue. A read/write of B bytes occupies the node for
// request-processing cost + B / bandwidth.
#ifndef SRC_WORKLOAD_DATA_SERVICE_H_
#define SRC_WORKLOAD_DATA_SERVICE_H_

#include <memory>
#include <vector>

#include "src/common/hash.h"
#include "src/sim/costs.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::wl {

class DataService {
 public:
  DataService(sim::Simulator* sim, const sim::CostModel* costs, int nodes)
      : sim_(sim), costs_(costs) {
    for (int i = 0; i < nodes; ++i) {
      nodes_.push_back(std::make_unique<sim::Semaphore>(sim, 1));
    }
  }

  // Transfers `bytes` to/from the data node owning `path` (RTT + queueing +
  // transfer time at the node's bandwidth).
  sim::Task<void> Transfer(const std::string& path, uint64_t bytes) {
    const size_t node = HashString(path) % nodes_.size();
    // Network RTT to the data node.
    co_await sim::FixedDelay(
        sim_, 2 * costs_->link_latency + costs_->plain_switch_delay);
    sim::Semaphore& slot = *nodes_[node];
    co_await slot.Acquire();
    const double seconds =
        static_cast<double>(bytes) * 8.0 /
        (costs_->data_bandwidth_gbps * 1e9);
    co_await sim::Delay(
        sim_, costs_->data_request_cost +
                  static_cast<sim::SimTime>(seconds * 1e9));
    slot.Release();
    transfers_++;
    bytes_moved_ += bytes;
  }

  uint64_t transfers() const { return transfers_; }
  uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  sim::Simulator* sim_;
  const sim::CostModel* costs_;
  std::vector<std::unique_ptr<sim::Semaphore>> nodes_;
  uint64_t transfers_ = 0;
  uint64_t bytes_moved_ = 0;
};

}  // namespace switchfs::wl

#endif  // SRC_WORKLOAD_DATA_SERVICE_H_
