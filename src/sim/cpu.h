// CPU model for a simulated server: a pool of k identical cores with a FIFO
// run queue. Protocol handlers charge CPU by co_awaiting Run(cost); while a
// handler waits on a lock or an RPC it holds no core, mirroring the paper's
// coroutine-based non-blocking server design (§7.1). The per-server core
// count is the knob behind Fig 2(d) and Fig 14 (intra-server parallelism).
#ifndef SRC_SIM_CPU_H_
#define SRC_SIM_CPU_H_

#include <coroutine>
#include <cstdint>
#include <deque>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace switchfs::sim {

class CpuPool {
 public:
  CpuPool(Simulator* sim, int cores) : sim_(sim), cores_(cores), idle_(cores) {}

  // One charge: occupies a core for `cost` simulated time, queueing FIFO
  // when all cores are busy. A plain awaitable, not a coroutine: the pool
  // outlives server incarnations and a charge always runs to its end, so a
  // chain cancelled by a crash (src/sim/task.h) frees its core at the
  // instant an uncancelled one would. It lives in the awaiting frame until
  // that frame resumes, so the run queue and the events point at it.
  struct [[nodiscard]] Charge {
    CpuPool* pool;
    SimTime cost;
    std::coroutine_handle<> waiter;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      waiter = h;
      pool->Submit(this);
    }
    void await_resume() const noexcept {}
  };

  Charge Run(SimTime cost) { return Charge{this, cost, {}}; }

  int cores() const { return cores_; }
  size_t run_queue_length() const { return queue_.size(); }
  // Total core-nanoseconds consumed; used by benches to report utilization.
  SimTime busy_time() const { return busy_time_; }
  double Utilization(SimTime elapsed) const {
    if (elapsed <= 0) {
      return 0.0;
    }
    return static_cast<double>(busy_time_) /
           (static_cast<double>(elapsed) * cores_);
  }

 private:
  void Submit(Charge* c) {
    if (queue_.empty() && idle_ > 0) {
      idle_--;
      Start(c);
      return;
    }
    queue_.push_back(c);
  }
  void Start(Charge* c) {
    busy_time_ += c->cost;
    sim_->ScheduleAfter(c->cost, [c] {
      c->pool->Finish();
      c->waiter.resume();
    });
  }
  // Hands the core straight to the next queued charge (FIFO), else idles it.
  void Finish() {
    if (queue_.empty()) {
      idle_++;
      return;
    }
    Charge* next = queue_.front();
    queue_.pop_front();
    sim_->ScheduleAfter(0, [next] { next->pool->Start(next); });
  }

  Simulator* sim_;
  int cores_;
  int idle_;
  std::deque<Charge*> queue_;
  SimTime busy_time_ = 0;
};

}  // namespace switchfs::sim

#endif  // SRC_SIM_CPU_H_
