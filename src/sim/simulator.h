// Single-threaded deterministic discrete-event simulator. Events with equal
// timestamps fire in scheduling order (FIFO tie-break), which makes every run
// with the same seed bit-for-bit reproducible — a property the integration
// and property tests rely on.
//
// Pending events sit in three structures behind that one (time, seq) order;
// Step runs the least of their heads:
//   - a binary heap, for events at computed times: jittered network hops,
//     CPU charges, random or computed waits (ScheduleAt, ScheduleAfter);
//   - one FIFO for events due now: every ScheduleAfter(0, ...) — the
//     mutex/semaphore/event/OneShot wake-ups of src/sim/sync.h and the
//     CpuPool handoff — and every ScheduleAt clamped to Now();
//   - one FIFO lane per fixed delay (ScheduleTimer, sim::FixedDelay).
// The clock and the sequence counter only grow, so events pushed with one
// delay arrive in (time, seq) order: each FIFO is sorted by construction and
// pushes and pops in O(1), the observation behind timing wheels (Varghese &
// Lauck, SOSP 1987). That keeps the many timeouts that outlive their replies
// (one per RPC attempt, one per dirty-set insert) out of the heap, where
// every short-lived event would pay for them in sift levels.
//
// A lane is right only for a delay fixed at its call site — a config or
// cost-model constant, such as an RPC timeout or a watchdog period. Each
// distinct delay builds a lane for the life of the simulator, and every lane
// event that runs rescans the lane heads, so a computed or random delay
// belongs on the heap.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace switchfs::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules fn to run at absolute time `at` (clamped to Now()).
  void ScheduleAt(SimTime at, std::function<void()> fn);
  // Schedules fn to run `delay` after Now().
  void ScheduleAfter(SimTime delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }
  // Like ScheduleAfter, in the FIFO lane of `delay`: for a delay fixed at the
  // call site, never a computed or random one (see the top of this file).
  void ScheduleTimer(SimTime delay, std::function<void()> fn);

  // Runs until the event queue is empty. Returns the final time.
  SimTime Run();
  // Runs until the queue is empty or simulated time would exceed `deadline`.
  // Events at exactly `deadline` are executed.
  SimTime RunUntil(SimTime deadline);
  // Executes at most one event; returns false if the queue was empty.
  bool Step();

  // Events executed so far.
  uint64_t executed() const { return executed_; }
  // Pending events in the heap, and in all timer lanes together.
  size_t heap_events() const { return heap_.size(); }
  size_t lane_events() const;
  // Timer lanes built so far: one per distinct ScheduleTimer delay.
  size_t timer_lanes() const { return lanes_.size(); }

  // ---- work sources ---------------------------------------------------------
  // A work source is a probe of work the event queue cannot see: tasks
  // parked in a server's shard apply lanes behind a task that never
  // finishes. Every queued task already has a drainer whose events are in
  // the queue, so a source only reports; a nonzero pending_source_work()
  // once the queue is empty means work is stuck.
  struct WorkSource {
    std::function<size_t()> pending;
  };
  uint64_t RegisterWorkSource(WorkSource source);
  void UnregisterWorkSource(uint64_t id);
  size_t pending_source_work() const;

  // Runs every event due at or before `deadline` (all of them by default).
  // Unlike RunUntil, the clock stays at the last event run rather than
  // moving to the deadline.
  SimTime RunWhileWorkPending(SimTime deadline = kSimTimeMax);

 private:
  struct Event {
    SimTime at;
    uint64_t seq;
    std::function<void()> fn;
  };
  static bool Earlier(const Event& a, const Event& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return Earlier(b, a);
    }
  };
  struct Lane {
    SimTime delay;
    std::deque<Event> events;
  };
  // The structures an event can wait in.
  enum class Source { kHeap, kNow, kLane };
  static constexpr size_t kNoLane = SIZE_MAX;

  // The least pending event, and in *src the structure holding it; null
  // when nothing is pending.
  const Event* Least(Source* src) const;
  // Pops the least event from `src` (Least's answer) and executes it.
  void Fire(Source src);
  // Advances the clock to `ev` and runs it.
  void Execute(Event& ev);
  // Runs every event due at or before `deadline`.
  void RunThrough(SimTime deadline);
  // The non-empty lane with the least head, or kNoLane.
  size_t LeastLane() const;
  bool idle() const {
    return heap_.empty() && now_events_.empty() && least_lane_ == kNoLane;
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  std::vector<Event> heap_;  // a binary heap under EventLater
  std::deque<Event> now_events_;  // due at their push time, which is <= now_
  std::vector<Lane> lanes_;  // few: one per distinct fixed delay
  size_t least_lane_ = kNoLane;  // cached LeastLane()
  uint64_t next_source_id_ = 1;
  std::map<uint64_t, WorkSource> sources_;
};

}  // namespace switchfs::sim

#endif  // SRC_SIM_SIMULATOR_H_
