// Unit tests for the discrete-event simulator core: event ordering across
// the heap, the due-now FIFO and the timer lanes, determinism, RunUntil
// semantics, and coroutine task plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::sim {
namespace {

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(50, [&] { fired_at = sim.Now(); });  // in the past
  });
  sim.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { fired++; });
  sim.ScheduleAt(20, [&] { fired++; });
  sim.ScheduleAt(30, [&] { fired++; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.ScheduleAt(1, [&] {
    times.push_back(sim.Now());
    sim.ScheduleAfter(5, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{1, 6}));
}

TEST(Simulator, TimerDelayOfZeroOrLessRunsNow) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&] {
    sim.ScheduleTimer(-5, [&] { order.push_back(2); });
    sim.ScheduleTimer(0, [&] { order.push_back(3); });
    order.push_back(1);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 10);
  EXPECT_EQ(sim.timer_lanes(), 0u);
}

// Drives one Simulator through a seeded random mix of every way to schedule
// an event, from outside and from inside events, and checks each firing
// against a reference priority queue of (time, seq) fed the same calls: the
// heap, the due-now FIFO and the timer lanes must interleave as one order.
class OrderCheck {
 public:
  static constexpr SimTime kGrid = 50;  // every time is on it, so ties abound
  static constexpr SimTime kLaneDelays[] = {150, 300, 2000, 20000};

  explicit OrderCheck(uint64_t seed) : rng_(seed) {}

  // Stops at the first failed check: after one event out of order, every
  // later comparison would fail too.
  void Run() {
    while (budget_ > 0 && !::testing::Test::HasFailure()) {
      switch (rng_.NextBelow(5)) {
        case 0:
        case 1:
          for (uint64_t n = 1 + rng_.NextBelow(4); n > 0; --n) {
            ScheduleRandom();
          }
          break;
        case 2: {
          const bool pending = !ref_.empty();
          EXPECT_EQ(sim_.Step(), pending);
          break;
        }
        case 3: {
          const SimTime before = sim_.Now();
          const SimTime deadline = Deadline();
          EXPECT_EQ(sim_.RunUntil(deadline), std::max(before, deadline));
          EXPECT_TRUE(ref_.empty() || ref_.top().at > deadline);
          break;
        }
        default: {
          // Like RunUntil, but the clock stops at the last event run.
          const SimTime before = sim_.Now();
          const uint64_t fired_before = fired_;
          const SimTime deadline = Deadline();
          const SimTime now = sim_.RunWhileWorkPending(deadline);
          EXPECT_EQ(now, fired_ == fired_before ? before : last_at_);
          EXPECT_TRUE(ref_.empty() || ref_.top().at > deadline);
          break;
        }
      }
    }
    sim_.RunWhileWorkPending();
    EXPECT_TRUE(ref_.empty());
  }

  uint64_t scheduled() const { return next_seq_; }
  uint64_t fired() const { return fired_; }
  uint64_t mismatches() const { return mismatches_; }
  uint64_t cross_kind_ties() const { return cross_kind_ties_; }
  size_t max_heap() const { return max_heap_; }
  size_t max_lane() const { return max_lane_; }
  const Simulator& sim() const { return sim_; }

 private:
  enum Kind { kAt, kNow, kAfter, kTimer };
  struct Key {
    SimTime at;
    uint64_t seq;
    bool operator>(const Key& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
    bool operator==(const Key& o) const { return at == o.at && seq == o.seq; }
  };

  SimTime Lane() { return kLaneDelays[rng_.NextBelow(4)]; }
  // Up to 2 us ahead, on the grid or halfway between two grid points.
  SimTime Deadline() {
    return sim_.Now() + kGrid * static_cast<SimTime>(rng_.NextBelow(40)) +
           (rng_.NextBelow(2) == 0 ? 0 : kGrid / 2);
  }

  void ScheduleRandom() {
    // value: an absolute time or a delay, up to 10 grid points in the past.
    const SimTime value = kGrid * static_cast<SimTime>(rng_.NextBelow(50)) -
                          10 * kGrid;
    switch (rng_.NextBelow(4)) {
      case 0:
        Schedule(kAt, sim_.Now() + value);
        break;
      case 1:
        Schedule(kNow, 0);
        break;
      case 2:
        Schedule(kAfter, value);
        break;
      default:
        Schedule(kTimer, Lane());
        break;
    }
  }

  void Schedule(Kind kind, SimTime value) {
    --budget_;
    const SimTime now = sim_.Now();
    const SimTime at =
        kind == kAt ? std::max(now, value) : now + std::max<SimTime>(value, 0);
    const Key key{at, next_seq_++};
    auto fn = [this, key, kind] { Fire(key, kind); };
    switch (kind) {
      case kAt:
        sim_.ScheduleAt(value, fn);
        break;
      case kNow:
        sim_.ScheduleAfter(0, fn);
        break;
      case kAfter:
        sim_.ScheduleAfter(value, fn);
        break;
      case kTimer:
        sim_.ScheduleTimer(value, fn);
        break;
    }
    ref_.push(key);
    max_heap_ = std::max(max_heap_, sim_.heap_events());
    max_lane_ = std::max(max_lane_, sim_.lane_events());
  }

  void Fire(Key key, Kind kind) {
    ++fired_;
    EXPECT_EQ(sim_.Now(), key.at);
    if (!ref_.empty() && ref_.top() == key) {
      ref_.pop();
    } else if (mismatches_++ == 0) {
      ADD_FAILURE() << "first out of order: event (" << key.at << ", "
                    << key.seq << ")";
    }
    if (fired_ > 1 && key.at == last_at_ && kind != last_kind_) {
      ++cross_kind_ties_;
    }
    last_at_ = key.at;
    last_kind_ = kind;
    // Mean one child per event keeps the population near what Run()
    // injects; the budget ends the run.
    for (uint64_t n = rng_.NextBelow(3); n > 0 && budget_ > 0; --n) {
      ScheduleRandom();
    }
  }

  Simulator sim_;
  Rng rng_;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ref_;
  int64_t budget_ = 40000;
  uint64_t next_seq_ = 0;  // mirrors the simulator's sequence counter
  uint64_t fired_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t cross_kind_ties_ = 0;
  SimTime last_at_ = -1;
  Kind last_kind_ = kAt;
  size_t max_heap_ = 0;
  size_t max_lane_ = 0;
};

TEST(Simulator, HeapNowFifoAndTimerLanesKeepOneTimeSeqOrder) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    OrderCheck check(seed);
    check.Run();
    EXPECT_EQ(check.mismatches(), 0u);
    EXPECT_EQ(check.fired(), check.scheduled());
    EXPECT_EQ(check.sim().executed(), check.scheduled());
    EXPECT_EQ(check.sim().timer_lanes(), 4u);
    // The mix reached every structure and tied across them.
    EXPECT_GT(check.max_heap(), 10u);
    EXPECT_GT(check.max_lane(), 10u);
    EXPECT_GT(check.cross_kind_ties(), 1000u);
  }
}

// --- coroutine task tests ---

Task<int> ReturnAfter(Simulator* sim, SimTime d, int v) {
  co_await Delay(sim, d);
  co_return v;
}

Task<void> Accumulate(Simulator* sim, std::vector<int>* out) {
  out->push_back(co_await ReturnAfter(sim, 10, 1));
  out->push_back(co_await ReturnAfter(sim, 10, 2));
  out->push_back(co_await ReturnAfter(sim, 10, 3));
}

TEST(Task, SequentialAwaitsAccumulateDelay) {
  Simulator sim;
  std::vector<int> out;
  Spawn(Accumulate(&sim, &out));
  sim.Run();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Task, SpawnRunsEagerlyUntilFirstSuspension) {
  Simulator sim;
  bool started = false;
  bool finished = false;
  Spawn([](Simulator* s, bool* st, bool* fin) -> Task<void> {
    *st = true;
    co_await Delay(s, 5);
    *fin = true;
  }(&sim, &started, &finished));
  EXPECT_TRUE(started);
  EXPECT_FALSE(finished);
  sim.Run();
  EXPECT_TRUE(finished);
}

TEST(Task, ValueTaskCompletingSynchronously) {
  Simulator sim;
  int got = 0;
  Spawn([](int* out) -> Task<void> {
    auto immediate = []() -> Task<int> { co_return 42; };
    *out = co_await immediate();
  }(&got));
  sim.Run();
  EXPECT_EQ(got, 42);
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::string trace_a;
  std::string trace_b;
  auto worker = [](Simulator* s, std::string* trace, char tag,
                   SimTime step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await Delay(s, step);
      trace->push_back(tag);
    }
  };
  Spawn(worker(&sim, &trace_a, 'a', 10));
  Spawn(worker(&sim, &trace_b, 'b', 15));
  sim.Run();
  EXPECT_EQ(trace_a, "aaa");
  EXPECT_EQ(trace_b, "bbb");
  EXPECT_EQ(sim.Now(), 45);
}

}  // namespace
}  // namespace switchfs::sim
