// Tests for coroutine synchronization primitives: mutual exclusion, FIFO
// fairness, reader batching, handoff correctness under racing acquires, the
// OneShot completion slot used by the RPC layer, and cancellation of chains
// bound to an incarnation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::sim {
namespace {

TEST(Mutex, ProvidesMutualExclusion) {
  Simulator sim;
  Mutex mu(&sim);
  int in_critical = 0;
  int max_in_critical = 0;
  auto worker = [&](SimTime hold) -> Task<void> {
    auto guard = co_await mu.Acquire();
    in_critical++;
    max_in_critical = std::max(max_in_critical, in_critical);
    co_await Delay(&sim, hold);
    in_critical--;
  };
  for (int i = 0; i < 10; ++i) {
    Spawn(worker(7));
  }
  sim.Run();
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_EQ(sim.Now(), 70);
  EXPECT_FALSE(mu.locked());
}

TEST(Mutex, FifoOrder) {
  Simulator sim;
  Mutex mu(&sim);
  std::vector<int> order;
  auto worker = [&](int id) -> Task<void> {
    auto guard = co_await mu.Acquire();
    order.push_back(id);
    co_await Delay(&sim, 1);
  };
  // Stagger arrival so the queue order is 0,1,2,3,4.
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(i, [&, i] { Spawn(worker(i)); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mutex, GuardMoveTransfersOwnership) {
  Simulator sim;
  Mutex mu(&sim);
  Spawn([](Simulator* s, Mutex* m) -> Task<void> {
    auto g1 = co_await m->Acquire();
    Mutex::Guard g2 = std::move(g1);
    EXPECT_FALSE(g1.held());
    EXPECT_TRUE(g2.held());
    EXPECT_TRUE(m->locked());
    co_await Delay(s, 1);
  }(&sim, &mu));
  sim.Run();
  EXPECT_FALSE(mu.locked());
}

TEST(SharedMutex, ReadersShareWritersExclude) {
  Simulator sim;
  SharedMutex mu(&sim);
  int readers_in = 0;
  int max_readers = 0;
  bool writer_in = false;
  auto reader = [&]() -> Task<void> {
    auto g = co_await mu.AcquireShared();
    EXPECT_FALSE(writer_in);
    readers_in++;
    max_readers = std::max(max_readers, readers_in);
    co_await Delay(&sim, 10);
    readers_in--;
  };
  auto writer = [&]() -> Task<void> {
    auto g = co_await mu.AcquireExclusive();
    EXPECT_EQ(readers_in, 0);
    EXPECT_FALSE(writer_in);
    writer_in = true;
    co_await Delay(&sim, 10);
    writer_in = false;
  };
  Spawn(reader());
  Spawn(reader());
  sim.ScheduleAt(2, [&] { Spawn(writer()); });
  sim.ScheduleAt(4, [&] { Spawn(reader()); });
  sim.Run();
  EXPECT_GE(max_readers, 2);
  EXPECT_EQ(mu.readers(), 0);
  EXPECT_FALSE(mu.has_writer());
}

TEST(SharedMutex, FifoPreventsReaderBypassOfQueuedWriter) {
  Simulator sim;
  SharedMutex mu(&sim);
  std::string order;
  auto reader = [&](char tag) -> Task<void> {
    auto g = co_await mu.AcquireShared();
    order.push_back(tag);
    co_await Delay(&sim, 10);
  };
  auto writer = [&](char tag) -> Task<void> {
    auto g = co_await mu.AcquireExclusive();
    order.push_back(tag);
    co_await Delay(&sim, 10);
  };
  sim.ScheduleAt(0, [&] { Spawn(reader('a')); });
  sim.ScheduleAt(1, [&] { Spawn(writer('W')); });
  // 'b' arrives while W is queued: FIFO means b runs after W even though the
  // lock is only reader-held at its arrival.
  sim.ScheduleAt(2, [&] { Spawn(reader('b')); });
  sim.Run();
  EXPECT_EQ(order, "aWb");
}

TEST(SharedMutex, BatchesConsecutiveQueuedReaders) {
  Simulator sim;
  SharedMutex mu(&sim);
  int concurrent = 0;
  int max_concurrent = 0;
  auto reader = [&]() -> Task<void> {
    auto g = co_await mu.AcquireShared();
    concurrent++;
    max_concurrent = std::max(max_concurrent, concurrent);
    co_await Delay(&sim, 10);
    concurrent--;
  };
  auto writer = [&]() -> Task<void> {
    auto g = co_await mu.AcquireExclusive();
    co_await Delay(&sim, 10);
  };
  sim.ScheduleAt(0, [&] { Spawn(writer()); });
  sim.ScheduleAt(1, [&] { Spawn(reader()); });
  sim.ScheduleAt(2, [&] { Spawn(reader()); });
  sim.ScheduleAt(3, [&] { Spawn(reader()); });
  sim.Run();
  EXPECT_EQ(max_concurrent, 3);  // all three admitted together after writer
}

TEST(Semaphore, LimitsConcurrencyAndHandsOffFairly) {
  Simulator sim;
  Semaphore sem(&sim, 2);
  int in = 0;
  int max_in = 0;
  std::vector<int> order;
  auto worker = [&](int id) -> Task<void> {
    co_await sem.Acquire();
    order.push_back(id);
    in++;
    max_in = std::max(max_in, in);
    co_await Delay(&sim, 10);
    in--;
    sem.Release();
  };
  for (int i = 0; i < 6; ++i) {
    sim.ScheduleAt(i, [&, i] { Spawn(worker(i)); });
  }
  sim.Run();
  EXPECT_EQ(max_in, 2);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sem.permits(), 2);
}

TEST(Semaphore, NoPermitTheftDuringHandoff) {
  Simulator sim;
  Semaphore sem(&sim, 1);
  std::vector<int> order;
  auto worker = [&](int id, SimTime hold) -> Task<void> {
    co_await sem.Acquire();
    order.push_back(id);
    co_await Delay(&sim, hold);
    sem.Release();
  };
  Spawn(worker(0, 10));
  sim.ScheduleAt(1, [&] { Spawn(worker(1, 10)); });
  // Arrives exactly when worker 0 releases; must not jump ahead of worker 1.
  sim.ScheduleAt(10, [&] { Spawn(worker(2, 10)); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ManualEvent, ReleasesAllWaiters) {
  Simulator sim;
  ManualEvent ev(&sim);
  int released = 0;
  auto waiter = [&]() -> Task<void> {
    co_await ev.Wait();
    released++;
  };
  for (int i = 0; i < 5; ++i) {
    Spawn(waiter());
  }
  sim.ScheduleAt(50, [&] { ev.Set(); });
  sim.Run();
  EXPECT_EQ(released, 5);
  // Waiting on an already-set event completes immediately.
  Spawn(waiter());
  sim.Run();
  EXPECT_EQ(released, 6);
}

TEST(OneShot, FirstSetWins) {
  Simulator sim;
  OneShot<int> slot(&sim);
  EXPECT_TRUE(slot.Set(1));
  EXPECT_FALSE(slot.Set(2));
  int got = 0;
  Spawn([](OneShot<int>* s, int* out) -> Task<void> {
    *out = co_await s->Wait();
  }(&slot, &got));
  sim.Run();
  EXPECT_EQ(got, 1);
}

TEST(OneShot, WaiterResumesOnSet) {
  Simulator sim;
  OneShot<int> slot(&sim);
  int got = 0;
  SimTime resumed_at = 0;
  Spawn([](Simulator* sp, OneShot<int>* s, int* out, SimTime* at) -> Task<void> {
    *out = co_await s->Wait();
    *at = sp->Now();
  }(&sim, &slot, &got, &resumed_at));
  sim.ScheduleAt(25, [&] { slot.Set(7); });
  sim.Run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(resumed_at, 25);
}

TEST(JoinCounter, WaitsForAllCompletions) {
  Simulator sim;
  JoinCounter join(&sim, 3);
  bool done = false;
  Spawn([](JoinCounter* j, bool* d) -> Task<void> {
    co_await j->Wait();
    *d = true;
  }(&join, &done));
  sim.ScheduleAt(1, [&] { join.Done(); });
  sim.ScheduleAt(2, [&] { join.Done(); });
  sim.RunUntil(5);
  EXPECT_FALSE(done);
  sim.ScheduleAt(6, [&] { join.Done(); });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(CpuPool, EnforcesCoreCountAndTracksBusyTime) {
  Simulator sim;
  CpuPool cpu(&sim, 2);
  int done = 0;
  auto job = [&]() -> Task<void> {
    co_await cpu.Run(100);
    done++;
  };
  for (int i = 0; i < 4; ++i) {
    Spawn(job());
  }
  sim.Run();
  EXPECT_EQ(done, 4);
  // 4 jobs x 100ns on 2 cores = 200ns wall, 400ns busy.
  EXPECT_EQ(sim.Now(), 200);
  EXPECT_EQ(cpu.busy_time(), 400);
  EXPECT_DOUBLE_EQ(cpu.Utilization(200), 1.0);
}

TEST(CpuPool, SingleCoreSerializes) {
  Simulator sim;
  CpuPool cpu(&sim, 1);
  std::vector<SimTime> finish_times;
  auto job = [&]() -> Task<void> {
    co_await cpu.Run(10);
    finish_times.push_back(sim.Now());
  };
  for (int i = 0; i < 3; ++i) {
    Spawn(job());
  }
  sim.Run();
  EXPECT_EQ(finish_times, (std::vector<SimTime>{10, 20, 30}));
}

// ---- chains bound to an incarnation (cancellation) -------------------------

// A leaf the bound chain awaits: it inherits the binding.
Task<void> SleepyLeaf(Simulator* sim, SimTime d, bool* finished) {
  co_await Delay(sim, d);
  *finished = true;  // never reached once the incarnation died
}

TEST(BoundChain, KilledMidLeafUnwindsAndReleasesItsLock) {
  Simulator sim;
  Mutex mu(&sim);
  Incarnation inc;
  bool leaf_finished = false;
  bool after_leaf = false;
  Spawn([](Simulator* s, Mutex* m, bool* lf, bool* after) -> Task<void> {
    auto guard = co_await m->Acquire();
    co_await SleepyLeaf(s, 100, lf);
    *after = true;
  }(&sim, &mu, &leaf_finished, &after_leaf), &inc);
  sim.ScheduleAt(50, [&inc] { inc.dead = true; });
  // An unbound waiter queued behind the doomed holder.
  SimTime acquired_at = -1;
  Spawn([](Simulator* s, Mutex* m, SimTime* at) -> Task<void> {
    auto guard = co_await m->Acquire();
    *at = s->Now();
  }(&sim, &mu, &acquired_at));
  sim.Run();
  EXPECT_FALSE(leaf_finished);
  EXPECT_FALSE(after_leaf);
  // Cancelled at the leaf's resume (t=100), not at the kill: the unwind
  // released the guard there and the lock passed on.
  EXPECT_EQ(acquired_at, 100);
  EXPECT_FALSE(mu.locked());
}

TEST(BoundChain, KilledWhileQueuedOnALockReleasesTheGrant) {
  Simulator sim;
  Mutex mu(&sim);
  Incarnation inc;
  std::vector<std::string> order;
  // Unbound holder: keeps the lock until t=100.
  Spawn([](Simulator* s, Mutex* m, std::vector<std::string>* o)
            -> Task<void> {
    auto guard = co_await m->Acquire();
    co_await Delay(s, 100);
    o->push_back("holder");
  }(&sim, &mu, &order));
  // Bound waiter: queued behind the holder, killed while queued.
  Spawn([](Mutex* m, std::vector<std::string>* o) -> Task<void> {
    auto guard = co_await m->Acquire();
    o->push_back("doomed");
  }(&mu, &order), &inc);
  // Unbound waiter behind it.
  Spawn([](Simulator* s, Mutex* m, std::vector<std::string>* o)
            -> Task<void> {
    auto guard = co_await m->Acquire();
    o->push_back("next@" + std::to_string(s->Now()));
  }(&sim, &mu, &order));
  sim.ScheduleAt(50, [&inc] { inc.dead = true; });
  sim.Run();
  // The grant handed to the dead waiter at t=100 sat in its guard when the
  // waiter resumed and threw, so unwinding passed the lock on.
  EXPECT_EQ(order, (std::vector<std::string>{"holder", "next@100"}));
  EXPECT_FALSE(mu.locked());
  EXPECT_EQ(mu.waiter_count(), 0u);
}

TEST(BoundChain, ScopeGuardStillSignalsItsJoinCounter) {
  Simulator sim;
  Incarnation inc;
  auto jc = std::make_shared<JoinCounter>(&sim, 1);
  bool joined = false;
  bool body_finished = false;
  Spawn([](Simulator* s, std::shared_ptr<JoinCounter> j,
           bool* finished) -> Task<void> {
    ScopeExit done([&j] { j->Done(); });
    co_await Delay(s, 100);
    *finished = true;
  }(&sim, jc, &body_finished), &inc);
  Spawn([](std::shared_ptr<JoinCounter> j, bool* out) -> Task<void> {
    co_await j->Wait();
    *out = true;
  }(jc, &joined));
  sim.ScheduleAt(10, [&inc] { inc.dead = true; });
  sim.Run();
  EXPECT_FALSE(body_finished);
  EXPECT_TRUE(joined);
  EXPECT_EQ(jc->remaining(), 0);
}

TEST(BoundChain, UnboundChainOnTheSameSimulatorNeverCancels) {
  Simulator sim;
  CpuPool cpu(&sim, 1);
  Incarnation inc;
  int bound_steps = 0;
  int unbound_steps = 0;
  auto worker = [&](int* steps) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await cpu.Run(10);
      ++*steps;
    }
  };
  Spawn(worker(&bound_steps), &inc);
  Spawn(worker(&unbound_steps));
  sim.ScheduleAt(15, [&inc] { inc.dead = true; });
  sim.Run();
  // The bound chain finished its first charge at t=10 and died during its
  // second, which still held the core for its full cost (t=20..30); the
  // unbound chain ran all three charges.
  EXPECT_EQ(bound_steps, 1);
  EXPECT_EQ(unbound_steps, 3);
  EXPECT_EQ(cpu.busy_time(), 50);
  EXPECT_EQ(sim.Now(), 50);
}

TEST(BoundChain, BindToMakesTheCoroutineAQuietRoot) {
  Simulator sim;
  Incarnation inc;
  bool inner_finished = false;
  bool caller_resumed = false;
  auto bound_part = [](Simulator* s, const Incarnation* i,
                       bool* finished) -> Task<void> {
    co_await BindTo{i};
    co_await SleepyLeaf(s, 100, finished);
  };
  Spawn([](Simulator* s, const Incarnation* i, bool* finished, bool* resumed,
           auto part) -> Task<void> {
    co_await part(s, i, finished);  // the caller itself stays unbound
    *resumed = true;
  }(&sim, &inc, &inner_finished, &caller_resumed, bound_part));
  sim.ScheduleAt(50, [&inc] { inc.dead = true; });
  sim.Run();
  EXPECT_FALSE(inner_finished);
  EXPECT_TRUE(caller_resumed);
}

TEST(BoundChain, SafePointCancelsBeforeTheFirstRealAwait) {
  Simulator sim;
  Incarnation inc;
  inc.dead = true;
  bool acted = false;
  Spawn([](bool* a) -> Task<void> {
    co_await SafePoint{};
    *a = true;
  }(&acted), &inc);
  sim.Run();
  EXPECT_FALSE(acted);
}

}  // namespace
}  // namespace switchfs::sim
