// Coroutine-aware synchronization primitives on top of the simulator.
//
// All primitives are strictly FIFO and resume waiters through the event queue
// (never inline) so that (a) lock-handoff chains cannot recurse arbitrarily
// deep and (b) wakeup order is deterministic. Ownership is granted either in
// await_ready (fast path) or at handoff time inside the release path — never
// in await_resume — so there is no window in which a late arrival can steal a
// grant from a queued waiter. None of these are thread-safe; the simulator is
// single-threaded by design.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace switchfs::sim {

// Suspends the awaiting coroutine for `delay` simulated nanoseconds. The
// wake-up waits in the simulator's heap: for a computed or random delay.
class Delay {
 public:
  Delay(Simulator* sim, SimTime delay) : sim_(sim), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim_->ScheduleAfter(delay_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulator* sim_;
  SimTime delay_;
};

// Like Delay, for a wait whose length is fixed at the call site (a config
// or cost-model constant): the wake-up waits in the simulator's FIFO lane of
// that delay (Simulator::ScheduleTimer) instead of its heap.
class FixedDelay {
 public:
  FixedDelay(Simulator* sim, SimTime delay) : sim_(sim), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim_->ScheduleTimer(delay_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulator* sim_;
  SimTime delay_;
};

// Exclusive mutex with FIFO handoff. Usage:
//   auto guard = co_await mu.Acquire();
class SFS_LOCKABLE Mutex {
 public:
  explicit Mutex(Simulator* sim) : sim_(sim) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  class [[nodiscard]] Guard {
   public:
    Guard() = default;
    explicit Guard(Mutex* mu) : mu_(mu) {}
    Guard(Guard&& o) noexcept : mu_(std::exchange(o.mu_, nullptr)) {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        Release();
        mu_ = std::exchange(o.mu_, nullptr);
      }
      return *this;
    }
    ~Guard() { Release(); }

    void Release() {
      if (mu_ != nullptr) {
        std::exchange(mu_, nullptr)->Unlock();
      }
    }
    bool held() const { return mu_ != nullptr; }

   private:
    Mutex* mu_ = nullptr;
  };

  class [[nodiscard]] Acquirer {
   public:
    explicit Acquirer(Mutex* mu) : mu_(mu) {}
    bool await_ready() noexcept {
      if (!mu_->locked_) {
        mu_->locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { mu_->waiters_.push_back(h); }
    // On the queued path the lock was handed off (still locked_) before the
    // resume was scheduled, so ownership is already ours here.
    Guard await_resume() { return Guard(mu_); }

   private:
    Mutex* mu_;
  };

  Acquirer Acquire() { return Acquirer(this); }
  bool locked() const { return locked_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  void Unlock() {
    assert(locked_);
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    // FIFO handoff: the lock stays held and transfers to the front waiter.
    auto next = waiters_.front();
    waiters_.pop_front();
    sim_->ScheduleAfter(0, [next] { next.resume(); });
  }

  Simulator* sim_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Reader/writer lock with strict FIFO admission (no reader or writer
// starvation): a reader queued behind a writer waits for that writer;
// consecutive queued readers are admitted as a batch.
class SFS_LOCKABLE SharedMutex {
 public:
  explicit SharedMutex(Simulator* sim) : sim_(sim) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  class [[nodiscard]] Guard {
   public:
    Guard() = default;
    Guard(SharedMutex* mu, bool exclusive) : mu_(mu), exclusive_(exclusive) {}
    Guard(Guard&& o) noexcept
        : mu_(std::exchange(o.mu_, nullptr)), exclusive_(o.exclusive_) {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        Release();
        mu_ = std::exchange(o.mu_, nullptr);
        exclusive_ = o.exclusive_;
      }
      return *this;
    }
    ~Guard() { Release(); }

    void Release() {
      if (mu_ != nullptr) {
        auto* mu = std::exchange(mu_, nullptr);
        if (exclusive_) {
          mu->UnlockExclusive();
        } else {
          mu->UnlockShared();
        }
      }
    }
    bool held() const { return mu_ != nullptr; }

   private:
    SharedMutex* mu_ = nullptr;
    bool exclusive_ = false;
  };

  class [[nodiscard]] Acquirer {
   public:
    Acquirer(SharedMutex* mu, bool exclusive) : mu_(mu), exclusive_(exclusive) {}
    bool await_ready() noexcept {
      if (!mu_->waiters_.empty()) {
        return false;  // strict FIFO: never bypass the queue
      }
      if (exclusive_) {
        if (!mu_->writer_ && mu_->readers_ == 0) {
          mu_->writer_ = true;
          return true;
        }
        return false;
      }
      if (!mu_->writer_) {
        mu_->readers_++;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      mu_->waiters_.push_back({h, exclusive_});
    }
    Guard await_resume() { return Guard(mu_, exclusive_); }

   private:
    SharedMutex* mu_;
    bool exclusive_;
  };

  Acquirer AcquireShared() { return Acquirer(this, false); }
  Acquirer AcquireExclusive() { return Acquirer(this, true); }

  int readers() const { return readers_; }
  bool has_writer() const { return writer_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    bool exclusive;
  };

  void UnlockShared() {
    assert(readers_ > 0);
    if (--readers_ == 0) {
      Admit();
    }
  }
  void UnlockExclusive() {
    assert(writer_);
    writer_ = false;
    Admit();
  }

  // Grants the queue front. Grants are reflected in readers_/writer_
  // immediately (before the waiter physically resumes) so later arrivals and
  // unlocks observe a consistent reservation state.
  void Admit() {
    if (writer_ || readers_ > 0 || waiters_.empty()) {
      return;
    }
    if (waiters_.front().exclusive) {
      writer_ = true;
      auto next = waiters_.front().handle;
      waiters_.pop_front();
      sim_->ScheduleAfter(0, [next] { next.resume(); });
      return;
    }
    while (!waiters_.empty() && !waiters_.front().exclusive) {
      readers_++;
      auto next = waiters_.front().handle;
      waiters_.pop_front();
      sim_->ScheduleAfter(0, [next] { next.resume(); });
    }
  }

  Simulator* sim_;
  int readers_ = 0;
  bool writer_ = false;
  std::deque<Waiter> waiters_;
};

// Manual-reset event: Wait() suspends until Set() has been called.
class ManualEvent {
 public:
  explicit ManualEvent(Simulator* sim) : sim_(sim) {}

  class [[nodiscard]] Waiter {
   public:
    explicit Waiter(ManualEvent* ev) : ev_(ev) {}
    bool await_ready() const noexcept { return ev_->set_; }
    void await_suspend(std::coroutine_handle<> h) { ev_->waiters_.push_back(h); }
    void await_resume() const noexcept {}

   private:
    ManualEvent* ev_;
  };

  Waiter Wait() { return Waiter(this); }

  void Set() {
    if (set_) {
      return;
    }
    set_ = true;
    for (auto h : waiters_) {
      sim_->ScheduleAfter(0, [h] { h.resume(); });
    }
    waiters_.clear();
  }
  void Reset() { set_ = false; }
  bool is_set() const { return set_; }

 private:
  Simulator* sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Counting semaphore with FIFO waiters and direct permit handoff.
class Semaphore {
 public:
  Semaphore(Simulator* sim, int64_t permits) : sim_(sim), permits_(permits) {}

  class [[nodiscard]] Acquirer {
   public:
    explicit Acquirer(Semaphore* sem) : sem_(sem) {}
    bool await_ready() noexcept {
      if (sem_->waiters_.empty() && sem_->permits_ > 0) {
        sem_->permits_--;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { sem_->waiters_.push_back(h); }
    // Queued path: the permit was transferred at Release() time.
    void await_resume() const noexcept {}

   private:
    Semaphore* sem_;
  };

  Acquirer Acquire() { return Acquirer(this); }

  void Release() {
    if (!waiters_.empty()) {
      // Direct handoff; permits_ is not incremented.
      auto next = waiters_.front();
      waiters_.pop_front();
      sim_->ScheduleAfter(0, [next] { next.resume(); });
      return;
    }
    permits_++;
  }

  int64_t permits() const { return permits_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  int64_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Single-producer single-consumer completion slot, used by the RPC layer to
// join a response (or a timeout) with the awaiting caller. First Set() wins.
template <typename T>
class OneShot {
 public:
  explicit OneShot(Simulator* sim) : sim_(sim) {}

  bool Set(T value) {
    if (value_.has_value()) {
      return false;
    }
    value_ = std::move(value);
    if (waiter_) {
      auto h = std::exchange(waiter_, nullptr);
      sim_->ScheduleAfter(0, [h] { h.resume(); });
    }
    return true;
  }

  class [[nodiscard]] Waiter {
   public:
    explicit Waiter(OneShot* slot) : slot_(slot) {}
    bool await_ready() const noexcept { return slot_->value_.has_value(); }
    void await_suspend(std::coroutine_handle<> h) {
      assert(slot_->waiter_ == nullptr && "OneShot supports a single waiter");
      slot_->waiter_ = h;
    }
    T await_resume() { return *std::move(slot_->value_); }

   private:
    OneShot* slot_;
  };

  Waiter Wait() { return Waiter(this); }
  bool ready() const { return value_.has_value(); }

 private:
  Simulator* sim_;
  std::optional<T> value_;
  std::coroutine_handle<> waiter_ = nullptr;
};

// A join counter for fan-out/fan-in: arms with `expected` completions, each
// Done() decrements, waiters resume when the count reaches zero.
class JoinCounter {
 public:
  JoinCounter(Simulator* sim, int expected) : event_(sim), remaining_(expected) {
    if (remaining_ <= 0) {
      event_.Set();
    }
  }

  void Done() {
    assert(remaining_ > 0);
    if (--remaining_ == 0) {
      event_.Set();
    }
  }

  ManualEvent::Waiter Wait() { return event_.Wait(); }
  int remaining() const { return remaining_; }

 private:
  ManualEvent event_;
  int remaining_;
};

}  // namespace switchfs::sim

#endif  // SRC_SIM_SYNC_H_
