// Coroutine task type for simulator-driven protocol code. Mirrors the
// structure of the paper's coroutine-based RPC engine (§7.1): server handlers
// and client operations are lazy coroutines that co_await locks, simulated
// CPU time, and RPC completions.
//
// Lifetime rules:
//  * Task<T> is lazy; nothing runs until it is co_awaited or Spawn()ed.
//  * The awaiting coroutine owns the child Task object for the duration of
//    the await, so child frames never outlive their owners.
//  * Spawn() detaches a Task<void>; the wrapper frame self-destroys when the
//    task completes.
//
// Cancellation: a chain of coroutines can be bound to an Incarnation (a
// server's volatile state, which a crash marks dead). The binding is made at
// the chain's root — Spawn(task, incarnation), or a coroutine that binds
// itself with `co_await BindTo{incarnation}` — and every Task the chain
// awaits inherits it. After each await in a bound frame, once the inner
// await_resume has run, a dead incarnation throws Cancelled: the chain
// unwinds through RAII guards (a lock granted at handoff already sits in
// its guard) up to the root, which swallows it. Unbound chains (clients,
// cluster control, tests) never cancel.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/sim/discipline.h"

namespace switchfs::sim {

template <typename T>
class Task;

// Liveness of one server incarnation. A crash sets `dead`; every chain bound
// to the incarnation is cancelled at its next resume.
struct Incarnation {
  bool dead = false;
};

// Thrown at the resume point of a chain whose incarnation died.
struct Cancelled {};

// Runs `fn` when the enclosing scope ends, by normal exit or by Cancelled
// unwinding — the cleanup a cancelled chain still owes to state that
// outlives it (join counters, shared tallies).
template <typename Fn>
class [[nodiscard]] ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;
  ~ScopeExit() { fn_(); }

 private:
  Fn fn_;
};

namespace internal {

// Out of line and cold: the check at every await stays a load, a compare
// and a branch.
[[noreturn, gnu::noinline, gnu::cold]] inline void ThrowCancelled() {
  throw Cancelled{};
}

// The awaiter behind `co_await x`: x's own operator co_await if it has one
// (Task), else x itself.
template <typename A>
decltype(auto) AwaiterOf(A&& awaitable) {
  if constexpr (requires { std::forward<A>(awaitable).operator co_await(); }) {
    return std::forward<A>(awaitable).operator co_await();
  } else {
    return std::forward<A>(awaitable);
  }
}

// Wraps one await: forwards to the inner awaiter, then throws Cancelled if
// the frame's incarnation died while it was suspended. `Inner` is a Task's
// awaiter by value, or a reference to the awaited object (which lives until
// the end of the co_await's full-expression).
template <typename Inner>
struct CancelPoint {
  Inner inner;
  const Incarnation* incarnation;

  bool await_ready() { return inner.await_ready(); }
  template <typename Promise>
  auto await_suspend(std::coroutine_handle<Promise> h) {
    return inner.await_suspend(h);
  }
  auto await_resume() {
    if constexpr (std::is_void_v<decltype(inner.await_resume())>) {
      inner.await_resume();
      ThrowIfDead();
    } else {
      auto result = inner.await_resume();
      ThrowIfDead();
      return result;
    }
  }

  void ThrowIfDead() const {
    if (incarnation != nullptr && incarnation->dead) [[unlikely]] {
      ThrowCancelled();
    }
  }
};

template <typename T>
struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;
  // Cancellation binding (see the header comment): inherited from the
  // awaiting frame unless this frame is a chain root.
  const Incarnation* incarnation = nullptr;
  bool cancel_root = false;
#if SFS_DISCIPLINE_CHECKS
  // Chain identity for the dynamic discipline checker: every frame reachable
  // from one root (spawned or test-driven) coroutine shares one id, so lock
  // holds registered by LockTable acquisitions attribute to the logical
  // operation that owns them. 0 until the frame's first co_await.
  uint64_t chain_id = 0;
#endif

  // Every await is a cancellation point. Under the discipline checker it
  // also publishes this frame's chain id so an awaited child Task can
  // inherit it (TaskAwaiterBase::await_suspend reads it back synchronously,
  // before any suspension can intervene).
  template <typename A>
  auto await_transform(A&& awaitable) {
#if SFS_DISCIPLINE_CHECKS
    if (chain_id == 0) {
      chain_id = discipline::FreshChainId();
    }
    discipline::SetCurrentChain(chain_id);
#endif
    using Inner = decltype(AwaiterOf(std::forward<A>(awaitable)));
    return CancelPoint<Inner>{AwaiterOf(std::forward<A>(awaitable)),
                              incarnation};
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  // A chain root ends quietly on Cancelled; anything else propagates to the
  // awaiting frame.
  void unhandled_exception() {
    if (cancel_root) {
      try {
        throw;
      } catch (const Cancelled&) {
        return;
      } catch (...) {
      }
    }
    error = std::current_exception();
  }
};

// Awaiting a Task: starts (or resumes into) the child by symmetric transfer,
// handing it the awaiting frame's binding and discipline chain.
template <typename ChildPromise>
struct TaskAwaiterBase {
  std::coroutine_handle<ChildPromise> h;

  bool await_ready() const noexcept { return !h || h.done(); }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> cont) noexcept {
    ChildPromise& child = h.promise();
    child.continuation = cont;
    if (!child.cancel_root) {
      child.incarnation = cont.promise().incarnation;
    }
#if SFS_DISCIPLINE_CHECKS
    child.chain_id = discipline::CurrentChain();
#endif
    return h;
  }
};

}  // namespace internal

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PromiseBase<T> {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  struct Awaiter : internal::TaskAwaiterBase<promise_type> {
    T await_resume() {
      auto& p = this->h.promise();
      if (p.error) {
        std::rethrow_exception(p.error);
      }
      assert(p.value.has_value());
      return *std::move(p.value);
    }
  };

  Awaiter operator co_await() const& noexcept { return Awaiter{{handle_}}; }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::PromiseBase<void> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  // Makes this (not yet started) task the root of a chain bound to
  // `incarnation`; null leaves it unbound.
  void BindRoot(const Incarnation* incarnation) {
    if (incarnation != nullptr) {
      handle_.promise().incarnation = incarnation;
      handle_.promise().cancel_root = true;
    }
  }

  struct Awaiter : internal::TaskAwaiterBase<promise_type> {
    void await_resume() {
      auto& p = this->h.promise();
      if (p.error) {
        std::rethrow_exception(p.error);
      }
    }
  };

  Awaiter operator co_await() const& noexcept { return Awaiter{{handle_}}; }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

// `co_await BindTo{inc}` makes the awaiting Task<void> the root of a chain
// bound to `inc` from here on: later awaits (its own and its children's)
// cancel once inc->dead, and the cancellation ends this coroutine quietly —
// its awaiter resumes normally. For coroutines that start unbound (a
// recovery driven by cluster control) but then act as one incarnation.
struct BindTo {
  const Incarnation* incarnation;

  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  bool await_suspend(std::coroutine_handle<Promise> h) noexcept {
    static_assert(std::is_same_v<Promise, Task<void>::promise_type>,
                  "only a Task<void> can root a bound chain");
    h.promise().incarnation = incarnation;
    h.promise().cancel_root = true;
    return false;  // binds without suspending
  }
  void await_resume() const noexcept {}
};

// `co_await SafePoint{}` never suspends; it only runs the cancellation
// check, for a chain that must not act before its first real await (a
// queued thunk started after its incarnation died).
struct SafePoint {
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

namespace internal {

// Self-destroying wrapper used by Spawn(). The wrapper frame owns the
// spawned Task and is torn down automatically at final_suspend.
struct DetachedTask {
  struct promise_type {
    // Spawned roots carry their own binding (Task::BindRoot); the wrapper
    // itself is never bound.
    const Incarnation* incarnation = nullptr;
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
#if SFS_DISCIPLINE_CHECKS
    // Each spawned root starts a fresh discipline chain; the awaited Task
    // inherits the id via Task::Awaiter::await_suspend.
    template <typename A>
    decltype(auto) await_transform(A&& awaitable) {
      discipline::SetCurrentChain(discipline::FreshChainId());
      return std::forward<A>(awaitable);
    }
#endif
  };
};

inline DetachedTask RunDetached(Task<void> task) { co_await task; }

}  // namespace internal

// Starts `task` immediately and detaches it. The task's frame (and anything
// owned by it) is destroyed when it completes. A non-null `incarnation`
// binds the task as a chain root (see the header comment); the task must
// keep the incarnation alive (handlers hold it as a parameter). Uncaught
// exceptions other than a root's Cancelled terminate.
inline void Spawn(Task<void> task, const Incarnation* incarnation = nullptr) {
  task.BindRoot(incarnation);
  internal::RunDetached(std::move(task));
}

}  // namespace switchfs::sim

#endif  // SRC_SIM_TASK_H_
