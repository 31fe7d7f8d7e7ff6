// Dynamic lock-discipline checker for the coroutine core — the runtime
// counterpart of scripts/lint/sfs_lint.py. The static analyzer proves the
// *lexical* discipline (no borrow across co_await, append mutex innermost,
// evicts under the exclusive inode lock); this checker enforces the same
// rules on the *executed* interleavings of every Debug/Asan tier-1 run, so a
// suppressed-but-wrong site or a path the linter cannot see (locks stashed in
// transaction tables, handles moved between frames) still trips an assert.
//
// Chain identity: the simulator is single-threaded, but coroutines interleave
// at suspension points, so "who holds this lock" cannot be a global flag.
// Every sim::Task promise carries a chain id: a root coroutine gets a fresh
// id at its first co_await, and awaiting a child task propagates the id into
// the child (src/sim/task.h). A coroutine can query its own id with
//   uint64_t chain = co_await sim::discipline::CurrentChainId{};
// which never actually suspends (await_suspend returns false).
//
// Checks (violations call the installed handler; the default aborts):
//  * append-innermost — while a chain holds a LockClass::kAppend lock, it
//    must not acquire a lock of any OTHER class. Acquiring a second kAppend
//    lock is allowed: the moved_fp rebind takes the (old, new) append pair in
//    key order, which the static rule flags and the site suppresses with the
//    ordering argument (see PushEngine::RebindMovedLog).
//  * evict-requires-lock — EvictSwitchCacheEntry must run on a chain holding
//    an exclusive LockClass::kInode lock, unless the caller passes the
//    kExternal witness (rename 2PC: the locks live in txn_locks, acquired by
//    the prepare chain).
//
// Everything compiles away when SFS_DISCIPLINE_CHECKS is 0 (the default for
// NDEBUG builds — RelWithDebInfo/Release); Debug and Asan builds keep it on.
#ifndef SRC_SIM_DISCIPLINE_H_
#define SRC_SIM_DISCIPLINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#ifndef SFS_DISCIPLINE_CHECKS
#ifdef NDEBUG
#define SFS_DISCIPLINE_CHECKS 0
#else
#define SFS_DISCIPLINE_CHECKS 1
#endif
#endif

namespace switchfs::sim {

// Role of a LockTable in the server's lock order (see ServerVolatile).
enum class LockClass {
  kOther = 0,
  kInode = 1,           // per-inode reader/writer locks
  kChangelogGroup = 2,  // per-fingerprint-group change-log locks
  kAggGate = 3,         // owner-side read/aggregation gates
  kAppend = 4,          // per-log append mutexes — innermost
};

std::string_view LockClassName(LockClass cls);

class DisciplineChecker {
 public:
  struct Violation {
    std::string rule;    // "append-innermost" | "evict-requires-lock"
    std::string detail;  // human-readable description of the interleaving
  };
  // Invoked on every violation. The default handler prints the violation and
  // aborts; tests install a capturing handler to assert the checker fires
  // without killing the process. Passing nullptr restores the default.
  using Handler = std::function<void(const Violation&)>;
  static void SetHandler(Handler h);

  // Registers a granted lock. chain 0 = unknown origin (skips the checks but
  // still tracks the hold). Returns the hold id the guard must pass to
  // OnReleased; 0 is the "no hold" sentinel for default-constructed guards.
  static uint64_t OnAcquired(uint64_t chain, LockClass cls, bool exclusive,
                             std::string_view key);
  static void OnReleased(uint64_t hold_id);

  // evict-requires-lock: the calling chain must hold an exclusive kInode
  // lock. `context` names the evicted fingerprint for the report.
  static void CheckEvictAllowed(uint64_t chain, std::string_view context);

  // Observability for tests.
  static size_t live_holds();
  static uint64_t violations_seen();

  // Wipes all hold/chain state and the violation count (NOT the handler).
  // Crash-heavy tests abandon guards mid-flight by design; suites call this
  // between scenarios so leaked holds cannot cross-talk.
  static void Reset();
};

namespace discipline {

#if SFS_DISCIPLINE_CHECKS
// Chain-id bookkeeping used by sim::Task (src/sim/task.h). g_current tracks
// the chain of the coroutine currently executing a co_await expression;
// correctness relies only on reads that happen while that coroutine is still
// running (single-threaded simulator).
uint64_t FreshChainId();
void SetCurrentChain(uint64_t id);
uint64_t CurrentChain();
#endif

// Awaitable yielding the enclosing coroutine's chain id without suspending.
// Requires the enclosing promise to expose `chain_id` (sim::Task does); with
// checks compiled out it yields 0.
struct CurrentChainId {
  uint64_t id = 0;
  bool await_ready() const noexcept { return !SFS_DISCIPLINE_CHECKS; }
  template <typename Handle>
  bool await_suspend(Handle h) noexcept {
#if SFS_DISCIPLINE_CHECKS
    id = h.promise().chain_id;
#else
    (void)h;
#endif
    return false;  // resume immediately; this is a query, not a suspension
  }
  uint64_t await_resume() const noexcept { return id; }
};

}  // namespace discipline
}  // namespace switchfs::sim

#endif  // SRC_SIM_DISCIPLINE_H_
