// Lightweight discipline annotations for the coroutine core. These macros
// mark the types and functions that carry suspension-safety or lock-order
// obligations; `scripts/lint/sfs_lint.py` (the static side) and
// `sim::DisciplineChecker` (the dynamic side, src/sim/discipline.h) key off
// them, so the rules follow the annotations rather than hard-coded name
// lists. Under clang the macros also expand to [[clang::annotate]] so an
// AST-based tool sees the same marks; under every other compiler they expand
// to nothing and cost nothing.
//
//  SFS_SUSPENSION_SHARED      on a class/struct: the type's containers are
//                             shared across coroutine suspension points —
//                             references, pointers, and iterators derived
//                             from it must not live across a co_await
//                             (sfs-lint rule borrow-across-suspend).
//  SFS_LOCKABLE               on a class: its Acquire*/Guard machinery is a
//                             suspension-aware lock the lint tracks.
//  SFS_LOCK_INNERMOST         on a lock member: this lock is innermost in
//                             the lock order — no other lock may be acquired
//                             while it is held (rule append-innermost).
//  SFS_REQUIRES_EXCLUSIVE(l)  on a function: call sites must hold an
//                             exclusive guard of lock member `l` (or carry a
//                             suppression); the function body itself may
//                             assume the lock (rule evict-requires-lock).
//  SFS_SHARD_PRIVATE          on a data member: the member holds the
//                             per-shard apply lanes and push streams — only
//                             router functions may index it directly (rule
//                             cross-shard-direct).
//  SFS_SHARD_ROUTER           on a function: this function IS a lane
//                             router/accessor and may touch SFS_SHARD_PRIVATE
//                             members directly; everything else must go
//                             through a router.
//
// Suppressions (reason mandatory, checked by the linter):
//   // sfs-lint: allow(<rule>, <reason>)
// on the flagged line or on a comment line directly above it.
#ifndef SRC_COMMON_ANNOTATIONS_H_
#define SRC_COMMON_ANNOTATIONS_H_

#if defined(__clang__)
#define SFS_SUSPENSION_SHARED [[clang::annotate("sfs::suspension_shared")]]
#define SFS_LOCKABLE [[clang::annotate("sfs::lockable")]]
#define SFS_LOCK_INNERMOST [[clang::annotate("sfs::lock_innermost")]]
#define SFS_REQUIRES_EXCLUSIVE(lock) \
  [[clang::annotate("sfs::requires_exclusive:" #lock)]]
#define SFS_SHARD_PRIVATE [[clang::annotate("sfs::shard_private")]]
#define SFS_SHARD_ROUTER [[clang::annotate("sfs::shard_router")]]
#else
#define SFS_SUSPENSION_SHARED
#define SFS_LOCKABLE
#define SFS_LOCK_INNERMOST
#define SFS_REQUIRES_EXCLUSIVE(lock)
#define SFS_SHARD_PRIVATE
#define SFS_SHARD_ROUTER
#endif

#endif  // SRC_COMMON_ANNOTATIONS_H_
