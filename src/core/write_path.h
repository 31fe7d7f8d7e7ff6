// The SwitchFS write path (paper §5.2.1), shared by every writer: the
// upsert and rmdir handlers, SetAttr, the rename commit legs and the
// hard-link paths. Step 3 is CheckAncestors, steps 4-5 are CommitOp, and
// steps 6-7 are UpdatePublisher::PublishUpdate (server_context.h). Writers
// differ only in their locks, their validation, and the record and KV
// mutation they hand to CommitOp; the CPU charges and lock acquisitions of
// each step are issued here, in the protocol's order.
#ifndef SRC_CORE_WRITE_PATH_H_
#define SRC_CORE_WRITE_PATH_H_

#include <vector>

#include "src/core/server_context.h"
#include "src/core/wal_records.h"
#include "src/sim/task.h"

namespace switchfs::core {

// CPU cost of step 3 for a request that resolved through `ancestors`.
inline sim::SimTime PathCheckCost(const ServerContext& ctx,
                                  const std::vector<AncestorRef>& ancestors) {
  return ctx.costs->path_check *
         static_cast<sim::SimTime>(1 + ancestors.size());
}

// Step 3: the ancestors whose cached entries predate an invalidation of the
// same id (empty = the path is valid). A non-empty result counts one
// stale-cache bounce.
inline std::vector<InodeId> CheckAncestors(
    const ServerContext& ctx, const ServerVolatile& v,
    const std::vector<AncestorRef>& ancestors) {
  std::vector<InodeId> stale = v.inval.Check(ancestors);
  if (!stale.empty()) {
    ctx.stats->stale_cache_bounces++;
  }
  return stale;
}

// Steps 4-5: appends `rec` to the WAL, charges `kv_cost`, then runs
// `mutate` (the record's KV mutation on this server). With a parent entry
// (rec.has_entry) the per-change-log append mutex is held from the seq
// capture to the change-log append: rename and link commit legs append
// without the fp-group change-log lock, so that lock alone does not
// serialize sequence assignment. The entry is then logged with the record's
// lsn, pending publication (steps 6-7).
template <typename Mutate>
sim::Task<void> CommitOp(ServerContext& ctx, VolPtr v, OpCommitRecord& rec,
                         sim::SimTime kv_cost, Mutate mutate) {
  LockTable::Handle append_lock;
  if (rec.has_entry) {
    append_lock = co_await v->ShardFor(rec.parent_fp)
                      .changelog_append_locks.AcquireExclusive(
                          ClAppendKey(rec.parent_fp, rec.parent_dir));
    rec.entry.seq =
        v->GetChangeLog(rec.parent_fp, rec.parent_dir).last_appended_seq() +
        1;
  }
  co_await ctx.cpu->Run(ctx.costs->wal_append);
  const uint64_t lsn = ctx.durable->wal.Append(kWalOpCommit, rec.Encode());
  co_await ctx.cpu->Run(kv_cost);
  mutate();
  if (rec.has_entry) {
    co_await ctx.cpu->Run(ctx.costs->changelog_append);
    rec.entry.wal_lsn = lsn;
    // Re-found after the suspensions: the append mutex pins the log's
    // sequence, not a reference into the slot map.
    v->GetChangeLog(rec.parent_fp, rec.parent_dir).Restore(rec.entry);
  }
}

}  // namespace switchfs::core

#endif  // SRC_CORE_WRITE_PATH_H_
