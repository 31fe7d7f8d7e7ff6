// The SwitchFS write path (paper §5.2.1), shared by every writer: the
// upsert and rmdir handlers, SetAttr, the rename commit legs and the
// hard-link paths. Step 3 is CheckAncestors, steps 4-5 are CommitOp, and
// steps 6-7 are UpdatePublisher::PublishUpdate (server_context.h). Writers
// differ only in their locks, their validation, and the record they hand to
// CommitOp; the CPU charges and lock acquisitions of each step are issued
// here, in the protocol's order.
//
// Each WAL record type's KV mutation is written once, below, and both the
// live commit and recovery (SwitchServer::ReplayWalInto, §5.4.2 / §A.1)
// call it: replay re-runs exactly the mutation the live path ran.
#ifndef SRC_CORE_WRITE_PATH_H_
#define SRC_CORE_WRITE_PATH_H_

#include <cstdint>
#include <string>
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

// ---- per-record apply functions (live commit == WAL redo) ------------------

// kWalOpCommit: puts or deletes the record's inode row.
//   * A directory created by mkdir or by a rename destination leg also gets
//     its dir-index row. The rename leg first closes the arrival era's hwm
//     lanes (earlier-era marks must not dedup this era's renumbered
//     entries) and installs the migrated entry rows.
//   * A directory removed by rmdir or a rename source leg also loses its
//     dir-index row and its entry rows; the removed entries are returned
//     (the source leg ships them to the destination).
//   * A rename source leg's moved tombstone is installed, its TTL starting
//     at `now`, after the departure era's hwm lanes are closed.
std::vector<DirEntry> ApplyOpCommit(ServerVolatile& v,
                                    const OpCommitRecord& rec, int64_t now);

// kWalBulkCommit: every created inode row.
void ApplyBulkCommit(ServerVolatile& v, const BulkCommitRecord& rec);
// Logs a bulk record's entries in `clog`, its parent's change-log. Entries
// ack in FIFO order, so the shared record may be marked applied only when
// its LAST entry acks: only that entry carries `lsn`, the others 0 (a no-op
// for Wal::MarkApplied). A partial ack followed by a crash replays the whole
// batch; the owner's high-water mark dedups the applied prefix.
void RestoreBulkEntries(ChangeLog& clog, const BulkCommitRecord& rec,
                        uint64_t lsn);

// One dirent's entry row in `dir`'s entry list: a create or mkdir puts it,
// an unlink or rmdir deletes it.
void ApplyEntryRow(ServerVolatile& v, const InodeId& dir,
                   const ChangeLogEntry& entry);
// A directory-attr update after dirent applies: the absolute `size`, and
// mtime and atime moved forward to `mtime` (never back). Writes `attr` to
// its inode row `ikey`.
void ApplyDirAttr(ServerVolatile& v, const std::string& ikey, Attr& attr,
                  uint64_t size, int64_t mtime);
// Idempotent redo of one committed dirent apply, local (kWalEntryApply) or
// geo-replicated (kWalWanApply): the entry row, the name's LWW stamp
// (max-merge), and the absolute directory size/mtime the apply computed.
// Records exist only for entries that won their comparison, so the stamps
// only need to be correct for FUTURE arrivals (a late cross-era or WAN
// entry). A directory that is not live here (no index row, or no inode row
// behind it) is skipped.
void RedoDirentApply(ServerVolatile& v, const InodeId& dir,
                     const ChangeLogEntry& entry, const LwwStamp& stamp,
                     uint64_t result_size, int64_t result_mtime);

// Steps 4-5: appends `rec` to the WAL, charges `kv_cost`, then applies it
// (ApplyOpCommit; returns what that removed). With a parent entry
// (rec.has_entry) the per-change-log append mutex is held from the seq
// capture to the change-log append: rename and link commit legs append
// without the fp-group change-log lock, so that lock alone does not
// serialize sequence assignment. The entry is then logged with the record's
// lsn, pending publication (steps 6-7).
sim::Task<std::vector<DirEntry>> CommitOp(ServerContext& ctx, VolPtr v,
                                          OpCommitRecord& rec,
                                          sim::SimTime kv_cost);

}  // namespace switchfs::core

#endif  // SRC_CORE_WRITE_PATH_H_
