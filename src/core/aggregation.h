// Directory aggregation (paper §5.2.2 steps 5-10, §5.4.1): the owner-side
// collect/apply path that returns a scattered directory to normal state, and
// the responder-side session handling on every other server.
//
// Owner side: RunAggregation removes the fingerprint from the dirty set,
// multicasts a collect, gathers each server's change-log entries for the
// group, applies them (hwm-deduplicated, FIFO per source), and multicasts
// AggDone so the senders mark their WAL records applied. Retries use a fresh
// remove sequence number until every server replied (§5.4.1).
//
// Responder side: HandleAggCollect snapshots local change-logs under a shared
// change-log lock held for the session; the lock is released by AggDone or,
// if the initiator dies, by the session watchdog.
#ifndef SRC_CORE_AGGREGATION_H_
#define SRC_CORE_AGGREGATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/server_context.h"
#include "src/net/packet.h"
#include "src/sim/task.h"

namespace switchfs::core {

class PushEngine;  // push_engine.h (depends on this header)

class Aggregation {
 public:
  explicit Aggregation(ServerContext& ctx) : ctx_(ctx) {}
  Aggregation(const Aggregation&) = delete;
  Aggregation& operator=(const Aggregation&) = delete;

  // Wires the source side of the verdicts this module settles (the
  // aggregation's own sections and AggDone rows): PushEngine::SettleVerdict.
  // Set after construction — PushEngine itself depends on Aggregation.
  void SetPushEngine(PushEngine* push) { push_ = push; }

  struct Outcome {
    net::MsgPtr deferred_done;  // AggDone to multicast (when defer_done)
  };

  // ---- owner side ----
  // Caller must hold the exclusive agg gate for `fp`. `held_cl_fp`: a
  // fingerprint whose change-log lock the caller already holds exclusively
  // (rmdir holds the parent's); pass 0 if none. `held_inode_key`: an inode
  // key the caller already holds a write lock on ("" if none). `invalidate`:
  // rmdir's lazy client-cache invalidation rides on the collect (§5.2.3).
  sim::Task<Outcome> RunAggregation(VolPtr v, psw::Fingerprint fp,
                                    std::optional<InodeId> invalidate,
                                    psw::Fingerprint held_cl_fp,
                                    const std::string& held_inode_key,
                                    bool defer_done);
  void SendAggDone(net::MsgPtr done_msg);
  // What a live directory's verdict acks: the lane's high-water mark (push,
  // synchronous update, overflow fallback), or the section's last seq (the
  // aggregation acks what it collected; the mark can run past that when a
  // push applied later entries meanwhile).
  enum class AckRule { kMark, kLastSeq };
  // The one owner-side apply of a change-log section, whichever channel
  // carried it (push, synchronous update, overflow fallback, aggregation):
  // applies `src`'s entries for `dir`, logged under `section_fp`, and returns
  // the verdict the source settles. Takes the directory's exclusive inode
  // lock unless the caller holds it (`held_inode_key`), runs the read-cache
  // evict, applies (ApplyEntries), then classifies the directory:
  //  * live: acks per `rule`;
  //  * renamed away (a live moved tombstone): a moved verdict acking the
  //    prefix applied before the rename;
  //  * about to arrive (a rename into `section_fp` is between its commit
  //    legs here): acks the lane's mark, so the source re-sends the rest
  //    once the destination leg commits;
  //  * removed: acks the section's last seq, so the source trims the
  //    obsolete backlog instead of re-sending it forever.
  // Classifying after the apply matters: a rename can commit while the
  // apply waits on the inode lock. `batch_token` (non-zero on the push
  // path): a section whose token is not above the one committed for
  // (dir, src) is a duplicate, re-acked without applying.
  sim::Task<SectionVerdict> ApplySection(VolPtr v, InodeId dir, uint32_t src,
                                         psw::Fingerprint section_fp,
                                         std::vector<ChangeLogEntry> entries,
                                         const std::string& held_inode_key = "",
                                         uint64_t batch_token = 0,
                                         AckRule rule = AckRule::kMark);
  // Takes the exclusive gate and aggregates (quiet timers, rename,
  // AggregateReq RPC, recovery).
  sim::Task<void> GateAndAggregate(VolPtr v, psw::Fingerprint fp);

  // ---- responder side ----
  sim::Task<void> HandleAggCollect(net::Packet p, VolPtr v);
  void HandleAggDone(const AggDone& done, VolPtr v);
  void HandleAggEntries(net::Packet p, VolPtr v);  // at initiator

 private:
  // Takes the owner's own change-log sections for `fp` into `w`, in place of
  // those an earlier call took.
  sim::Task<void> SnapshotOwnLogs(VolPtr v, psw::Fingerprint fp,
                                  psw::Fingerprint held_cl_fp,
                                  std::shared_ptr<ServerVolatile::AggWait> w);
  sim::Task<void> ResponderSessionWatchdog(VolPtr v, psw::Fingerprint fp,
                                           uint64_t seq);
  // Applies entries from `src` to directory `dir`, whose inode row `ikey`
  // (in fingerprint group `dir_fp`) the caller holds locked (hwm-deduped,
  // FIFO). With compaction on, N entries cost one consolidated attribute
  // write (§5.3). `lane_fp` is the fingerprint the entries were logged
  // under at the source: it selects the (dir, src, fp) dedup lane — see
  // ServerVolatile::hwm. `batch_token` is stamped into every kWalEntryApply
  // record so recovery rebuilds the section's idempotency state. Returns
  // true when it applied entries to the directory's inode row (so the
  // directory is live), false when it applied nothing.
  sim::Task<bool> ApplyEntries(VolPtr v, InodeId dir, uint32_t src,
                               psw::Fingerprint lane_fp,
                               std::vector<ChangeLogEntry> entries,
                               const std::string& ikey, psw::Fingerprint dir_fp,
                               uint64_t batch_token);

  ServerContext& ctx_;
  PushEngine* push_ = nullptr;  // see SetPushEngine
};

}  // namespace switchfs::core

#endif  // SRC_CORE_AGGREGATION_H_
