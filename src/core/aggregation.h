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

  // Wires the moved_fp rebind path (§5.2 rename race): entries collected for
  // a directory that was renamed away are routed to PushEngine::
  // RebindMovedLog instead of being acked at max seq. Set after construction
  // (PushEngine itself depends on Aggregation); without a rebinder, moved
  // directories degrade to the removed-directory trim.
  void SetRebinder(PushEngine* rebinder) { rebinder_ = rebinder; }

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
  // Applies entries from `src` to directory `dir` (hwm-deduped, FIFO). With
  // compaction on, N entries cost one consolidated attribute write (§5.3).
  // `lane_fp` is the fingerprint the entries were logged under at the
  // source: it selects the (dir, src, fp) dedup lane — see
  // ServerVolatile::hwm. `batch_token` (non-zero on the push path) is
  // stamped into every kWalEntryApply record so recovery rebuilds the
  // section's idempotency state.
  sim::Task<void> ApplyEntries(VolPtr v, InodeId dir, uint32_t src,
                               psw::Fingerprint lane_fp,
                               std::vector<ChangeLogEntry> entries,
                               const std::string& held_inode_key,
                               uint64_t batch_token = 0);
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

  ServerContext& ctx_;
  PushEngine* rebinder_ = nullptr;  // see SetRebinder
};

}  // namespace switchfs::core

#endif  // SRC_CORE_AGGREGATION_H_
