// Proactive push & owner-driven aggregation (paper §5.3): source servers
// push change-log backlogs to their owners once an MTU worth of entries
// accumulates or a log has been idle; the owner aggregates after a quiet
// period so the next read finds the directory in normal state.
//
// Pushes are scheduled per (SHARD, OWNER), not per directory: every source
// server keeps one outbound queue per owner server in each of its shards
// (ServerShard::pushers) and a drain coroutine per queue coalesces all ready
// (fp, dir) logs for that owner into batched PushReqs of up to
// push_mtu_entries entries (overflow splits across packets). Sharding the
// queue turns the former single-flight-per-owner pipe into num_shards
// concurrent pipes toward a hot owner — the multi-core scaling the shard
// refactor exists for. A failed push re-queues its sections and re-arms a
// retry timer with exponential backoff, so an unreachable owner can never
// strand a backlog.
//
// Idempotent apply: every gathered section is stamped with a source-minted
// monotonic batch_token (ServerVolatile::push_token_counter). The owner
// remembers the highest committed {token, acked_seq} per (dir, src)
// (ServerVolatile::push_tokens, rebuilt from kWalEntryApply records on
// replay) and re-acks a duplicate section — a batch replayed after packet
// loss, a rebind, or an owner crash — without re-applying it.
#ifndef SRC_CORE_PUSH_ENGINE_H_
#define SRC_CORE_PUSH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/aggregation.h"
#include "src/core/server_context.h"
#include "src/net/packet.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::core {

class PushEngine {
 public:
  PushEngine(ServerContext& ctx, Aggregation& agg) : ctx_(ctx), agg_(agg) {}
  PushEngine(const PushEngine&) = delete;
  PushEngine& operator=(const PushEngine&) = delete;

  // ---- source side ----
  // After a deferred update commits: queue the log on its owner's pusher,
  // drain immediately when the backlog reaches push_mtu_entries, else (re)arm the
  // owner's idle-flush timer.
  void MaybeSchedulePush(VolPtr v, psw::Fingerprint fp, const InodeId& dir);
  // Queues a log on its owner's pusher without arming timers (recovery
  // flush path; pair with DrainOwnerBarrier).
  void EnqueueBacklog(VolPtr v, psw::Fingerprint fp, const InodeId& dir);
  // Background drain of one shard's queue toward `owner`: pushes ready logs
  // in MTU-bounded batches; a sub-MTU tail that trickles in mid-drain is
  // handed back to the idle timer. Single-flight per (shard, owner); on
  // failure the sections are re-queued and a backoff retry timer is armed.
  // No-ops when a drain for the pair is already running.
  sim::Task<void> DrainOwner(VolPtr v, size_t shard, uint32_t owner);
  // Recovery barrier (§5.4.2 flush): for every shard, waits out any
  // in-flight drain, then drains to completion with no tail handoff.
  // Returns with entries still queued only if the owner is unreachable (the
  // armed retry keeps at it).
  sim::Task<void> DrainOwnerBarrier(VolPtr v, uint32_t owner);

  // ---- owner side ----
  sim::Task<void> HandlePush(net::Packet p, VolPtr v);
  // Arms the quiet-period timer that triggers a proactive aggregation once
  // pushes stop arriving for owner_quiet_period.
  void ArmOwnerQuietTimer(VolPtr v, psw::Fingerprint fp);

  // ---- verdicts (source side) ----
  // Settles the owner's verdict on this server's section of `verdict.dir`'s
  // log under `fp` (Aggregation::ApplySection made it): trims the acked
  // prefix, or, for a directory renamed away, spawns RebindMovedLog — a
  // caller may hold fp's change-log lock, which the rebind takes. The
  // synchronous update, the overflow fallback and aggregation settle here;
  // the push drain trims through ServerContext::TrimLog in its own loop,
  // which counts progress and re-queues. `from_aggregation` selects which
  // rebind counters advance.
  void SettleVerdict(VolPtr v, psw::Fingerprint fp,
                     const SectionVerdict& verdict, bool from_aggregation);

  // ---- moved_fp rebind (§5.2 rename race, source side) ----
  // Re-keys `dir`'s change-log from `old_fp` to `new_fp` after a moved
  // verdict: trims the prefix the old owner applied before the rename
  // (`applied_seq` — those entries migrated with the directory's entry
  // list), moves the rest into the new-fingerprint log with re-assigned
  // seqs, re-inserts the dirty bit through the tracker, and enqueues the log
  // on the new owner's pusher. Safe to call twice for the same verdict (the
  // second call finds no log and no-ops).
  sim::Task<void> RebindMovedLog(VolPtr v, InodeId dir, psw::Fingerprint old_fp,
                                 psw::Fingerprint new_fp, uint64_t applied_seq,
                                 bool from_aggregation);
  // Eager reaction to the rename's invalidation broadcast: for a log with
  // pending entries, triggers an immediate push toward the old owner so its
  // moved verdict (the only holder of the authoritative pre-rename applied
  // marks) performs the rebind one round trip from now — still ahead of any
  // client op through the new path. Never re-keys blindly (entries may be
  // applied-but-unacked at the old owner through channels invisible to this
  // server), and never erases the slot: per-(fp, dir) numbering must stay
  // monotonic so straggler commits cannot restart at seqs the tombstone's
  // marks would trim as already-applied.
  sim::Task<void> EagerRebindMoved(VolPtr v, InodeId dir,
                                   psw::Fingerprint old_fp);

 private:
  sim::Task<void> DrainOwnerImpl(VolPtr v, size_t shard, uint32_t owner,
                                 bool to_completion);
  sim::Task<void> OwnerIdleTimer(VolPtr v, size_t shard, uint32_t owner);
  sim::Task<void> RetryTimer(VolPtr v, size_t shard, uint32_t owner);
  sim::Task<void> OwnerQuietTimer(VolPtr v, psw::Fingerprint fp);
  // One pushed section routed onto its shard's apply lane (HandlePush fans a
  // batch out through these): applies, records the verdict at `slot`, bumps
  // the shard's push clock, and signals `jc` unconditionally — even when a
  // crash cancels it — so the response assembly never hangs.
  sim::Task<void> ApplySectionTask(
      VolPtr v, PushReq::PerDir pd, uint32_t src,
      std::shared_ptr<std::vector<SectionVerdict>> rows, size_t slot,
      std::shared_ptr<sim::JoinCounter> jc);
  void ArmRetry(VolPtr v, size_t shard, uint32_t owner);
  // Exact count of live pending entries across the pusher's ready logs,
  // saturating at `cap` (the
  // aggregate-MTU trigger only compares against push_mtu_entries, so the
  // scan is O(mtu) amortized: entries whose logs turned out empty are pruned
  // as it goes, not re-visited per commit). Counting live entries — not
  // commits — keeps logs drained by a concurrent aggregation from inflating
  // the trigger into early sub-MTU batches.
  int ReadyEntries(ServerVolatile& v, OwnerPusher& st, int cap) const;

  ServerContext& ctx_;
  Aggregation& agg_;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_PUSH_ENGINE_H_
