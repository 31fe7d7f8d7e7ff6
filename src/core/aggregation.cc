#include "src/core/aggregation.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "src/core/push_engine.h"
#include "src/core/schema.h"
#include "src/core/wal_records.h"
#include "src/core/write_path.h"
#include "src/sim/sync.h"
#include "src/tracker/dirty_tracker.h"

namespace switchfs::core {
namespace {

// Collect round: how long the initiator waits for every server's reply
// before re-multicasting with a fresh sequence number, and how many times.
constexpr sim::SimTime kAggReplyTimeout = sim::Milliseconds(2);
constexpr int kAggMaxRetries = 12;

}  // namespace

sim::Task<Aggregation::Outcome> Aggregation::RunAggregation(
    VolPtr v, psw::Fingerprint fp, std::optional<InodeId> invalidate,
    psw::Fingerprint held_cl_fp, const std::string& held_inode_key,
    bool defer_done) {
  ctx_.stats->aggregations++;
  // Stamped before the local snapshot and the dirty-set remove: this run
  // collects every entry committed before now (see GateDirRead).
  v->ShardFor(fp).last_agg_start[fp] = ctx_.Now();
  Outcome outcome;

  auto w = std::make_shared<ServerVolatile::AggWait>();
  for (uint32_t s = 0; s < ctx_.cluster->ServerCount(); ++s) {
    if (s != ctx_.config->index) {
      w->pending.insert(s);
    }
  }
  v->ShardFor(fp).agg_waits[fp] = w;

  if (invalidate.has_value()) {
    v->inval.Add(*invalidate, ctx_.Now());
  }

  co_await SnapshotOwnLogs(v, fp, held_cl_fp, w);

  // Remove the fingerprint and multicast the collect request; retry with a
  // fresh sequence number until every server has replied (§5.4.1). Each
  // retry removes the bit again, so it snapshots our own logs again first.
  bool complete = w->pending.empty();
  for (int attempt = 0; attempt <= kAggMaxRetries && !complete; ++attempt) {
    if (attempt > 0) {
      ctx_.stats->agg_retries++;
      co_await SnapshotOwnLogs(v, fp, held_cl_fp, w);
    }
    const uint64_t seq = ++ctx_.durable->remove_seq;
    w->seq = seq;
    w->slot = std::make_shared<sim::OneShot<bool>>(ctx_.sim);

    auto collect = std::make_shared<AggCollect>();
    collect->fp = fp;
    collect->initiator_server = ctx_.config->index;
    collect->initiator_node = ctx_.node_id();
    collect->agg_seq = seq;
    if (invalidate.has_value()) {
      collect->invalidate = true;
      collect->invalidate_id = *invalidate;
    }

    net::Packet rm;
    rm.dst = net::kServerMulticast;
    rm.body = collect;
    co_await ctx_.dirty_tracker->RemoveAndMulticast(ctx_, v, fp, seq,
                                                    std::move(rm));

    auto slot = w->slot;
    ctx_.sim->ScheduleTimer(kAggReplyTimeout, [slot] { slot->Set(false); });
    complete = co_await slot->Wait();
    if (w->pending.empty()) {
      complete = true;
    }
  }

  // Apply phase: per-(dir, source) batches, hwm-deduplicated. Entries
  // collected for a directory that was renamed away (live moved tombstone)
  // are neither applied nor acked: acking at max seq would trim committed
  // entries at their sources. They become AggDone moved rows instead, and
  // each source re-keys its log toward the tombstone's target — the
  // aggregation-path analog of the kMoved push verdict.
  std::map<std::pair<uint32_t, InodeId>, uint64_t> acked;
  std::map<std::pair<uint32_t, InodeId>, AggDone::MovedRow> moved;
  for (size_t i = 0; i < w->collected.size(); ++i) {
    const uint32_t src = w->collected_src[i];
    // Copies, not references: a straggling AggEntries reply (responder
    // retry) can push_back into w->collected while ApplyEntries suspends,
    // reallocating the vector under a held reference.
    const InodeId dir = w->collected[i].dir;
    if (w->collected[i].entries.empty()) {
      continue;
    }
    const uint64_t max_seq = w->collected[i].entries.back().seq;
    co_await ApplyEntries(v, dir, src, fp,
                          std::move(w->collected[i].entries), held_inode_key);
    // Classify AFTER the apply: ApplyEntries drops entries silently when
    // the directory is unknown here, and a rename can commit while the
    // apply waits on the inode lock — a pre-apply check would ack (and so
    // trim) entries the rename raced. The directory is live here only if
    // its dir-index row resolves to an inode row, as in
    // PushEngine::ApplySection.
    std::string ikey;
    psw::Fingerprint ifp = 0;
    const bool live =
        v->LookupDirIndex(dir, &ikey, &ifp) && v->kv.Get(ikey).has_value();
    if (!live) {
      const ServerVolatile::MovedDir* tomb = v->FindMovedTombstone(
          dir, ctx_.Now(), ctx_.config->moved_tombstone_ttl);
      if (tomb != nullptr) {
        moved[{src, dir}] = AggDone::MovedRow{src,
                                              dir,
                                              tomb->AppliedFor(src, fp),
                                              tomb->new_fp,
                                              tomb->new_owner,
                                              tomb->epoch};
        continue;
      }
    }
    auto& high = acked[{src, dir}];
    high = std::max(high, max_seq);
  }

  // Ack our own change-logs synchronously.
  auto own = v->ShardFor(fp).changelogs.find(fp);
  if (own != v->ShardFor(fp).changelogs.end()) {
    for (auto& [dir, log] : own->second) {
      auto it = acked.find({ctx_.config->index, dir});
      if (it == acked.end()) {
        continue;
      }
      for (uint64_t lsn : log.AckUpTo(it->second)) {
        ctx_.durable->wal.MarkApplied(lsn);
      }
    }
  }

  auto done = std::make_shared<AggDone>();
  done->fp = fp;
  done->agg_seq = w->seq;
  for (const auto& [key, seq] : acked) {
    if (key.first == ctx_.config->index) {
      continue;
    }
    done->acked.push_back(AggDone::AckedRow{key.first, key.second, seq});
  }
  // Moved rows: remote sources re-key on receipt of the AggDone; our own
  // logs for the moved directory re-key in a detached task — the caller may
  // hold this group's change-log lock (rmdir's held_cl_fp), so an inline
  // rebind could self-deadlock on its own lock table.
  for (const auto& [key, row] : moved) {
    if (key.first != ctx_.config->index) {
      done->moved.push_back(row);
      continue;
    }
    if (rebinder_ != nullptr) {
      sim::Spawn(rebinder_->RebindMovedLog(v, row.dir, fp, row.new_fp,
                                           row.applied_seq,
                                           /*from_aggregation=*/true),
                 v.get());
    }
  }
  v->ShardFor(fp).agg_waits.erase(fp);

  if (defer_done) {
    outcome.deferred_done = done;
  } else {
    SendAggDone(done);
  }
  co_return outcome;
}

void Aggregation::SendAggDone(net::MsgPtr done_msg) {
  if (done_msg == nullptr) {
    return;
  }
  net::Packet p;
  p.dst = net::kServerMulticast;
  p.ds.origin = ctx_.node_id();
  p.body = std::move(done_msg);
  ctx_.rpc->Send(std::move(p));
}

sim::Task<void> Aggregation::GateAndAggregate(VolPtr v, psw::Fingerprint fp) {
  auto gate = co_await v->ShardFor(fp).agg_gates.AcquireExclusive(FpKey(fp));
  co_await RunAggregation(v, fp, std::nullopt, 0, "", false);
}

sim::Task<void> Aggregation::ApplyEntries(VolPtr v, InodeId dir, uint32_t src,
                                          psw::Fingerprint lane_fp,
                                          std::vector<ChangeLogEntry> entries,
                                          const std::string& held_inode_key,
                                          uint64_t batch_token) {
  if (entries.empty()) {
    co_return;
  }
  std::string ikey;
  psw::Fingerprint fp = 0;
  if (!v->LookupDirIndex(dir, &ikey, &fp)) {
    // Directory unknown here: removed (entries are obsolete) or renamed
    // away. Callers that must not lose entries check the moved tombstone
    // BEFORE applying (PushEngine::ApplySection, RunAggregation's apply
    // phase, SyncParentUpdate) and route a kMoved/moved-row rebind verdict
    // instead; this silent drop is only reached for genuinely removed
    // directories.
    co_return;
  }
  LockTable::Handle lock;
  if (ikey != held_inode_key) {
    lock = co_await v->ShardFor(fp).inode_locks.AcquireExclusive(ikey);
  }

  // The hwm mark is tracked in a local and written through BumpHwm — not a
  // reference: v->hwm is suspension-shared, and a rename installing a moved
  // tombstone erases this very row (TakeHwmRows era hygiene) while the apply
  // suspends below, which would leave a reference dangling. BumpHwm also
  // refuses to resurrect an erased lane: its marks belong to the numbering
  // era the erase closed, and re-inserting them would swallow the fresh
  // era's entries as duplicates.
  const std::tuple<InodeId, uint32_t, psw::Fingerprint> lane{dir, src, lane_fp};
  uint64_t high = v->hwm[lane];
  const auto bump_hwm = [&high, &lane, &v](uint64_t seq) {
    high = std::max(high, seq);
    auto hit = v->hwm.find(lane);
    if (hit != v->hwm.end()) {
      hit->second = std::max(hit->second, high);
    }
  };
  // Resolved-prefix bridge: every batch starts at the source log's FRONT
  // (push gather, aggregation snapshot, fallback backlog all send FIFO
  // prefixes), and a log's front only advances through resolution — an ack
  // from this server, a moved_fp verdict trim (those entries migrated with
  // the renamed directory's entry list), or an obsolete-removal trim. So
  // everything below the first seq is settled and must not be waited for:
  // after a rename chain, a rebound or straggler batch resumes above marks
  // this incarnation of the lane never saw, and without the bridge it would
  // gap-stall forever. Stale duplicates cannot abuse this (their first seq
  // is never above the live front), and batches are single-flight per
  // (source, owner), so a bridged batch cannot overtake unresolved entries.
  bump_hwm(entries.front().seq - 1);
  std::vector<ChangeLogEntry> todo;
  uint64_t next = high + 1;
  for (ChangeLogEntry& e : entries) {
    if (e.seq < next) {
      ctx_.stats->entries_deduped++;
      continue;
    }
    if (e.seq > next) {
      break;  // mid-batch gap: apply the contiguous prefix only
    }
    todo.push_back(std::move(e));
    ++next;
  }
  if (todo.empty()) {
    co_return;
  }

  // Per-entry commit-stamp LWW: each name's last applied write
  // keeps a stamp row, and an entry whose (ts, origin, src, seq) stamp is
  // older than the row no-ops. Within one lane seqs are FIFO with
  // non-decreasing timestamps, so this never fires for plain traffic — it
  // resolves the cross-era case (a rebound old-era entry arriving after a
  // same-name new-era entry; the hwm lanes are per-fingerprint and cannot
  // see that inversion) and WAN-replayed conflicts (the stamp a WAN apply
  // left carries its origin cluster). Runs BEFORE the WAL appends so records
  // exist only for winners — replay then re-applies unconditionally and
  // max-merges the stamps. Losers still resolve the lane: final_seq is
  // bumped into the hwm after the apply either way.
  //
  // Winners get a presence-aware size delta: a write that wins over an
  // already-applied same-name entry from another era or cluster replaces the
  // entry row rather than adding one, and the directory's entry count must
  // say so (the size half of the phantom-dirent gap).
  const uint64_t final_seq = todo.back().seq;
  std::vector<ChangeLogEntry> kept;
  kept.reserve(todo.size());
  std::map<std::string, bool> present_override;  // in-batch sequences
  for (ChangeLogEntry& e : todo) {
    const LwwStamp incoming{e.timestamp, ctx_.config->cluster_id, src, e.seq};
    const std::string skey = LwwStampKey(dir, e.name);
    auto row = v->kv.Get(skey);
    if (row.has_value() && incoming < LwwStamp::Decode(*row)) {
      ctx_.stats->wan_conflicts_lww++;
      continue;  // a newer write already resolved this name
    }
    const bool creates = e.op == OpType::kCreate || e.op == OpType::kMkdir;
    auto ov = present_override.find(e.name);
    const bool present = ov != present_override.end()
                             ? ov->second
                             : v->kv.Get(EntryKey(dir, e.name)).has_value();
    e.size_delta = creates ? (present ? 0 : 1) : (present ? -1 : 0);
    present_override[e.name] = creates;
    v->kv.Put(skey, incoming.Encode());
    kept.push_back(std::move(e));
  }
  todo = std::move(kept);
  if (todo.empty()) {
    bump_hwm(final_seq);
    co_return;
  }

  co_await ctx_.cpu->Run(ctx_.costs->kv_get);
  auto value = v->kv.Get(ikey);
  if (!value.has_value()) {
    co_return;  // directory vanished under a concurrent rmdir
  }
  Attr attr = Attr::Decode(*value);

  if (ctx_.config->compaction) {
    // §5.3: consolidated attribute update (one put) + entry-list operations
    // fanned out across cores; WAL appends are group-committed.
    int64_t size_delta = 0;
    int64_t max_ts = attr.mtime;
    for (const ChangeLogEntry& e : todo) {
      size_delta += e.size_delta;
      max_ts = std::max(max_ts, e.timestamp);
    }
    const uint64_t result_size = static_cast<uint64_t>(
        std::max<int64_t>(0, static_cast<int64_t>(attr.size) + size_delta));
    auto join = std::make_shared<sim::JoinCounter>(
        ctx_.sim, static_cast<int>(todo.size()));
    for (const ChangeLogEntry& e : todo) {
      EntryApplyRecord rec;
      rec.dir = dir;
      rec.src_server = src;
      rec.fp = lane_fp;
      rec.entry = e;
      rec.result_size = result_size;
      rec.result_mtime = max_ts;
      rec.batch_token = batch_token;
      ctx_.durable->wal.Append(kWalEntryApply, rec.Encode());
      // Each fan-out leg signals the join even when cancelled, so the
      // apply's frame never waits on a leg that died with the incarnation.
      sim::Spawn(
          [](ServerContext* ctx, VolPtr vol, InodeId d, ChangeLogEntry entry,
             std::shared_ptr<sim::JoinCounter> jc) -> sim::Task<void> {
            sim::ScopeExit join_done([&jc] { jc->Done(); });
            co_await ctx->cpu->Run(ctx->costs->wal_append_batched +
                                   ctx->costs->changelog_apply_entry);
            ApplyEntryRow(*vol, d, entry);
          }(&ctx_, v, dir, e, join),
          v.get());
    }
    co_await join->Wait();
    co_await ctx_.cpu->Run(ctx_.costs->attr_merge_apply);
    ApplyDirAttr(*v, ikey, attr, result_size, max_ts);
    bump_hwm(final_seq);
  } else {
    // No compaction (+Async ablation): every entry is a full read-modify-
    // write of the directory inode, serialized under the inode lock.
    for (const ChangeLogEntry& e : todo) {
      EntryApplyRecord rec;
      rec.dir = dir;
      rec.src_server = src;
      rec.fp = lane_fp;
      rec.entry = e;
      const int64_t new_size =
          std::max<int64_t>(0, static_cast<int64_t>(attr.size) + e.size_delta);
      rec.result_size = static_cast<uint64_t>(new_size);
      rec.result_mtime = std::max(attr.mtime, e.timestamp);
      rec.batch_token = batch_token;
      co_await ctx_.cpu->Run(ctx_.costs->wal_append);
      ctx_.durable->wal.Append(kWalEntryApply, rec.Encode());
      co_await ctx_.cpu->Run(ctx_.costs->dir_update_cpu);
      co_await sim::FixedDelay(
          ctx_.sim, ctx_.costs->dir_update_critical - ctx_.costs->dir_update_cpu);
      ApplyEntryRow(*v, dir, e);
      ApplyDirAttr(*v, ikey, attr, rec.result_size, rec.result_mtime);
      bump_hwm(e.seq);
    }
    bump_hwm(final_seq);  // LWW-dropped tail entries are resolved too
  }
  ctx_.stats->entries_applied += todo.size();

  // WAN capture: publish every locally-committed dirent apply to the
  // replicator (null without a WAN tier). Only this path feeds the sink —
  // WAN replays enter through SwitchServer::EnqueueWanApply instead, so a
  // shipped batch cannot echo back out of the cluster that applied it.
  if (ctx_.wan_sink != nullptr) {
    for (const ChangeLogEntry& e : todo) {
      WanEntry we;
      we.dir = dir;
      we.dir_fp = fp;
      we.origin_cluster = ctx_.config->cluster_id;
      we.src_server = src;
      we.entry = e;
      ctx_.wan_sink->OnEntryApplied(we);
    }
  }
}

// Our own change-logs belong to the collection too. The shared lock
// serializes against in-flight double-inode ops (Fig 20); the sections an
// earlier call took are replaced without a suspension in between, so the
// collection holds exactly what our logs held once the lock was granted.
sim::Task<void> Aggregation::SnapshotOwnLogs(
    VolPtr v, psw::Fingerprint fp, psw::Fingerprint held_cl_fp,
    std::shared_ptr<ServerVolatile::AggWait> w) {
  LockTable::Handle local_lock;
  if (fp != held_cl_fp) {
    local_lock =
        co_await v->ShardFor(fp).changelog_locks.AcquireShared(FpKey(fp));
  }
  const uint32_t self = ctx_.config->index;
  std::vector<AggEntries::PerDir> collected;
  std::vector<uint32_t> collected_src;
  for (size_t i = 0; i < w->collected.size(); ++i) {
    if (w->collected_src[i] != self) {
      collected.push_back(std::move(w->collected[i]));
      collected_src.push_back(w->collected_src[i]);
    }
  }
  auto it = v->ShardFor(fp).changelogs.find(fp);
  if (it != v->ShardFor(fp).changelogs.end()) {
    for (auto& [dir, log] : it->second) {
      if (log.empty()) {
        continue;
      }
      AggEntries::PerDir pd;
      pd.dir = dir;
      pd.entries.assign(log.pending().begin(), log.pending().end());
      collected.push_back(std::move(pd));
      collected_src.push_back(self);
    }
  }
  w->collected = std::move(collected);
  w->collected_src = std::move(collected_src);
}

// ---------------------------------------------------------------------------
// Responder side
// ---------------------------------------------------------------------------

sim::Task<void> Aggregation::HandleAggCollect(net::Packet p, VolPtr v) {
  auto body = p.body;
  const auto* msg = net::MsgAs<AggCollect>(body);
  if (msg == nullptr) {
    co_return;
  }
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);

  // Fig 6 step 5: insert the removed directory into the invalidation list
  // *before* snapshotting, so racing double-inode ops fail their checks.
  if (msg->invalidate) {
    v->inval.Add(msg->invalidate_id, ctx_.Now());
  }

  const psw::Fingerprint fp = msg->fp;
  auto it = v->ShardFor(fp).agg_sessions.find(fp);
  if (it == v->ShardFor(fp).agg_sessions.end()) {
    auto lock =
        co_await v->ShardFor(fp).changelog_locks.AcquireShared(FpKey(fp));
    // Re-check: a concurrent collect may have created the session while we
    // waited for the lock; keep the first session's lock and drop ours.
    it = v->ShardFor(fp).agg_sessions.find(fp);
    if (it == v->ShardFor(fp).agg_sessions.end()) {
      ServerVolatile::AggSession session;
      session.seq = msg->agg_seq;
      session.lock = std::move(lock);
      session.started_at = ctx_.Now();
      it = v->ShardFor(fp).agg_sessions.emplace(fp, std::move(session)).first;
      sim::Spawn(ResponderSessionWatchdog(v, fp, msg->agg_seq), v.get());
    } else {
      it->second.seq = std::max(it->second.seq, msg->agg_seq);
    }
  } else {
    it->second.seq = std::max(it->second.seq, msg->agg_seq);
  }

  auto reply = std::make_shared<AggEntries>();
  reply->fp = fp;
  reply->agg_seq = msg->agg_seq;
  reply->src_server = ctx_.config->index;
  auto logs = v->ShardFor(fp).changelogs.find(fp);
  if (logs != v->ShardFor(fp).changelogs.end()) {
    for (auto& [dir, log] : logs->second) {
      if (log.empty()) {
        continue;
      }
      AggEntries::PerDir pd;
      pd.dir = dir;
      pd.entries.assign(log.pending().begin(), log.pending().end());
      reply->dirs.push_back(std::move(pd));
    }
  }
  net::CallOptions opts;
  opts.timeout = sim::Microseconds(500);
  opts.max_attempts = 5;
  auto r = co_await ctx_.rpc->Call(msg->initiator_node, reply, opts);
  (void)r;  // receipt ack only; AggDone (or the watchdog) finishes the session
}

void Aggregation::HandleAggEntries(net::Packet p, VolPtr v) {
  const auto* msg = net::MsgAs<AggEntries>(p.body);
  if (msg == nullptr) {
    return;
  }
  ctx_.rpc->Respond(p, net::MakeMsg<Ack>());
  auto it = v->ShardFor(msg->fp).agg_waits.find(msg->fp);
  if (it == v->ShardFor(msg->fp).agg_waits.end()) {
    return;  // aggregation already finished
  }
  auto& w = *it->second;
  for (const auto& pd : msg->dirs) {
    w.collected.push_back(pd);
    w.collected_src.push_back(msg->src_server);
  }
  if (msg->agg_seq == w.seq) {
    w.pending.erase(msg->src_server);
    if (w.pending.empty() && w.slot != nullptr) {
      w.slot->Set(true);
    }
  }
}

void Aggregation::HandleAggDone(const AggDone& done, VolPtr v) {
  // Moved rows first, independent of the session (a watchdog-reaped session
  // must not drop a rebind verdict): our collected entries for a renamed-away
  // directory were not acked — re-key them toward the new owner instead.
  if (rebinder_ != nullptr) {
    for (const auto& row : done.moved) {
      if (row.src_server != ctx_.config->index) {
        continue;
      }
      sim::Spawn(rebinder_->RebindMovedLog(v, row.dir, done.fp, row.new_fp,
                                           row.applied_seq,
                                           /*from_aggregation=*/true),
                 v.get());
    }
  }
  auto it = v->ShardFor(done.fp).agg_sessions.find(done.fp);
  if (it == v->ShardFor(done.fp).agg_sessions.end()) {
    return;
  }
  if (done.agg_seq < it->second.seq) {
    return;  // stale completion of an earlier attempt
  }
  auto logs = v->ShardFor(done.fp).changelogs.find(done.fp);
  if (logs != v->ShardFor(done.fp).changelogs.end()) {
    for (const auto& row : done.acked) {
      if (row.src_server != ctx_.config->index) {
        continue;
      }
      auto dit = logs->second.find(row.dir);
      if (dit == logs->second.end()) {
        continue;
      }
      for (uint64_t lsn : dit->second.AckUpTo(row.acked_seq)) {
        ctx_.durable->wal.MarkApplied(lsn);
      }
    }
  }
  v->ShardFor(done.fp).agg_sessions.erase(it);  // releases the lock (9a)
}

sim::Task<void> Aggregation::ResponderSessionWatchdog(VolPtr v,
                                                      psw::Fingerprint fp,
                                                      uint64_t seq) {
  while (true) {
    co_await sim::FixedDelay(ctx_.sim, ctx_.config->responder_session_timeout);
    auto it = v->ShardFor(fp).agg_sessions.find(fp);
    if (it == v->ShardFor(fp).agg_sessions.end()) {
      co_return;  // finished normally
    }
    if (it->second.seq != seq) {
      seq = it->second.seq;  // still live (retries); keep watching
      continue;
    }
    // The initiator went silent (likely crashed): release the lock. Pending
    // entries stay; recovery or the next aggregation re-collects them.
    v->ShardFor(fp).agg_sessions.erase(it);
    co_return;
  }
}

}  // namespace switchfs::core
