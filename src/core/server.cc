#include "src/core/server.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/core/cache_evict.h"
#include "src/core/cache_record.h"
#include "src/core/schema.h"
#include "src/core/wal_records.h"
#include "src/core/write_path.h"
#include "src/sim/discipline.h"
#include "src/sim/task.h"
#include "src/tracker/dirty_tracker.h"

namespace switchfs::core {

SwitchServer::SwitchServer(sim::Simulator* sim, net::Network* net,
                           ClusterContext* cluster, DurableState* durable,
                           const sim::CostModel* costs,
                           tracker::DirtyTracker* dirty_tracker,
                           ServerConfig config)
    : sim_(sim),
      net_(net),
      cluster_(cluster),
      durable_(durable),
      costs_(costs),
      config_(config),
      cpu_(sim, config.cores),
      rpc_(sim, net),
      vol_(std::make_shared<ServerVolatile>(sim, config.shard_count)),
      ctx_{sim_,    net_,  cluster_, durable_, costs_,
           &config_, &cpu_, &rpc_,    &stats_,  dirty_tracker},
      agg_(ctx_),
      push_(ctx_, agg_),
      links_(ctx_, push_, *this),
      rename_(ctx_, agg_, push_, *this) {
  agg_.SetRebinder(&push_);  // moved_fp rebind for the aggregation path
  rpc_.SetCpu(&cpu_);
  rpc_.SetRequestHandler([this](net::Packet p) { OnRequest(std::move(p)); });
  rpc_.SetRawHandler([this](net::Packet p) { OnRaw(std::move(p)); });
  // Run-while-work-pending: the shard run queues hold work the event queue
  // cannot see. The lambdas read vol_ at call time, so one registration
  // covers every incarnation across crashes.
  work_source_id_ = sim_->RegisterWorkSource(sim::Simulator::WorkSource{
      [this]() { return PendingShardTasks(*vol_); },
      [this]() { KickShardDrains(vol_); }});
}

SwitchServer::~SwitchServer() { sim_->UnregisterWorkSource(work_source_id_); }

int64_t SwitchServer::Now() const { return sim_->Now(); }

InodeId SwitchServer::NewInodeId() {
  InodeId id;
  id.w[0] = (static_cast<uint64_t>(config_.index) << 48) | durable_->id_counter;
  id.w[1] = Mix64(durable_->id_counter ^ (config_.index * 0x9e37ULL));
  id.w[2] = static_cast<uint64_t>(Now());
  id.w[3] = 2;  // != RootId
  durable_->id_counter++;
  return id;
}

void SwitchServer::SeedRoot() {
  const psw::Fingerprint root_fp = FingerprintOf(InodeId{}, "/");
  if (!IsOwner(root_fp)) {
    return;
  }
  Attr root;
  root.id = RootId();
  root.type = FileType::kDirectory;
  root.mode = 0755;
  const std::string key = InodeKey(InodeId{}, "/");
  vol_->kv.Put(key, root.Encode());
  vol_->kv.Put(DirIndexKey(root.id), EncodeDirIndex(key, root_fp));
}

void SwitchServer::PreloadInode(const std::string& key, const Attr& attr) {
  vol_->kv.Put(key, attr.Encode());
}

void SwitchServer::PreloadEntry(const InodeId& dir, const std::string& name,
                                FileType t) {
  vol_->kv.Put(EntryKey(dir, name), EncodeEntryValue(t));
}

void SwitchServer::PreloadDirIndex(const InodeId& id,
                                   const std::string& inode_key,
                                   psw::Fingerprint fp) {
  vol_->kv.Put(DirIndexKey(id), EncodeDirIndex(inode_key, fp));
}

size_t SwitchServer::PendingChangeLogEntries() const {
  size_t total = 0;
  for (size_t i = 0; i < vol_->num_shards(); ++i) {
    for (const auto& [fp, dirs] : vol_->ShardAt(i).changelogs) {
      for (const auto& [dir, log] : dirs) {
        total += log.size();
      }
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void SwitchServer::OnRequest(net::Packet p) {
  if (p.body == nullptr) {
    return;
  }
  VolPtr v = vol_;
  // Handler chains are bound to the incarnation they were dispatched to.
  const auto spawn = [inc = v.get()](sim::Task<void> task) {
    sim::Spawn(std::move(task), inc);
  };
  switch (p.body->type) {
    case MetaReq::kType: {
      if (!serving_) {
        RespondStatus(p, StatusCode::kUnavailable);
        return;
      }
      const auto* req = static_cast<const MetaReq*>(p.body.get());
      switch (req->op) {
        case OpType::kCreate:
        case OpType::kMkdir:
        case OpType::kUnlink:
          spawn(HandleUpsert(std::move(p), std::move(v)));
          break;
        case OpType::kRmdir:
          spawn(HandleRmdir(std::move(p), std::move(v)));
          break;
        case OpType::kStat:
        case OpType::kOpen:
        case OpType::kClose:
        case OpType::kStatDir:
        case OpType::kReaddir:
        case OpType::kOpenDir:
          spawn(HandleRead(std::move(p), std::move(v)));
          break;
        case OpType::kReaddirPage:
          spawn(HandleReaddirPage(std::move(p), std::move(v)));
          break;
        case OpType::kCloseDir:
          spawn(HandleCloseDir(std::move(p), std::move(v)));
          break;
        case OpType::kBatchStat:
          spawn(HandleBatchStat(std::move(p), std::move(v)));
          break;
        case OpType::kSetAttr:
          spawn(HandleSetAttr(std::move(p), std::move(v)));
          break;
        case OpType::kBulkInsert:
          spawn(HandleBulkInsert(std::move(p), std::move(v)));
          break;
        case OpType::kRename:
          spawn(rename_.HandleRename(std::move(p), std::move(v)));
          break;
        case OpType::kLink:
          spawn(links_.HandleLink(std::move(p), std::move(v)));
          break;
        default:
          RespondStatus(p, StatusCode::kInvalidArgument);
          break;
      }
      break;
    }
    case LookupReq::kType:
      if (!serving_) {
        RespondStatus(p, StatusCode::kUnavailable);
        return;
      }
      spawn(HandleLookup(std::move(p), std::move(v)));
      break;
    case AggEntries::kType:
      agg_.HandleAggEntries(std::move(p), std::move(v));
      break;
    case PushReq::kType:
      spawn(push_.HandlePush(std::move(p), std::move(v)));
      break;
    case MarkScattered::kType: {
      const auto* msg = static_cast<const MarkScattered*>(p.body.get());
      v->ShardFor(msg->fp).owner_scattered.insert(msg->fp);
      rpc_.Respond(p, net::MakeMsg<Ack>());
      break;
    }
    case ScatteredSnapshotReq::kType: {
      // Tracker-group failover: report every fingerprint group that still
      // holds pending change-log entries (answered even while !serving_ —
      // the rebuilt tracker must not wait out our recovery).
      auto resp = std::make_shared<ScatteredSnapshotResp>();
      for (size_t i = 0; i < v->num_shards(); ++i) {
        for (const auto& [fp, dirs] : v->ShardAt(i).changelogs) {
          for (const auto& [dir, log] : dirs) {
            if (!log.empty()) {
              resp->fps.push_back(fp);
              break;
            }
          }
        }
      }
      rpc_.Respond(p, resp);
      break;
    }
    case AggregateReq::kType:
      spawn(rename_.HandleAggregateReq(std::move(p), std::move(v)));
      break;
    case RenamePrepare::kType: {
      // Cross-shard handoff (sanctioned flow #1, rename legs): the prepare
      // locks the leg's inode key, which lives on the (pid, name)
      // fingerprint's shard — route the whole leg there as a handoff task.
      const auto* msg = static_cast<const RenamePrepare*>(p.body.get());
      const size_t shard = ShardIndexForFp(
          FingerprintOf(msg->pid, msg->name), v->num_shards());
      stats_.cross_shard_handoffs++;
      EnqueueShardTask(v, shard, ShardLane::kHandoff, [this, p, v]() {
        return rename_.HandleRenamePrepare(p, v);
      });
      break;
    }
    case RenameCommit::kType: {
      // Commit leg routes by the leg's (parent, name) key — the shard whose
      // inode lock the prepare leg parked in txn_locks.
      const auto* msg = static_cast<const RenameCommit*>(p.body.get());
      const size_t shard = ShardIndexForFp(
          FingerprintOf(msg->parent_dir, msg->parent_entry_name),
          v->num_shards());
      stats_.cross_shard_handoffs++;
      EnqueueShardTask(v, shard, ShardLane::kHandoff, [this, p, v]() {
        return rename_.HandleRenameCommit(p, v);
      });
      break;
    }
    case InvalCloneReq::kType:
      spawn(HandleInvalClone(std::move(p), std::move(v)));
      break;
    case LinkConvert::kType: {
      // Cross-shard handoff (sanctioned flow #2, hard-link splits): the
      // convert rewrites the source name's inode row under its shard's lock.
      const auto* msg = static_cast<const LinkConvert*>(p.body.get());
      const size_t shard = ShardIndexForFp(
          FingerprintOf(msg->pid, msg->name), v->num_shards());
      stats_.cross_shard_handoffs++;
      EnqueueShardTask(v, shard, ShardLane::kHandoff, [this, p, v]() {
        return links_.HandleLinkConvert(p, v);
      });
      break;
    }
    case LinkRefUpdate::kType:
      spawn(links_.HandleLinkRefUpdate(std::move(p), std::move(v)));
      break;
    default:
      break;
  }
}

void SwitchServer::OnRaw(net::Packet p) {
  VolPtr v = vol_;
  const auto spawn = [inc = v.get()](sim::Task<void> task) {
    sim::Spawn(std::move(task), inc);
  };
  if (p.has_ds_op() && p.ds.op == net::DsOp::kInsert) {
    if (p.ds.ret) {
      HandleInsertAck(p, v);  // mirror copy: release signal (7b)
    } else {
      // Address-rewriter redirect: we own the parent; apply synchronously.
      spawn(HandleInsertFallback(std::move(p), std::move(v)));
    }
    return;
  }
  if (p.has_mc_op() && p.mc.op == net::McOp::kEvict) {
    // Ack of our own pre-commit cache evict: the self-addressed packet made
    // it through the switch (which executed the evict in flight) back to us.
    // Multicast invalidations also carry an evict stamp — their token never
    // matches a wait (it is 0), so their bodies are handled below.
    auto it = v->cache_evict_waits.find(p.mc.token);
    if (it != v->cache_evict_waits.end()) {
      it->second->acked = true;
      if (it->second->slot != nullptr) {
        it->second->slot->Set(1);
      }
      return;
    }
  }
  if (p.body == nullptr) {
    return;
  }
  switch (p.body->type) {
    case AggCollect::kType:
      spawn(agg_.HandleAggCollect(std::move(p), std::move(v)));
      break;
    case AggDone::kType:
      agg_.HandleAggDone(*static_cast<const AggDone*>(p.body.get()), v);
      break;
    case FallbackDone::kType:
      HandleFallbackDone(*static_cast<const FallbackDone*>(p.body.get()), v);
      break;
    case InvalBroadcast::kType: {
      const auto* msg = static_cast<const InvalBroadcast*>(p.body.get());
      v->inval.Add(msg->id, Now());
      if (msg->moved) {
        // Rename rebind hint: re-key our old-era change-log for the moved
        // directory now, before any client can have re-resolved the new
        // path (keeps old-era entries ordered ahead of same-name new-era
        // ones; see InvalBroadcast in messages.h).
        spawn(push_.EagerRebindMoved(v, msg->id, msg->old_fp, msg->new_fp));
      }
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Double-inode operations: create / mkdir / delete (§5.2.1)
// ---------------------------------------------------------------------------

sim::Task<void> SwitchServer::HandleUpsert(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  stats_.ops++;
  co_await cpu_.Run(costs_->op_dispatch);

  const PathRef& ref = req->ref;
  const std::string ikey = InodeKey(ref.pid, ref.name);
  const psw::Fingerprint pfp = ref.parent_fp;

  // Step 2: locking — parent change-log (write) + target inode (write).
  // Both route to the target's shard: the inode key's fingerprint is
  // exactly pfp's group only for the parent's own row; here the target key
  // hashes to its own group, which the ring maps to this server and the
  // shard router maps to one shard — same fp, same shard for both tables.
  auto cl_lock =
      co_await v->ShardFor(pfp).changelog_locks.AcquireExclusive(FpKey(pfp));
  auto ino_lock =
      co_await v->ShardForKey(ikey).inode_locks.AcquireExclusive(ikey);

  // Step 3: validation — invalidation list, then existence.
  co_await cpu_.Run(PathCheckCost(ctx_, ref.ancestors));
  auto stale = CheckAncestors(ctx_, *v, ref.ancestors);
  if (!stale.empty()) {
    RespondStale(p, std::move(stale));
    co_return;
  }
  co_await cpu_.Run(costs_->kv_get);
  auto existing = v->kv.Get(ikey);

  Attr attr;
  OpCommitRecord rec;
  rec.entry.timestamp = Now();
  rec.entry.name = ref.name;
  switch (req->op) {
    case OpType::kCreate:
    case OpType::kMkdir: {
      if (existing.has_value()) {
        RespondStatus(p, StatusCode::kAlreadyExists);
        co_return;
      }
      attr.id = NewInodeId();
      attr.type = req->op == OpType::kMkdir ? FileType::kDirectory
                                            : FileType::kFile;
      attr.mode = req->mode;
      attr.ctime = attr.mtime = attr.atime = Now();
      rec.entry.op = req->op;
      rec.entry.entry_type = attr.type;
      rec.entry.size_delta = 1;
      break;
    }
    case OpType::kUnlink: {
      if (!existing.has_value()) {
        RespondStatus(p, StatusCode::kNotFound);
        co_return;
      }
      attr = Attr::Decode(*existing);
      if (attr.is_dir()) {
        RespondStatus(p, StatusCode::kIsADirectory);
        co_return;
      }
      if (attr.type == FileType::kReference) {
        // Hard link: drop one reference; the attributes object dies when the
        // count reaches zero (§5.5).
        Status ls = co_await links_.UpdateLinkCount(
            v, attr.id, static_cast<uint32_t>(attr.size), -1, nullptr);
        if (!ls.ok()) {
          // A failed decrement leaves the refcount untouched; surfacing the
          // error beats unlinking the entry and stranding the attributes
          // object with a count it can never shed.
          RespondStatus(p, ls.code());
          co_return;
        }
      }
      rec.entry.op = OpType::kUnlink;
      rec.entry.entry_type = FileType::kFile;
      rec.entry.size_delta = -1;
      break;
    }
    default:
      RespondStatus(p, StatusCode::kInvalidArgument);
      co_return;
  }

  // In-switch cache: drop any cached attr of the target before the commit
  // becomes visible (read-your-writes; no-op for creates — negative results
  // are never installed). Runs under the exclusive inode lock, so no read
  // can install a pre-write record after this returns (see cache_evict.h).
  co_await EvictSwitchCacheEntry(ctx_, v, FingerprintOf(ref.pid, ref.name));

  // Steps 4-5: persistent commit (WAL), then execute locally.
  rec.op = req->op;
  rec.inode_key = ikey;
  rec.inode_delete = req->op == OpType::kUnlink;
  if (!rec.inode_delete) {
    rec.inode_value = attr.Encode();
  }
  rec.parent_dir = ref.pid;
  rec.parent_fp = pfp;
  rec.has_entry = true;
  const sim::SimTime kv_cost =
      rec.inode_delete ? costs_->kv_delete : costs_->kv_put;
  co_await CommitOp(ctx_, v, rec, kv_cost);

  // Steps 6-7: publish the parent update, reply, release locks (RAII).
  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->attr = attr;
  co_await PublishUpdate(&p, v, pfp, ref.pid, resp);
  push_.MaybeSchedulePush(v, pfp, ref.pid);
}

sim::Task<void> SwitchServer::PublishUpdate(const net::Packet* client_req,
                                            VolPtr v, psw::Fingerprint fp,
                                            const InodeId& dir,
                                            net::MsgPtr client_resp) {
  if (!config_.async_updates) {
    // Conventional synchronous update (the Baseline of §7.3.1 / Fig 14).
    // Best-effort: on failure the entries stay pending for a later push —
    // the op itself is already committed, so it still succeeds.
    (void)co_await SyncParentUpdate(v, fp, dir);
    if (client_req != nullptr) {
      rpc_.Respond(*client_req, client_resp);
    }
    co_return;
  }
  const tracker::InsertResult res = co_await ctx_.dirty_tracker->Insert(
      ctx_, v, fp, dir, client_req, client_resp);
  if (res == tracker::InsertResult::kOverflow) {
    // Tracker full or unreachable: apply the parent update synchronously at
    // its owner so the deferred entry is visible without the dirty set.
    stats_.fallbacks++;
    // Best-effort: on failure the entries simply stay pending for a later
    // push — the op itself is already committed.
    (void)co_await SyncParentUpdate(v, fp, dir);
  }
  if (res != tracker::InsertResult::kDelivered && client_req != nullptr) {
    rpc_.Respond(*client_req, client_resp);
  }
}

// Trims the (fp, dir) change-log up to acked_seq, re-finding the log after
// the caller's suspension points: a concurrent moved_fp rebind may have
// re-keyed (and erased) the slot, so a ChangeLog reference taken before a
// co_await must not be reused for the trim.
void SwitchServer::AckChangeLogUpTo(VolPtr v, psw::Fingerprint fp,
                                    const InodeId& dir, uint64_t acked_seq) {
  auto& shard_logs = v->ShardFor(fp).changelogs;
  auto logs = shard_logs.find(fp);
  if (logs == shard_logs.end()) {
    return;
  }
  auto lit = logs->second.find(dir);
  if (lit == logs->second.end()) {
    return;
  }
  for (uint64_t lsn : lit->second.AckUpTo(acked_seq)) {
    durable_->wal.MarkApplied(lsn);
  }
}

sim::Task<Status> SwitchServer::SyncParentUpdate(VolPtr v, psw::Fingerprint fp,
                                                 const InodeId& dir) {
  uint64_t max_seq = 0;
  std::vector<ChangeLogEntry> entries;
  {
    ChangeLog& clog = v->GetChangeLog(fp, dir);
    max_seq = clog.last_appended_seq();
    entries.assign(clog.pending().begin(), clog.pending().end());
  }
  if (IsOwner(fp)) {
    // Synchronous local apply mutates the directory's attr without a
    // dirty-set insert, so the switch never saw a kInsert evict for this
    // fingerprint — drop any cached attr first (no-op unless installed),
    // under the directory's exclusive inode lock spanning evict -> apply
    // commit (handed to ApplyEntries via held_inode_key): an unlocked evict
    // leaves a window for a lookup to re-install the pre-apply record with a
    // post-evict version. Directory unknown here: nothing to evict (its
    // removal evicted under its own lock) and ApplyEntries drops the
    // entries; skip straight to classification.
    std::string dkey;
    psw::Fingerprint dfp = 0;
    LockTable::Handle ino_lock;
    if (v->LookupDirIndex(dir, &dkey, &dfp)) {
      // Sanctioned cross-shard pair: the awaiting op chain (a sync-mode
      // writer, tracker-overflow fallback) still holds ITS target's
      // inode lock on that key's shard, and the parent directory's group
      // can live on another shard. The pair is deadlock-free — op chains
      // always lock child-then-parent, and parent keys are distinct from
      // child keys — so witness it instead of handing off the apply.
      sim::CrossShardScope sync_xs(
          co_await sim::discipline::CurrentChainId{});
      ino_lock =
          co_await v->ShardForKey(dkey).inode_locks.AcquireExclusive(dkey);
      co_await EvictSwitchCacheEntry(ctx_, v, fp);
    }
    // dkey is empty exactly when the lookup failed and no lock is held (and
    // a conditional-operator temporary inside a co_await expression would
    // trip the GCC 12 frame-slot miscompile noted in src/sim/task.h).
    co_await agg_.ApplyEntries(v, dir, config_.index, fp, std::move(entries),
                               dkey);
    ino_lock.Release();
    // Classify AFTER the apply: ApplyEntries drops entries silently when
    // the directory is unknown here, and a rename can commit while the
    // apply waits on the inode lock — a pre-apply check would let the
    // blanket trim below swallow entries the rename raced. The directory
    // is live here only if its dir-index row resolves to an inode row, as
    // in PushEngine::ApplySection.
    std::string ikey;
    psw::Fingerprint ifp = 0;
    if (!v->LookupDirIndex(dir, &ikey, &ifp) || !v->kv.Get(ikey).has_value()) {
      const ServerVolatile::MovedDir* tomb =
          v->FindMovedTombstone(dir, Now(), config_.moved_tombstone_ttl);
      if (tomb != nullptr) {
        // Renamed away from this fingerprint: re-key the backlog toward the
        // new owner instead of trimming it. Detached — the caller holds
        // this group's change-log lock, so an inline rebind would
        // self-deadlock. The op itself is committed; visibility follows
        // the rebound push.
        sim::Spawn(push_.RebindMovedLog(v, dir, fp, tomb->new_fp,
                                        tomb->AppliedFor(config_.index, fp),
                                        /*from_aggregation=*/false),
                   v.get());
        co_return OkStatus();
      }
    }
    AckChangeLogUpTo(v, fp, dir, max_seq);
    co_return OkStatus();
  }
  // Synchronous fallback: the whole backlog rides one request (no MTU
  // split — the op blocks on the apply, so splitting would only add round
  // trips; see the exception note in messages.h).
  auto push = std::make_shared<PushReq>();
  push->src_server = config_.index;
  PushReq::PerDir pd;
  pd.dir = dir;
  pd.fp = fp;
  pd.entries = std::move(entries);
  // Idempotency token, as on the batched path: if the RPC layer retransmits
  // after a lost ack, the owner re-acks the committed section instead of
  // re-applying it.
  pd.batch_token = v->push_token_counter++;
  push->dirs.push_back(std::move(pd));
  auto r = co_await rpc_.Call(cluster_->ServerNode(OwnerOf(fp)), push);
  if (!r.ok()) {
    co_return r.status();
  }
  const auto* resp = net::MsgAs<PushResp>(*r);
  if (resp == nullptr) {
    co_return InternalError("bad push response");
  }
  uint64_t acked_seq = 0;
  for (const auto& row : resp->acked) {
    if (row.dir == dir) {
      if (row.status == PushResp::SectionStatus::kMoved) {
        // Renamed away at the owner: trim only the pre-rename applied prefix
        // and re-key the rest (detached — see the local branch). The op is
        // committed either way.
        sim::Spawn(push_.RebindMovedLog(v, dir, fp, row.new_fp, row.acked_seq,
                                        /*from_aggregation=*/false),
                   v.get());
        co_return OkStatus();
      }
      acked_seq = row.acked_seq;
      break;
    }
  }
  AckChangeLogUpTo(v, fp, dir, acked_seq);
  co_return OkStatus();
}

// ---------------------------------------------------------------------------
// Insert acks & overflow fallback
// ---------------------------------------------------------------------------

void SwitchServer::HandleInsertAck(const net::Packet& p, VolPtr v) {
  const auto* env = net::MsgAs<InsertEnvelope>(p.body);
  if (env == nullptr) {
    return;
  }
  auto it = v->op_waits.find(env->op_token);
  if (it == v->op_waits.end()) {
    return;  // duplicate/late ack
  }
  it->second->acked = true;
  if (it->second->slot != nullptr) {
    it->second->slot->Set(1);
  }
}

sim::Task<void> SwitchServer::HandleInsertFallback(net::Packet p, VolPtr v) {
  auto body = p.body;
  const auto* env = net::MsgAs<InsertEnvelope>(body);
  if (env == nullptr) {
    co_return;
  }
  stats_.fallbacks++;
  co_await cpu_.Run(costs_->op_dispatch);
  uint64_t acked_seq = env->backlog.empty() ? 0 : env->backlog.back().seq;
  co_await agg_.ApplyEntries(v, env->dir, env->src_server, env->fp,
                             env->backlog, "");
  {
    // A backlog for a renamed-away directory must not be acked at max seq
    // (ApplyEntries drops it silently): ack only the pre-rename applied
    // prefix, so the source keeps the rest pending and the regular push
    // path re-keys it via the kMoved verdict. Classified AFTER the apply —
    // a rename can commit while the apply waits on the inode lock. The
    // directory is live here only if its dir-index row resolves to an inode
    // row, as in PushEngine::ApplySection.
    std::string ikey;
    psw::Fingerprint ifp = 0;
    if (!v->LookupDirIndex(env->dir, &ikey, &ifp) ||
        !v->kv.Get(ikey).has_value()) {
      const ServerVolatile::MovedDir* tomb = v->FindMovedTombstone(
          env->dir, Now(), config_.moved_tombstone_ttl);
      if (tomb != nullptr) {
        acked_seq = tomb->AppliedFor(env->src_server, env->fp);
      }
    }
  }

  // Complete the client's operation (the response packet was redirected to
  // us; forward the envelope on to its rightful recipient).
  if (env->client_resp != nullptr && p.rpc.caller != net::kInvalidNode) {
    net::Packet out;
    out.dst = p.rpc.caller;
    out.rpc = p.rpc;
    out.body = body;
    rpc_.Send(std::move(out));
  }
  // Tell the origin to release its locks and mark the backlog applied.
  auto done = std::make_shared<FallbackDone>();
  done->dir = env->dir;
  done->fp = env->fp;
  done->op_token = env->op_token;
  done->acked_seq = acked_seq;
  rpc_.Notify(cluster_->ServerNode(env->src_server), done);
}

void SwitchServer::HandleFallbackDone(const FallbackDone& msg, VolPtr v) {
  auto it = v->op_waits.find(msg.op_token);
  if (it == v->op_waits.end()) {
    return;
  }
  auto wait = it->second;
  // Trim ONLY the fingerprint the backlog was sent under: acked_seq is in
  // that log's numbering, and a moved_fp rebind racing this notification
  // may have re-keyed the directory's log under another fingerprint with
  // fresh seqs — a dir-wide trim would swallow never-applied entries there.
  // (The rebound copy of the applied prefix is trimmed by the kMoved
  // verdict's applied marks instead.)
  AckChangeLogUpTo(v, msg.fp, msg.dir, msg.acked_seq);
  wait->fallback_done = true;
  if (wait->slot != nullptr) {
    wait->slot->Set(2);
  }
}

// ---------------------------------------------------------------------------
// In-switch read cache: install piggyback (owner side)
// ---------------------------------------------------------------------------

// Replies to a read, piggybacking a cache install when the request traversed
// the switch with an mc.kRead stamp (lookup / stat / open / statdir). The
// install echoes the set version the switch stamped on the request's miss:
// if any write evicted the entry in between, the version moved and the
// switch rejects the install — the read's data predates that write. Negative
// results never reach here, and a hard-link reference replies without an
// install (it aliases a shared attributes object whose writers would not
// evict this fingerprint).
void SwitchServer::RespondWithInstall(const net::Packet& p, net::MsgPtr resp,
                                      VolPtr v, const Attr& attr,
                                      int64_t read_at) {
  if (!config_.switch_cache || p.mc.op != net::McOp::kRead ||
      attr.type == FileType::kReference) {
    rpc_.Respond(p, std::move(resp));
    return;
  }
  net::Packet rp = rpc_.MakeResponsePacket(p, resp);
  rp.mc.op = net::McOp::kInstall;
  rp.mc.fingerprint = p.mc.fingerprint;
  rp.mc.version = p.mc.version;  // the switch's stamp from the read's miss
  rp.mc.record = PackCacheRecord(attr, read_at);
  v->cached_fps.insert(p.mc.fingerprint);
  stats_.cache_installs++;
  // Cache for retransmit replay (replays carry no install — a fresh response
  // packet omits the mc header, which is the safe default).
  rpc_.RecordResponse(p, resp);
  rpc_.Send(std::move(rp));
}

// ---------------------------------------------------------------------------
// Reads: stat / open / close / statdir / readdir / opendir (§5.2.2)
// ---------------------------------------------------------------------------

sim::Task<LockTable::Handle> SwitchServer::GateDirRead(
    VolPtr v, const net::Packet& p, const MetaReq& req,
    psw::Fingerprint dir_fp) {
  bool scattered = ctx_.dirty_tracker->ReadScattered(ctx_, *v, p, req, dir_fp);
  const int64_t observed_at = Now();

  LockTable::Handle gate;
  while (true) {
    gate = co_await v->ShardFor(dir_fp).agg_gates.AcquireShared(FpKey(dir_fp));
    if (!scattered) {
      break;
    }
    {
      auto& started = v->ShardFor(dir_fp).last_agg_start;
      auto last = started.find(dir_fp);
      if (last != started.end() && last->second > observed_at) {
        break;  // an aggregation that started after our check has finished
      }
    }
    gate.Release();
    auto xgate =
        co_await v->ShardFor(dir_fp).agg_gates.AcquireExclusive(FpKey(dir_fp));
    bool need_agg = false;
    {
      auto& started = v->ShardFor(dir_fp).last_agg_start;
      auto last = started.find(dir_fp);
      need_agg = last == started.end() || last->second <= observed_at;
    }
    if (need_agg) {
      co_await agg_.RunAggregation(v, dir_fp, std::nullopt, 0, "", false);
    }
    xgate.Release();
    scattered = false;
  }
  co_return gate;
}

sim::Task<void> SwitchServer::HandleRead(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  stats_.ops++;
  co_await cpu_.Run(costs_->op_dispatch);
  if (req->op == OpType::kClose) {
    // close releases client-side state only; servers just acknowledge.
    co_await cpu_.Run(costs_->reply_build);
    RespondStatus(p, StatusCode::kOk);
    co_return;
  }

  const PathRef& ref = req->ref;
  const psw::Fingerprint fp = FingerprintOf(ref.pid, ref.name);
  const std::string ikey = InodeKey(ref.pid, ref.name);
  const bool dir_read = req->op == OpType::kStatDir ||
                        req->op == OpType::kReaddir ||
                        req->op == OpType::kOpenDir;
  // A directory read first lands every deferred entry committed before it
  // (§5.2.2). OpenDir does so once, at open: the cursor then walks a
  // keyspace that holds every pre-open entry, and its pages skip the gate.
  LockTable::Handle gate;
  if (dir_read) {
    gate = co_await GateDirRead(v, p, *req, fp);
  }
  auto ino = co_await v->ShardForKey(ikey).inode_locks.AcquireShared(ikey);
  co_await cpu_.Run(PathCheckCost(ctx_, ref.ancestors));
  auto stale = CheckAncestors(ctx_, *v, ref.ancestors);
  if (!stale.empty()) {
    RespondStale(p, std::move(stale));
    co_return;
  }
  co_await cpu_.Run(costs_->kv_get);
  auto value = v->kv.Get(ikey);
  if (!value.has_value()) {
    RespondStatus(p, StatusCode::kNotFound);
    co_return;
  }
  const Attr attr = Attr::Decode(*value);
  if (dir_read && !attr.is_dir()) {
    RespondStatus(p, StatusCode::kNotADirectory);
    co_return;
  }

  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->attr = attr;
  if (req->op == OpType::kReaddir) {
    // Monolithic listing (bench_readdir_paging's baseline): one scan AND the
    // full marshalling land on this single request — the paged path
    // instead charges each page's own scan and marshalling.
    v->kv.ScanPrefix(EntryPrefix(attr.id),
                     [&](const std::string& k, const std::string& val) {
                       resp->entries.push_back(DirEntry{
                           std::string(EntryNameFromKey(k)),
                           DecodeEntryValue(val)});
                       return true;
                     });
    co_await cpu_.Run(static_cast<sim::SimTime>(resp->entries.size()) *
                      (costs_->kv_scan_per_entry + costs_->readdir_per_entry));
  } else if (req->op == OpType::kOpenDir) {
    // A cursor session stores only a scan position, so OpenDir is O(1) and
    // each page charges its own bounded seek+scan (HandleReaddirPage).
    // Sessions are minted by (and live on) the directory fingerprint's
    // shard; the session id embeds the shard index so page/close/watchdog
    // route back without knowing the fingerprint. The LRU cap divides
    // across shards (at least 1 each) so one hot directory's scanners cannot
    // evict every other shard's cursors; evictions are counted per shard
    // and in the server-wide stat.
    const uint64_t session_id =
        v->ShardFor(fp).dir_sessions.OpenCursor(attr.id, Now()).id;
    stats_.dir_opens++;
    const size_t shard_cap =
        std::max<size_t>(1, config_.max_dir_sessions / v->num_shards());
    const uint64_t evicted =
        v->ShardFor(fp).dir_sessions.EvictLruOverCap(shard_cap);
    v->ShardFor(fp).dir_sessions_evicted += evicted;
    stats_.dir_sessions_evicted += evicted;
    sim::Spawn(DirSessionWatchdog(v, session_id), v.get());
    resp->dir_session = session_id;
  } else if (attr.type == FileType::kReference) {
    // Hard link (stat/open): the real attributes live in the shared object
    // (§5.5). A failed read (attributes owner unreachable) must surface:
    // replying kOk would hand the client the reference row.
    Attr shared;
    Status s = co_await links_.UpdateLinkCount(
        v, attr.id, static_cast<uint32_t>(attr.size), /*delta=*/0, &shared);
    if (!s.ok()) {
      RespondStatus(p, s.code());
      co_return;
    }
    resp->attr = shared;
  }
  co_await cpu_.Run(costs_->reply_build);
  // stat, open and statdir piggyback a cache install: their requests carry
  // the mc.kRead stamp, and a statdir's attr is as fresh as any uncached
  // read's (the gate landed every pre-read deferred entry; later deferred
  // updates evict via their kInsert switch traversal). Readdir, opendir and
  // a hard-link reference reply without one.
  RespondWithInstall(p, resp, v, attr, Now());
}

// ---------------------------------------------------------------------------
// Directory streams (MetadataService v2): ReaddirPage / CloseDir
// ---------------------------------------------------------------------------

sim::Task<void> SwitchServer::DirSessionWatchdog(VolPtr v, uint64_t session_id) {
  while (true) {
    co_await sim::FixedDelay(sim_, config_.dir_session_ttl);
    const size_t before = v->SessionShard(session_id).dir_sessions.size();
    if (v->SessionShard(session_id)
            .dir_sessions.ExpireIfIdle(session_id, Now(),
                                       config_.dir_session_ttl)) {
      if (v->SessionShard(session_id).dir_sessions.size() < before) {
        stats_.dir_sessions_expired++;
      }
      co_return;
    }
  }
}

sim::Task<void> SwitchServer::HandleReaddirPage(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  stats_.ops++;
  co_await cpu_.Run(costs_->op_dispatch);

  // SwitchFS streams are page-sequenced: req->cookie is the page's sequence
  // number, so a prefetching client can issue page p+1 while page p is in
  // flight. A speculative page that the network delivers ahead of its turn
  // parks in a bounded poll loop until the stream catches up. The session
  // pointer is re-found after every suspension — the watchdog, an LRU
  // eviction, or a crash may erase it during an await.
  const uint64_t want = req->cookie;
  for (int spin = 0;; ++spin) {
    DirSession* session = v->SessionShard(req->dir_session)
                              .dir_sessions.Touch(req->dir_session, Now(),
                                                  config_.dir_session_ttl);
    if (session == nullptr) {
      // Expired, evicted, closed, or minted by a previous incarnation:
      // resuming mid-stream could drop or duplicate entries, so the client
      // must re-open.
      stats_.stale_handle_bounces++;
      RespondStatus(p, StatusCode::kStaleHandle);
      co_return;
    }
    if (want + 1 == session->next_page) {
      // Retry of the page just served: re-serve the cached copy (the scan
      // already happened and the stream already advanced — charging only
      // the marshalling keeps the retry idempotent in cost too).
      DirPage page = session->last_page;
      co_await cpu_.Run(static_cast<sim::SimTime>(page.entries.size()) *
                            costs_->readdir_per_entry +
                        costs_->reply_build);
      auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
      resp->entries = std::move(page.entries);
      resp->next_cookie = page.next_cookie;
      resp->at_end = page.at_end;
      rpc_.Respond(p, resp);
      co_return;
    }
    if (want == session->next_page) {
      // Build the page and advance the stream state BEFORE suspending:
      // first, the watchdog may expire the session during an await,
      // invalidating `session`; second, advancing first lets the NEXT
      // prefetched page start its scan on another core while this one is
      // still paying for marshalling — the pipelining that makes the paged
      // path beat the monolithic one.
      DirPage page;
      sim::SimTime scan_cost = 0;
      if (session->at_end) {
        // Idempotent tail re-read past the end.
        page.at_end = true;
      } else {
        // Bounded KV seek from the last served key. Deletes remove entry
        // keys outright (no tombstone rows), so a deleted cursor is skipped
        // implicitly by upper_bound and a key is served at most once.
        size_t used = 0;
        bool budget_stop = false;
        v->kv.ScanFrom(
            EntryPrefix(session->dir), session->cursor_key,
            [&](const std::string& k, const std::string& val) {
              std::string name(EntryNameFromKey(k));
              if (!PageHasRoom(used, static_cast<int>(page.entries.size()),
                               DirEntryWireSize(name), kPageMtuBytes,
                               kPageMtuEntries)) {
                budget_stop = true;
                return false;
              }
              used += DirEntryWireSize(name);
              page.entries.push_back(
                  DirEntry{std::move(name), DecodeEntryValue(val)});
              return true;
            });
        if (!page.entries.empty()) {
          session->cursor_key =
              EntryKey(session->dir, page.entries.back().name);
        }
        page.at_end = !budget_stop;
        // The scan is charged to the page that performs it.
        scan_cost = static_cast<sim::SimTime>(page.entries.size()) *
                    costs_->kv_scan_per_entry;
      }
      page.next_cookie = want + 1;
      session->at_end = page.at_end;
      session->next_page = want + 1;
      session->last_page = page;

      // Per-page accounting: this page's scan plus its marshalling and
      // reply build.
      co_await cpu_.Run(scan_cost +
                        static_cast<sim::SimTime>(page.entries.size()) *
                            costs_->readdir_per_entry +
                        costs_->reply_build);
      stats_.dir_pages++;
      stats_.dir_page_entries += page.entries.size();

      auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
      resp->entries = std::move(page.entries);
      resp->next_cookie = page.next_cookie;
      resp->at_end = page.at_end;
      rpc_.Respond(p, resp);
      co_return;
    }
    if (want < session->next_page || spin >= 64) {
      // A page from a past position (beyond the cached one), or a future
      // page whose predecessors never arrived: serving it would skip or
      // repeat entries. The client restarts the scan.
      stats_.stale_handle_bounces++;
      RespondStatus(p, StatusCode::kStaleHandle);
      co_return;
    }
    co_await sim::FixedDelay(sim_, 1000);  // park ~1µs; jitter reorders sub-µs
  }
}

sim::Task<void> SwitchServer::HandleCloseDir(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  stats_.ops++;
  co_await cpu_.Run(costs_->op_dispatch);
  v->SessionShard(req->dir_session).dir_sessions.Close(req->dir_session);
  RespondStatus(p, StatusCode::kOk);
}

// ---------------------------------------------------------------------------
// Batched lookups & attr deltas (MetadataService v2)
// ---------------------------------------------------------------------------

sim::Task<void> SwitchServer::HandleBatchStat(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  stats_.ops++;
  stats_.batch_stats++;
  co_await cpu_.Run(costs_->op_dispatch);

  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->batch_status.reserve(req->targets.size());
  resp->batch_attrs.resize(req->targets.size());
  for (size_t i = 0; i < req->targets.size(); ++i) {
    const PathRef& ref = req->targets[i];
    stats_.batch_stat_targets++;
    const std::string ikey = InodeKey(ref.pid, ref.name);
    auto lock =
        co_await v->ShardForKey(ikey).inode_locks.AcquireShared(ikey);
    co_await cpu_.Run(PathCheckCost(ctx_, ref.ancestors));
    auto stale = CheckAncestors(ctx_, *v, ref.ancestors);
    if (!stale.empty()) {
      // Per-target verdict; the batch itself stays kOk so healthy targets
      // still resolve. stale_ids accumulates the union for the client.
      resp->stale_ids.insert(resp->stale_ids.end(), stale.begin(),
                             stale.end());
      resp->batch_status.push_back(StatusCode::kStaleCache);
      continue;
    }
    co_await cpu_.Run(costs_->kv_get);
    auto value = v->kv.Get(ikey);
    if (!value.has_value()) {
      resp->batch_status.push_back(StatusCode::kNotFound);
      continue;
    }
    Attr attr = Attr::Decode(*value);
    if (attr.type == FileType::kReference) {
      // Hard link: chase the shared attributes object (§5.5). A failed
      // chase (attributes owner unreachable) is that target's verdict —
      // reporting kOk with a default Attr would hand the client garbage.
      Attr shared;
      Status s = co_await links_.UpdateLinkCount(
          v, attr.id, static_cast<uint32_t>(attr.size), /*delta=*/0, &shared);
      if (!s.ok()) {
        resp->batch_status.push_back(s.code());
        continue;
      }
      attr = shared;
    }
    resp->batch_attrs[i] = attr;
    resp->batch_status.push_back(StatusCode::kOk);
  }
  co_await cpu_.Run(costs_->reply_build);
  rpc_.Respond(p, resp);
}

sim::Task<void> SwitchServer::HandleSetAttr(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  stats_.ops++;
  stats_.setattrs++;
  co_await cpu_.Run(costs_->op_dispatch);

  const PathRef& ref = req->ref;
  const std::string ikey = InodeKey(ref.pid, ref.name);
  auto lock =
      co_await v->ShardForKey(ikey).inode_locks.AcquireExclusive(ikey);
  co_await cpu_.Run(PathCheckCost(ctx_, ref.ancestors));
  auto stale = CheckAncestors(ctx_, *v, ref.ancestors);
  if (!stale.empty()) {
    RespondStale(p, std::move(stale));
    co_return;
  }
  co_await cpu_.Run(costs_->kv_get);
  auto value = v->kv.Get(ikey);
  if (!value.has_value()) {
    RespondStatus(p, StatusCode::kNotFound);
    co_return;
  }
  Attr attr = Attr::Decode(*value);
  if (attr.type == FileType::kReference) {
    // Hard link: the delta applies to the shared attributes object (§5.5).
    // A failed update (attributes owner unreachable) must surface — the
    // mutation did NOT commit, and the client's retry loop handles it.
    Attr shared;
    Status s = co_await links_.UpdateLinkCount(
        v, attr.id, static_cast<uint32_t>(attr.size), /*delta=*/0, &shared,
        req->delta);
    if (!s.ok()) {
      RespondStatus(p, s.code());
      co_return;
    }
    auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
    resp->attr = shared;
    co_await cpu_.Run(costs_->reply_build);
    rpc_.Respond(p, resp);
    co_return;
  }

  if (req->delta.ApplyTo(attr, Now())) {
    // In-switch cache: evict before the commit, under the exclusive lock.
    co_await EvictSwitchCacheEntry(ctx_, v, FingerprintOf(ref.pid, ref.name));
    // Commit through the WAL like every other mutation (the legacy chmod
    // path mutated the KV row only, losing the change across a crash).
    OpCommitRecord rec;
    rec.op = OpType::kSetAttr;
    rec.inode_key = ikey;
    rec.inode_value = attr.Encode();
    co_await CommitOp(ctx_, v, rec, costs_->kv_put);
    if (req->delta.set_mode && attr.is_dir() && attr.id != RootId()) {
      // Permission changes on directories invalidate client caches (§4.2);
      // the root is exempt (clients cannot re-look it up).
      v->inval.Add(attr.id, Now());
      auto bcast = std::make_shared<InvalBroadcast>();
      bcast->id = attr.id;
      net::Packet mc;
      mc.dst = net::kServerMulticast;
      mc.ds.origin = node_id();
      // Defense-in-depth evict stamp: the broadcast traverses the switch
      // anyway, so it re-executes the pre-commit evict (a no-op when that
      // evict landed) and bumps the set version against in-flight installs.
      mc.mc.op = net::McOp::kEvict;
      mc.mc.fingerprint = FingerprintOf(ref.pid, ref.name);
      mc.body = bcast;
      rpc_.Send(std::move(mc));
    }
  }
  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->attr = attr;
  co_await cpu_.Run(costs_->reply_build);
  rpc_.Respond(p, resp);
}

// ---------------------------------------------------------------------------
// BulkInsert (MetadataService v2): WAL-batched multi-entry create
// ---------------------------------------------------------------------------

sim::Task<void> SwitchServer::HandleBulkInsert(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  stats_.ops++;
  stats_.bulk_inserts++;
  co_await cpu_.Run(costs_->op_dispatch);

  const PathRef& ref = req->ref;  // the shared parent; names in bulk_names
  const psw::Fingerprint pfp = ref.parent_fp;

  // Locking mirrors the single-entry upsert: parent change-log group
  // (write), then every target inode (write) — in name order, so two bulks
  // racing on overlapping name sets cannot deadlock on the entry locks.
  // All locks are held through the commit.
  auto cl_lock =
      co_await v->ShardFor(pfp).changelog_locks.AcquireExclusive(FpKey(pfp));
  std::vector<size_t> order(req->bulk_names.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return req->bulk_names[a] < req->bulk_names[b];
  });
  // The admitted names hash to independent fingerprints, so their inode
  // locks may live on different shards — one chain holding same-class locks
  // from two shards is exactly what the cross-shard-lock rule flags. The
  // batch is a sanctioned multi-shard writer (name-ordered acquisition
  // keeps it deadlock-free), witnessed by the scope below.
  sim::CrossShardScope bulk_xs(co_await sim::discipline::CurrentChainId{});
  std::vector<LockTable::Handle> ino_locks;
  ino_locks.reserve(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    const std::string& name = req->bulk_names[order[k]];
    if (k > 0 && name == req->bulk_names[order[k - 1]]) {
      continue;  // duplicate within the batch: one lock suffices
    }
    const std::string name_key = InodeKey(ref.pid, name);
    ino_locks.push_back(
        co_await v->ShardForKey(name_key).inode_locks.AcquireExclusive(
            name_key));
  }
  bulk_xs.Release();

  // One validation pass for the shared parent path.
  co_await cpu_.Run(PathCheckCost(ctx_, ref.ancestors));
  auto stale = CheckAncestors(ctx_, *v, ref.ancestors);
  if (!stale.empty()) {
    RespondStale(p, std::move(stale));
    co_return;
  }

  // Per-entry existence verdicts: a name that already exists (in the KV
  // store or earlier in this very batch) is rejected without sinking the
  // batch, like BatchStat's per-target verdicts.
  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->batch_status.assign(req->bulk_names.size(), StatusCode::kOk);
  resp->batch_attrs.resize(req->bulk_names.size());
  std::set<std::string> admitted;
  std::vector<size_t> admitted_idx;
  for (size_t i = 0; i < req->bulk_names.size(); ++i) {
    const std::string& name = req->bulk_names[i];
    co_await cpu_.Run(costs_->kv_get);
    if (v->kv.Get(InodeKey(ref.pid, name)).has_value() ||
        !admitted.insert(name).second) {
      resp->batch_status[i] = StatusCode::kAlreadyExists;
      continue;
    }
    admitted_idx.push_back(i);
  }
  if (admitted_idx.empty()) {
    co_await cpu_.Run(costs_->reply_build);
    rpc_.Respond(p, resp);
    co_return;
  }

  // In-switch cache: drop cached attrs of the admitted targets before they
  // become visible. Normally a no-op (creations were uncached misses); it
  // matters for an unlink+bulk-recreate race on the same names.
  for (size_t i : admitted_idx) {
    const psw::Fingerprint target_cache_fp =
        FingerprintOf(ref.pid, req->bulk_names[i]);
    co_await EvictSwitchCacheEntry(ctx_, v, target_cache_fp);
  }

  // Persistent commit: ONE WAL record covers the whole batch. The per-log
  // append mutex pins the captured seq range across the WAL/KV suspensions
  // (see HandleUpsert).
  BulkCommitRecord rec;
  rec.parent_dir = ref.pid;
  rec.parent_fp = pfp;
  {
    auto append_lock =
        co_await v->ShardFor(pfp).changelog_append_locks.AcquireExclusive(
            ClAppendKey(pfp, ref.pid));
    // sfs-lint: allow(borrow-across-suspend, log slot pinned by the held append mutex — a rebind erase needs this key's append lock, and changelog map nodes are reference-stable)
    ChangeLog& clog = v->GetChangeLog(pfp, ref.pid);
    uint64_t seq = clog.last_appended_seq();
    const int64_t now = Now();
    rec.items.reserve(admitted_idx.size());
    for (size_t i : admitted_idx) {
      const std::string& name = req->bulk_names[i];
      Attr attr;
      attr.id = NewInodeId();
      attr.type = FileType::kFile;
      attr.mode = req->mode;
      attr.ctime = attr.mtime = attr.atime = now;
      resp->batch_attrs[i] = attr;
      BulkCommitRecord::Item item;
      item.inode_key = InodeKey(ref.pid, name);
      item.inode_value = attr.Encode();
      item.entry.timestamp = now;
      item.entry.name = name;
      item.entry.op = OpType::kCreate;
      item.entry.entry_type = FileType::kFile;
      item.entry.size_delta = 1;
      item.entry.seq = ++seq;
      rec.items.push_back(std::move(item));
    }
    // The first item pays the full append; the rest ride at the batched
    // marginal cost (same model as the push path's group append).
    co_await cpu_.Run(costs_->wal_append +
                      static_cast<sim::SimTime>(rec.items.size() - 1) *
                          costs_->wal_append_batched);
    const uint64_t lsn = durable_->wal.Append(kWalBulkCommit, rec.Encode());

    co_await cpu_.Run(static_cast<sim::SimTime>(rec.items.size()) *
                      costs_->kv_put);
    ApplyBulkCommit(*v, rec);
    co_await cpu_.Run(costs_->changelog_append);
    RestoreBulkEntries(clog, rec, lsn);
  }
  stats_.bulk_insert_entries += rec.items.size();

  // One deferred-update publication covers the batch (they share the
  // parent's dirty-set slot), and at most one push is scheduled.
  co_await PublishUpdate(&p, v, pfp, ref.pid, resp);
  push_.MaybeSchedulePush(v, pfp, ref.pid);
}

// ---------------------------------------------------------------------------
// rmdir (§5.2.3)
// ---------------------------------------------------------------------------

sim::Task<void> SwitchServer::HandleRmdir(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  stats_.ops++;
  co_await cpu_.Run(costs_->op_dispatch);

  const PathRef& ref = req->ref;
  const psw::Fingerprint target_fp = FingerprintOf(ref.pid, ref.name);
  const psw::Fingerprint pfp = ref.parent_fp;
  const std::string ikey = InodeKey(ref.pid, ref.name);

  // Lock order: agg gate -> change-log locks (fp order) -> target inode.
  // pfp and target_fp are independent hashes, so their group locks may live
  // on different shards: rmdir is a sanctioned two-group writer (global fp
  // order keeps it deadlock-free across shards), witnessed by the scope —
  // which also spans RunAggregation below, whose snapshot takes the target
  // group's shared lock while the parent's is still held.
  auto gate =
      co_await v->ShardFor(target_fp).agg_gates.AcquireExclusive(
          FpKey(target_fp));
  sim::CrossShardScope rmdir_xs(co_await sim::discipline::CurrentChainId{});
  LockTable::Handle cl_first;
  LockTable::Handle cl_second;
  if (pfp == target_fp) {
    cl_first = co_await v->ShardFor(pfp).changelog_locks.AcquireExclusive(
        FpKey(pfp));
  } else if (pfp < target_fp) {
    cl_first = co_await v->ShardFor(pfp).changelog_locks.AcquireExclusive(
        FpKey(pfp));
    cl_second =
        co_await v->ShardFor(target_fp).changelog_locks.AcquireExclusive(
            FpKey(target_fp));
  } else {
    cl_first =
        co_await v->ShardFor(target_fp).changelog_locks.AcquireExclusive(
            FpKey(target_fp));
    cl_second = co_await v->ShardFor(pfp).changelog_locks.AcquireExclusive(
        FpKey(pfp));
  }
  auto ino = co_await v->ShardForKey(ikey).inode_locks.AcquireExclusive(ikey);
  // Everything further this chain locks (RunAggregation's applies, the
  // append mutex) stays on the target group's shard or changes class, so
  // the witness can end here.
  rmdir_xs.Release();

  co_await cpu_.Run(PathCheckCost(ctx_, ref.ancestors));
  auto stale = CheckAncestors(ctx_, *v, ref.ancestors);
  if (!stale.empty()) {
    RespondStale(p, std::move(stale));
    co_return;
  }
  co_await cpu_.Run(costs_->kv_get);
  auto value = v->kv.Get(ikey);
  if (!value.has_value()) {
    RespondStatus(p, StatusCode::kNotFound);
    co_return;
  }
  Attr attr = Attr::Decode(*value);
  if (!attr.is_dir()) {
    RespondStatus(p, StatusCode::kNotADirectory);
    co_return;
  }
  if (attr.id == RootId()) {
    RespondStatus(p, StatusCode::kInvalidArgument);
    co_return;
  }

  // Steps 4-7: aggregate the target with invalidation, deferring the
  // responders' release until after commit (Fig 6 step 12).
  auto outcome = co_await agg_.RunAggregation(v, target_fp, attr.id, target_fp,
                                              ikey, /*defer_done=*/true);

  co_await cpu_.Run(costs_->kv_get);
  value = v->kv.Get(ikey);
  if (!value.has_value()) {
    agg_.SendAggDone(outcome.deferred_done);
    RespondStatus(p, StatusCode::kNotFound);
    co_return;
  }
  attr = Attr::Decode(*value);
  const bool empty = attr.size == 0 && v->kv.CountPrefix(EntryPrefix(attr.id)) == 0;
  if (!empty) {
    agg_.SendAggDone(outcome.deferred_done);
    RespondStatus(p, StatusCode::kNotEmpty);
    co_return;
  }

  // In-switch cache: the directory's attr must not survive its removal.
  co_await EvictSwitchCacheEntry(ctx_, v, target_fp);

  // Step 8: commit.
  OpCommitRecord rec;
  rec.op = OpType::kRmdir;
  rec.inode_key = ikey;
  rec.inode_delete = true;
  rec.parent_dir = ref.pid;
  rec.parent_fp = pfp;
  rec.entry.timestamp = Now();
  rec.entry.op = OpType::kRmdir;
  rec.entry.name = ref.name;
  rec.entry.entry_type = FileType::kDirectory;
  rec.entry.size_delta = -1;
  rec.has_entry = true;
  co_await CommitOp(ctx_, v, rec, costs_->kv_delete);

  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  co_await PublishUpdate(&p, v, pfp, ref.pid, resp);

  // Step 12: let the responders release their locks and mark WALs.
  agg_.SendAggDone(outcome.deferred_done);
  push_.MaybeSchedulePush(v, pfp, ref.pid);
}

// ---------------------------------------------------------------------------
// Lookups (path resolution)
// ---------------------------------------------------------------------------

sim::Task<void> SwitchServer::HandleLookup(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const LookupReq*>(p.body.get());
  co_await cpu_.Run(costs_->op_dispatch);
  const std::string ikey = InodeKey(req->pid, req->name);
  auto lock = co_await v->ShardForKey(ikey).inode_locks.AcquireShared(ikey);
  co_await cpu_.Run(PathCheckCost(ctx_, req->ancestors));
  auto resp = std::make_shared<LookupResp>();
  auto stale = CheckAncestors(ctx_, *v, req->ancestors);
  if (!stale.empty()) {
    resp->status = StatusCode::kStaleCache;
    resp->stale_ids = std::move(stale);
    rpc_.Respond(p, resp);
    co_return;
  }
  co_await cpu_.Run(costs_->kv_get);
  auto value = v->kv.Get(ikey);
  if (!value.has_value()) {
    // Negative results are never installed: nothing would evict them (the
    // create path only evicts fingerprints in cached_fps).
    resp->status = StatusCode::kNotFound;
    rpc_.Respond(p, resp);
    co_return;
  }
  resp->status = StatusCode::kOk;
  resp->attr = Attr::Decode(*value);
  resp->read_at = Now();
  RespondWithInstall(p, resp, v, resp->attr, resp->read_at);
}

// ---------------------------------------------------------------------------
// Crash & recovery (§5.4.2, §A.1)
// ---------------------------------------------------------------------------

void SwitchServer::Crash() {
  vol_->dead = true;
  vol_ = std::make_shared<ServerVolatile>(sim_, config_.shard_count);
  vol_->dead = true;  // stays dead until Recover() finishes the replay
  serving_ = false;
  rpc_.SetEnabled(false);
  rpc_.ResetVolatileState();
}

void SwitchServer::ReplayWalInto(ServerVolatile& v) {
  for (const kv::WalRecord& r : durable_->wal.records()) {
    stats_.wal_replayed++;
    switch (r.type) {
      // A change-log's numbering continues past every entry replayed,
      // applied or not; only unapplied entries are pending again.
      case kWalOpCommit: {
        OpCommitRecord rec = OpCommitRecord::Decode(r.payload);
        ApplyOpCommit(v, rec, Now());
        if (rec.has_entry) {
          ChangeLog& clog = v.GetChangeLog(rec.parent_fp, rec.parent_dir);
          clog.SkipPast(rec.entry.seq);
          if (!r.applied) {
            ChangeLogEntry e = rec.entry;
            e.wal_lsn = r.lsn;
            clog.Restore(std::move(e));
          }
        }
        break;
      }
      case kWalBulkCommit: {
        BulkCommitRecord rec = BulkCommitRecord::Decode(r.payload);
        ApplyBulkCommit(v, rec);
        ChangeLog& clog = v.GetChangeLog(rec.parent_fp, rec.parent_dir);
        if (!rec.items.empty()) {
          clog.SkipPast(rec.items.back().entry.seq);
        }
        if (!r.applied) {
          RestoreBulkEntries(clog, rec, r.lsn);
        }
        break;
      }
      case kWalEntryApply: {
        EntryApplyRecord rec = EntryApplyRecord::Decode(r.payload);
        // Rebuilds the duplicate-push filter with the live commit rule.
        // Runs before the hwm dedup below: a replayed duplicate record still
        // names the committed token.
        v.CommitPushToken(rec.dir, rec.src_server, rec.fp, rec.batch_token,
                          rec.entry.seq);
        uint64_t& high = v.hwm[{rec.dir, rec.src_server, rec.fp}];
        if (rec.entry.seq <= high) {
          break;  // already applied (idempotent redo)
        }
        high = rec.entry.seq;
        RedoDirentApply(v, rec.dir, rec.entry,
                        LwwStamp{rec.entry.timestamp, config_.cluster_id,
                                 rec.src_server, rec.entry.seq},
                        rec.result_size, rec.result_mtime);
        break;
      }
      case kWalWanApply: {
        // Geo-replicated apply: the stamp carries the origin cluster.
        WanApplyRecord rec = WanApplyRecord::Decode(r.payload);
        RedoDirentApply(v, rec.dir, rec.entry,
                        LwwStamp{rec.entry.timestamp, rec.origin_cluster,
                                 rec.src_server, rec.entry.seq},
                        rec.result_size, rec.result_mtime);
        break;
      }
      default:
        break;
    }
  }
}

sim::Task<void> SwitchServer::Recover() {
  // Fresh volatile incarnation. The root is seeded (if we own it) before the
  // replay: its rows come from no WAL record, and the replayed applies of
  // its entries need them.
  auto v = std::make_shared<ServerVolatile>(sim_, config_.shard_count);
  vol_ = v;
  SeedRoot();
  ReplayWalInto(*v);
  rpc_.SetEnabled(true);
  // The rest of recovery acts as the new incarnation: a crash mid-recovery
  // cancels it like any handler, and Recover() then returns quietly.
  co_await sim::BindTo{v.get()};

  // Charge the redo cost: dominated by per-record work (§7.7).
  const size_t records = durable_->wal.record_count();
  const size_t chunk = 256;
  for (size_t i = 0; i < records; i += chunk) {
    const size_t n = std::min(chunk, records - i);
    co_await cpu_.Run(static_cast<sim::SimTime>(n) *
                      costs_->wal_replay_per_record);
  }

  // Flush rebuilt backlogs and re-aggregate owned directories so interrupted
  // aggregations complete (§A.1).
  co_await FlushAllChangeLogs();
  co_await AggregateAllOwnedDirs();

  // Clone the invalidation list from a healthy peer (§5.4.2).
  for (uint32_t s = 0; s < cluster_->ServerCount(); ++s) {
    if (s == config_.index) {
      continue;
    }
    auto r = co_await rpc_.Call(cluster_->ServerNode(s),
                                net::MakeMsg<InvalCloneReq>());
    if (r.ok()) {
      if (const auto* resp = net::MsgAs<InvalCloneResp>(*r)) {
        v->inval.Merge(resp->entries);
        break;
      }
    }
  }
  serving_ = true;
}

// ---------------------------------------------------------------------------
// WAN replay (geo-replication apply leg, src/wan/)
// ---------------------------------------------------------------------------

void SwitchServer::EnqueueWanApply(const WanEntry& entry,
                                   std::shared_ptr<WanApplyResult> result,
                                   std::shared_ptr<sim::JoinCounter> jc) {
  VolPtr v = vol_;
  const size_t shard = ShardIndexForFp(entry.dir_fp, v->num_shards());
  // Plain-callable thunk (EnqueueShardTask contract): copies only, the
  // coroutine is built when the lane runs it.
  EnqueueShardTask(v, shard, ShardLane::kApply,
                   [this, v, entry, result, jc]() {
                     return ApplyWanEntryTask(v, entry, result, jc);
                   });
}

sim::Task<void> SwitchServer::ApplyWanEntryTask(
    VolPtr v, WanEntry we, std::shared_ptr<WanApplyResult> result,
    std::shared_ptr<sim::JoinCounter> jc) {
  // The WAN analog of PushEngine::ApplySection, minus the change-log ack
  // machinery: resolve the directory, take its inode lock, settle the entry
  // through the per-name LWW stamp, and persist a kWalWanApply record before
  // mutating. Every exit tallies its outcome and signals jc, so the
  // applier's join always resolves; a crash-cancelled apply counts as
  // `failed` (the applier withholds the batch ack and the origin re-ships).
  // The inode lock is declared first so it is released after jc signals.
  LockTable::Handle lock;
  int* outcome = &result->failed;
  sim::ScopeExit settle([&outcome, &jc] {
    ++*outcome;
    jc->Done();
  });
  // The lane may start this thunk after the incarnation died; decide
  // nothing from a dead incarnation's state.
  co_await sim::SafePoint{};
  std::string ikey;
  psw::Fingerprint fp = 0;
  if (!v->LookupDirIndex(we.dir, &ikey, &fp) ||
      !v->kv.Get(ikey).has_value()) {
    // Unknown or removed here: not replicable at this cluster. Acked — a
    // re-ship cannot make it applicable (a later mkdir of the same path
    // mints a fresh id at its own cluster).
    stats_.wan_entries_dropped++;
    outcome = &result->dropped;
    co_return;
  }
  lock = co_await v->ShardFor(fp).inode_locks.AcquireExclusive(ikey);
  const LwwStamp incoming{we.entry.timestamp, we.origin_cluster,
                          we.src_server, we.entry.seq};
  const std::string skey = LwwStampKey(we.dir, we.entry.name);
  auto srow = v->kv.Get(skey);
  if (srow.has_value() && incoming < LwwStamp::Decode(*srow)) {
    // A newer write (local or from another origin) already resolved this
    // name — the conflict settles the same way at every cluster.
    stats_.wan_conflicts_lww++;
    outcome = &result->conflicts;
    co_return;
  }
  co_await EvictSwitchCacheEntry(ctx_, v, fp);
  auto value = v->kv.Get(ikey);
  if (!value.has_value()) {
    stats_.wan_entries_dropped++;
    outcome = &result->dropped;
    co_return;
  }
  Attr attr = Attr::Decode(*value);
  const bool creates =
      we.entry.op == OpType::kCreate || we.entry.op == OpType::kMkdir;
  // Presence-aware size delta: a replicated create that lands on a name this
  // cluster also created replaces the entry row, it does not add one — both
  // clusters converge on the same entry count.
  const bool present = v->kv.Get(EntryKey(we.dir, we.entry.name)).has_value();
  const int64_t delta = creates ? (present ? 0 : 1) : (present ? -1 : 0);
  WanApplyRecord rec;
  rec.origin_cluster = we.origin_cluster;
  rec.dir = we.dir;
  rec.src_server = we.src_server;
  rec.entry = we.entry;
  rec.result_size = static_cast<uint64_t>(
      std::max<int64_t>(0, static_cast<int64_t>(attr.size) + delta));
  rec.result_mtime = std::max(attr.mtime, we.entry.timestamp);
  durable_->wal.Append(kWalWanApply, rec.Encode());
  co_await cpu_.Run(costs_->wal_append_batched + costs_->changelog_apply_entry);
  RedoDirentApply(*v, we.dir, we.entry, incoming, rec.result_size,
                  rec.result_mtime);
  stats_.wan_entries_applied++;
  outcome = &result->applied;
}

sim::Task<void> SwitchServer::HandleInvalClone(net::Packet p, VolPtr v) {
  co_await cpu_.Run(costs_->op_dispatch);
  auto resp = std::make_shared<InvalCloneResp>();
  resp->entries = v->inval.Snapshot();
  rpc_.Respond(p, resp);
}

sim::Task<void> SwitchServer::FlushAllChangeLogs() {
  VolPtr v = vol_;
  co_await sim::BindTo{v.get()};  // a crash of this server ends the flush
  std::set<uint32_t> owners;
  for (size_t i = 0; i < v->num_shards(); ++i) {
    for (const auto& [fp, dirs] : v->ShardAt(i).changelogs) {
      for (const auto& [dir, log] : dirs) {
        if (!log.empty()) {
          push_.EnqueueBacklog(v, fp, dir);
          owners.insert(OwnerOf(fp));
        }
      }
    }
  }
  for (uint32_t owner : owners) {
    co_await push_.DrainOwnerBarrier(v, owner);
  }
}

sim::Task<void> SwitchServer::AggregateAllOwnedDirs() {
  VolPtr v = vol_;
  co_await sim::BindTo{v.get()};  // a crash of this server ends the sweep
  std::vector<psw::Fingerprint> fps;
  v->kv.ScanPrefix(kDirIndexPrefix,
                   [&](const std::string&, const std::string& value) {
                     std::string ikey;
                     psw::Fingerprint fp = 0;
                     DecodeDirIndex(value, &ikey, &fp);
                     fps.push_back(fp);
                     return true;
                   });
  std::sort(fps.begin(), fps.end());
  fps.erase(std::unique(fps.begin(), fps.end()), fps.end());
  for (psw::Fingerprint fp : fps) {
    if (!IsOwner(fp)) {
      continue;
    }
    co_await agg_.GateAndAggregate(v, fp);
  }
}

SwitchServer::MigrationBatch SwitchServer::ExtractMisplaced(
    const HashRing& ring) {
  MigrationBatch batch;
  VolPtr v = vol_;
  std::vector<std::string> doomed;
  // Inodes ("i" keys) move when their (pid, name) hash moves; entry lists
  // and dir-index rows follow their directory's inode.
  v->kv.ScanPrefix("i", [&](const std::string& key, const std::string& value) {
    if (ring.Owner(FingerprintFromInodeKey(key)) != config_.index) {
      batch.pairs.emplace_back(key, value);
      doomed.push_back(key);
      Attr attr = Attr::Decode(value);
      if (attr.is_dir()) {
        auto idx = v->kv.Get(DirIndexKey(attr.id));
        if (idx.has_value()) {
          batch.pairs.emplace_back(DirIndexKey(attr.id), *idx);
          doomed.push_back(DirIndexKey(attr.id));
        }
        v->kv.ScanPrefix(EntryPrefix(attr.id),
                         [&](const std::string& ek, const std::string& ev) {
                           batch.pairs.emplace_back(ek, ev);
                           doomed.push_back(ek);
                           return true;
                         });
      }
    }
    return true;
  });
  for (const std::string& key : doomed) {
    v->kv.Delete(key);
  }
  return batch;
}

void SwitchServer::InstallBatch(const MigrationBatch& batch) {
  for (const auto& [key, value] : batch.pairs) {
    vol_->kv.Put(key, value);
  }
}

}  // namespace switchfs::core
