#include "src/core/rename_coordinator.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/core/cache_evict.h"
#include "src/core/schema.h"
#include "src/core/wal_records.h"
#include "src/core/write_path.h"

namespace switchfs::core {

sim::Task<void> RenameCoordinator::HandleRename(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  ctx_.stats->ops++;
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);

  const PathRef& src = req->ref;
  const PathRef& dst = req->ref2;
  const std::string skey = InodeKey(src.pid, src.name);
  const std::string dkey = InodeKey(dst.pid, dst.name);
  if (skey == dkey) {
    ctx_.RespondStatus(p, StatusCode::kInvalidArgument);
    co_return;
  }
  const psw::Fingerprint sfp = FingerprintOf(src.pid, src.name);
  const psw::Fingerprint dfp = FingerprintOf(dst.pid, dst.name);
  const net::NodeId s_node = ctx_.cluster->ServerNode(ctx_.OwnerOf(sfp));
  const net::NodeId d_node = ctx_.cluster->ServerNode(ctx_.OwnerOf(dfp));
  const uint64_t txn =
      (static_cast<uint64_t>(ctx_.config->index) << 48) | v->txn_counter++;

  struct Leg {
    net::NodeId node;
    InodeId pid;
    psw::Fingerprint parent_fp;
    std::string name;
    std::vector<AncestorRef> ancestors;
    bool is_src;
  };
  Leg legs[2] = {
      {s_node, src.pid, src.parent_fp, src.name, src.ancestors, true},
      {d_node, dst.pid, dst.parent_fp, dst.name, dst.ancestors, false},
  };
  // Deadlock-free 2PL: prepare in (parent_fp, key) order.
  if (std::make_pair(legs[1].parent_fp, dkey) <
      std::make_pair(legs[0].parent_fp, skey)) {
    std::swap(legs[0], legs[1]);
  }

  // §5.2: if the source is a directory, aggregate it *before* locking so the
  // inode we move is current and the aggregation's applies cannot deadlock
  // against our own prepare locks.
  {
    auto look = std::make_shared<LookupReq>();
    look->pid = src.pid;
    look->name = src.name;
    auto lr = co_await ctx_.rpc->Call(s_node, look);
    if (lr.ok()) {
      const auto* lresp = net::MsgAs<LookupResp>(*lr);
      if (lresp != nullptr && lresp->status == StatusCode::kOk &&
          lresp->attr.is_dir()) {
        auto agg = std::make_shared<AggregateReq>();
        agg->fp = sfp;
        auto ar = co_await ctx_.rpc->Call(s_node, agg);
        (void)ar;
      }
    }
  }

  Attr src_attr;
  StatusCode failure = StatusCode::kOk;
  int prepared = 0;
  for (int i = 0; i < 2; ++i) {
    auto prep = std::make_shared<RenamePrepare>();
    prep->txn_id = txn;
    prep->pid = legs[i].pid;
    prep->name = legs[i].name;
    prep->must_exist = legs[i].is_src;
    prep->must_absent = !legs[i].is_src;
    net::CallOptions txn_opts;
    txn_opts.timeout = sim::Milliseconds(20);
    txn_opts.max_attempts = 3;
    auto r = co_await ctx_.rpc->Call(legs[i].node, prep, txn_opts);
    if (!r.ok()) {
      failure = StatusCode::kUnavailable;
      break;
    }
    const auto* pr = net::MsgAs<RenamePrepareResp>(*r);
    if (pr == nullptr || pr->status != StatusCode::kOk) {
      failure = pr == nullptr ? StatusCode::kInternal : pr->status;
      break;
    }
    if (legs[i].is_src) {
      src_attr = pr->attr;
    }
    prepared = i + 1;
  }

  // Orphaned-loop prevention (§5.2): a directory must not be moved under
  // one of its own descendants.
  if (failure == StatusCode::kOk && src_attr.is_dir()) {
    for (const AncestorRef& a : dst.ancestors) {
      if (a.id == src_attr.id) {
        failure = StatusCode::kCrossDevice;
        break;
      }
    }
  }

  if (failure != StatusCode::kOk) {
    for (int i = 0; i < prepared; ++i) {
      auto abort = std::make_shared<RenameCommit>();
      abort->txn_id = txn;
      abort->abort = true;
      abort->parent_dir = legs[i].pid;
      abort->parent_entry_name = legs[i].name;
      auto r = co_await ctx_.rpc->Call(legs[i].node, abort);
      (void)r;
    }
    ctx_.RespondStatus(p, failure);
    co_return;
  }

  // Commit: source leg (delete + deferred parent remove-entry) first, then
  // destination (put + deferred parent add-entry).
  auto scommit = std::make_shared<RenameCommit>();
  scommit->txn_id = txn;
  scommit->delete_inode = true;
  scommit->log_parent_update = true;
  scommit->parent_dir = src.pid;
  scommit->parent_fp = src.parent_fp;
  scommit->parent_op = OpType::kUnlink;
  scommit->parent_entry_name = src.name;
  scommit->parent_entry_type = src_attr.type;
  if (src_attr.is_dir()) {
    // Moved tombstone: the old owner must be able to tell "renamed away"
    // from "removed" when change-log entries committed under the old
    // fingerprint arrive after this commit — they are re-keyed to the new
    // owner, not trimmed.
    scommit->moved_tombstone = true;
    scommit->moved_dir = src_attr.id;
    scommit->moved_new_fp = dfp;
    scommit->moved_new_owner = ctx_.OwnerOf(dfp);
  }
  net::CallOptions commit_opts;
  commit_opts.timeout = sim::Milliseconds(20);
  commit_opts.max_attempts = 3;
  auto r1 = co_await ctx_.rpc->Call(s_node, scommit, commit_opts);

  std::vector<DirEntry> moved_entries;
  if (r1.ok()) {
    if (const auto* blob = net::MsgAs<EntryListBlob>(*r1)) {
      moved_entries = blob->entries;
    }
  }

  auto dcommit = std::make_shared<RenameCommit>();
  dcommit->txn_id = txn;
  dcommit->put_inode = true;
  dcommit->inode = src_attr;
  dcommit->log_parent_update = true;
  dcommit->parent_dir = dst.pid;
  dcommit->parent_fp = dst.parent_fp;
  dcommit->parent_op = OpType::kCreate;
  dcommit->parent_entry_name = dst.name;
  dcommit->parent_entry_type = src_attr.type;
  dcommit->install_entries = std::move(moved_entries);
  dcommit->install = src_attr.is_dir();
  auto r2 = co_await ctx_.rpc->Call(d_node, dcommit, commit_opts);
  (void)r2;

  if (src_attr.is_dir()) {
    // The directory's cached path mappings are now stale everywhere. The
    // broadcast also carries the moved_fp rebind hint: each server re-keys
    // its (old fp, dir) change-log right away, before any client can have
    // re-resolved the new path — which keeps old-era entries ordered ahead
    // of same-name new-era ones (see InvalBroadcast in messages.h).
    v->inval.Add(src_attr.id, ctx_.Now());
    auto bcast = std::make_shared<InvalBroadcast>();
    bcast->id = src_attr.id;
    bcast->moved = true;
    bcast->old_fp = sfp;
    bcast->new_fp = dfp;
    net::Packet mc;
    mc.dst = net::kServerMulticast;
    mc.ds.origin = ctx_.node_id();
    // Defense-in-depth evict stamp: the source commit leg already evicted
    // the moving directory's old fingerprint; the broadcast's switch
    // traversal re-executes it and bumps the set version against any
    // install still in flight from a pre-rename read.
    mc.mc.op = net::McOp::kEvict;
    mc.mc.fingerprint = sfp;
    mc.body = bcast;
    ctx_.rpc->Send(std::move(mc));
    // The multicast does not loop back to this server: rebind our own
    // old-era log for the directory, if any.
    sim::Spawn(push_.EagerRebindMoved(v, src_attr.id, sfp, dfp), v.get());
  }
  ctx_.RespondStatus(p, StatusCode::kOk);
}

sim::Task<void> RenameCoordinator::HandleRenamePrepare(net::Packet p,
                                                       VolPtr v) {
  const auto* msg = static_cast<const RenamePrepare*>(p.body.get());
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch + ctx_.costs->txn_prepare);
  const std::string ikey = InodeKey(msg->pid, msg->name);
  auto resp = std::make_shared<RenamePrepareResp>();
  auto ino = co_await v->ShardForKey(ikey).inode_locks.AcquireExclusive(ikey);
  co_await ctx_.cpu->Run(ctx_.costs->kv_get);
  auto value = v->kv.Get(ikey);
  if (msg->must_exist && !value.has_value()) {
    resp->status = StatusCode::kNotFound;
    ctx_.rpc->Respond(p, resp);
    co_return;
  }
  if (msg->must_absent && value.has_value()) {
    resp->status = StatusCode::kAlreadyExists;
    ctx_.rpc->Respond(p, resp);
    co_return;
  }
  if (value.has_value()) {
    resp->attr = Attr::Decode(*value);
  }
  resp->status = StatusCode::kOk;
  std::vector<LockTable::Handle> held;
  held.push_back(std::move(ino));
  // Keyed by (txn, leg): both legs of a rename may prepare on one server.
  v->txn_locks[msg->txn_id ^ HashString(ikey)] = std::move(held);
  ctx_.rpc->Respond(p, resp);
}

sim::Task<void> RenameCoordinator::HandleRenameCommit(net::Packet p, VolPtr v) {
  const auto* msg = static_cast<const RenameCommit*>(p.body.get());
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch + ctx_.costs->txn_commit);
  const std::string leg_key =
      InodeKey(msg->parent_dir, msg->parent_entry_name);
  auto it = v->txn_locks.find(msg->txn_id ^ HashString(leg_key));
  if (it == v->txn_locks.end()) {
    // Retransmitted commit after completion: acknowledge idempotently.
    ctx_.rpc->Respond(p, net::MakeMsg<Ack>());
    co_return;
  }
  if (msg->abort) {
    v->txn_locks.erase(it);
    ctx_.rpc->Respond(p, net::MakeMsg<Ack>());
    co_return;
  }

  net::MsgPtr reply = net::MakeMsg<Ack>();
  if (msg->delete_inode || msg->put_inode) {
    OpCommitRecord rec;
    rec.op = OpType::kRename;
    rec.parent_dir = msg->parent_dir;
    rec.parent_fp = msg->parent_fp;
    rec.has_entry = msg->log_parent_update;
    if (rec.has_entry) {
      ChangeLogEntry& entry = rec.entry;
      entry.timestamp = ctx_.Now();
      entry.op = msg->parent_op == OpType::kCreate
                     ? (msg->parent_entry_type == FileType::kDirectory
                            ? OpType::kMkdir
                            : OpType::kCreate)
                     : (msg->parent_entry_type == FileType::kDirectory
                            ? OpType::kRmdir
                            : OpType::kUnlink);
      entry.name = msg->parent_entry_name;
      entry.entry_type = msg->parent_entry_type;
      entry.size_delta = msg->parent_op == OpType::kCreate ? 1 : -1;
    }
    // The leg's (pid, name) is exactly (parent_dir, parent_entry_name).
    rec.inode_key = leg_key;
    rec.inode_delete = msg->delete_inode;
    if (msg->put_inode) {
      rec.inode_value = msg->inode.Encode();
      // The migrated entry list must be as durable as the attr that counts
      // it: replay without these rows would resurrect the directory with its
      // pre-move size but an empty listing.
      rec.install_entries = msg->install_entries;
    }
    // Directory-rename source leg: the moved tombstone is committed with the
    // removal (same WAL record) so replay re-installs it. The epoch is this
    // commit's time — successive renames of one directory commit in causal
    // order, so epochs order tombstones across the chain. The tombstone
    // takes over the directory's applied high-water marks (rename era
    // boundary): kMoved verdicts serve them, and the live rows are erased so
    // a directory that later returns here starts a fresh dedup era.
    if (msg->moved_tombstone) {
      // The fingerprint this tombstone closes: the renamed directory's own
      // (parent, name) hash at this server — the snapshot below must filter
      // the hwm lanes by it BEFORE it lands in the record.
      const psw::Fingerprint departing_fp =
          FingerprintOf(msg->parent_dir, msg->parent_entry_name);
      rec.has_moved_tombstone = true;
      rec.moved_dir = msg->moved_dir;
      rec.moved_old_fp = departing_fp;
      rec.moved_new_fp = msg->moved_new_fp;
      rec.moved_new_owner = msg->moved_new_owner;
      rec.moved_epoch = static_cast<uint64_t>(ctx_.Now());
      rec.moved_applied = v->TakeHwmRows(msg->moved_dir, departing_fp);
    }

    // In-switch cache: both legs rewrite the row at this (parent, name)
    // fingerprint — the source leg deletes it, the destination leg creates
    // it. Evict before the WAL commit, under the txn's prepare-held lock:
    // the 2PC prepare leg acquired this key's exclusive inode lock and
    // parked it in v->txn_locks, so the commit leg's own chain holds
    // nothing — kExternal names that holder for the discipline checker.
    // sfs-lint: allow(evict-requires-lock, exclusive inode lock held in v->txn_locks by the prepare leg of this txn)
    co_await EvictSwitchCacheEntry(
        ctx_, v, FingerprintOf(msg->parent_dir, msg->parent_entry_name),
        EvictLockWitness::kExternal);

    // Commit legs cannot take the fp-group change-log lock (it would invert
    // the upsert's cl-then-inode order and deadlock); CommitOp's per-log
    // append mutex is what pins the parent entry's seq.
    const sim::SimTime kv_cost =
        msg->delete_inode ? ctx_.costs->kv_delete : ctx_.costs->kv_put;
    std::vector<DirEntry> removed = co_await CommitOp(ctx_, v, rec, kv_cost);
    if (rec.has_moved_tombstone) {
      // The directory's entry list moves with its inode to the new owner.
      auto blob = std::make_shared<EntryListBlob>();
      blob->dir = msg->moved_dir;
      blob->entries = std::move(removed);
      reply = blob;
    }
  }

  if (msg->log_parent_update) {
    co_await publisher_.PublishUpdate(nullptr, v, msg->parent_fp,
                                      msg->parent_dir, nullptr);
    push_.MaybeSchedulePush(v, msg->parent_fp, msg->parent_dir);
  }
  v->txn_locks.erase(msg->txn_id ^ HashString(leg_key));
  ctx_.rpc->Respond(p, reply);
}

sim::Task<void> RenameCoordinator::HandleAggregateReq(net::Packet p, VolPtr v) {
  const auto* msg = static_cast<const AggregateReq*>(p.body.get());
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);
  co_await agg_.GateAndAggregate(v, msg->fp);
  ctx_.rpc->Respond(p, net::MakeMsg<Ack>());
}

}  // namespace switchfs::core
