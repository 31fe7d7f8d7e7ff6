#include "src/core/link_manager.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/core/cache_evict.h"
#include "src/core/schema.h"
#include "src/core/wal_records.h"
#include "src/core/write_path.h"

namespace switchfs::core {

sim::Task<Status> LinkManager::UpdateLinkCount(VolPtr v, InodeId file_id,
                                               uint32_t attr_server,
                                               int32_t delta, Attr* out,
                                               const AttrDelta& attr_delta) {
  if (attr_server == ctx_.config->index) {
    const std::string akey = AttrKey(file_id);
    // Callers hold the link's inode lock while this takes the shared
    // attributes object's. Deadlock-free because attr locks are only ever
    // taken innermost (no chain holds an attr lock while waiting on a name
    // lock).
    auto lock = co_await v->inode_locks.AcquireExclusive(akey);
    co_await ctx_.cpu->Run(ctx_.costs->kv_get);
    auto value = v->kv.Get(akey);
    if (!value.has_value()) {
      co_return NotFoundError("attributes object missing");
    }
    Attr attrs = Attr::Decode(*value);
    attrs.nlink = static_cast<uint32_t>(
        std::max<int64_t>(0, static_cast<int64_t>(attrs.nlink) + delta));
    const bool changed = attr_delta.ApplyTo(attrs, ctx_.Now());
    if (delta != 0 || changed) {
      OpCommitRecord rec;
      rec.op = OpType::kLink;
      rec.inode_key = akey;
      rec.inode_delete = attrs.nlink == 0;
      if (!rec.inode_delete) {
        rec.inode_value = attrs.Encode();
      }
      const sim::SimTime kv_cost =
          rec.inode_delete ? ctx_.costs->kv_delete : ctx_.costs->kv_put;
      co_await CommitOp(ctx_, v, rec, kv_cost);
    }
    if (out != nullptr) {
      *out = attrs;
    }
    co_return OkStatus();
  }
  auto msg = std::make_shared<LinkRefUpdate>();
  msg->file_id = file_id;
  msg->delta = delta;
  msg->attr = attr_delta;
  auto r = co_await ctx_.rpc->Call(ctx_.cluster->ServerNode(attr_server), msg);
  if (!r.ok()) {
    co_return r.status();
  }
  const auto* resp = net::MsgAs<LinkRefUpdateResp>(*r);
  if (resp == nullptr || resp->status != StatusCode::kOk) {
    co_return Status(resp == nullptr ? StatusCode::kInternal : resp->status);
  }
  if (out != nullptr) {
    *out = resp->attrs;
  }
  co_return OkStatus();
}

sim::Task<void> LinkManager::HandleLinkRefUpdate(net::Packet p, VolPtr v) {
  const auto* msg = static_cast<const LinkRefUpdate*>(p.body.get());
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);
  auto resp = std::make_shared<LinkRefUpdateResp>();
  Attr attrs;
  Status s = co_await UpdateLinkCount(v, msg->file_id, ctx_.config->index,
                                      msg->delta, &attrs, msg->attr);
  resp->status = s.ok() ? StatusCode::kOk : s.code();
  resp->nlink = attrs.nlink;
  resp->attrs = attrs;
  ctx_.rpc->Respond(p, resp);
}

sim::Task<void> LinkManager::HandleLinkConvert(net::Packet p, VolPtr v) {
  const auto* msg = static_cast<const LinkConvert*>(p.body.get());
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);
  const std::string ikey = InodeKey(msg->pid, msg->name);
  auto resp = std::make_shared<LinkConvertResp>();
  auto lock = co_await v->inode_locks.AcquireExclusive(ikey);
  co_await ctx_.cpu->Run(ctx_.costs->kv_get);
  auto value = v->kv.Get(ikey);
  if (!value.has_value()) {
    resp->status = StatusCode::kNotFound;
    ctx_.rpc->Respond(p, resp);
    co_return;
  }
  Attr attr = Attr::Decode(*value);
  if (attr.is_dir()) {
    resp->status = StatusCode::kIsADirectory;
    ctx_.rpc->Respond(p, resp);
    co_return;
  }
  if (attr.type == FileType::kReference) {
    // Already split: just bump the count at the attributes owner.
    lock.Release();
    Status s = co_await UpdateLinkCount(
        v, attr.id, static_cast<uint32_t>(attr.size), +1, nullptr);
    resp->status = s.ok() ? StatusCode::kOk : s.code();
    resp->file_id = attr.id;
    resp->attr_server = static_cast<uint32_t>(attr.size);
    ctx_.rpc->Respond(p, resp);
    co_return;
  }
  // First link: split into reference + attributes object, both local (§5.5).
  // The original name's row may sit in the switch cache from when it was a
  // plain file; after the split its live attributes (nlink) move to the
  // shared object, which later updates cannot evict by this fingerprint.
  // Drop it before the rewrite commits, under the exclusive inode lock.
  co_await EvictSwitchCacheEntry(ctx_, v, FingerprintOf(msg->pid, msg->name));
  Attr attrs = attr;
  attrs.nlink = 2;  // the original name plus the new link
  Attr ref;
  ref.id = attr.id;
  ref.type = FileType::kReference;
  ref.size = ctx_.config->index;  // attributes stay with the original owner
  OpCommitRecord recs[2];
  recs[0].inode_key = AttrKey(attr.id);
  recs[0].inode_value = attrs.Encode();
  recs[1].inode_key = ikey;
  recs[1].inode_value = ref.Encode();
  for (OpCommitRecord& rec : recs) {
    rec.op = OpType::kLink;
    co_await ctx_.cpu->Run(ctx_.costs->wal_append);
    ctx_.durable->wal.Append(kWalOpCommit, rec.Encode());
  }
  co_await ctx_.cpu->Run(2 * ctx_.costs->kv_put);
  for (const OpCommitRecord& rec : recs) {
    ApplyOpCommit(*v, rec, ctx_.Now());
  }
  resp->status = StatusCode::kOk;
  resp->file_id = attr.id;
  resp->attr_server = ctx_.config->index;
  ctx_.rpc->Respond(p, resp);
}

sim::Task<void> LinkManager::HandleLink(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  ctx_.stats->ops++;
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);
  const PathRef& dst = req->ref;
  const PathRef& src = req->ref2;
  const std::string ikey = InodeKey(dst.pid, dst.name);
  const psw::Fingerprint pfp = dst.parent_fp;

  auto cl_lock = co_await v->changelog_locks.AcquireExclusive(FpKey(pfp));
  auto ino_lock = co_await v->inode_locks.AcquireExclusive(ikey);
  co_await ctx_.cpu->Run(PathCheckCost(ctx_, dst.ancestors));
  auto stale = CheckAncestors(ctx_, *v, dst.ancestors);
  if (!stale.empty()) {
    ctx_.RespondStale(p, std::move(stale));
    co_return;
  }
  co_await ctx_.cpu->Run(ctx_.costs->kv_get);
  if (v->kv.Contains(ikey)) {
    ctx_.RespondStatus(p, StatusCode::kAlreadyExists);
    co_return;
  }

  // Split / bump at the source's owner (two-phase across servers).
  auto convert = std::make_shared<LinkConvert>();
  convert->pid = src.pid;
  convert->name = src.name;
  const psw::Fingerprint sfp = FingerprintOf(src.pid, src.name);
  auto r = co_await ctx_.rpc->Call(
      ctx_.cluster->ServerNode(ctx_.OwnerOf(sfp)), convert);
  if (!r.ok()) {
    ctx_.RespondStatus(p, StatusCode::kUnavailable);
    co_return;
  }
  const auto* conv = net::MsgAs<LinkConvertResp>(*r);
  if (conv == nullptr || conv->status != StatusCode::kOk) {
    ctx_.RespondStatus(
        p, conv == nullptr ? StatusCode::kInternal : conv->status);
    co_return;
  }

  Attr ref;
  ref.id = conv->file_id;
  ref.type = FileType::kReference;
  ref.size = conv->attr_server;

  OpCommitRecord rec;
  rec.op = OpType::kLink;
  rec.inode_key = ikey;
  rec.inode_value = ref.Encode();
  rec.parent_dir = dst.pid;
  rec.parent_fp = pfp;
  rec.entry.timestamp = ctx_.Now();
  rec.entry.op = OpType::kCreate;
  rec.entry.name = dst.name;
  rec.entry.entry_type = FileType::kFile;
  rec.entry.size_delta = 1;
  rec.has_entry = true;
  co_await CommitOp(ctx_, v, rec, ctx_.costs->kv_put);

  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->attr = ref;
  co_await publisher_.PublishUpdate(&p, v, pfp, dst.pid, resp);
  push_.MaybeSchedulePush(v, pfp, dst.pid);
}

}  // namespace switchfs::core
