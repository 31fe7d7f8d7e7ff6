#include "src/core/client.h"

#include <deque>
#include <map>
#include <utility>

#include "src/common/strings.h"
#include "src/core/cache_record.h"
#include "src/pswitch/meta_cache.h"
#include "src/sim/sync.h"
#include "src/tracker/dirty_tracker.h"

namespace switchfs::core {
namespace {

// The one retry rule of every client op: an attempt that ends in a stale
// cache entry (the bounce already dropped it from the cache), a timeout, or
// at a recovering server is tried again after kRetryBackoff, up to
// kMaxOpRetries attempts; any other verdict is final.
constexpr int kMaxOpRetries = 12;
constexpr sim::SimTime kRetryBackoff = sim::Microseconds(200);
bool Retryable(StatusCode code) {
  return code == StatusCode::kStaleCache || code == StatusCode::kTimeout ||
         code == StatusCode::kUnavailable;
}
// Depth of the Readdir prefetch pipeline: how many page RPCs are kept in
// flight at once. SwitchFS page cookies are sequence numbers, so the
// client can speculatively request page p+1..p+k while consuming page p;
// the owner overlaps their scans across its cores.
constexpr int kPrefetchPages = 3;

}  // namespace

SwitchFsClient::SwitchFsClient(sim::Simulator* sim, net::Network* net,
                               ClusterContext* cluster,
                               const sim::CostModel* costs, Config config)
    : sim_(sim),
      cluster_(cluster),
      costs_(costs),
      config_(std::move(config)),
      rpc_(sim, net) {
  // The root is always resolvable: its inode is keyed (0, "/").
  CachedDir root;
  root.id = RootId();
  root.fp = FingerprintOf(InodeId{}, "/");
  root.mode = 0755;
  root.ancestors = {AncestorRef{RootId(), 0}};
  cache_.Put("/", root);
}

const MetaResp* SwitchFsClient::UnwrapResponse(const net::MsgPtr& msg) {
  if (msg == nullptr) {
    return nullptr;
  }
  if (msg->type == InsertEnvelope::kType) {
    const auto* env = static_cast<const InsertEnvelope*>(msg.get());
    return net::MsgAs<MetaResp>(env->client_resp);
  }
  return net::MsgAs<MetaResp>(msg);
}

const net::CallOptions& SwitchFsClient::CallOptionsFor(OpType op) const {
  switch (op) {
    case OpType::kOpenDir:
      return config_.opendir_call;
    case OpType::kRename:
    case OpType::kLink:
      return config_.txn_call;
    default:
      return config_.call;
  }
}

sim::Task<StatusOr<CachedDir>> SwitchFsClient::ResolveDir(
    const std::string& path) {
  co_await sim::FixedDelay(sim_, costs_->cache_lookup);
  if (const CachedDir* hit = cache_.Get(path)) {
    cache_.hits++;
    co_return *hit;
  }
  cache_.misses++;
  if (path == "/") {
    co_return InternalError("root must be cached");
  }
  // Resolve the parent first (recursively through the cache), then look the
  // final component up where its inode lives.
  const std::string parent_path(ParentPath(path));
  auto parent = co_await ResolveDir(parent_path);
  if (!parent.ok()) {
    co_return parent.status();
  }
  const std::string name(Basename(path));
  const psw::Fingerprint fp = FingerprintOf(parent->id, name);
  auto req = std::make_shared<LookupReq>();
  req->pid = parent->id;
  req->name = name;
  req->ancestors = parent->ancestors;
  net::CallOptions opts = config_.call;
  if (config_.switch_cache) {
    opts.mc.op = net::McOp::kRead;
    opts.mc.fingerprint = fp;
  }
  auto r = co_await rpc_.Call(
      cluster_->ServerNode(cluster_->NameServer(parent->id, name, parent_path)),
      req, opts);
  if (!r.ok()) {
    co_return r.status();
  }
  // A switch cache hit short-circuits the owner entirely: the data plane
  // answered with the packed record. Decode it BEFORE the LookupResp map —
  // MsgAs on the wrong type yields nullptr, not a crash.
  if (const auto* hit = net::MsgAs<psw::CacheHitResp>(*r)) {
    int64_t read_at = 0;
    const Attr attr = UnpackCacheRecord(hit->record, &read_at);
    if (!attr.is_dir()) {
      co_return NotADirectoryError(path);
    }
    CachedDir hit_entry;
    hit_entry.id = attr.id;
    hit_entry.fp = fp;
    hit_entry.mode = attr.mode;
    hit_entry.ancestors = parent->ancestors;
    hit_entry.ancestors.push_back(AncestorRef{hit_entry.id, read_at});
    cache_.Put(path, hit_entry);
    co_return hit_entry;
  }
  const auto* resp = net::MsgAs<LookupResp>(*r);
  if (resp == nullptr) {
    co_return InternalError("bad lookup response");
  }
  if (resp->status == StatusCode::kStaleCache) {
    for (const InodeId& id : resp->stale_ids) {
      cache_.InvalidateId(id);
    }
    co_return StaleCacheError();
  }
  if (resp->status != StatusCode::kOk) {
    co_return Status(resp->status);
  }
  if (!resp->attr.is_dir()) {
    co_return NotADirectoryError(path);
  }
  CachedDir entry;
  entry.id = resp->attr.id;
  entry.fp = fp;
  entry.mode = resp->attr.mode;
  entry.ancestors = parent->ancestors;
  entry.ancestors.push_back(AncestorRef{entry.id, resp->read_at});
  cache_.Put(path, entry);
  co_return entry;
}

sim::Task<StatusOr<PathRef>> SwitchFsClient::ResolveParent(
    const std::string& path, uint32_t* server) {
  if (!IsValidPath(path) || path == "/") {
    co_return InvalidArgumentError(path);
  }
  const std::string parent_path(ParentPath(path));
  auto parent = co_await ResolveDir(parent_path);
  if (!parent.ok()) {
    co_return parent.status();
  }
  PathRef ref;
  ref.pid = parent->id;
  ref.parent_fp = parent->fp;
  ref.name = std::string(Basename(path));
  ref.ancestors = parent->ancestors;
  if (server != nullptr) {
    *server = cluster_->NameServer(ref.pid, ref.name, parent_path);
  }
  co_return ref;
}

sim::Task<SwitchFsClient::OpResult> SwitchFsClient::IssueOp(
    MetaCall call, const std::string& path) {
  OpResult out;
  // A bulk chunk is part of one BulkInsert, which paid the client cost.
  if (call.op != OpType::kBulkInsert) {
    co_await sim::FixedDelay(sim_, costs_->client_op_cost);
  }
  for (int attempt = 0; attempt == 0 || Retryable(out.status.code());
       ++attempt) {
    if (attempt == kMaxOpRetries) {
      out.status = TimeoutError("op retries exhausted");
      break;
    }
    if (attempt > 0) {
      co_await sim::FixedDelay(sim_, kRetryBackoff);
    }
    auto req = std::make_shared<MetaReq>();
    req->op = call.op;
    req->mode = call.mode;
    req->delta = call.delta;
    uint32_t server = 0;
    if (call.op == OpType::kBulkInsert ||
        (call.dir_target && cluster_->dir_homes())) {
      // The directory itself is resolved: a bulk chunk for fresh ancestors
      // (its identity and server are pinned), a directory-home read for the
      // id it is addressed by.
      auto dir = co_await ResolveDir(path);
      if (!dir.ok()) {
        out.status = dir.status();
        continue;
      }
      req->ref.ancestors = dir->ancestors;
      if (call.op == OpType::kBulkInsert) {
        req->ref.pid = call.dir;
        req->ref.parent_fp = call.dir_fp;
        req->bulk_names = call.names;
        server = call.server;
      } else {
        req->ref.pid = dir->id;
        server = cluster_->DirHome(dir->id, path);
      }
    } else if (call.dir_target && path == "/") {
      // The root's inode is keyed (0, "/"). NOTE: assign(n, c) rather than a
      // literal assignment — GCC 12 flags the literal's inlined memcpy into
      // the coroutine frame with a spurious -Wrestrict.
      req->ref.pid = InodeId{};
      req->ref.name.assign(1, '/');
      req->ref.parent_fp = FingerprintOf(InodeId{}, "/");
      req->ref.ancestors = {AncestorRef{RootId(), 0}};
      server = cluster_->NameServer(req->ref.pid, req->ref.name, path);
    } else {
      auto target = co_await ResolveParent(path, &server);
      if (!target.ok()) {
        out.status = target.status();
        continue;
      }
      req->ref = *std::move(target);
      if (!call.path2.empty()) {
        auto second = co_await ResolveParent(call.path2, nullptr);
        if (!second.ok()) {
          out.status = second.status();
          continue;
        }
        req->ref2 = *std::move(second);
        req->top2 = cluster_->SubtreeKey(call.path2);
      }
      if (call.op == OpType::kRename) {
        server = kRenameCoordinator;
      }
    }
    req->top = cluster_->SubtreeKey(path);

    const psw::Fingerprint target_fp =
        FingerprintOf(req->ref.pid, req->ref.name);
    net::CallOptions opts = CallOptionsFor(call.op);
    if (config_.switch_cache &&
        (call.op == OpType::kStat || call.op == OpType::kOpen ||
         call.op == OpType::kStatDir)) {
      opts.mc.op = net::McOp::kRead;
      opts.mc.fingerprint = target_fp;
    }
    if (call.pre_read && config_.dirty_tracker != nullptr) {
      co_await config_.dirty_tracker->ClientPreRead(rpc_, target_fp, *req,
                                                    opts);
    }

    auto r = co_await rpc_.Call(cluster_->ServerNode(server), req, opts);
    if (!r.ok()) {
      out.status = r.status();
      continue;
    }
    out.target_fp = target_fp;
    out.server = server;
    // Switch cache hit: the data plane synthesized the reply from its way
    // registers; there is no MetaResp to unwrap.
    if (const auto* hit = net::MsgAs<psw::CacheHitResp>(*r)) {
      out.status = OkStatus();
      out.attr = UnpackCacheRecord(hit->record, nullptr);
      co_return out;
    }
    const MetaResp* resp = UnwrapResponse(*r);
    if (resp == nullptr) {
      out.status = InternalError("bad response");
      co_return out;
    }
    out.status = Status(resp->status);
    if (Retryable(resp->status)) {
      for (const InodeId& id : resp->stale_ids) {
        cache_.InvalidateId(id);
      }
      continue;
    }
    out.attr = resp->attr;
    out.entries = resp->entries;
    out.dir_session = resp->dir_session;
    out.next_cookie = resp->next_cookie;
    out.at_end = resp->at_end;
    out.batch_status = resp->batch_status;
    co_return out;
  }
  co_return out;
}

sim::Task<SwitchFsClient::OpResult> SwitchFsClient::IssueSessionOp(
    OpType op, uint32_t server, uint64_t session, uint64_t cookie) {
  OpResult out;
  co_await sim::FixedDelay(sim_, costs_->client_op_cost);
  // Not retried past the RPC layer's retransmits: the session lives only at
  // the server that opened it, so an unreachable or recovering server (its
  // new incarnation wiped the session table) means the stream is gone.
  auto req = std::make_shared<MetaReq>();
  req->op = op;
  req->dir_session = session;
  req->cookie = cookie;
  auto r = co_await rpc_.Call(cluster_->ServerNode(server), req, config_.call);
  if (!r.ok()) {
    out.status = StaleHandleError("dir session unreachable");
    co_return out;
  }
  const MetaResp* resp = UnwrapResponse(*r);
  if (resp == nullptr) {
    out.status = InternalError("bad response");
    co_return out;
  }
  if (resp->status == StatusCode::kUnavailable) {
    out.status = StaleHandleError("owner recovering; session lost");
    co_return out;
  }
  out.status = Status(resp->status);
  out.attr = resp->attr;
  out.entries = resp->entries;
  out.next_cookie = resp->next_cookie;
  out.at_end = resp->at_end;
  co_return out;
}

sim::Task<Status> SwitchFsClient::Create(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::Mutation(OpType::kCreate), path);
  co_return r.status;
}

sim::Task<Status> SwitchFsClient::Unlink(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::Mutation(OpType::kUnlink), path);
  co_return r.status;
}

sim::Task<Status> SwitchFsClient::Mkdir(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::Mutation(OpType::kMkdir), path);
  co_return r.status;
}

sim::Task<Status> SwitchFsClient::Rmdir(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::Mutation(OpType::kRmdir), path);
  if (r.status.ok()) {
    cache_.ErasePath(path);
  }
  co_return r.status;
}

sim::Task<StatusOr<Attr>> SwitchFsClient::Stat(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::FileRead(OpType::kStat), path);
  if (!r.status.ok()) {
    co_return r.status;
  }
  co_return r.attr;
}

sim::Task<StatusOr<Attr>> SwitchFsClient::StatDir(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::DirRead(OpType::kStatDir), path);
  if (!r.status.ok()) {
    co_return r.status;
  }
  co_return r.attr;
}

sim::Task<StatusOr<std::vector<DirEntry>>> SwitchFsClient::ReaddirMonolithic(
    const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::DirRead(OpType::kReaddir), path);
  if (!r.status.ok()) {
    co_return r.status;
  }
  co_return r.entries;
}

sim::Task<StatusOr<Attr>> SwitchFsClient::Open(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::FileRead(OpType::kOpen), path);
  if (!r.status.ok()) {
    co_return r.status;
  }
  co_return r.attr;
}

sim::Task<Status> SwitchFsClient::Close(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::FileRead(OpType::kClose), path);
  co_return r.status;
}

sim::Task<Status> SwitchFsClient::SetAttr(const std::string& path,
                                          const AttrDelta& delta) {
  OpResult r = co_await IssueOp(MetaCall::AttrUpdate(delta), path);
  co_return r.status;
}

// ---------------------------------------------------------------------------
// Directory streams (MetadataService v2)
// ---------------------------------------------------------------------------

sim::Task<StatusOr<DirHandle>> SwitchFsClient::OpenDir(
    const std::string& path) {
  // OpenDir is the consistency point of the stream: the owner aggregates
  // under the agg gate (dirty-tracker pre-read hook attached) and opens the
  // cursor session the pages will be served from.
  OpResult r = co_await IssueOp(MetaCall::DirRead(OpType::kOpenDir), path);
  if (!r.status.ok()) {
    co_return r.status;
  }
  OpenDirState state;
  state.path = path;
  state.dir = r.attr.id;
  state.fp = r.target_fp;
  state.session = r.dir_session;
  // Pin the routing to the server that served the open: the session lives
  // there, and a re-resolution here could diverge (concurrent rename,
  // invalidation or reconfiguration) and point every page at the wrong
  // server.
  state.server = r.server;
  DirHandle handle;
  handle.id = cache_.PutHandle(std::move(state));
  co_return handle;
}

sim::Task<StatusOr<DirPage>> SwitchFsClient::ReaddirPage(
    const DirHandle& handle, uint64_t cookie) {
  OpenDirState* state = cache_.GetHandle(handle.id);
  if (state == nullptr) {
    co_return InvalidArgumentError("unknown dir handle");
  }
  OpResult r = co_await IssueSessionOp(OpType::kReaddirPage, state->server,
                                       state->session, cookie);
  if (!r.status.ok()) {
    co_return r.status;
  }
  DirPage page;
  page.entries = std::move(r.entries);
  page.next_cookie = r.next_cookie;
  page.at_end = r.at_end;
  co_return page;
}

sim::Task<Status> SwitchFsClient::CloseDir(const DirHandle& handle) {
  OpenDirState* state = cache_.GetHandle(handle.id);
  if (state == nullptr) {
    co_return OkStatus();  // already closed (idempotent)
  }
  const uint32_t server = state->server;
  const uint64_t session = state->session;
  cache_.EraseHandle(handle.id);
  // Best-effort server-side release; the TTL watchdog reclaims the session
  // anyway if this notification is lost.
  OpResult r = co_await IssueSessionOp(OpType::kCloseDir, server, session,
                                       /*cookie=*/0);
  (void)r;
  co_return OkStatus();
}

sim::Task<void> SwitchFsClient::FetchPage(DirHandle handle, uint64_t cookie,
                                          std::shared_ptr<PageSlot> slot) {
  slot->result = co_await ReaddirPage(handle, cookie);
  slot->done.Set(0);
}

sim::Task<StatusOr<std::vector<DirEntry>>> SwitchFsClient::Readdir(
    const std::string& path) {
  // Pipelined drain: keep a window of page RPCs in flight with sequential
  // cookies. The owner serves page p, advances the stream state, and only
  // then pays for marshalling — so page p+1's scan overlaps page p's
  // marshal on another core, and the link is never idle between pages.
  // Speculation is safe because SwitchFS pages are served (and re-served)
  // idempotently by sequence number; a stale handle on ANY in-flight page
  // restarts the whole scan, exactly like the base implementation.
  // Directory-home pages are cookied by position, which the client cannot
  // predict, so those systems drain one page at a time.
  if (cluster_->dir_homes()) {
    co_return co_await MetadataService::Readdir(path);
  }
  constexpr int kMaxRestarts = 4;
  for (int attempt = 0; attempt <= kMaxRestarts; ++attempt) {
    auto handle = co_await OpenDir(path);
    if (!handle.ok()) {
      co_return handle.status();
    }
    std::vector<DirEntry> all;
    std::deque<std::shared_ptr<PageSlot>> inflight;
    uint64_t next_cookie = kDirStreamStart;
    for (int i = 0; i < kPrefetchPages; ++i) {
      auto slot = std::make_shared<PageSlot>(sim_);
      sim::Spawn(FetchPage(*handle, next_cookie++, slot));
      inflight.push_back(std::move(slot));
    }
    bool stale = false;
    Status fail = OkStatus();
    bool done = false;
    while (!done && !inflight.empty()) {
      std::shared_ptr<PageSlot> slot = inflight.front();
      inflight.pop_front();
      co_await slot->done.Wait();
      if (!slot->result.ok()) {
        if (slot->result.status().code() == StatusCode::kStaleHandle) {
          stale = true;
        } else {
          fail = slot->result.status();
        }
        break;
      }
      DirPage& page = *slot->result;
      for (DirEntry& e : page.entries) {
        all.push_back(std::move(e));
      }
      if (page.at_end) {
        done = true;
        break;
      }
      auto next = std::make_shared<PageSlot>(sim_);
      sim::Spawn(FetchPage(*handle, next_cookie++, next));
      inflight.push_back(std::move(next));
    }
    // Join the remaining speculative fetches before touching the handle:
    // past the end they resolve as cheap empty tail pages, after a failure
    // they resolve with the same verdict. Either way the handle must not be
    // closed (or the scan restarted) under them.
    while (!inflight.empty()) {
      co_await inflight.front()->done.Wait();
      inflight.pop_front();
    }
    (void)co_await CloseDir(*handle);
    if (done) {
      co_return all;
    }
    if (!stale) {
      co_return fail;
    }
  }
  co_return StaleHandleError("readdir restarts exhausted");
}

// ---------------------------------------------------------------------------
// Batched lookups (MetadataService v2)
// ---------------------------------------------------------------------------

sim::Task<std::vector<StatusOr<Attr>>> SwitchFsClient::BatchStat(
    const std::vector<std::string>& paths) {
  co_await sim::FixedDelay(sim_, costs_->client_op_cost);
  // Resolve every path, group the targets by their NameServer — the
  // read-path mirror of the per-owner push batching; E-InfiniFS and IndexFS
  // collapse a directory's files onto one server, E-CFS spreads them per
  // (pid, name), CephFS-sim routes whole subtrees — ship ONE multi-target
  // request per server, and map the per-target verdicts back into path
  // order. A round retries its retryable targets by the one retry rule.
  std::vector<StatusOr<Attr>> results(paths.size(),
                                      StatusOr<Attr>(InternalError("not run")));
  std::vector<size_t> open;  // indices still unresolved
  open.reserve(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    open.push_back(i);
  }
  for (int attempt = 0; attempt < kMaxOpRetries && !open.empty(); ++attempt) {
    if (attempt > 0) {
      co_await sim::FixedDelay(sim_, kRetryBackoff);
    }
    struct Group {
      std::vector<size_t> indices;
      std::vector<PathRef> refs;
    };
    std::map<uint32_t, Group> groups;
    std::vector<size_t> still_open;
    for (size_t i : open) {
      uint32_t server = 0;
      auto ref = co_await ResolveParent(paths[i], &server);
      if (!ref.ok()) {
        if (Retryable(ref.status().code())) {
          still_open.push_back(i);
        } else {
          results[i] = ref.status();
        }
        continue;
      }
      Group& g = groups[server];
      g.indices.push_back(i);
      g.refs.push_back(*std::move(ref));
    }

    for (auto& [server, group] : groups) {
      auto req = std::make_shared<MetaReq>();
      req->op = OpType::kBatchStat;
      req->targets = std::move(group.refs);
      auto r = co_await rpc_.Call(cluster_->ServerNode(server), req,
                                  config_.call);
      if (!r.ok()) {
        for (size_t i : group.indices) {
          still_open.push_back(i);  // server unreachable: retry the group
        }
        continue;
      }
      const MetaResp* resp = UnwrapResponse(*r);
      if (resp == nullptr ||
          resp->batch_status.size() != group.indices.size()) {
        for (size_t i : group.indices) {
          results[i] = InternalError("bad batch-stat response");
        }
        continue;
      }
      for (const InodeId& id : resp->stale_ids) {
        cache_.InvalidateId(id);
      }
      for (size_t k = 0; k < group.indices.size(); ++k) {
        const size_t i = group.indices[k];
        if (resp->batch_status[k] == StatusCode::kOk) {
          results[i] = resp->batch_attrs[k];
        } else if (Retryable(resp->batch_status[k])) {
          still_open.push_back(i);  // re-resolve with the fresh cache
        } else {
          results[i] = Status(resp->batch_status[k]);
        }
      }
    }
    open = std::move(still_open);
  }
  for (size_t i : open) {
    results[i] = TimeoutError("batch-stat retries exhausted");
  }
  co_return results;
}

// ---------------------------------------------------------------------------
// Bulk insert (MetadataService v2)
// ---------------------------------------------------------------------------

sim::Task<std::vector<Status>> SwitchFsClient::BulkInsert(
    const DirHandle& handle, const std::vector<std::string>& names) {
  co_await sim::FixedDelay(sim_, costs_->client_op_cost);
  std::vector<Status> out(names.size(), OkStatus());
  if (names.empty()) {
    co_return out;
  }
  const OpenDirState* state = cache_.GetHandle(handle.id);
  if (state == nullptr) {
    for (Status& s : out) {
      s = InvalidArgumentError("unknown dir handle");
    }
    co_return out;
  }
  // Copy the directory out of the handle table: the state pointer must not
  // be held across a suspension.
  const OpenDirState dir = *state;

  // The create-path mirror of BatchStat: group names by the NameServer of
  // each (dir, name) — the same placement Create uses — then chunk each
  // group to the transport page budget: one multi-entry RPC (and one
  // server-side WAL record) per chunk instead of one round trip per name.
  std::map<uint32_t, std::vector<size_t>> by_server;
  for (size_t i = 0; i < names.size(); ++i) {
    by_server[cluster_->NameServer(dir.dir, names[i], dir.path)].push_back(i);
  }
  for (auto& [server, idxs] : by_server) {
    size_t start = 0;
    while (start < idxs.size()) {
      size_t used = 0;
      size_t end = start;
      std::vector<std::string> chunk;
      while (end < idxs.size() &&
             PageHasRoom(used, static_cast<int>(end - start),
                         DirEntryWireSize(names[idxs[end]]), kPageMtuBytes,
                         kPageMtuEntries)) {
        used += DirEntryWireSize(names[idxs[end]]);
        chunk.push_back(names[idxs[end]]);
        ++end;
      }
      OpResult r = co_await IssueOp(
          MetaCall::BulkChunk(dir, server, std::move(chunk)), dir.path);
      for (size_t k = 0; start + k < end; ++k) {
        Status& verdict = out[idxs[start + k]];
        if (!r.status.ok()) {
          verdict = r.status;
        } else if (k < r.batch_status.size()) {
          verdict = Status(r.batch_status[k]);
        } else {
          verdict = InternalError("truncated bulk verdicts");
        }
      }
      start = end;
    }
  }
  co_return out;
}

sim::Task<Status> SwitchFsClient::Link(const std::string& src,
                                       const std::string& dst) {
  // The new name `dst` is the target; `src` rides in ref2.
  OpResult r = co_await IssueOp(MetaCall::TwoPath(OpType::kLink, src), dst);
  co_return r.status;
}

sim::Task<Status> SwitchFsClient::Rename(const std::string& from,
                                         const std::string& to) {
  OpResult r = co_await IssueOp(MetaCall::TwoPath(OpType::kRename, to), from);
  if (r.status.ok()) {
    // The moved path (and everything cached beneath a moved directory) is
    // stale in our own cache too.
    cache_.ErasePath(from);
  }
  co_return r.status;
}

}  // namespace switchfs::core
