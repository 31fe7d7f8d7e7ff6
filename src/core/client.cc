#include "src/core/client.h"

#include <deque>
#include <map>
#include <utility>

#include "src/common/strings.h"
#include "src/core/batch_stat.h"
#include "src/core/cache_record.h"
#include "src/pswitch/meta_cache.h"
#include "src/sim/sync.h"
#include "src/tracker/dirty_tracker.h"

namespace switchfs::core {
namespace {

// Retry budget of one operation, and the pause before re-trying a stale
// cache, timeout or unavailable verdict.
constexpr int kMaxOpRetries = 12;
constexpr sim::SimTime kRetryBackoff = sim::Microseconds(200);
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

sim::Task<StatusOr<CachedDir>> SwitchFsClient::ResolveDir(
    const std::string& path) {
  co_await sim::Delay(sim_, costs_->cache_lookup);
  if (const CachedDir* hit = cache_.Get(path)) {
    cache_.hits++;
    co_return *hit;
  }
  cache_.misses++;
  if (path == "/") {
    co_return InternalError("root must be cached");
  }
  // Resolve the parent first (recursively through the cache), then look the
  // final component up at its owner.
  auto parent = co_await ResolveDir(std::string(ParentPath(path)));
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
      cluster_->ServerNode(cluster_->ring().Owner(fp)), req, opts);
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
    const std::string& path) {
  if (!IsValidPath(path) || path == "/") {
    co_return InvalidArgumentError(path);
  }
  auto parent = co_await ResolveDir(std::string(ParentPath(path)));
  if (!parent.ok()) {
    co_return parent.status();
  }
  PathRef ref;
  ref.pid = parent->id;
  ref.parent_fp = parent->fp;
  ref.name = std::string(Basename(path));
  ref.ancestors = parent->ancestors;
  co_return ref;
}

sim::Task<SwitchFsClient::OpResult> SwitchFsClient::IssueOp(
    MetaCall call, const std::string& path) {
  OpResult out;
  co_await sim::Delay(sim_, costs_->client_op_cost);

  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    PathRef ref;
    if (path == "/" && call.dir_target) {
      // The root's inode is keyed (0, "/"). NOTE: assign(n, c) rather than a
      // literal assignment — GCC 12 flags the literal's inlined memcpy into
      // the coroutine frame with a spurious -Wrestrict.
      ref.pid = InodeId{};
      ref.name.assign(1, '/');
      ref.parent_fp = FingerprintOf(InodeId{}, "/");
      ref.ancestors = {AncestorRef{RootId(), 0}};
    } else {
      auto resolved = co_await ResolveParent(path);
      if (!resolved.ok()) {
        if (resolved.status().code() == StatusCode::kStaleCache ||
            resolved.status().code() == StatusCode::kTimeout ||
            resolved.status().code() == StatusCode::kUnavailable) {
          co_await sim::Delay(sim_, kRetryBackoff);
          continue;
        }
        out.status = resolved.status();
        co_return out;
      }
      ref = *std::move(resolved);
    }

    auto req = std::make_shared<MetaReq>();
    req->op = call.op;
    req->ref = ref;
    req->mode = call.mode;
    req->delta = call.delta;

    const psw::Fingerprint target_fp = FingerprintOf(ref.pid, ref.name);
    const net::NodeId dst =
        cluster_->ServerNode(cluster_->ring().Owner(target_fp));

    net::CallOptions opts =
        call.op == OpType::kOpenDir ? config_.opendir_call : config_.call;
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

    auto r = co_await rpc_.Call(dst, req, opts);
    if (!r.ok()) {
      co_await sim::Delay(sim_, kRetryBackoff);
      continue;
    }
    // Switch cache hit: the data plane synthesized the reply from its way
    // registers; there is no MetaResp to unwrap.
    if (const auto* hit = net::MsgAs<psw::CacheHitResp>(*r)) {
      out.status = OkStatus();
      out.attr = UnpackCacheRecord(hit->record, nullptr);
      out.target_fp = target_fp;
      co_return out;
    }
    const MetaResp* resp = UnwrapResponse(*r);
    if (resp == nullptr) {
      out.status = InternalError("bad response");
      co_return out;
    }
    if (resp->status == StatusCode::kStaleCache) {
      for (const InodeId& id : resp->stale_ids) {
        cache_.InvalidateId(id);
      }
      continue;
    }
    if (resp->status == StatusCode::kUnavailable) {
      co_await sim::Delay(sim_, kRetryBackoff);
      continue;
    }
    out.status = Status(resp->status);
    out.attr = resp->attr;
    out.entries = resp->entries;
    out.dir_session = resp->dir_session;
    out.next_cookie = resp->next_cookie;
    out.at_end = resp->at_end;
    out.target_fp = target_fp;
    co_return out;
  }
  out.status = TimeoutError("op retries exhausted");
  co_return out;
}

sim::Task<SwitchFsClient::OpResult> SwitchFsClient::IssueSessionOp(
    OpType op, psw::Fingerprint target_fp, uint64_t session, uint64_t cookie) {
  OpResult out;
  co_await sim::Delay(sim_, costs_->client_op_cost);
  const net::NodeId dst =
      cluster_->ServerNode(cluster_->ring().Owner(target_fp));
  // Transport-level retries only: the session either answers or is gone.
  // kUnavailable (owner recovering) maps to kStaleHandle — the recovering
  // incarnation wiped its session table, so the stream cannot resume.
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    auto req = std::make_shared<MetaReq>();
    req->op = op;
    req->dir_session = session;
    req->cookie = cookie;
    auto r = co_await rpc_.Call(dst, req, config_.call);
    if (!r.ok()) {
      if (r.status().code() == StatusCode::kTimeout) {
        out.status = StaleHandleError("dir session unreachable");
        co_return out;
      }
      co_await sim::Delay(sim_, kRetryBackoff);
      continue;
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
  out.status = TimeoutError("session op retries exhausted");
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
  state.session = r.dir_session;
  // Pin the routing to the fingerprint the open was actually sent by: the
  // session lives at that owner, and a re-resolution here could diverge
  // (concurrent rename/invalidation) and point every page at the wrong
  // server.
  state.target_fp = r.target_fp;
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
  OpResult r = co_await IssueSessionOp(OpType::kReaddirPage, state->target_fp,
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
  const psw::Fingerprint target_fp = state->target_fp;
  const uint64_t session = state->session;
  cache_.EraseHandle(handle.id);
  // Best-effort server-side release; the TTL watchdog reclaims the session
  // anyway if this notification is lost.
  OpResult r = co_await IssueSessionOp(OpType::kCloseDir, target_fp, session,
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
  co_await sim::Delay(sim_, costs_->client_op_cost);
  // Targets group by the (pid, name) hash owner — the read-path mirror of
  // the per-owner push batching. The scaffolding (grouping, multi-target
  // RPCs, per-target verdicts, retries) is shared with the baselines.
  co_return co_await RunBatchStat(
      sim_, rpc_, cache_, paths, kMaxOpRetries, kRetryBackoff, config_.call,
      [this](const std::string& path) -> sim::Task<StatusOr<BatchTarget>> {
        auto ref = co_await ResolveParent(path);
        if (!ref.ok()) {
          co_return ref.status();
        }
        BatchTarget target;
        target.server =
            cluster_->ring().Owner(FingerprintOf(ref->pid, ref->name));
        target.ref = *std::move(ref);
        co_return target;
      },
      [this](uint32_t server) { return cluster_->ServerNode(server); });
}

// ---------------------------------------------------------------------------
// Bulk insert (MetadataService v2)
// ---------------------------------------------------------------------------

sim::Task<void> SwitchFsClient::SendBulkChunk(
    std::string dir_path, InodeId dir, psw::Fingerprint parent_fp,
    uint32_t owner, const std::vector<std::string>& names,
    std::vector<size_t> idxs, std::vector<Status>* out) {
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    // Re-resolve the directory each attempt for fresh ancestors (the
    // identity — pid and change-log fingerprint — is pinned by the handle).
    auto resolved = co_await ResolveDir(dir_path);
    if (!resolved.ok()) {
      if (resolved.status().code() == StatusCode::kStaleCache ||
          resolved.status().code() == StatusCode::kTimeout ||
          resolved.status().code() == StatusCode::kUnavailable) {
        co_await sim::Delay(sim_, kRetryBackoff);
        continue;
      }
      for (size_t i : idxs) {
        (*out)[i] = resolved.status();
      }
      co_return;
    }
    auto req = std::make_shared<MetaReq>();
    req->op = OpType::kBulkInsert;
    req->ref.pid = dir;
    req->ref.parent_fp = parent_fp;
    req->ref.ancestors = resolved->ancestors;
    req->bulk_names.reserve(idxs.size());
    for (size_t i : idxs) {
      req->bulk_names.push_back(names[i]);
    }
    auto r = co_await rpc_.Call(cluster_->ServerNode(owner), req, config_.call);
    if (!r.ok()) {
      co_await sim::Delay(sim_, kRetryBackoff);
      continue;
    }
    const MetaResp* resp = UnwrapResponse(*r);
    if (resp == nullptr) {
      for (size_t i : idxs) {
        (*out)[i] = InternalError("bad bulk response");
      }
      co_return;
    }
    if (resp->status == StatusCode::kStaleCache) {
      for (const InodeId& id : resp->stale_ids) {
        cache_.InvalidateId(id);
      }
      continue;
    }
    if (resp->status == StatusCode::kUnavailable) {
      co_await sim::Delay(sim_, kRetryBackoff);
      continue;
    }
    if (resp->status != StatusCode::kOk) {
      for (size_t i : idxs) {
        (*out)[i] = Status(resp->status);
      }
      co_return;
    }
    for (size_t k = 0; k < idxs.size(); ++k) {
      (*out)[idxs[k]] = k < resp->batch_status.size()
                            ? Status(resp->batch_status[k])
                            : InternalError("truncated bulk verdicts");
    }
    co_return;
  }
  for (size_t i : idxs) {
    (*out)[i] = TimeoutError("bulk insert retries exhausted");
  }
}

sim::Task<std::vector<Status>> SwitchFsClient::BulkInsert(
    const DirHandle& handle, const std::vector<std::string>& names) {
  co_await sim::Delay(sim_, costs_->client_op_cost);
  std::vector<Status> out(names.size(), OkStatus());
  if (names.empty()) {
    co_return out;
  }
  OpenDirState* state = cache_.GetHandle(handle.id);
  if (state == nullptr) {
    for (Status& s : out) {
      s = InvalidArgumentError("unknown dir handle");
    }
    co_return out;
  }
  // Copy the routing identity out of the handle table: the state pointer
  // must not be held across a suspension.
  const std::string dir_path = state->path;
  const InodeId dir = state->dir;
  const psw::Fingerprint parent_fp = state->target_fp;

  // The create-path mirror of BatchStat: group names by the owner of their
  // (dir, name) hash, then chunk each group to the transport page budget —
  // one multi-entry RPC (and one server-side WAL record) per chunk instead
  // of one round trip per name.
  std::map<uint32_t, std::vector<size_t>> by_owner;
  for (size_t i = 0; i < names.size(); ++i) {
    by_owner[cluster_->ring().Owner(FingerprintOf(dir, names[i]))].push_back(i);
  }
  for (auto& [owner, idxs] : by_owner) {
    size_t start = 0;
    while (start < idxs.size()) {
      size_t used = 0;
      size_t end = start;
      while (end < idxs.size() &&
             PageHasRoom(used, static_cast<int>(end - start),
                         DirEntryWireSize(names[idxs[end]]), kPageMtuBytes,
                         kPageMtuEntries)) {
        used += DirEntryWireSize(names[idxs[end]]);
        ++end;
      }
      co_await SendBulkChunk(
          dir_path, dir, parent_fp, owner, names,
          std::vector<size_t>(idxs.begin() + static_cast<ptrdiff_t>(start),
                              idxs.begin() + static_cast<ptrdiff_t>(end)),
          &out);
      start = end;
    }
  }
  co_return out;
}

sim::Task<Status> SwitchFsClient::Link(const std::string& src,
                                       const std::string& dst) {
  co_await sim::Delay(sim_, costs_->client_op_cost);
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    auto s = co_await ResolveParent(src);
    if (!s.ok()) {
      if (s.status().code() == StatusCode::kStaleCache) {
        continue;
      }
      co_return s.status();
    }
    auto d = co_await ResolveParent(dst);
    if (!d.ok()) {
      if (d.status().code() == StatusCode::kStaleCache) {
        continue;
      }
      co_return d.status();
    }
    auto req = std::make_shared<MetaReq>();
    req->op = OpType::kLink;
    req->ref = *d;
    req->ref2 = *s;
    const psw::Fingerprint target_fp = FingerprintOf(d->pid, d->name);
    auto r = co_await rpc_.Call(
        cluster_->ServerNode(cluster_->ring().Owner(target_fp)), req,
        config_.txn_call);
    if (!r.ok()) {
      co_await sim::Delay(sim_, kRetryBackoff);
      continue;
    }
    const MetaResp* resp = UnwrapResponse(*r);
    if (resp == nullptr) {
      co_return InternalError("bad link response");
    }
    if (resp->status == StatusCode::kStaleCache) {
      for (const InodeId& id : resp->stale_ids) {
        cache_.InvalidateId(id);
      }
      continue;
    }
    co_return Status(resp->status);
  }
  co_return TimeoutError("link retries exhausted");
}

sim::Task<Status> SwitchFsClient::Rename(const std::string& from,
                                         const std::string& to) {
  co_await sim::Delay(sim_, costs_->client_op_cost);
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    auto src = co_await ResolveParent(from);
    if (!src.ok()) {
      if (src.status().code() == StatusCode::kStaleCache) {
        continue;
      }
      co_return src.status();
    }
    auto dst = co_await ResolveParent(to);
    if (!dst.ok()) {
      if (dst.status().code() == StatusCode::kStaleCache) {
        continue;
      }
      co_return dst.status();
    }
    auto req = std::make_shared<MetaReq>();
    req->op = OpType::kRename;
    req->ref = *src;
    req->ref2 = *dst;
    auto r = co_await rpc_.Call(
        cluster_->ServerNode(kRenameCoordinator), req,
        config_.txn_call);
    if (!r.ok()) {
      co_await sim::Delay(sim_, kRetryBackoff);
      continue;
    }
    const MetaResp* resp = UnwrapResponse(*r);
    if (resp == nullptr) {
      co_return InternalError("bad rename response");
    }
    if (resp->status == StatusCode::kStaleCache) {
      for (const InodeId& id : resp->stale_ids) {
        cache_.InvalidateId(id);
      }
      continue;
    }
    if (resp->status == StatusCode::kOk) {
      // The moved path (and everything cached beneath a moved directory) is
      // stale in our own cache too.
      cache_.ErasePath(from);
    }
    co_return Status(resp->status);
  }
  co_return TimeoutError("rename retries exhausted");
}

}  // namespace switchfs::core
