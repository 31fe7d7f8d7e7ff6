// LibFS: the client library of all five systems (paper §4.2; §7.1's "same
// storage and networking framework"). Resolves paths through a
// directory-metadata cache, routes each operation by the cluster's
// placement (ClusterContext: SwitchFS sends it to the owner of the target
// (pid, name) hash, the baselines to their own file and directory-home
// servers), attaches dirty-set queries to SwitchFS directory reads, unwraps
// insert-ack envelopes, and retries every op by one rule.
#ifndef SRC_CORE_CLIENT_H_
#define SRC_CORE_CLIENT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/client_cache.h"
#include "src/core/messages.h"
#include "src/core/metadata_service.h"
#include "src/core/server.h"
#include "src/net/rpc.h"
#include "src/sim/sync.h"

namespace switchfs::tracker {
class DirtyTracker;  // src/tracker/dirty_tracker.h
}  // namespace switchfs::tracker

namespace switchfs::core {

class SwitchFsClient : public MetadataService {
 public:
  struct Config {
    // The cluster's dirty-set tracker; directory reads run its pre-read hook
    // (in-network query header or tracker pre-query). Null (the baselines)
    // skips the hook.
    tracker::DirtyTracker* dirty_tracker = nullptr;
    // Deadlines. CephFS-sim's clients lengthen `call` and `txn_call` for its
    // heavy MDS stack (BaselineCluster::NewClient).
    net::CallOptions call = [] {
      net::CallOptions o;
      o.timeout = sim::Milliseconds(2);
      o.max_attempts = 8;
      return o;
    }();
    // Renames and links are multi-RPC distributed transactions; a premature
    // client timeout spawns a duplicate transaction that contends with the
    // original (locks, EEXIST aborts), so their deadline is
    // transaction-scale.
    net::CallOptions txn_call = [] {
      net::CallOptions o;
      o.timeout = sim::Milliseconds(50);
      o.max_attempts = 3;
      return o;
    }();
    // In-switch metadata read cache: stamp lookup/stat requests with an
    // mc.kRead header so the data plane can answer hits without touching the
    // owner (cluster MakeClient copies the servers' setting).
    bool switch_cache = false;
  };

  SwitchFsClient(sim::Simulator* sim, net::Network* net,
                 ClusterContext* cluster, const sim::CostModel* costs,
                 Config config);

  // MetadataService:
  sim::Task<Status> Create(const std::string& path) override;
  sim::Task<Status> Unlink(const std::string& path) override;
  sim::Task<Status> Mkdir(const std::string& path) override;
  sim::Task<Status> Rmdir(const std::string& path) override;
  sim::Task<StatusOr<Attr>> Stat(const std::string& path) override;
  sim::Task<StatusOr<Attr>> StatDir(const std::string& path) override;
  sim::Task<StatusOr<Attr>> Open(const std::string& path) override;
  sim::Task<Status> Close(const std::string& path) override;
  sim::Task<Status> SetAttr(const std::string& path,
                            const AttrDelta& delta) override;
  sim::Task<StatusOr<DirHandle>> OpenDir(const std::string& path) override;
  sim::Task<StatusOr<DirPage>> ReaddirPage(const DirHandle& handle,
                                           uint64_t cookie) override;
  sim::Task<Status> CloseDir(const DirHandle& handle) override;
  sim::Task<std::vector<StatusOr<Attr>>> BatchStat(
      const std::vector<std::string>& paths) override;
  sim::Task<std::vector<Status>> BulkInsert(
      const DirHandle& handle, const std::vector<std::string>& names) override;
  sim::Task<Status> Rename(const std::string& from,
                           const std::string& to) override;
  // Pipelined whole-directory listing: overrides the base one-page-at-a-time
  // drain with a kPrefetchPages-deep window of speculative page RPCs.
  // SwitchFS pages are served idempotently by sequence number, so
  // speculation is safe; a kStaleHandle on any page restarts the scan like
  // the base path. Directory-home systems (positional cookies) keep the
  // base drain.
  sim::Task<StatusOr<std::vector<DirEntry>>> Readdir(
      const std::string& path) override;
  // SwitchFS whole-directory listing in ONE RPC (the pre-v2 shape), the
  // baseline bench_readdir_paging measures paging against; Readdir pages
  // through OpenDir/ReaddirPage instead.
  sim::Task<StatusOr<std::vector<DirEntry>>> ReaddirMonolithic(
      const std::string& path);
  // SwitchFS hard link (§5.5): `dst` becomes another name for `src`'s file.
  // Not part of MetadataService — the baselines do not implement hard links.
  sim::Task<Status> Link(const std::string& src, const std::string& dst);

  ClientCache& cache() { return cache_; }
  net::RpcEndpoint& rpc() { return rpc_; }

  // Seeds the cache with a cluster's preloaded directories (shared, not
  // copied).
  void WarmCache(std::shared_ptr<const WarmSet> set) {
    cache_.Warm(std::move(set));
  }

 private:
  // Typed request description. Call sites build the request through the
  // named factories; IssueOp owns resolution, routing, and the one retry
  // loop for every path-addressed op.
  struct MetaCall {
    OpType op = OpType::kStat;
    bool dir_target = false;  // the path itself is the target directory
    bool pre_read = false;    // run the dirty-tracker pre-read hook
    uint32_t mode = 0644;
    AttrDelta delta;
    std::string path2;  // kRename: the destination; kLink: the source
    // kBulkInsert: one chunk of names into an open directory, whose identity
    // and the chunk's server are pinned by the handle and the caller.
    InodeId dir;
    psw::Fingerprint dir_fp = 0;
    uint32_t server = 0;
    std::vector<std::string> names;

    static MetaCall Mutation(OpType op, uint32_t mode = 0644) {
      MetaCall c;
      c.op = op;
      c.mode = mode;
      return c;
    }
    static MetaCall FileRead(OpType op) {
      MetaCall c;
      c.op = op;
      return c;
    }
    static MetaCall DirRead(OpType op) {
      MetaCall c;
      c.op = op;
      c.dir_target = true;
      c.pre_read = true;
      return c;
    }
    static MetaCall AttrUpdate(const AttrDelta& delta) {
      MetaCall c;
      c.op = OpType::kSetAttr;
      c.delta = delta;
      return c;
    }
    // Two-path transactions: the op's path lands in `ref`, `path2` in ref2.
    static MetaCall TwoPath(OpType op, const std::string& path2) {
      MetaCall c;
      c.op = op;
      c.path2 = path2;
      return c;
    }
    static MetaCall BulkChunk(const OpenDirState& dir, uint32_t server,
                              std::vector<std::string> names) {
      MetaCall c;
      c.op = OpType::kBulkInsert;
      c.dir = dir.dir;
      c.dir_fp = dir.fp;
      c.server = server;
      c.names = std::move(names);
      return c;
    }
  };

  struct OpResult {
    Status status;
    Attr attr;
    std::vector<DirEntry> entries;
    uint64_t dir_session = 0;        // kOpenDir
    uint64_t next_cookie = 0;        // kReaddirPage
    bool at_end = false;             // kReaddirPage
    std::vector<StatusCode> batch_status;  // kBulkInsert: per-name verdicts
    psw::Fingerprint target_fp = 0;  // the target's (pid, name) fingerprint
    uint32_t server = 0;             // the server that answered
  };

  // Resolves the parent directory of `path` into a PathRef. May issue
  // lookups; bounces stale cache entries internally. Sets `*server` (when
  // non-null) to the NameServer of the path's last component.
  sim::Task<StatusOr<PathRef>> ResolveParent(const std::string& path,
                                             uint32_t* server);
  // Resolves one directory path to a cache entry (see ResolveParent).
  sim::Task<StatusOr<CachedDir>> ResolveDir(const std::string& path);

  // One prefetched page in flight: FetchPage runs detached and joins the
  // Readdir loop through the slot's completion event.
  struct PageSlot {
    explicit PageSlot(sim::Simulator* sim)
        : result(InternalError("pending")), done(sim) {}
    StatusOr<DirPage> result;
    sim::OneShot<int> done;
  };
  sim::Task<void> FetchPage(DirHandle handle, uint64_t cookie,
                            std::shared_ptr<PageSlot> slot);

  sim::Task<OpResult> IssueOp(MetaCall call, const std::string& path);
  // Session-addressed ops (ReaddirPage / CloseDir): no path resolution —
  // sent straight to the server that served the open.
  sim::Task<OpResult> IssueSessionOp(OpType op, uint32_t server,
                                     uint64_t session, uint64_t cookie);
  const net::CallOptions& CallOptionsFor(OpType op) const;
  // Unwraps InsertEnvelope responses and maps the response message.
  static const MetaResp* UnwrapResponse(const net::MsgPtr& msg);

  sim::Simulator* sim_;
  ClusterContext* cluster_;
  const sim::CostModel* costs_;
  Config config_;
  net::RpcEndpoint rpc_;
  ClientCache cache_;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_CLIENT_H_
