// LibFS: the SwitchFS client library (paper §4.2). Resolves paths through a
// directory-metadata cache, routes each operation to the owner of the target
// (pid, name) hash, attaches dirty-set queries to directory reads, unwraps
// insert-ack envelopes, and retries operations bounced by stale-cache
// invalidations.
#ifndef SRC_CORE_CLIENT_H_
#define SRC_CORE_CLIENT_H_

#include <memory>
#include <string>
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
    // (in-network query header or tracker pre-query). Null skips the hook.
    tracker::DirtyTracker* dirty_tracker = nullptr;
    net::CallOptions call = [] {
      net::CallOptions o;
      o.timeout = sim::Milliseconds(2);
      o.max_attempts = 8;
      return o;
    }();
    // Renames are multi-RPC distributed transactions; a premature client
    // timeout spawns a duplicate transaction that contends with the original
    // (locks, EEXIST aborts), so their deadline is transaction-scale.
    net::CallOptions txn_call = [] {
      net::CallOptions o;
      o.timeout = sim::Milliseconds(50);
      o.max_attempts = 3;
      return o;
    }();
    // OpenDir is the directory stream's one heavyweight op: the owner
    // aggregates every deferred entry of the directory before it opens the
    // cursor, so the open's cost scales with the pending backlog. Pages stay
    // on the tight `call` deadline — each scans one mtu-bounded page — but
    // the open needs a directory-scale one.
    net::CallOptions opendir_call = [] {
      net::CallOptions o;
      o.timeout = sim::Seconds(2);
      o.max_attempts = 3;
      return o;
    }();
    // In-switch metadata read cache: stamp lookup/stat requests with an
    // mc.kRead header so the data plane can answer hits without touching the
    // owner (cluster MakeClient copies the servers' setting).
    bool switch_cache = false;
    // BatchStatDir: stamp scattered_hint on the multi-target requests so the
    // owner runs the aggregation dance per directory target. Required for
    // tracker modes whose dirty test is request-scoped (the batch cannot
    // pre-query N fingerprints in one packet); owner-tracker clusters clear
    // it and rely on the owner's precise local set (MakeClient sets this).
    bool batch_stat_dir_hint = true;
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
  sim::Task<std::vector<StatusOr<Attr>>> BatchStatDir(
      const std::vector<std::string>& paths) override;
  sim::Task<std::vector<Status>> BulkInsert(
      const DirHandle& handle, const std::vector<std::string>& names) override;
  sim::Task<Status> Rename(const std::string& from,
                           const std::string& to) override;
  // Pipelined whole-directory listing: overrides the base one-page-at-a-time
  // drain with a kPrefetchPages-deep window of speculative page RPCs.
  // Pages are served idempotently by sequence number, so speculation is
  // safe; a kStaleHandle on any page restarts the scan like the base path.
  sim::Task<StatusOr<std::vector<DirEntry>>> Readdir(
      const std::string& path) override;
  // Whole-directory listing in ONE RPC (the pre-v2 shape), the baseline
  // bench_readdir_paging measures paging against; Readdir pages through
  // OpenDir/ReaddirPage instead.
  sim::Task<StatusOr<std::vector<DirEntry>>> ReaddirMonolithic(
      const std::string& path);
  // Hard link (§5.5): `dst` becomes another name for `src`'s file. Not part
  // of MetadataService — the baselines do not implement hard links.
  sim::Task<Status> Link(const std::string& src, const std::string& dst);

  ClientCache& cache() { return cache_; }
  net::RpcEndpoint& rpc() { return rpc_; }

  // Seeds a cache entry (bench warm-up fast path).
  void WarmCache(const std::string& path, const CachedDir& entry) {
    cache_.Put(path, entry);
  }

 private:
  // Typed request description — the v2 replacement for the old
  // Issue(OpType, path, want_entries) funnel. Call sites build the request
  // through the named factories; IssueOp owns resolution, routing, and the
  // stale-cache/transport retry loop for every path-addressed op.
  struct MetaCall {
    OpType op = OpType::kStat;
    bool dir_target = false;    // the path itself is the target directory
    bool want_entries = false;  // monolithic readdir payload
    bool pre_read = false;      // run the dirty-tracker pre-read hook
    uint32_t mode = 0644;
    AttrDelta delta;

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
    static MetaCall DirRead(OpType op, bool want_entries) {
      MetaCall c;
      c.op = op;
      c.dir_target = true;
      c.want_entries = want_entries;
      c.pre_read = true;
      return c;
    }
    static MetaCall AttrUpdate(const AttrDelta& delta) {
      MetaCall c;
      c.op = OpType::kSetAttr;
      c.delta = delta;
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
    psw::Fingerprint target_fp = 0;  // the fingerprint the op was routed by
  };

  // Resolves the parent directory of `path` into a PathRef. May issue
  // lookups; bounces stale cache entries internally.
  sim::Task<StatusOr<PathRef>> ResolveParent(const std::string& path);
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
  // One BulkInsert chunk (one owner, one page-fill of names): builds the
  // multi-entry request, runs the stale-cache/transport retry loop, and
  // writes the per-name verdicts into `out` at positions `idxs`.
  sim::Task<void> SendBulkChunk(std::string dir_path, InodeId dir,
                                psw::Fingerprint parent_fp, uint32_t owner,
                                const std::vector<std::string>& names,
                                std::vector<size_t> idxs,
                                std::vector<Status>* out);

  sim::Task<OpResult> IssueOp(MetaCall call, const std::string& path);
  // Session-addressed ops (ReaddirPage / CloseDir): no path resolution —
  // routed straight to the owner pinned in the handle state.
  sim::Task<OpResult> IssueSessionOp(OpType op, psw::Fingerprint target_fp,
                                     uint64_t session, uint64_t cookie);
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
