// Shared client-side scaffolding for MetadataService::BatchStat: resolve
// every path, group the resolved targets by their owner server under the
// calling system's placement, ship ONE multi-target MetaReq per server, and
// map the per-target verdicts back into path order — retrying transient
// failures (stale cache, unreachable owners) across rounds. SwitchFsClient
// and BaselineClient differ only in how a path maps to (PathRef, server),
// so that is the one injected piece.
#ifndef SRC_CORE_BATCH_STAT_H_
#define SRC_CORE_BATCH_STAT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/client_cache.h"
#include "src/core/messages.h"
#include "src/net/rpc.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::core {

// One resolved batch-stat target: the PathRef plus the index of the server
// that owns it under the calling system's placement.
struct BatchTarget {
  PathRef ref;
  uint32_t server = 0;
};

// `resolve` maps one path to its target (a kStaleCache/kTimeout/kUnavailable
// status defers the path to the next round; any other failure is final);
// `server_node` maps a server index to its fabric address.
inline sim::Task<std::vector<StatusOr<Attr>>> RunBatchStat(
    sim::Simulator* sim, net::RpcEndpoint& rpc, ClientCache& cache,
    std::vector<std::string> paths, int max_attempts,
    sim::SimTime retry_backoff, net::CallOptions call,
    std::function<sim::Task<StatusOr<BatchTarget>>(const std::string&)>
        resolve,
    std::function<net::NodeId(uint32_t)> server_node) {
  std::vector<StatusOr<Attr>> results(paths.size(),
                                      StatusOr<Attr>(InternalError("not run")));
  std::vector<size_t> open;  // indices still unresolved
  open.reserve(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    open.push_back(i);
  }

  for (int attempt = 0; attempt < max_attempts && !open.empty(); ++attempt) {
    struct Group {
      std::vector<size_t> indices;
      std::vector<PathRef> refs;
    };
    std::map<uint32_t, Group> groups;
    std::vector<size_t> still_open;
    for (size_t i : open) {
      auto target = co_await resolve(paths[i]);
      if (!target.ok()) {
        const StatusCode code = target.status().code();
        if (code == StatusCode::kStaleCache || code == StatusCode::kTimeout ||
            code == StatusCode::kUnavailable) {
          still_open.push_back(i);  // retry next round
          continue;
        }
        results[i] = target.status();
        continue;
      }
      Group& g = groups[target->server];
      g.indices.push_back(i);
      g.refs.push_back(std::move(target->ref));
    }

    for (auto& [server, group] : groups) {
      auto req = std::make_shared<MetaReq>();
      req->op = OpType::kBatchStat;
      req->targets = std::move(group.refs);
      auto r = co_await rpc.Call(server_node(server), req, call);
      if (!r.ok()) {
        for (size_t i : group.indices) {
          still_open.push_back(i);  // owner unreachable: retry the group
        }
        continue;
      }
      const auto* resp = net::MsgAs<MetaResp>(*r);
      if (resp == nullptr ||
          resp->batch_status.size() != group.indices.size()) {
        for (size_t i : group.indices) {
          results[i] = InternalError("bad batch-stat response");
        }
        continue;
      }
      for (const InodeId& id : resp->stale_ids) {
        cache.InvalidateId(id);
      }
      for (size_t k = 0; k < group.indices.size(); ++k) {
        const size_t i = group.indices[k];
        switch (resp->batch_status[k]) {
          case StatusCode::kOk:
            results[i] = resp->batch_attrs[k];
            break;
          case StatusCode::kStaleCache:
          case StatusCode::kUnavailable:
            still_open.push_back(i);  // re-resolve with the fresh cache
            break;
          default:
            results[i] = Status(resp->batch_status[k]);
            break;
        }
      }
    }
    open = std::move(still_open);
    if (!open.empty()) {
      co_await sim::Delay(sim, retry_backoff);
    }
  }
  for (size_t i : open) {
    results[i] = TimeoutError("batch-stat retries exhausted");
  }
  co_return results;
}

}  // namespace switchfs::core

#endif  // SRC_CORE_BATCH_STAT_H_
