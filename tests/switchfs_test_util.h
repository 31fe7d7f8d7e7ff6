// Shared fixture for SwitchFS cluster tests: builds a small cluster, runs
// client coroutines to completion, and provides quiesce/verify helpers.
#ifndef TESTS_SWITCHFS_TEST_UTIL_H_
#define TESTS_SWITCHFS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/cluster.h"

namespace switchfs::core {

inline ClusterConfig SmallClusterConfig(uint32_t servers = 4) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.cores_per_server = 4;
  // Keep the switch model small so tests construct quickly.
  cfg.switch_config.dirty_set.num_stages = 6;
  cfg.switch_config.dirty_set.registers_per_stage = 4096;
  cfg.switch_config.num_pipes = 2;
  return cfg;
}

class FsHarness {
 public:
  explicit FsHarness(ClusterConfig cfg = SmallClusterConfig())
      : cluster(std::move(cfg)), client(cluster.MakeClient()) {}

  // Runs a client script to completion, then drains the simulation (pushes,
  // proactive aggregations, timers) so post-conditions are stable.
  void Run(sim::Task<void> script) {
    sim::Spawn(std::move(script));
    cluster.sim().Run();
  }

  Status Mkdir(const std::string& path) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p, Status* o) -> sim::Task<void> {
      *o = co_await c->Mkdir(p);
    }(client.get(), path, &out));
    return out;
  }
  Status Create(const std::string& path) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p, Status* o) -> sim::Task<void> {
      *o = co_await c->Create(p);
    }(client.get(), path, &out));
    return out;
  }
  Status Unlink(const std::string& path) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p, Status* o) -> sim::Task<void> {
      *o = co_await c->Unlink(p);
    }(client.get(), path, &out));
    return out;
  }
  Status Rmdir(const std::string& path) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p, Status* o) -> sim::Task<void> {
      *o = co_await c->Rmdir(p);
    }(client.get(), path, &out));
    return out;
  }
  StatusOr<Attr> Stat(const std::string& path) {
    StatusOr<Attr> out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p,
           StatusOr<Attr>* o) -> sim::Task<void> {
      *o = co_await c->Stat(p);
    }(client.get(), path, &out));
    return out;
  }
  StatusOr<Attr> StatDir(const std::string& path) {
    StatusOr<Attr> out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p,
           StatusOr<Attr>* o) -> sim::Task<void> {
      *o = co_await c->StatDir(p);
    }(client.get(), path, &out));
    return out;
  }
  StatusOr<std::vector<DirEntry>> Readdir(const std::string& path) {
    StatusOr<std::vector<DirEntry>> out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p,
           StatusOr<std::vector<DirEntry>>* o) -> sim::Task<void> {
      *o = co_await c->Readdir(p);
    }(client.get(), path, &out));
    return out;
  }
  Status Rename(const std::string& from, const std::string& to) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string f, const std::string t,
           Status* o) -> sim::Task<void> {
      *o = co_await c->Rename(f, t);
    }(client.get(), from, to, &out));
    return out;
  }
  Status Link(const std::string& src, const std::string& dst) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string s, const std::string d,
           Status* o) -> sim::Task<void> {
      *o = co_await c->Link(s, d);
    }(client.get(), src, dst, &out));
    return out;
  }
  // chmod through SetAttr (mode only).
  Status Chmod(const std::string& path, uint32_t mode) {
    AttrDelta delta;
    delta.set_mode = true;
    delta.mode = mode;
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p, AttrDelta d,
           Status* o) -> sim::Task<void> {
      *o = co_await c->SetAttr(p, d);
    }(client.get(), path, delta, &out));
    return out;
  }

  Cluster cluster;
  std::unique_ptr<SwitchFsClient> client;
};

}  // namespace switchfs::core

#endif  // TESTS_SWITCHFS_TEST_UTIL_H_
