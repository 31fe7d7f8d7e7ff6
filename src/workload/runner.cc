#include "src/workload/runner.h"

#include <utility>

#include "src/core/metadata_service.h"
#include "src/sim/task.h"
#include "src/workload/data_service.h"

namespace switchfs::wl {

namespace {

struct SharedState {
  OpStream* stream;
  RunnerConfig config;
  Rng rng;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t measured = 0;
  sim::SimTime window_start = 0;
  sim::SimTime window_end = 0;
  Histogram latency;
  bool exhausted = false;
};

sim::Task<Status> Execute(core::MetadataService& client, const Op& op,
                          DataService* data) {
  switch (op.type) {
    case core::OpType::kCreate: {
      Status s = co_await client.Create(op.path);
      if (s.ok() && data != nullptr && op.is_data_write && op.io_bytes > 0) {
        co_await data->Transfer(op.path, op.io_bytes);
      }
      co_return s;
    }
    case core::OpType::kUnlink:
      co_return co_await client.Unlink(op.path);
    case core::OpType::kMkdir:
      co_return co_await client.Mkdir(op.path);
    case core::OpType::kRmdir:
      co_return co_await client.Rmdir(op.path);
    case core::OpType::kStat: {
      auto r = co_await client.Stat(op.path);
      co_return r.status();
    }
    case core::OpType::kStatDir: {
      auto r = co_await client.StatDir(op.path);
      co_return r.status();
    }
    case core::OpType::kReaddir: {
      auto r = co_await client.Readdir(op.path);
      co_return r.status();
    }
    case core::OpType::kReaddirPage: {
      // Paged scan: drive the v2 stream explicitly (Readdir() would hide the
      // handle lifecycle; benches want the open/page/close shape on the wire).
      auto handle = co_await client.OpenDir(op.path);
      if (!handle.ok()) {
        co_return handle.status();
      }
      uint64_t cookie = core::kDirStreamStart;
      Status result = OkStatus();
      while (true) {
        auto page = co_await client.ReaddirPage(*handle, cookie);
        if (!page.ok()) {
          result = page.status();
          break;
        }
        if (page->at_end) {
          break;
        }
        cookie = page->next_cookie;
      }
      (void)co_await client.CloseDir(*handle);
      co_return result;
    }
    case core::OpType::kBulkInsert: {
      // Bulk create: one open handle, one multi-entry insert, close. `batch`
      // holds bare names; `path` is the parent directory.
      auto handle = co_await client.OpenDir(op.path);
      if (!handle.ok()) {
        co_return handle.status();
      }
      auto verdicts = co_await client.BulkInsert(*handle, op.batch);
      Status result = OkStatus();
      for (const Status& s : verdicts) {
        if (!s.ok()) {
          result = s;
          break;
        }
      }
      (void)co_await client.CloseDir(*handle);
      co_return result;
    }
    case core::OpType::kBatchStat: {
      auto results = co_await client.BatchStat(op.batch);
      for (const auto& r : results) {
        if (!r.ok()) {
          co_return r.status();
        }
      }
      co_return OkStatus();
    }
    case core::OpType::kSetAttr: {
      // chmod-class delta; 0640/0641 differ from the 0644 creation default,
      // so the first setattr per file always commits through the WAL.
      core::AttrDelta delta;
      delta.set_mode = true;
      delta.mode = 0640 | (op.path.size() & 1);
      co_return co_await client.SetAttr(op.path, delta);
    }
    case core::OpType::kOpen: {
      auto r = co_await client.Open(op.path);
      if (r.ok() && data != nullptr && op.io_bytes > 0) {
        co_await data->Transfer(op.path, op.io_bytes);
      }
      co_return r.status();
    }
    case core::OpType::kClose:
      co_return co_await client.Close(op.path);
    case core::OpType::kRename:
      co_return co_await client.Rename(op.path, op.path2);
    default:
      co_return InvalidArgumentError("unsupported op");
  }
}

sim::Task<void> Worker(core::FsWorld* world,
                       std::shared_ptr<core::MetadataService> client,
                       std::shared_ptr<SharedState> st) {
  sim::Simulator& sim = world->world_sim();
  while (true) {
    if (st->config.total_ops != 0 && st->issued >= st->config.total_ops) {
      co_return;
    }
    auto op = st->stream->Next(st->rng);
    if (!op.has_value()) {
      st->exhausted = true;
      co_return;
    }
    const uint64_t index = st->issued++;
    const sim::SimTime start = sim.Now();
    if (index == st->config.warmup_ops) {
      st->window_start = start;
    }
    Status s = co_await Execute(*client, *op, st->config.data);
    const sim::SimTime end = sim.Now();
    st->completed++;
    if (!s.ok()) {
      st->failed++;
    }
    if (index >= st->config.warmup_ops) {
      st->latency.Record(end - start);
      st->measured++;
      st->window_end = end;
    }
  }
}

}  // namespace

RunResult RunWorkload(core::FsWorld& world, OpStream& stream,
                      const RunnerConfig& config) {
  auto st = std::make_shared<SharedState>();
  st->stream = &stream;
  st->config = config;
  st->rng.Seed(config.seed);

  std::vector<std::shared_ptr<core::MetadataService>> clients;
  clients.reserve(config.workers);
  for (int w = 0; w < config.workers; ++w) {
    clients.emplace_back(world.NewClient(/*warm=*/true));
  }
  for (int w = 0; w < config.workers; ++w) {
    sim::Spawn(Worker(&world, clients[w], st));
  }
  world.world_sim().Run();

  RunResult result;
  result.completed = st->measured;
  result.failed = st->failed;
  result.elapsed = st->window_end - st->window_start;
  result.latency = std::move(st->latency);
  return result;
}

}  // namespace switchfs::wl
