// Skewed create storm: the paper's motivating scenario (§1, §3) — many
// clients bursting file creates into one hot directory — run side by side on
// SwitchFS and the two emulated state-of-the-art baselines.
//
//   $ ./examples/skewed_create_storm
//
// SwitchFS spreads the files by (parent, name) hash, defers the parent
// directory updates into per-server change-logs, and lets the switch's dirty
// set guarantee that the closing statdir still sees every file. Exits
// nonzero unless every system's statdir(/hot), SwitchFS's paged scan and its
// batch-stat sample account for every create.
#include <cstdio>
#include <memory>

#include "src/baselines/baseline.h"
#include "src/core/cluster.h"
#include "src/workload/generator.h"
#include "src/workload/runner.h"

using namespace switchfs;

namespace {

// Creates the storm issues into /hot.
constexpr uint64_t kStormCreates = 8000;

void Storm(core::FsWorld& world) {
  world.PreloadDir("/hot");
  wl::FreshNameStream stream(core::OpType::kCreate, {"/hot"}, "burst");
  wl::RunnerConfig rc;
  rc.workers = 128;
  rc.total_ops = kStormCreates;
  rc.warmup_ops = 800;
  wl::RunResult r = wl::RunWorkload(world, stream, rc);
  std::printf("%-20s %8.1f Kops/s   mean %6.1f us   p99 %7.1f us\n",
              world.name().c_str(), r.ThroughputOpsPerSec() / 1e3,
              r.MeanLatencyUs(), r.PercentileUs(0.99));
}

// True if a fresh client's statdir(/hot) counts every create of the storm.
bool StatDirSeesStorm(core::FsWorld& world) {
  auto client = world.NewClient(true);
  uint64_t size = 0;
  sim::Spawn([](core::MetadataService* c, uint64_t* size) -> sim::Task<void> {
    auto attr = co_await c->StatDir("/hot");
    *size = attr.ok() ? attr->size : 0;
  }(client.get(), &size));
  world.world_sim().Run();
  return size == kStormCreates;
}

}  // namespace

int main() {
  std::printf("create storm: 128 clients hammering one directory "
              "(8 servers)\n\n");
  bool ok = true;
  {
    core::ClusterConfig cfg;
    cfg.num_servers = 8;
    core::Cluster cluster(cfg);
    Storm(cluster);

    // Prove no update was lost — with the v2 API: a cookie-paged scan over
    // the hot directory (OpenDir aggregates once under the agg gate, pages
    // are mtu-bounded) plus a per-owner-batched stat burst over a sample of
    // the files just created.
    auto client = cluster.MakeClient();
    cluster.WarmClient(*client);
    uint64_t size = 0;
    uint64_t scanned = 0;
    uint64_t pages = 0;
    size_t sampled_ok = 0;
    sim::Spawn([](core::SwitchFsClient* c, uint64_t* size, uint64_t* scanned,
                  uint64_t* pages, size_t* sampled_ok) -> sim::Task<void> {
      auto attr = co_await c->StatDir("/hot");
      *size = attr.ok() ? attr->size : 0;

      auto dir = co_await c->OpenDir("/hot");
      if (!dir.ok()) {
        co_return;
      }
      std::vector<std::string> sample;
      uint64_t cookie = core::kDirStreamStart;
      while (true) {
        auto page = co_await c->ReaddirPage(*dir, cookie);
        if (!page.ok()) {
          break;
        }
        (*pages)++;
        *scanned += page->entries.size();
        if (sample.size() < 16 && !page->entries.empty()) {
          sample.push_back("/hot/" + page->entries.front().name);
        }
        if (page->at_end) {
          break;
        }
        cookie = page->next_cookie;
      }
      (void)co_await c->CloseDir(*dir);

      auto stats = co_await c->BatchStat(sample);
      for (const auto& s : stats) {
        *sampled_ok += s.ok() ? 1 : 0;
      }
    }(client.get(), &size, &scanned, &pages, &sampled_ok));
    cluster.sim().Run();
    std::printf("%-20s statdir(/hot) reports %llu entries; paged scan saw "
                "%llu across %llu pages; batch-stat sample %zu/16 ok\n\n",
                "SwitchFS", static_cast<unsigned long long>(size),
                static_cast<unsigned long long>(scanned),
                static_cast<unsigned long long>(pages), sampled_ok);
    ok = ok && size == kStormCreates && scanned == kStormCreates &&
         sampled_ok == 16;

    // The storm above ships one RPC per create. BulkInsert ships the same
    // load as page-filled batches through an open dir handle — the same
    // WAL-committed entries in a fraction of the packets. Both windows
    // include the deferred change-log pushes (quiesce before counting).
    constexpr int kBulkFiles = 4000;
    uint64_t loop_packets = 0;
    uint64_t bulk_packets = 0;
    sim::Spawn([](core::Cluster* cluster, core::SwitchFsClient* c,
                  uint64_t* loop_packets,
                  uint64_t* bulk_packets) -> sim::Task<void> {
      (void)co_await c->Mkdir("/loop");
      (void)co_await c->Mkdir("/bulk");
      uint64_t p0 = cluster->network().stats().packets_sent;
      for (int i = 0; i < kBulkFiles; ++i) {
        (void)co_await c->Create("/loop/f" + std::to_string(i));
      }
      co_await sim::Delay(&cluster->sim(), sim::Milliseconds(5));
      *loop_packets = cluster->network().stats().packets_sent - p0;

      std::vector<std::string> names;
      names.reserve(kBulkFiles);
      for (int i = 0; i < kBulkFiles; ++i) {
        names.push_back("f" + std::to_string(i));
      }
      p0 = cluster->network().stats().packets_sent;
      auto handle = co_await c->OpenDir("/bulk");
      if (handle.ok()) {
        (void)co_await c->BulkInsert(*handle, names);
        (void)co_await c->CloseDir(*handle);
      }
      co_await sim::Delay(&cluster->sim(), sim::Milliseconds(5));
      *bulk_packets = cluster->network().stats().packets_sent - p0;
    }(&cluster, client.get(), &loop_packets, &bulk_packets));
    cluster.sim().Run();
    std::printf("%-20s %d creates: per-entry loop %llu packets -> BulkInsert "
                "%llu packets (%.1fx fewer, %lld saved)\n\n",
                "SwitchFS", kBulkFiles,
                static_cast<unsigned long long>(loop_packets),
                static_cast<unsigned long long>(bulk_packets),
                bulk_packets > 0 ? static_cast<double>(loop_packets) /
                                       static_cast<double>(bulk_packets)
                                 : 0.0,
                static_cast<long long>(loop_packets) -
                    static_cast<long long>(bulk_packets));
  }
  for (auto kind :
       {baselines::SystemKind::kEInfiniFS, baselines::SystemKind::kECfs}) {
    baselines::BaselineConfig cfg;
    cfg.kind = kind;
    cfg.num_servers = 8;
    baselines::BaselineCluster cluster(cfg);
    Storm(cluster);
    ok = ok && StatDirSeesStorm(cluster);
  }
  std::printf("\nThe baselines serialize every create on the hot directory's "
              "server;\nSwitchFS absorbs the storm in per-server change-logs "
              "(§5.3).\n");
  return ok ? 0 : 1;
}
