// Readdir at directory scale (MetadataService v2): a million-entry directory
// listed monolithically (the pre-v2 single-RPC shape) vs the cookie-paged
// OpenDir/ReaddirPage stream. The monolithic reply needs a response big
// enough to hold the whole directory and a client deadline sized to the
// server's full scan+marshal time — neither survives contact with real
// directories ("millions of users" ROADMAP scale) — while the paged stream
// keeps every packet bounded by the kPageMtuBytes budget and returns its first
// entries after one page's worth of work past the open.
//
// Two paged rows: the sequential one-page-at-a-time drain, and the
// pipelined client (kPrefetchPages speculative page RPCs in flight, their
// scans overlapped across the owner's cores). The pipeline is what makes
// paged strictly FASTER than monolithic on total time, not just on first
// page: the same per-entry scan work runs concurrently instead of on one
// core.
//
// A second section measures BulkInsert: N fresh names through one open
// handle (one WAL-committed multi-entry RPC per owner page-fill) vs N
// per-entry Create round trips.
//
// SFS_BENCH_SCALE scales the directory (full = 1M entries, small = 200k);
// SFS_BENCH_JSON=<path> emits the rows for scripts/bench_check.py.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace switchfs::bench {
namespace {

constexpr uint32_t kServers = 4;

struct Row {
  double total_ms = 0;       // simulated start -> complete listing
  double first_ms = 0;       // simulated start -> first entries available
  uint64_t entries = 0;      // entries returned
  uint64_t packets = 0;      // response payloads (1 for monolithic)
  uint64_t max_packet_entries = 0;
};

struct BulkRow {
  double ms = 0;             // simulated start -> all names committed
  uint64_t packets = 0;      // network packets (incl. pushes), quiesced
  uint64_t failed = 0;
};

void Print(const char* label, const Row& r) {
  std::printf("%-12s %10.2f %10.2f %10llu %8llu %12llu\n", label, r.total_ms,
              r.first_ms, static_cast<unsigned long long>(r.entries),
              static_cast<unsigned long long>(r.packets),
              static_cast<unsigned long long>(r.max_packet_entries));
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs;
  using namespace switchfs::bench;

  const uint64_t kEntries = ScaledOps(1'000'000);
  const uint64_t kBulkN = ScaledOps(20'000);
  PrintHeader("Readdir paging: monolithic vs OpenDir/ReaddirPage (" +
              std::to_string(kEntries) + "-entry dir, " +
              std::to_string(kServers) + " servers)");

  core::ClusterConfig cfg;
  cfg.num_servers = kServers;
  cfg.switch_config.dirty_set.num_stages = 10;
  cfg.switch_config.dirty_set.registers_per_stage = 1 << 14;
  core::Cluster cluster(cfg);
  cluster.PreloadDir("/big");
  for (uint64_t i = 0; i < kEntries; ++i) {
    cluster.PreloadFile("/big/f" + std::to_string(i));
  }
  cluster.PreloadDir("/loopdir");
  cluster.PreloadDir("/bulkdir");

  // The monolithic call needs a deadline sized to the full server-side
  // scan+marshal (hundreds of ms of simulated time at 1M entries) — with the
  // production 2 ms RPC deadline it cannot complete at all. That asymmetry
  // IS the motivation; the paged clients keep the production deadline.
  core::SwitchFsClient::Config big_call;
  big_call.dirty_tracker = cluster.dirty_tracker();
  big_call.call.timeout = sim::Seconds(30);
  big_call.call.max_attempts = 2;
  core::SwitchFsClient mono_client(&cluster.sim(), &cluster.network(),
                                   &cluster, &cluster.costs(), big_call);
  cluster.WarmClient(mono_client);
  auto paged_client = cluster.MakeClient();
  cluster.WarmClient(*paged_client);

  Row mono;
  Row seq;
  Row paged;
  BulkRow loop;
  BulkRow bulk;
  bool ok = true;
  sim::Spawn([](core::Cluster* cluster, core::SwitchFsClient* mono_client,
                core::SwitchFsClient* paged_client, uint64_t kBulkN, Row* mono,
                Row* seq, Row* paged, BulkRow* loop, BulkRow* bulk,
                bool* ok) -> sim::Task<void> {
    sim::Simulator& sm = cluster->sim();
    {
      const sim::SimTime t0 = sm.Now();
      auto listing = co_await mono_client->ReaddirMonolithic("/big");
      const sim::SimTime t1 = sm.Now();
      if (!listing.ok()) {
        std::printf("monolithic readdir failed: %s\n",
                    listing.status().ToString().c_str());
        *ok = false;
        co_return;
      }
      mono->total_ms = sim::ToMicros(t1 - t0) / 1e3;
      mono->first_ms = mono->total_ms;  // all-or-nothing
      mono->entries = listing->size();
      mono->packets = 1;
      mono->max_packet_entries = listing->size();
    }
    // Sequential drain: one page RPC at a time. This is the row that shows
    // the per-packet shape (page count, largest payload) and the time to
    // first entries; its total pays one RTT + one single-core page build per
    // page back to back.
    {
      const sim::SimTime t0 = sm.Now();
      auto handle = co_await paged_client->OpenDir("/big");
      if (!handle.ok()) {
        std::printf("opendir failed: %s\n",
                    handle.status().ToString().c_str());
        *ok = false;
        co_return;
      }
      uint64_t cookie = core::kDirStreamStart;
      while (true) {
        auto page = co_await paged_client->ReaddirPage(*handle, cookie);
        if (!page.ok()) {
          std::printf("readdir page failed: %s\n",
                      page.status().ToString().c_str());
          *ok = false;
          co_return;
        }
        seq->packets++;
        seq->entries += page->entries.size();
        seq->max_packet_entries = std::max<uint64_t>(seq->max_packet_entries,
                                                     page->entries.size());
        if (seq->packets == 1) {
          seq->first_ms = sim::ToMicros(sm.Now() - t0) / 1e3;
        }
        if (page->at_end) {
          break;
        }
        cookie = page->next_cookie;
      }
      (void)co_await paged_client->CloseDir(*handle);
      seq->total_ms = sim::ToMicros(sm.Now() - t0) / 1e3;
    }
    // Pipelined drain: the client's Readdir keeps kPrefetchPages speculative
    // page RPCs in flight; the owner overlaps their scans across its cores.
    {
      const sim::SimTime t0 = sm.Now();
      auto listing = co_await paged_client->Readdir("/big");
      if (!listing.ok()) {
        std::printf("pipelined readdir failed: %s\n",
                    listing.status().ToString().c_str());
        *ok = false;
        co_return;
      }
      paged->total_ms = sim::ToMicros(sm.Now() - t0) / 1e3;
      paged->entries = listing->size();
    }
    // The pipeline serves the same pages as the sequential drain; its first
    // page is identical (prefetch starts at page 0 too).
    paged->first_ms = seq->first_ms;
    paged->packets = seq->packets;
    paged->max_packet_entries = seq->max_packet_entries;

    // ---- BulkInsert vs per-entry creates ---------------------------------
    // Both windows include the deferred cross-server pushes: quiesce before
    // reading the packet counter so the comparison is end to end.
    {
      const sim::SimTime t0 = sm.Now();
      const uint64_t p0 = cluster->network().stats().packets_sent;
      for (uint64_t i = 0; i < kBulkN; ++i) {
        Status s = co_await paged_client->Create("/loopdir/e" +
                                                 std::to_string(i));
        if (!s.ok()) {
          loop->failed++;
        }
      }
      loop->ms = sim::ToMicros(sm.Now() - t0) / 1e3;
      co_await sim::Delay(&sm, sim::Milliseconds(20));
      loop->packets = cluster->network().stats().packets_sent - p0;
    }
    {
      std::vector<std::string> names;
      names.reserve(kBulkN);
      for (uint64_t i = 0; i < kBulkN; ++i) {
        names.push_back("e" + std::to_string(i));
      }
      const sim::SimTime t0 = sm.Now();
      const uint64_t p0 = cluster->network().stats().packets_sent;
      auto handle = co_await paged_client->OpenDir("/bulkdir");
      if (!handle.ok()) {
        std::printf("bulk opendir failed: %s\n",
                    handle.status().ToString().c_str());
        *ok = false;
        co_return;
      }
      auto verdicts = co_await paged_client->BulkInsert(*handle, names);
      for (const Status& s : verdicts) {
        if (!s.ok()) {
          bulk->failed++;
        }
      }
      (void)co_await paged_client->CloseDir(*handle);
      bulk->ms = sim::ToMicros(sm.Now() - t0) / 1e3;
      co_await sim::Delay(&sm, sim::Milliseconds(20));
      bulk->packets = cluster->network().stats().packets_sent - p0;
    }
  }(&cluster, &mono_client, paged_client.get(), kBulkN, &mono, &seq, &paged,
    &loop, &bulk, &ok));
  cluster.sim().Run();
  if (!ok || mono.entries != kEntries || seq.entries != kEntries ||
      paged.entries != kEntries || loop.failed != 0 || bulk.failed != 0) {
    std::printf("FAILED: mono=%llu seq=%llu paged=%llu expected=%llu "
                "loop_failed=%llu bulk_failed=%llu\n",
                static_cast<unsigned long long>(mono.entries),
                static_cast<unsigned long long>(seq.entries),
                static_cast<unsigned long long>(paged.entries),
                static_cast<unsigned long long>(kEntries),
                static_cast<unsigned long long>(loop.failed),
                static_cast<unsigned long long>(bulk.failed));
    return 1;
  }

  std::printf("%-12s %10s %10s %10s %8s %12s\n", "mode", "total(ms)",
              "first(ms)", "entries", "packets", "max/packet");
  Print("monolithic", mono);
  Print("paged-seq", seq);
  Print("paged-pipe", paged);
  std::printf("\nfirst entries: %.2f ms (paged) vs %.2f ms (monolithic "
              "all-or-nothing)\n", paged.first_ms, mono.first_ms);
  std::printf("pipelined total: %.2f ms vs monolithic %.2f ms (%.2fx)\n",
              paged.total_ms, mono.total_ms,
              paged.total_ms > 0 ? mono.total_ms / paged.total_ms : 0.0);
  std::printf("largest response payload: %llu entries -> %llu (mtu-bounded)\n",
              static_cast<unsigned long long>(mono.max_packet_entries),
              static_cast<unsigned long long>(paged.max_packet_entries));
  std::printf("\nbulk insert (%llu names): %.2f ms / %llu packets vs "
              "per-entry loop %.2f ms / %llu packets (%.1fx fewer packets)\n",
              static_cast<unsigned long long>(kBulkN), bulk.ms,
              static_cast<unsigned long long>(bulk.packets), loop.ms,
              static_cast<unsigned long long>(loop.packets),
              bulk.packets > 0
                  ? static_cast<double>(loop.packets) /
                        static_cast<double>(bulk.packets)
                  : 0.0);

  Report report;
  report.Set("bench", "readdir_paging");
  report.Set("entries", kEntries);
  report.Set("servers", kServers);
  report.Set("mono.total_ms", mono.total_ms, 3);
  report.Set("mono.first_ms", mono.first_ms, 3);
  report.Set("mono.packets", mono.packets);
  report.Set("mono.max_packet_entries", mono.max_packet_entries);
  report.Set("paged.total_ms", paged.total_ms, 3);
  report.Set("paged.first_ms", paged.first_ms, 3);
  report.Set("paged.packets", paged.packets);
  report.Set("paged.max_packet_entries", paged.max_packet_entries);
  report.Set("paged.seq_total_ms", seq.total_ms, 3);
  report.Set("bulk_insert.entries", kBulkN);
  report.Set("bulk_insert.loop_ms", loop.ms, 3);
  report.Set("bulk_insert.loop_packets", loop.packets);
  report.Set("bulk_insert.bulk_ms", bulk.ms, 3);
  report.Set("bulk_insert.bulk_packets", bulk.packets);
  report.Write();
  return 0;
}
