// Tracker crash mid-burst (§7.3.3 fault extension): a create storm runs
// against the dedicated tracker (the one-replica chain) vs the three-replica
// chain; a replica (the dedicated node / chain head) is killed mid-burst and
// the bench reports the throughput timeline around the crash, the dip
// depth, and two recovery times:
//   * throughput recovery — first window back at >= 90% of the pre-crash
//     average, measured from the crash instant;
//   * tracker recovery   — crash until the chain serves a rebuilt set again
//     (the operator's RecoverNode for the dedicated node; automatic
//     lazy-detection failover + dirty-set reconstruction for the chain).
// Both run the same code: the first op to hit the dead replica fails the
// chain over. The dedicated chain is then empty, so it rides out the outage
// on synchronous fallbacks until the operator restores the node; the
// three-replica chain fails over to two in ~1 ms.
#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "src/tracker/replicated_tracker.h"

namespace switchfs::bench {
namespace {

using sim::SimTime;

constexpr SimTime kWindow = sim::Milliseconds(1);
constexpr SimTime kCrashAt = sim::Milliseconds(12);
constexpr SimTime kRunFor = sim::Milliseconds(36);
// Operator reaction time before the dedicated tracker's manual recovery.
constexpr SimTime kOperatorDelay = sim::Milliseconds(4);
constexpr int kWorkers = 32;  // scaled by SFS_BENCH_SCALE (floor 4)
constexpr int kDirs = 64;

int ScaledWorkers() {
  return std::max(4, static_cast<int>(kWorkers * Scale()));
}

struct BurstResult {
  std::vector<uint64_t> bins;  // completions per kWindow
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t fallbacks = 0;
  SimTime tracker_recovery = 0;  // crash -> rebuilt chain serving
  SimTime crash_at = 0;
  uint64_t verified_sizes = 0;  // sum of statdir sizes after the storm
};

sim::Task<void> Worker(core::MetadataService* client,
                       std::vector<std::string> dirs, int id, SimTime end,
                       sim::Simulator* sim, BurstResult* out) {
  int n = 0;
  while (sim->Now() < end) {
    const std::string path = dirs[(id + n) % dirs.size()] + "/w" +
                             std::to_string(id) + "_" + std::to_string(n);
    n++;
    Status s = co_await client->Create(path);
    if (s.ok()) {
      out->completed++;
      const size_t bin = static_cast<size_t>(sim->Now() / kWindow);
      if (bin < out->bins.size()) {
        out->bins[bin]++;
      }
    } else {
      out->failed++;
    }
  }
}

BurstResult RunBurst(core::TrackerMode mode) {
  core::ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.cores_per_server = 4;
  cfg.tracker = mode;
  auto world = std::make_unique<core::Cluster>(cfg);
  auto dirs = wl::PreloadDirs(*world, kDirs);

  BurstResult out;
  out.bins.assign(static_cast<size_t>(kRunFor / kWindow) + 4, 0);

  std::vector<std::unique_ptr<core::MetadataService>> clients;
  const SimTime end = world->sim().Now() + kRunFor;
  for (int w = 0; w < ScaledWorkers(); ++w) {
    clients.push_back(world->NewClient(true));
    sim::Spawn(Worker(clients.back().get(), dirs, w, end, &world->sim(), &out));
  }

  world->sim().RunUntil(world->sim().Now() + kCrashAt);
  out.crash_at = world->sim().Now();
  auto* rep = world->replicated_tracker();
  rep->CrashNode(rep->head_index());
  if (mode == core::TrackerMode::kDedicatedServer) {
    // The operator notices after kOperatorDelay and restarts the node.
    world->sim().ScheduleAfter(kOperatorDelay,
                               [rep] { sim::Spawn(rep->RecoverNode(0)); });
  }

  world->sim().Run();  // storm + recovery drain to quiescence
  out.fallbacks = world->TotalStats().fallbacks;
  if (rep->failovers() > 0) {
    // Crash -> the last rebuild done (includes the lazy-detection window).
    out.tracker_recovery = rep->last_failover_completed_at() - out.crash_at;
  }

  // Consistency check: every acknowledged create is visible to statdir.
  auto client = world->NewClient(true);
  auto* sum = &out.verified_sizes;
  sim::Spawn([](core::MetadataService* c, std::vector<std::string> ds,
                uint64_t* total) -> sim::Task<void> {
    for (const auto& d : ds) {
      auto sd = co_await c->StatDir(d);
      if (sd.ok()) {
        *total += sd->size;
      }
    }
  }(client.get(), dirs, sum));
  world->sim().Run();
  return out;
}

void PrintBurst(const char* label, const BurstResult& r) {
  const size_t crash_bin = static_cast<size_t>(r.crash_at / kWindow);
  double pre = 0;
  size_t pre_bins = 0;
  for (size_t b = 2; b < crash_bin; ++b) {  // skip the cold-start windows
    pre += static_cast<double>(r.bins[b]);
    pre_bins++;
  }
  pre = pre_bins > 0 ? pre / static_cast<double>(pre_bins) : 0;

  uint64_t dip = r.bins[crash_bin];
  size_t recovered_bin = r.bins.size();
  for (size_t b = crash_bin; b < r.bins.size(); ++b) {
    dip = std::min(dip, r.bins[b]);
    if (r.bins[b] >= 0.9 * pre) {
      recovered_bin = b;
      break;
    }
  }
  const double to_kops = 1e6 / sim::ToMicros(kWindow) / 1e3;
  std::printf("%-16s %9.1f %9.1f", label,
              pre * to_kops, static_cast<double>(dip) * to_kops);
  if (recovered_bin < r.bins.size()) {
    std::printf(" %10.2f ms",
                sim::ToMicros(static_cast<SimTime>(recovered_bin + 1) * kWindow -
                              r.crash_at) / 1e3);
  } else {
    std::printf(" %13s", "n/a");
  }
  std::printf(" %10.2f ms %10llu %11llu/%llu\n",
              sim::ToMicros(r.tracker_recovery) / 1e3,
              static_cast<unsigned long long>(r.fallbacks),
              static_cast<unsigned long long>(r.verified_sizes),
              static_cast<unsigned long long>(r.completed));

  std::printf("  timeline (Kops/s per %lld us window): ",
              static_cast<long long>(sim::ToMicros(kWindow)));
  for (size_t b = 2; b < r.bins.size() && b < crash_bin + 16; ++b) {
    std::printf("%s%.0f", b == crash_bin ? " |X| " : " ",
                static_cast<double>(r.bins[b]) * to_kops);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs::bench;
  PrintHeader("tracker crash mid-burst: dedicated server vs replicated chain");
  std::printf("8 servers, %d workers, %d dirs; crash at %.0f ms of %.0f ms "
              "storm\n\n",
              ScaledWorkers(), kDirs, switchfs::sim::ToMicros(kCrashAt) / 1e3,
              switchfs::sim::ToMicros(kRunFor) / 1e3);
  std::printf("%-16s %9s %9s %13s %13s %10s %13s\n", "mode", "pre Kops",
              "dip Kops", "tput recov", "tracker recov", "fallbacks",
              "visible/acked");

  BurstResult dedicated = RunBurst(switchfs::core::TrackerMode::kDedicatedServer);
  PrintBurst("DedicatedServer", dedicated);
  BurstResult replicated = RunBurst(switchfs::core::TrackerMode::kReplicated);
  PrintBurst("Replicated(3)", replicated);

  const bool ok_dedicated = dedicated.verified_sizes == dedicated.completed;
  const bool ok_replicated = replicated.verified_sizes == replicated.completed;
  std::printf("\nconsistency: dedicated %s, replicated %s (visible must equal "
              "acked)\n",
              ok_dedicated ? "OK" : "VIOLATION",
              ok_replicated ? "OK" : "VIOLATION");
  return ok_dedicated && ok_replicated ? 0 : 1;
}
