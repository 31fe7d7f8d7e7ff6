// Geo-replication (src/wan/): convergence time of a two-site world under a
// shared-namespace create workload, swept over WAN link lag, write volume,
// and conflict rate. The claim this bench exists to prove: convergence time
// after the last write scales with the WAN lag (a small multiple of the
// round trip — batches in flight plus the open batch), NOT with the write
// volume. Adaptive batch sizing (WanReplicatorConfig::max_closed_batches)
// is what makes that true: while acks lag, the open batch absorbs the
// backlog and each round trip ships it as one unit, so doubling the writes
// barely moves the post-write drain (volume_ratio vs volume_ratio_budget in
// the JSON). The conflict-rate sweep shows same-name cross-site writes
// settling by per-entry LWW (wan_conflicts_lww).
//
// Convergence is measured as simulated time from the LAST local write
// commit to full quiescence (GeoCluster::Converged: change logs drained,
// no batch mid-apply, every spool empty and acked), sampled on a 250us
// grid.
//
// SFS_BENCH_JSON=<path>: also emit the rows as JSON (scripts/bench_smoke.sh
// writes BENCH_wan_replication.json; scripts/bench_check.py gates on it).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/wan/geo.h"

namespace switchfs::bench {
namespace {

constexpr int kDirs = 4;            // shared replicated directories
constexpr int kWorkersPerSite = 4;  // concurrent writer clients per site
constexpr double kVolumeRatioBudget = 1.6;

struct Row {
  std::string label;
  int lag_ms = 0;
  uint64_t ops_per_site = 0;
  double write_ms = 0;  // first write launched to last write committed
  double conv_ms = 0;   // last write committed to full convergence
  uint64_t batches = 0;
  uint64_t applied = 0;
  uint64_t conflicts = 0;
};

sim::Task<void> SiteWriter(sim::Simulator* sm, core::SwitchFsClient* client,
                           wl::OpStream* stream, Rng* rng, uint64_t* remaining,
                           sim::SimTime* last_write, int* writers_left) {
  while (*remaining > 0) {
    --*remaining;
    const std::optional<wl::Op> op = stream->Next(*rng);
    // Pacing spreads the sites' writes over a window comparable to the WAN
    // round trip, so conflicting names really do commit concurrently.
    co_await sim::Delay(sm, sim::Microseconds(20 + rng->NextBelow(80)));
    (void)co_await client->Create(op->path);
    if (*last_write < sm->Now()) {
      *last_write = sm->Now();
    }
  }
  --*writers_left;
}

Row RunOne(const std::string& label, int lag_ms, double volume,
           double conflict_rate, uint64_t seed) {
  wan::GeoConfig g;
  g.num_clusters = 2;
  g.cluster_template.num_servers = 4;
  g.cluster_template.cores_per_server = 4;
  g.cluster_template.switch_config.dirty_set.num_stages = 10;
  g.cluster_template.switch_config.dirty_set.registers_per_stage = 1 << 14;
  g.seed = seed;
  g.link.latency = sim::Milliseconds(lag_ms);
  g.link.jitter = sim::Microseconds(200);
  g.replication.batch_interval = sim::Milliseconds(2);
  // The retry timeout must clear the round trip or healthy ships get
  // abandoned and re-sent forever.
  g.replication.ack_timeout = 2 * g.link.latency + sim::Milliseconds(20);
  g.replication.max_backoff = 4 * g.replication.ack_timeout;
  wan::GeoCluster geo(g);

  std::vector<std::string> dirs;
  for (int d = 0; d < kDirs; ++d) {
    dirs.push_back("/geo" + std::to_string(d));
    geo.PreloadDirAll(dirs.back());
  }

  // Volume multiplies AFTER the scale floor, so the 2x run really doubles
  // the writes even at SFS_BENCH_SCALE=small.
  const auto ops_per_site =
      static_cast<uint64_t>(static_cast<double>(ScaledOps(600)) * volume);
  std::vector<std::unique_ptr<core::SwitchFsClient>> clients;
  std::vector<std::unique_ptr<wl::SharedNamespaceStream>> streams;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<uint64_t> remaining(2, ops_per_site);
  sim::SimTime last_write = 0;
  int writers_left = 2 * kWorkersPerSite;
  for (uint32_t site = 0; site < 2; ++site) {
    streams.push_back(std::make_unique<wl::SharedNamespaceStream>(
        dirs, site, conflict_rate));
    rngs.push_back(std::make_unique<Rng>(seed ^ (0x5bd1ULL * (site + 1))));
    for (int w = 0; w < kWorkersPerSite; ++w) {
      clients.push_back(geo.cluster(site).MakeClient());
      geo.cluster(site).WarmClient(*clients.back());
      sim::Spawn(SiteWriter(&geo.sim(), clients.back().get(),
                            streams[site].get(), rngs[site].get(),
                            &remaining[site], &last_write, &writers_left));
    }
  }

  // Drive the world in short slices and record the first slice boundary at
  // which the writers are done and everything is quiescent. RunUntil chases
  // RunWhileWorkPending because the latter does not advance the clock past
  // a gap (e.g. an ack still in flight beyond the slice).
  const sim::SimTime slice = sim::Microseconds(250);
  const sim::SimTime cap = sim::Seconds(120);
  while (geo.sim().Now() < cap) {
    const sim::SimTime t = geo.sim().Now() + slice;
    geo.sim().RunWhileWorkPending(t);
    geo.sim().RunUntil(t);
    if (writers_left == 0 && geo.Converged()) {
      break;
    }
  }

  const auto st = geo.TotalStats();
  Row row;
  row.label = label;
  row.lag_ms = lag_ms;
  row.ops_per_site = ops_per_site;
  row.write_ms = sim::ToSeconds(last_write) * 1e3;
  row.conv_ms = sim::ToSeconds(geo.sim().Now() - last_write) * 1e3;
  row.batches = st.wan_batches_shipped;
  row.applied = st.wan_entries_applied;
  row.conflicts = st.wan_conflicts_lww;
  return row;
}

void PrintRow(const Row& r) {
  std::printf("%-15s %7d %9llu %10.3f %10.3f %8llu %8llu %6llu\n",
              r.label.c_str(), r.lag_ms,
              static_cast<unsigned long long>(r.ops_per_site), r.write_ms,
              r.conv_ms, static_cast<unsigned long long>(r.batches),
              static_cast<unsigned long long>(r.applied),
              static_cast<unsigned long long>(r.conflicts));
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs::bench;
  PrintHeader(
      "WAN replication: convergence after the last write, 2 sites x " +
      std::to_string(kWorkersPerSite) + " writers over " +
      std::to_string(kDirs) + " shared dirs");
  std::printf("%-15s %7s %9s %10s %10s %8s %8s %6s\n", "row", "lag(ms)",
              "ops/site", "write(ms)", "conv(ms)", "batches", "applied",
              "lww");

  // Lag sweep at fixed volume: conv_ms must grow with the link lag.
  const Row lag5 = RunOne("lag5", 5, /*volume=*/1.0, /*conflict=*/0.2, 42);
  PrintRow(lag5);
  const Row lag20 = RunOne("lag20", 20, 1.0, 0.2, 42);
  PrintRow(lag20);
  const Row lag80 = RunOne("lag80", 80, 1.0, 0.2, 42);
  PrintRow(lag80);

  // Volume sweep at fixed lag: 2x the writes must NOT 2x the convergence
  // time (the open batch absorbs backlog; each round trip ships it whole).
  const Row vol2x = RunOne("vol2x", 20, 2.0, 0.2, 42);
  PrintRow(vol2x);

  // Conflict-rate sweep at fixed lag/volume: cross-site same-name creates
  // surface as wan_conflicts_lww (the older write dropped at the apply).
  const Row conflict_off = RunOne("conflict_off", 20, 1.0, 0.0, 42);
  PrintRow(conflict_off);
  const Row conflict_heavy = RunOne("conflict_heavy", 20, 1.0, 0.5, 42);
  PrintRow(conflict_heavy);

  const double volume_ratio =
      lag20.conv_ms <= 0.0 ? 0.0 : vol2x.conv_ms / lag20.conv_ms;
  std::printf(
      "\nconvergence vs lag: %.3f / %.3f / %.3f ms at 5/20/80 ms lag\n",
      lag5.conv_ms, lag20.conv_ms, lag80.conv_ms);
  std::printf("2x write volume convergence ratio: %.2fx (budget: < %.1fx)\n",
              volume_ratio, kVolumeRatioBudget);
  std::printf("LWW conflicts at 0%% / 50%% shared names: %llu / %llu\n",
              static_cast<unsigned long long>(conflict_off.conflicts),
              static_cast<unsigned long long>(conflict_heavy.conflicts));

  Report report;
  report.Set("bench", "wan_replication");
  report.Set("sites", 2);
  report.Set("workers_per_site", kWorkersPerSite);
  report.Set("dirs", kDirs);
  for (const Row& r :
       {lag5, lag20, lag80, vol2x, conflict_off, conflict_heavy}) {
    report.Set(r.label + ".lag_ms", r.lag_ms);
    report.Set(r.label + ".ops_per_site", r.ops_per_site);
    report.Set(r.label + ".write_ms", r.write_ms, 3);
    report.Set(r.label + ".conv_ms", r.conv_ms, 3);
    report.Set(r.label + ".batches", r.batches);
    report.Set(r.label + ".applied", r.applied);
    report.Set(r.label + ".conflicts", r.conflicts);
  }
  report.Set("volume_ratio", volume_ratio, 3);
  report.Set("volume_ratio_budget", kVolumeRatioBudget, 1);
  report.Write();
  return 0;
}
