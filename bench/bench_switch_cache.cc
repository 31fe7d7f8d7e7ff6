// In-switch metadata read cache A/B (ROADMAP: serve hot lookup/stat at line
// rate from the data plane): a zipf-skewed hot-directory stat storm with a
// small write fraction runs once with the `switch_cache` lever off (every
// read pays the owner's CPU + KV path) and once with it on (hot fingerprints
// are answered by the switch before reaching any server). Reports throughput,
// latency, data-plane hit rate, and install/evict traffic. Target: >= 2x
// hot-read throughput with the cache on.
//
// SFS_BENCH_JSON=<path>: also emit the rows as JSON (scripts/bench_smoke.sh
// writes BENCH_switch_cache.json for the perf trajectory).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

namespace switchfs::bench {
namespace {

constexpr uint32_t kServers = 4;
constexpr int kDirs = 16;
constexpr int kFilesPerDir = 128;

struct Row {
  std::string label;
  double kops = 0;
  double mean_us = 0;
  double p99_us = 0;
  uint64_t ops = 0;
  double hit_rate = 0;   // data-plane cache hits / (hits + misses)
  uint64_t installs = 0;
  uint64_t evicts = 0;
  uint64_t server_ops = 0;  // requests that reached a metadata server
};

Row RunOne(bool switch_cache, uint64_t total_ops) {
  core::ClusterConfig cfg;
  cfg.num_servers = kServers;
  cfg.cores_per_server = 4;
  cfg.switch_config.dirty_set.num_stages = 10;
  cfg.switch_config.dirty_set.registers_per_stage = 1 << 14;
  cfg.server_template.switch_cache = switch_cache;
  core::Cluster world(cfg);

  auto dirs = wl::PreloadDirs(world, kDirs);
  wl::PreloadFiles(world, dirs, kFilesPerDir);

  // Hot-read storm: most ops are zipf-skewed stats of the hot directory's
  // files; plain stats over the whole population and a thin setattr stream
  // keep the invalidation path honest in BOTH arms.
  wl::MixRatios mix;
  mix.hot_read = 88;
  mix.stat = 8;
  mix.setattr = 4;
  wl::MixStream stream(mix, dirs, kFilesPerDir, /*skew=*/0.8);

  wl::RunnerConfig rc;
  rc.workers = 64;
  rc.total_ops = total_ops;
  rc.warmup_ops = total_ops / 10;
  wl::RunResult r = wl::RunWorkload(world, stream, rc);

  const auto& dp = world.data_plane()->stats();
  const auto st = world.TotalStats();
  Row row;
  row.label = switch_cache ? "switch cache" : "owner path";
  row.kops = r.ThroughputOpsPerSec() / 1e3;
  row.mean_us = r.MeanLatencyUs();
  row.p99_us = r.PercentileUs(0.99);
  row.ops = r.completed;
  const uint64_t probes = dp.mc_hits + dp.mc_misses;
  row.hit_rate = probes == 0 ? 0.0
                             : static_cast<double>(dp.mc_hits) /
                                   static_cast<double>(probes);
  row.installs = dp.mc_installs;
  row.evicts = dp.mc_evicts;
  row.server_ops = st.ops;
  return row;
}

void PrintRow(const Row& r) {
  std::printf("%-14s %9.1f %9.2f %9.2f %10llu %8.1f%% %9llu %8llu %11llu\n",
              r.label.c_str(), r.kops, r.mean_us, r.p99_us,
              static_cast<unsigned long long>(r.ops), r.hit_rate * 100.0,
              static_cast<unsigned long long>(r.installs),
              static_cast<unsigned long long>(r.evicts),
              static_cast<unsigned long long>(r.server_ops));
}

void AddRow(Report& report, const std::string& key, const Row& r) {
  report.Set(key + ".kops", r.kops, 1);
  report.Set(key + ".mean_us", r.mean_us, 2);
  report.Set(key + ".p99_us", r.p99_us, 2);
  report.Set(key + ".ops", r.ops);
  report.Set(key + ".hit_rate", r.hit_rate, 4);
  report.Set(key + ".installs", r.installs);
  report.Set(key + ".evicts", r.evicts);
  report.Set(key + ".server_ops", r.server_ops);
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs::bench;
  const uint64_t total = ScaledOps(40000);
  PrintHeader("In-switch metadata read cache: hot-dir stat storm (" +
              std::to_string(kDirs) + " dirs x " +
              std::to_string(kFilesPerDir) + " files, " +
              std::to_string(kServers) + " servers)");
  std::printf("%-14s %9s %9s %9s %10s %9s %9s %8s %11s\n", "read path",
              "Kops/s", "mean(us)", "p99(us)", "ops", "hit rate", "installs",
              "evicts", "server ops");

  const Row off = RunOne(/*switch_cache=*/false, total);
  PrintRow(off);
  const Row on = RunOne(/*switch_cache=*/true, total);
  PrintRow(on);

  const double speedup = off.kops == 0 ? 0.0 : on.kops / off.kops;
  std::printf("\nhot-read speedup: %.2fx (target: >= 2x), "
              "cache hit rate: %.1f%%\n",
              speedup, on.hit_rate * 100.0);
  std::printf("server-visible requests: %llu -> %llu\n",
              static_cast<unsigned long long>(off.server_ops),
              static_cast<unsigned long long>(on.server_ops));

  Report report;
  report.Set("bench", "switch_cache");
  report.Set("dirs", kDirs);
  report.Set("files_per_dir", kFilesPerDir);
  report.Set("servers", kServers);
  AddRow(report, "uncached", off);
  AddRow(report, "cached", on);
  report.Set("speedup", speedup, 2);
  report.Write();
  return 0;
}
