// Per-owner push batching (ROADMAP PR-1 follow-up): on a many-small-
// directories workload, per-directory pushes send one PushReq per directory
// while the per-owner pusher coalesces every ready change-log headed to the
// same owner into MTU-bounded batches. This bench creates files across
// `kDirs` directories (~kDirs / servers per owner) under both policies and
// reports cross-server PushReq packets per operation and owner-side apply
// throughput. Target: >= 2x fewer packets with apply throughput no worse.
//
// SFS_BENCH_JSON=<path>: also emit the rows as JSON (scripts/bench_smoke.sh
// writes BENCH_push_batching.json for the perf trajectory).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

namespace switchfs::bench {
namespace {

constexpr uint32_t kServers = 4;
constexpr int kDirs = 256;  // ~64 directories per owner

struct Row {
  std::string label;
  double kops = 0;
  double mean_us = 0;
  uint64_t ops = 0;
  uint64_t packets = 0;       // PushReq RPCs that completed
  uint64_t failures = 0;      // PushReq RPCs that failed
  double packets_per_op = 0;
  double dirs_per_packet = 0;     // PerDir sections per packet
  double entries_per_packet = 0;  // batch fill
  double apply_keps = 0;          // owner-side applied entries per second
  // Simulated time from first op to a fully drained cluster. The measured
  // window's Kops/s flatters lazy pushing (its apply work happens after the
  // window); this column is the honest end-to-end cost.
  double total_ms = 0;
};

Row RunOne(bool batch_pushes, uint64_t total_ops) {
  core::ClusterConfig cfg;
  cfg.num_servers = kServers;
  cfg.cores_per_server = 4;
  cfg.switch_config.dirty_set.num_stages = 10;
  cfg.switch_config.dirty_set.registers_per_stage = 1 << 14;
  cfg.server_template.batch_pushes = batch_pushes;
  core::Cluster world(cfg);

  auto dirs = wl::PreloadDirs(world, kDirs);
  wl::FreshNameStream stream(core::OpType::kCreate, dirs, "n");
  wl::RunnerConfig rc;
  rc.workers = 64;
  rc.total_ops = total_ops;
  rc.warmup_ops = total_ops / 10;
  const int64_t t0 = world.sim().Now();
  wl::RunResult r = wl::RunWorkload(world, stream, rc);
  const double run_secs = sim::ToSeconds(world.sim().Now() - t0);

  const auto st = world.TotalStats();
  Row row;
  row.label = batch_pushes ? "per-owner (batched)" : "per-dir";
  row.kops = r.ThroughputOpsPerSec() / 1e3;
  row.mean_us = r.MeanLatencyUs();
  row.ops = r.completed;
  row.packets = st.pushes_sent;
  row.failures = st.push_failures;
  row.packets_per_op =
      r.completed == 0 ? 0.0
                       : static_cast<double>(st.pushes_sent) /
                             static_cast<double>(r.completed);
  row.dirs_per_packet =
      st.pushes_sent == 0 ? 0.0
                          : static_cast<double>(st.push_dirs_sent) /
                                static_cast<double>(st.pushes_sent);
  row.entries_per_packet =
      st.pushes_sent == 0 ? 0.0
                          : static_cast<double>(st.push_entries_sent) /
                                static_cast<double>(st.pushes_sent);
  row.apply_keps = run_secs <= 0.0
                       ? 0.0
                       : static_cast<double>(st.entries_applied) / run_secs / 1e3;
  row.total_ms = run_secs * 1e3;
  return row;
}

void PrintRow(const Row& r) {
  std::printf(
      "%-22s %8.1f %9.2f %9llu %6llu %10.3f %9.2f %10.2f %11.1f %9.2f\n",
      r.label.c_str(), r.kops, r.mean_us,
      static_cast<unsigned long long>(r.packets),
      static_cast<unsigned long long>(r.failures), r.packets_per_op,
      r.dirs_per_packet, r.entries_per_packet, r.apply_keps, r.total_ms);
}

void AddRow(Report& report, const std::string& key, const Row& r) {
  report.Set(key + ".kops", r.kops, 1);
  report.Set(key + ".mean_us", r.mean_us, 2);
  report.Set(key + ".ops", r.ops);
  report.Set(key + ".push_packets", r.packets);
  report.Set(key + ".push_failures", r.failures);
  report.Set(key + ".packets_per_op", r.packets_per_op, 4);
  report.Set(key + ".dirs_per_packet", r.dirs_per_packet, 2);
  report.Set(key + ".entries_per_packet", r.entries_per_packet, 2);
  report.Set(key + ".apply_keps", r.apply_keps, 1);
  report.Set(key + ".total_ms", r.total_ms, 2);
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs::bench;
  // Many-SMALL-directories regime (~12 files per directory at full scale):
  // per-dir pushes fan out one packet per directory here, which is exactly
  // the fan-out the per-owner pusher coalesces. With deep per-directory
  // backlogs both policies send near-full MTU packets and converge.
  const uint64_t total = ScaledOps(3200);
  PrintHeader("Push batching: per-dir vs per-owner (create, " +
              std::to_string(kDirs) + " dirs, " + std::to_string(kServers) +
              " servers)");
  std::printf("%-22s %8s %9s %9s %6s %10s %9s %10s %11s %9s\n", "push policy",
              "Kops/s", "mean(us)", "packets", "fail", "pkts/op",
              "dirs/pkt", "entries/pkt", "apply Keps", "total(ms)");

  const Row per_dir = RunOne(/*batch_pushes=*/false, total);
  PrintRow(per_dir);
  const Row per_owner = RunOne(/*batch_pushes=*/true, total);
  PrintRow(per_owner);

  const double ratio =
      per_owner.packets == 0
          ? 0.0
          : static_cast<double>(per_dir.packets) /
                static_cast<double>(per_owner.packets);
  std::printf("\nPushReq packet reduction: %.2fx (target: >= 2x)\n", ratio);
  std::printf("owner-side apply throughput: %.1f -> %.1f Keps\n",
              per_dir.apply_keps, per_owner.apply_keps);
  std::printf("end-to-end (burst + full drain): %.2f -> %.2f ms\n",
              per_dir.total_ms, per_owner.total_ms);

  Report report;
  report.Set("bench", "push_batching");
  report.Set("dirs", kDirs);
  report.Set("servers", kServers);
  AddRow(report, "per_dir", per_dir);
  AddRow(report, "per_owner", per_owner);
  report.Set("packet_reduction", ratio, 2);
  report.Write();
  return 0;
}
