// Shard scaling (multi-core owners): one owner server absorbs a burst of
// batched change-log pushes — a create storm skewed entirely onto its
// fingerprint groups — with 1 vs 4 shard apply lanes. Every
// section funnels through HandlePush's real apply path (shard apply lane,
// WAL records, idempotency-token commit). With a single shard the sections
// serialize on one apply lane while the owner's other cores idle; with 4
// shards the balanced sections land on 4 lanes that apply concurrently on
// the 4-core CpuPool. The measured number is owner apply throughput:
// entries applied / makespan of the burst (first send to last ack).
// Target: >= 2x at 4 shards (the committed floor in the JSON).
//
// A non-timed coda retransmits part of the burst to show the per-(dir, src)
// idempotency tokens no-op duplicates (the dedup column / JSON field).
//
// SFS_BENCH_JSON=<path>: also emit the rows as JSON (scripts/bench_smoke.sh
// writes BENCH_shard_scaling.json; scripts/bench_check.py gates on it).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/aggregation.h"
#include "src/core/push_engine.h"
#include "src/core/schema.h"
#include "src/core/shard.h"
#include "src/net/network.h"
#include "src/tracker/owner_tracker.h"

namespace switchfs::bench {
namespace {

using namespace switchfs::core;

constexpr int kDirs = 64;        // 16 per shard group at 4 shards
constexpr int kDupBatches = 8;   // retransmitted in the idempotency coda

struct Row {
  std::string label;
  uint64_t sections = 0;
  uint64_t entries = 0;
  uint64_t applied = 0;   // owner-side entries applied in the timed burst
  uint64_t deduped = 0;   // duplicate batches no-op'd in the coda
  double apply_keps = 0;  // applied entries per second of burst makespan
  double drain_ms = 0;    // burst makespan (first send to last ack)
};

class SingleNodeCluster : public ClusterContext {
 public:
  explicit SingleNodeCluster(net::NodeId node) : node_(node) {
    ring_.AddServer(0);
  }
  const HashRing& ring() const override { return ring_; }
  net::NodeId ServerNode(uint32_t) const override { return node_; }
  uint32_t ServerCount() const override { return 1; }

 private:
  HashRing ring_;
  net::NodeId node_;
};

// One owner's aggregation + push modules over a bare context: the smallest
// stack that runs HandlePush's real apply path against crafted PushReqs.
class OwnerHarness {
 public:
  explicit OwnerHarness(int shard_count)
      : net(&sim, &costs, /*seed=*/7),
        sw(costs.plain_switch_delay),
        cpu(&sim, /*cores=*/4),
        rpc(&sim, &net),
        vol(std::make_shared<ServerVolatile>(&sim, shard_count)) {
    config.shard_count = shard_count;
    config.compaction = false;
    net.SetSwitch(&sw);
    cluster = std::make_unique<SingleNodeCluster>(rpc.id());
    sw.SetServerGroup({rpc.id()});
    ctx = ServerContext{&sim,    &net, cluster.get(), &durable, &costs,
                        &config, &cpu, &rpc,          &stats,   &tracker_impl};
    agg = std::make_unique<Aggregation>(ctx);
    push = std::make_unique<PushEngine>(ctx, *agg);
    agg->SetPushEngine(push.get());
    rpc.SetCpu(&cpu);
    rpc.SetRequestHandler([this](net::Packet p) {
      if (p.body->type == PushReq::kType) {
        VolPtr v = vol;
        sim::Spawn(push->HandlePush(std::move(p), std::move(v)));
      }
    });
  }

  InodeId SeedDir(const std::string& name, uint64_t tag) {
    InodeId id;
    id.w[0] = tag;
    id.w[3] = 2;
    Attr attr;
    attr.id = id;
    attr.type = FileType::kDirectory;
    attr.mode = 0755;
    const std::string ikey = InodeKey(RootId(), name);
    vol->kv.Put(ikey, attr.Encode());
    vol->kv.Put(DirIndexKey(id),
                EncodeDirIndex(ikey, FingerprintOf(RootId(), name)));
    return id;
  }

  sim::Simulator sim;
  sim::CostModel costs;
  net::Network net;
  net::PlainSwitch sw;
  ServerConfig config;
  tracker::OwnerTracker tracker_impl;
  DurableState durable;
  sim::CpuPool cpu;
  net::RpcEndpoint rpc;
  ServerStats stats;
  std::unique_ptr<SingleNodeCluster> cluster;
  ServerContext ctx;
  VolPtr vol;
  std::unique_ptr<Aggregation> agg;
  std::unique_ptr<PushEngine> push;
};

// Dir names whose fingerprints spread EVENLY over 4 shard groups (fp % 4),
// so the 4-shard run measures lane parallelism, not bucket luck. The same
// set feeds the 1-shard run.
std::vector<std::string> BalancedDirNames() {
  std::vector<std::string> names;
  int per_group[4] = {0, 0, 0, 0};
  for (int i = 0; static_cast<int>(names.size()) < kDirs; ++i) {
    const std::string name = "h" + std::to_string(i);
    const auto g = static_cast<size_t>(
        FingerprintOf(RootId(), name) % 4);
    if (per_group[g] >= kDirs / 4) {
      continue;
    }
    per_group[g]++;
    names.push_back(name);
  }
  return names;
}

net::MsgPtr MakePush(const InodeId& dir, psw::Fingerprint fp,
                     uint64_t batch_token, uint64_t entries_per_dir) {
  auto req = std::make_shared<PushReq>();
  req->src_server = 0;
  PushReq::PerDir pd;
  pd.dir = dir;
  pd.fp = fp;
  pd.batch_token = batch_token;
  for (uint64_t s = 1; s <= entries_per_dir; ++s) {
    ChangeLogEntry e;
    e.seq = s;
    e.timestamp = 100 + static_cast<int64_t>(s);
    e.op = OpType::kCreate;
    e.name = "f" + std::to_string(s);
    e.entry_type = FileType::kFile;
    e.size_delta = 1;
    pd.entries.push_back(std::move(e));
  }
  req->dirs.push_back(std::move(pd));
  return req;
}

sim::Task<void> CallPush(net::RpcEndpoint* cli, net::NodeId server,
                         net::MsgPtr msg, sim::Simulator* sim,
                         sim::SimTime* finish) {
  net::CallOptions opts;
  opts.timeout = sim::Seconds(10);
  opts.max_attempts = 1;
  auto r = co_await cli->Call(server, std::move(msg), opts);
  if (r.ok() && *finish < sim->Now()) {
    *finish = sim->Now();
  }
}

Row RunOne(int shard_count, const std::vector<std::string>& dir_names,
           uint64_t entries_per_dir) {
  OwnerHarness h(shard_count);
  std::vector<net::MsgPtr> reqs;
  reqs.reserve(dir_names.size());
  for (size_t i = 0; i < dir_names.size(); ++i) {
    const InodeId dir = h.SeedDir(dir_names[i], /*tag=*/1000 + i);
    reqs.push_back(MakePush(dir, FingerprintOf(RootId(), dir_names[i]),
                            /*batch_token=*/1, entries_per_dir));
  }

  // Timed burst: every batch launched at t0, makespan runs to the last ack.
  net::RpcEndpoint source(&h.sim, &h.net);
  const sim::SimTime t0 = h.sim.Now();
  sim::SimTime last_ack = t0;
  for (const net::MsgPtr& req : reqs) {
    sim::Spawn(CallPush(&source, h.rpc.id(), req, &h.sim, &last_ack));
  }
  h.sim.Run();
  const double makespan_secs = sim::ToSeconds(last_ack - t0);
  const uint64_t applied = h.stats.entries_applied;

  // Idempotency coda (not timed): retransmit the first batches verbatim —
  // the committed per-(dir, src) tokens must no-op every one of them.
  for (int i = 0; i < kDupBatches; ++i) {
    sim::SimTime ignored = 0;
    sim::Spawn(CallPush(&source, h.rpc.id(), reqs[static_cast<size_t>(i)],
                        &h.sim, &ignored));
  }
  h.sim.Run();

  Row row;
  row.label = std::to_string(shard_count) +
              (shard_count == 1 ? " shard" : " shards");
  row.sections = reqs.size();
  row.entries = reqs.size() * entries_per_dir;
  row.applied = applied;
  row.deduped = h.stats.push_batches_deduped;
  row.apply_keps = makespan_secs <= 0.0
                       ? 0.0
                       : static_cast<double>(applied) / makespan_secs / 1e3;
  row.drain_ms = makespan_secs * 1e3;
  return row;
}

void PrintRow(const Row& r) {
  std::printf("%-10s %9llu %9llu %9llu %7llu %11.1f %9.3f\n", r.label.c_str(),
              static_cast<unsigned long long>(r.sections),
              static_cast<unsigned long long>(r.entries),
              static_cast<unsigned long long>(r.applied),
              static_cast<unsigned long long>(r.deduped), r.apply_keps,
              r.drain_ms);
}

void AddRow(Report& report, const std::string& key, const Row& r) {
  report.Set(key + ".sections", r.sections);
  report.Set(key + ".entries", r.entries);
  report.Set(key + ".entries_applied", r.applied);
  report.Set(key + ".batches_deduped", r.deduped);
  report.Set(key + ".apply_keps", r.apply_keps, 1);
  report.Set(key + ".drain_ms", r.drain_ms, 3);
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs::bench;
  // Entries per directory section; Scale()-scaled directly (ScaledOps's
  // 500-op floor is meant for workload op counts, not per-section sizes).
  const auto entries_per_dir = static_cast<uint64_t>(
      std::max(8.0, 48.0 * Scale()));
  PrintHeader(
      "Shard scaling: 1 vs 4 fingerprint-group shards (push burst of a "
      "create storm skewed to one 4-core owner, " +
      std::to_string(kDirs) + " dirs x " +
      std::to_string(entries_per_dir) + " entries)");
  std::printf("%-10s %9s %9s %9s %7s %11s %9s\n", "owner", "sections",
              "entries", "applied", "dedup", "apply Keps", "drain(ms)");

  const auto dirs = BalancedDirNames();
  const Row one = RunOne(/*shard_count=*/1, dirs, entries_per_dir);
  PrintRow(one);
  const Row four = RunOne(/*shard_count=*/4, dirs, entries_per_dir);
  PrintRow(four);

  const double speedup =
      one.apply_keps <= 0.0 ? 0.0 : four.apply_keps / one.apply_keps;
  std::printf("\nowner apply throughput scaling: %.2fx (target: >= 2x)\n",
              speedup);
  std::printf("burst makespan: %.3f -> %.3f ms; duplicate batches no-op'd: "
              "%llu + %llu\n",
              one.drain_ms, four.drain_ms,
              static_cast<unsigned long long>(one.deduped),
              static_cast<unsigned long long>(four.deduped));

  Report report;
  report.Set("bench", "shard_scaling");
  report.Set("dirs", kDirs);
  AddRow(report, "one_shard", one);
  AddRow(report, "four_shard", four);
  report.Set("speedup", speedup, 2);
  report.Set("speedup_floor", 2.0, 1);
  report.Write();
  return 0;
}
