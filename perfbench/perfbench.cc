// Wall-clock benchmark of the SwitchFS simulator (built and run by run.py).
//
// One process runs one workload. Each repetition builds a core::Cluster
// (8 servers x 4 cores, in-switch dirty set, read cache off), preloads the
// namespace, and drives 256 simulated clients through MetadataService in a
// closed loop with one op in flight per client. The clients are coroutines
// on the single simulator thread. The benchmark steps the simulator itself, so
// it counts every event and times every phase from outside the program; no
// end-to-end metric is read from the virtual clock.
//
// Phases of one repetition:
//   setup     cluster construction, preload, 256 warm clients   (setup_s)
//   loaded    the closed loop. The measured window runs from the end of
//             warm-up (the first tenth of the ops) until the simulator is
//             quiescent, so deferred pushes count against the run.
//   unloaded  client 0 issues kUnloadedOps more ops back to back, each timed
//             from the call to its completion with nothing else in flight
//   readback  StatDir and a paged Readdir of every directory, checked
//             against the generator's model; the change-log backlog must be 0
//   teardown  clients and cluster destroyed
//
// Repetitions replay the same seed on a fresh cluster, so every virtual-clock
// count must repeat exactly (the determinism fingerprint checks it). A run
// repeats them until --seconds have passed, at least kMinReps times, and
// reports medians. With --trace 1, repetitions alternate untraced and traced;
// traced ones record spans and give the per-layer metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--ops N] [--trace-out FILE]
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 0 only when the run is
// correct.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workload.h"
#include "src/common/histogram.h"
#include "src/core/cluster.h"
#include "src/kv/kvstore.h"

namespace perfbench {
namespace {

namespace kv = switchfs::kv;
namespace net = switchfs::net;
namespace psw = switchfs::psw;
using switchfs::Histogram;

constexpr int kUnloadedOps = 5000;
constexpr int kReadbackWorkers = 16;
constexpr int kMinReps = 3;
constexpr int kMinTraceReps = 2;  // of each kind in a traced run

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Resident set size right now, in KB.
double CurrentRssKb() {
  long size = 0;
  long resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0.0;
  }
  if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) {
    resident = 0;
  }
  std::fclose(f);
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         1024.0;
}

// Peak resident set size of this process, in MB (ru_maxrss is in KB).
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double part, double whole) { return whole == 0 ? 0.0 : part / whole; }

// ---- machine speed ---------------------------------------------------------

// The VM shares its host, and other tenants can slow every instruction by
// tens of percent for minutes at a time. A fixed reference workload that
// uses none of the program is timed before and after the timed phases of
// every repetition: string-keyed lookups in a 50k-entry std::map, which miss
// the caches the way the simulator's KV and event queue do. End-to-end times
// are divided by the repetition's slowdown (its median reference time over
// kReferenceNs), so they read as on a machine where the reference takes
// kReferenceNs: an idle 4-vCPU Xeon VM.
constexpr double kReferenceNs = 45.0e6;

int64_t ReferenceNs() {
  struct Fixture {
    std::vector<std::string> keys;
    std::map<std::string, uint64_t> tree;
  };
  static const Fixture fixture = [] {
    Fixture f;
    std::mt19937_64 rng(12345);
    f.keys.resize(50000);
    for (size_t i = 0; i < f.keys.size(); ++i) {
      f.keys[i] = "reference/" + std::to_string(rng() % 1000000007ULL);
      f.tree.emplace(f.keys[i], i);
    }
    return f;
  }();
  const std::vector<std::string>& keys = fixture.keys;
  const int64_t t0 = WallNs();
  uint64_t sum = 0;
  for (size_t i = 0; i < 60000; ++i) {
    const auto it = fixture.tree.find(keys[(i * 7919) % keys.size()]);
    sum += it->second;
  }
  const int64_t t1 = WallNs();
  if (sum == 0) {  // uses the lookups, so they cannot be optimized away
    std::fprintf(stderr, "reference lookups found nothing\n");
  }
  return t1 - t0;
}

// ---- isolated layer timings ------------------------------------------------

// A bare Simulator running no-op callbacks through ScheduleAt/Step with
// `depth` events queued: ns per schedule+step pair.
double EngineNsPerEvent(size_t depth, uint64_t events, uint64_t seed) {
  sim::Simulator s;
  Rng rng(seed);
  for (size_t i = 0; i < depth; ++i) {
    s.ScheduleAt(static_cast<sim::SimTime>(rng.NextBelow(1000000)), [] {});
  }
  const int64_t t0 = WallNs();
  for (uint64_t i = 0; i < events; ++i) {
    s.ScheduleAt(s.Now() + 1 + static_cast<sim::SimTime>(rng.NextBelow(1000000)), [] {});
    s.Step();
  }
  return static_cast<double>(WallNs() - t0) / static_cast<double>(events);
}

struct KvTimings {
  double get_ns = 0;
  double put_ns = 0;
  double scan_ns_per_entry = 0;
};

// kv::KvStore Get, Put and ScanPrefix on the rows of one server, copied into
// a fresh store after the run.
KvTimings TimeKv(const core::SwitchServer& server, uint64_t seed) {
  kv::KvStore store;
  std::vector<std::string> keys;
  std::vector<std::string> values;
  server.kv_for_test().ScanPrefix("", [&](const std::string& k, const std::string& v) {
    store.Put(k, v);
    keys.push_back(k);
    values.push_back(v);
    return true;
  });
  KvTimings t;
  if (keys.empty()) {
    return t;
  }
  constexpr size_t kOps = 200000;
  Rng rng(seed);
  std::vector<uint32_t> picks(kOps);
  for (uint32_t& p : picks) {
    p = static_cast<uint32_t>(rng.NextBelow(keys.size()));
  }
  size_t found = 0;
  int64_t t0 = WallNs();
  for (uint32_t p : picks) {
    found += store.Get(keys[p]).has_value() ? 1 : 0;
  }
  t.get_ns = static_cast<double>(WallNs() - t0) / kOps;
  if (found != kOps) {
    std::fprintf(stderr, "kv: %zu of %zu copied keys not found\n", kOps - found, kOps);
  }
  t0 = WallNs();
  for (uint32_t p : picks) {
    store.Put(keys[p], values[p]);
  }
  t.put_ns = static_cast<double>(WallNs() - t0) / kOps;
  // Entry lists are "e" + directory id (32 bytes) + name; keys arrive sorted.
  std::vector<std::string> prefixes;
  for (const std::string& k : keys) {
    if (k.size() > 33 && k[0] == 'e' &&
        (prefixes.empty() || k.compare(0, 33, prefixes.back()) != 0)) {
      prefixes.push_back(k.substr(0, 33));
    }
  }
  uint64_t visited = 0;
  t0 = WallNs();
  while (!prefixes.empty() && visited < kOps) {
    for (const std::string& prefix : prefixes) {
      store.ScanPrefix(prefix, [&visited](const std::string&, const std::string&) {
        ++visited;
        return true;
      });
    }
  }
  t.scan_ns_per_entry =
      visited == 0 ? 0.0 : static_cast<double>(WallNs() - t0) / static_cast<double>(visited);
  return t;
}

// ---- one repetition --------------------------------------------------------

using Clients = std::vector<std::unique_ptr<core::SwitchFsClient>>;

core::ClusterConfig MakeConfig() {
  core::ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.cores_per_server = 4;
  cfg.tracker = core::TrackerMode::kSwitch;
  cfg.seed = 42;  // network jitter; the workload seed drives only the ops
  // Dirty-set sizing as in the figure benches (bench::MakeSwitchFs).
  cfg.switch_config.dirty_set.num_stages = 10;
  cfg.switch_config.dirty_set.registers_per_stage = 1 << 14;
  return cfg;
}

void Preload(core::Cluster& cluster, const Generator& gen, const Workload& w) {
  for (uint32_t d = 0; d < gen.dir_count(); ++d) {
    const std::string& dir = gen.dir_path(d);
    cluster.PreloadMkdir(dir);
    for (uint32_t i = 0; i < w.files_per_dir; ++i) {
      cluster.PreloadFile(dir + "/f" + std::to_string(i));
    }
  }
}

// Public counters, read at phase boundaries.
struct Counters {
  net::Network::Stats net;
  uint64_t retransmits = 0;
  psw::DataPlane::Stats dp;
  core::ServerStats server;
  std::vector<sim::SimTime> busy;  // per server
  uint64_t kv_gets = 0;
  uint64_t kv_puts = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

Counters Snapshot(core::Cluster& cluster, const Clients& clients) {
  Counters c;
  c.net = cluster.network().stats();
  c.dp = cluster.data_plane()->stats();
  c.server = cluster.TotalStats();
  for (uint32_t i = 0; i < cluster.ServerCount(); ++i) {
    core::SwitchServer& s = cluster.server(i);
    c.busy.push_back(s.cpu().busy_time());
    c.kv_gets += s.kv_for_test().gets();
    c.kv_puts += s.kv_for_test().puts();
  }
  for (const auto& cl : clients) {
    c.retransmits += cl->rpc().retransmits_sent();
    c.cache_hits += cl->cache().hits;
    c.cache_misses += cl->cache().misses;
  }
  return c;
}

// Steps until the event queue is empty, then lets the simulator drain work
// parked in shard run queues (none is expected once the queue is empty).
uint64_t Drain(sim::Simulator& s, Tracer* tracer) {
  uint64_t steps = 0;
  if (tracer != nullptr) {
    while (tracer->Step(s)) {
      ++steps;
    }
  } else {
    while (s.Step()) {
      ++steps;
    }
  }
  s.RunWhileWorkPending();
  return steps;
}

void ReportFailure(const Op& op, const Status& s) {
  static int reported = 0;
  if (reported++ < 10) {
    std::fprintf(stderr, "op failed: %s %s -> %s\n", kClassNames[op.cls], op.path.c_str(),
                 s.ToString().c_str());
  }
}

struct LoadState {
  uint64_t total = 0;
  uint64_t warmup = 0;
  uint64_t issued = 0;
  uint64_t failed = 0;
  int64_t wall_start_ns = 0;
  double rss_start_kb = 0;
  sim::SimTime sim_start = 0;
  sim::SimTime sim_end = 0;
  Histogram sim_latency;  // virtual ns of the measured ops
  Tracer* tracer = nullptr;
};

sim::Task<void> ClientLoop(sim::Simulator* s, core::SwitchFsClient* cl, Generator* gen,
                           int c, LoadState* st) {
  while (st->issued < st->total) {
    const Op op = gen->Next(c);
    const uint64_t index = st->issued++;
    if (index == st->warmup) {
      st->wall_start_ns = WallNs();
      st->rss_start_kb = CurrentRssKb();
      st->sim_start = s->Now();
    }
    const sim::SimTime v0 = s->Now();
    const int64_t w0 = st->tracer != nullptr ? WallNs() : 0;
    const Status status = co_await Execute(*cl, op, *gen, c);
    const sim::SimTime v1 = s->Now();
    if (!status.ok()) {
      ReportFailure(op, status);
      ++st->failed;
    }
    if (index >= st->warmup) {
      st->sim_latency.Record(v1 - v0);
      st->sim_end = std::max(st->sim_end, v1);
    }
    if (st->tracer != nullptr) {
      st->tracer->AddOp(op.cls, kClientTidBase + c, w0, WallNs(), v0, v1, status);
    }
  }
}

struct OneOp {
  bool done = false;
  Status status;
};

sim::Task<void> RunOne(core::SwitchFsClient* cl, Op op, Generator* gen, int c,
                       OneOp* out) {
  out->status = co_await Execute(*cl, op, *gen, c);
  out->done = true;
}

struct Readback {
  uint32_t next = 0;
  uint32_t checked = 0;
  uint32_t mismatches = 0;
};

sim::Task<void> ReadbackWorker(core::SwitchFsClient* cl, const Generator* gen,
                               Readback* rb) {
  while (rb->next < gen->dir_count()) {
    const uint32_t d = rb->next++;
    const std::string& path = gen->dir_path(d);
    const std::vector<std::string> want = gen->ExpectedNames(d);
    auto attr = co_await cl->StatDir(path);
    bool ok = attr.ok() && attr->size == want.size();
    auto listing = co_await cl->Readdir(path);
    if (listing.ok()) {
      std::vector<std::string> got;
      got.reserve(listing->size());
      for (const core::DirEntry& e : *listing) {
        got.push_back(e.name);
      }
      std::sort(got.begin(), got.end());
      ok = ok && got == want;
    } else {
      ok = false;
    }
    if (!ok && rb->mismatches++ < 5) {
      std::fprintf(stderr, "readback: %s: statdir %s size %llu, readdir %s, model %zu\n",
                   path.c_str(), attr.status().ToString().c_str(),
                   attr.ok() ? static_cast<unsigned long long>(attr->size) : 0ULL,
                   listing.status().ToString().c_str(), want.size());
    }
    ++rb->checked;
  }
}

struct RepResult {
  bool traced = false;
  double slowdown = 1;  // reference time over kReferenceNs
  double ctor_s = 0;
  double preload_s = 0;
  double clients_s = 0;
  double setup_s = 0;
  double readback_s = 0;
  double teardown_s = 0;
  uint64_t loaded_ops = 0;
  uint64_t window_ops = 0;
  double window_s = 0;
  double wall_kops = 0;
  uint64_t loaded_steps = 0;
  std::vector<double> op_wall_us;                  // unloaded phase, every op
  std::vector<double> class_wall_us[kNumClasses];  // traced: from op spans
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint32_t readback_mismatches = 0;
  size_t backlog_end = 0;
  size_t parked_end = 0;
  std::string fingerprint;
  std::map<std::string, double> layer;  // per-layer values of this repetition
  std::vector<Span> spans;              // traced only
};

// Per-layer values of the loaded phase from the public counters. Every one
// is a virtual-clock count that repeats exactly across repetitions.
void LayerCounts(core::Cluster& cluster, const Clients& clients, const Counters& before,
                 const Counters& after, sim::SimTime sim_elapsed, const LoadState& st,
                 RepResult* r) {
  const double ops = static_cast<double>(r->loaded_ops);
  auto per_op = [ops](uint64_t after_v, uint64_t before_v) {
    return static_cast<double>(after_v - before_v) / ops;
  };
  auto& L = r->layer;
  L["sim.events_per_op"] = static_cast<double>(r->loaded_steps) / ops;
  L["net.packets_per_op"] = per_op(after.net.packets_sent, before.net.packets_sent);
  L["net.delivered_per_op"] = per_op(after.net.packets_delivered, before.net.packets_delivered);
  L["net.retransmits_per_kop"] = 1e3 * per_op(after.retransmits, before.retransmits);
  L["net.dropped"] = static_cast<double>(cluster.network().stats().packets_dropped);
  L["pswitch.inserts_per_op"] = per_op(after.dp.inserts, before.dp.inserts);
  L["pswitch.queries_per_op"] = per_op(after.dp.queries, before.dp.queries);
  L["pswitch.removes_per_op"] = per_op(after.dp.removes, before.dp.removes);
  L["pswitch.multicast_per_op"] = per_op(after.dp.multicast_packets, before.dp.multicast_packets);
  L["pswitch.insert_fallback_ratio"] =
      Ratio(per_op(after.dp.insert_fallbacks, before.dp.insert_fallbacks),
            per_op(after.dp.inserts, before.dp.inserts));
  const core::ServerStats& a = after.server;
  const core::ServerStats& b = before.server;
  L["core.server.reqs_per_op"] = per_op(a.ops, b.ops);
  L["core.server.push_fill"] = Ratio(per_op(a.push_entries_sent, b.push_entries_sent),
                                     per_op(a.pushes_sent, b.pushes_sent));
  L["core.server.pushes_per_kop"] = 1e3 * per_op(a.pushes_sent, b.pushes_sent);
  L["core.server.aggregations_per_kop"] = 1e3 * per_op(a.aggregations, b.aggregations);
  L["core.server.agg_retry_ratio"] =
      Ratio(per_op(a.agg_retries, b.agg_retries), per_op(a.aggregations, b.aggregations));
  const double applied = per_op(a.entries_applied, b.entries_applied);
  const double deduped = per_op(a.entries_deduped, b.entries_deduped);
  L["core.server.dedup_ratio"] = Ratio(deduped, applied + deduped);
  const core::ServerStats end = cluster.TotalStats();
  L["core.server.fallbacks"] = static_cast<double>(end.fallbacks);
  L["core.server.push_failures"] = static_cast<double>(end.push_failures);
  L["core.server.stale_cache_bounces"] = static_cast<double>(end.stale_cache_bounces);
  double util_max = 0;
  for (size_t i = 0; i < after.busy.size(); ++i) {
    util_max = std::max(
        util_max, Ratio(static_cast<double>(after.busy[i] - before.busy[i]),
                        static_cast<double>(sim_elapsed) * cluster.config().cores_per_server));
  }
  L["core.server.cpu_util_max"] = 100.0 * util_max;
  L["core.server.backlog_end"] = static_cast<double>(r->backlog_end);
  size_t cache_entries = 0;
  for (const auto& cl : clients) {
    cache_entries += cl->cache().size();
  }
  L["core.client.cache_entries"] = static_cast<double>(cache_entries);
  const double hits = per_op(after.cache_hits, before.cache_hits);
  L["core.client.cache_hit_ratio"] =
      Ratio(hits, hits + per_op(after.cache_misses, before.cache_misses));
  const double sim_window_ns = static_cast<double>(st.sim_end - st.sim_start);
  L["core.client.sim_kops"] =
      sim_window_ns <= 0 ? 0.0 : static_cast<double>(r->window_ops) * 1e6 / sim_window_ns;
  L["core.client.sim_p50_us"] = static_cast<double>(st.sim_latency.Percentile(0.5)) / 1e3;
  L["core.client.sim_p99_us"] = static_cast<double>(st.sim_latency.Percentile(0.99)) / 1e3;
  L["core.client.loaded_ops"] = ops;
  L["kv.gets_per_op"] = per_op(after.kv_gets, before.kv_gets);
  L["kv.puts_per_op"] = per_op(after.kv_puts, before.kv_puts);
  size_t rows = 0;
  for (uint32_t i = 0; i < cluster.ServerCount(); ++i) {
    rows += cluster.server(i).KvSize();
  }
  L["kv.rows"] = static_cast<double>(rows);
}

RepResult RunRep(const Workload& w, uint64_t seed, bool traced, int64_t origin) {
  RepResult r;
  r.traced = traced;
  Generator gen(w, seed);
  std::optional<Tracer> tracer;
  std::optional<TimedSwitch> timed;

  std::vector<double> reference_ns{static_cast<double>(ReferenceNs())};

  // -- setup
  const int64_t t0 = WallNs();
  auto cluster = std::make_unique<core::Cluster>(MakeConfig());
  const int64_t t1 = WallNs();
  Preload(*cluster, gen, w);
  const int64_t t2 = WallNs();
  Clients clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(cluster->MakeClient());
    cluster->WarmClient(*clients.back());
  }
  const int64_t t3 = WallNs();
  r.ctor_s = Seconds(t1 - t0);
  r.preload_s = Seconds(t2 - t1);
  r.clients_s = Seconds(t3 - t2);
  r.setup_s = Seconds(t3 - t0);

  sim::Simulator& s = cluster->sim();
  if (traced) {
    tracer.emplace(origin, cluster->data_plane(), cluster->config().switch_config.num_pipes);
    timed.emplace(cluster->data_plane(), &*tracer);
    cluster->network().SetSwitch(&*timed);
    tracer->AddPhase("ctor", t0, t1);
    tracer->AddPhase("preload", t1, t2);
    tracer->AddPhase("clients", t2, t3);
  }
  Tracer* tr = traced ? &*tracer : nullptr;

  // -- loaded
  LoadState st;
  st.total = w.ops;
  st.warmup = w.ops / 10;
  st.tracer = tr;
  const Counters before = Snapshot(*cluster, clients);
  const sim::SimTime sim_before = s.Now();
  const int64_t l0 = WallNs();
  for (int c = 0; c < kClients; ++c) {
    sim::Spawn(ClientLoop(&s, clients[c].get(), &gen, c, &st));
  }
  r.loaded_steps = Drain(s, tr);
  const int64_t l1 = WallNs();
  const double rss_end_kb = CurrentRssKb();
  const Counters after = Snapshot(*cluster, clients);
  reference_ns.push_back(static_cast<double>(ReferenceNs()));
  // Up to the last completion: the drain after it may run long idle timers.
  const sim::SimTime sim_elapsed = st.sim_end - sim_before;
  r.loaded_ops = st.issued;
  r.window_ops = st.issued - st.warmup;
  r.window_s = Seconds(l1 - st.wall_start_ns);
  r.wall_kops = static_cast<double>(r.window_ops) / r.window_s / 1e3;
  r.attempted = st.issued;
  r.failed = st.failed;

  // -- unloaded
  uint64_t steps = r.loaded_steps;
  core::SwitchFsClient& solo = *clients[0];
  const int64_t u0 = WallNs();
  for (int i = 0; i < kUnloadedOps; ++i) {
    Op op = gen.Next(0);
    const OpClass cls = op.cls;
    OneOp one;
    const sim::SimTime v0 = s.Now();
    const int64_t w0 = WallNs();
    sim::Spawn(RunOne(&solo, std::move(op), &gen, 0, &one));
    while (!one.done && s.Step()) {
      ++steps;
    }
    const int64_t w1 = WallNs();
    if (!one.done) {
      std::fprintf(stderr, "unloaded op %s never completed\n", kClassNames[cls]);
      std::exit(3);
    }
    ++r.attempted;
    if (!one.status.ok()) {
      ++r.failed;
    }
    r.op_wall_us.push_back(static_cast<double>(w1 - w0) / 1e3);
    if (tr != nullptr) {
      tr->AddOp(cls, kUnloadedTid, w0, w1, v0, s.Now(), one.status);
    }
    steps += Drain(s, nullptr);  // deferred work of this op, untimed
  }
  const int64_t u1 = WallNs();
  reference_ns.push_back(static_cast<double>(ReferenceNs()));
  r.slowdown = Median(reference_ns) / kReferenceNs;

  // -- readback
  const int64_t b0 = WallNs();
  Clients checkers;
  for (int i = 0; i < kReadbackWorkers; ++i) {
    checkers.push_back(cluster->MakeClient());
    cluster->WarmClient(*checkers.back());
  }
  Readback rb;
  for (auto& ck : checkers) {
    sim::Spawn(ReadbackWorker(ck.get(), &gen, &rb));
  }
  steps += Drain(s, nullptr);
  const int64_t b1 = WallNs();
  r.readback_s = Seconds(b1 - b0);
  r.readback_mismatches = rb.mismatches + (rb.checked == gen.dir_count() ? 0 : 1);
  r.backlog_end = cluster->TotalPendingChangeLogEntries();
  r.parked_end = s.pending_source_work();

  LayerCounts(*cluster, clients, before, after, sim_elapsed, st, &r);
  r.layer["core.client.stale_listings"] = static_cast<double>(gen.stale_listings);
  r.layer["mem.rss_kb_per_kop"] =
      (rss_end_kb - st.rss_start_kb) * 1e3 / static_cast<double>(r.window_ops);
  if (tr == nullptr) {
    r.layer["sim.ns_per_event"] =
        static_cast<double>(l1 - l0) / static_cast<double>(r.loaded_steps);
  } else {
    auto& L = r.layer;
    L["sim.step_p99_ns"] = static_cast<double>(tr->step_ns.Percentile(0.99));
    L["sim.step_self_ns"] =
        static_cast<double>(tr->step_self_ns_total) / static_cast<double>(tr->steps());
    L["pswitch.process_ns"] = Ratio(static_cast<double>(tr->process_ns_total),
                                    static_cast<double>(tr->process_calls));
    L["pswitch.process_share"] =
        100.0 * Ratio(static_cast<double>(tr->process_ns_total), static_cast<double>(l1 - l0));
    L["pswitch.dirty_peak"] = static_cast<double>(tr->dirty_peak);
    for (const Span& sp : tr->spans) {
      if (sp.kind != SpanKind::kOp || sp.tid != kUnloadedTid) {
        continue;
      }
      for (int c = 0; c < kNumClasses; ++c) {
        if (std::strcmp(sp.name, kClassNames[c]) == 0) {
          r.class_wall_us[c].push_back(static_cast<double>(sp.dur_ns) / 1e3);
        }
      }
    }
    const KvTimings kvt = TimeKv(cluster->server(0), seed);
    L["kv.get_ns"] = kvt.get_ns;
    L["kv.put_ns"] = kvt.put_ns;
    L["kv.scan_ns_per_entry"] = kvt.scan_ns_per_entry;
  }

  char fp[256];
  std::snprintf(fp, sizeof(fp), "sim_time_ns=%lld steps=%llu packets=%llu sim_kops=%.6f",
                static_cast<long long>(s.Now()), static_cast<unsigned long long>(steps),
                static_cast<unsigned long long>(cluster->network().stats().packets_sent),
                r.layer.at("core.client.sim_kops"));
  r.fingerprint = fp;

  // -- teardown
  const int64_t d0 = WallNs();
  checkers.clear();
  clients.clear();
  cluster.reset();
  const int64_t d1 = WallNs();
  r.teardown_s = Seconds(d1 - d0);
  if (tr != nullptr) {
    tr->AddPhase("loaded", l0, l1);
    tr->AddPhase("unloaded", u0, u1);
    tr->AddPhase("readback", b0, b1);
    tr->AddPhase("teardown", d0, d1);
    r.spans = std::move(tr->spans);
  }
  return r;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), v,
                m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

// Per-layer metrics that are virtual-clock counts, with their units.
constexpr std::pair<const char*, const char*> kLayerCounts[] = {
    {"sim.events_per_op", "count"},
    {"net.packets_per_op", "count"},
    {"net.delivered_per_op", "count"},
    {"net.retransmits_per_kop", "count"},
    {"net.dropped", "count"},
    {"pswitch.inserts_per_op", "count"},
    {"pswitch.queries_per_op", "count"},
    {"pswitch.removes_per_op", "count"},
    {"pswitch.multicast_per_op", "count"},
    {"pswitch.insert_fallback_ratio", "ratio"},
    {"core.server.reqs_per_op", "count"},
    {"core.server.push_fill", "count"},
    {"core.server.pushes_per_kop", "count"},
    {"core.server.aggregations_per_kop", "count"},
    {"core.server.agg_retry_ratio", "ratio"},
    {"core.server.dedup_ratio", "ratio"},
    {"core.server.fallbacks", "count"},
    {"core.server.push_failures", "count"},
    {"core.server.stale_cache_bounces", "count"},
    {"core.server.cpu_util_max", "%"},
    {"core.server.backlog_end", "count"},
    {"core.client.cache_entries", "count"},
    {"core.client.cache_hit_ratio", "ratio"},
    {"core.client.sim_kops", "Kops/s"},
    {"core.client.sim_p50_us", "us"},
    {"core.client.sim_p99_us", "us"},
    {"core.client.loaded_ops", "count"},
    {"core.client.stale_listings", "count"},
    {"kv.gets_per_op", "count"},
    {"kv.puts_per_op", "count"},
    {"kv.rows", "count"},
};

using RepSet = std::vector<const RepResult*>;

template <typename F>
double MedianOf(const RepSet& set, F field) {
  std::vector<double> v;
  for (const RepResult* r : set) {
    v.push_back(field(*r));
  }
  return Median(std::move(v));
}

double LayerMedian(const RepSet& set, const std::string& name) {
  return MedianOf(set, [&name](const RepResult& r) { return r.layer.at(name); });
}

double Kops(const RepResult& r) { return r.wall_kops; }

// Every metric is a median across repetitions, so one repetition that shared
// the machine with a burst of outside load does not move it.
std::vector<Metric> EndToEndMetrics(const RepSet& plain) {
  std::printf("loaded ops per repetition %llu (window %llu), repetitions %zu, "
              "op_wall samples %zu per repetition\n",
              static_cast<unsigned long long>(plain[0]->loaded_ops),
              static_cast<unsigned long long>(plain[0]->window_ops), plain.size(),
              plain[0]->op_wall_us.size());
  return {
      {"wall_kops", "Kops/s",
       MedianOf(plain, [](const RepResult& r) { return r.wall_kops * r.slowdown; })},
      {"op_wall_p50_us", "us",
       MedianOf(plain,
                [](const RepResult& r) { return Percentile(r.op_wall_us, 0.5) / r.slowdown; })},
      {"op_wall_p99_us", "us",
       MedianOf(plain,
                [](const RepResult& r) { return Percentile(r.op_wall_us, 0.99) / r.slowdown; })},
      {"setup_s", "s",
       MedianOf(plain, [](const RepResult& r) { return r.setup_s / r.slowdown; })},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
}

std::vector<Metric> LayerMetrics(const RepSet& plain, const RepSet& traced, uint64_t seed) {
  std::vector<Metric> m;
  m.push_back({"sim.ns_per_event", "ns", LayerMedian(plain, "sim.ns_per_event")});
  m.push_back({"sim.step_p99_ns", "ns", LayerMedian(traced, "sim.step_p99_ns")});
  m.push_back({"sim.step_self_ns", "ns", LayerMedian(traced, "sim.step_self_ns")});
  m.push_back({"sim.engine_ns_per_event_1k", "ns", EngineNsPerEvent(1 << 10, 2000000, seed)});
  m.push_back({"sim.engine_ns_per_event_64k", "ns", EngineNsPerEvent(1 << 16, 2000000, seed)});
  for (const auto& [name, unit] : kLayerCounts) {
    m.push_back({name, unit, plain[0]->layer.at(name)});
  }
  m.push_back({"pswitch.process_ns", "ns", LayerMedian(traced, "pswitch.process_ns")});
  m.push_back({"pswitch.process_share", "%", LayerMedian(traced, "pswitch.process_share")});
  double dirty_peak = 0;
  for (const RepResult* r : traced) {
    dirty_peak = std::max(dirty_peak, r->layer.at("pswitch.dirty_peak"));
  }
  m.push_back({"pswitch.dirty_peak", "count", dirty_peak});
  size_t samples_n = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    std::vector<double> samples;
    for (const RepResult* r : traced) {
      samples.insert(samples.end(), r->class_wall_us[c].begin(), r->class_wall_us[c].end());
    }
    samples_n += samples.size();
    const std::string base = std::string("core.client.") + kClassNames[c];
    m.push_back({base + ".wall_p50_us", "us", Percentile(samples, 0.5)});
    m.push_back({base + ".wall_p99_us", "us", Percentile(samples, 0.99)});
  }
  m.push_back({"core.client.wall_samples", "count", static_cast<double>(samples_n)});
  m.push_back({"core.cluster.ctor_s", "s", MedianOf(plain, [](const RepResult& r) { return r.ctor_s; })});
  m.push_back({"core.cluster.preload_s", "s",
               MedianOf(plain, [](const RepResult& r) { return r.preload_s; })});
  m.push_back({"core.cluster.clients_s", "s",
               MedianOf(plain, [](const RepResult& r) { return r.clients_s; })});
  m.push_back({"core.cluster.readback_s", "s",
               MedianOf(plain, [](const RepResult& r) { return r.readback_s; })});
  m.push_back({"core.cluster.teardown_s", "s",
               MedianOf(plain, [](const RepResult& r) { return r.teardown_s; })});
  m.push_back({"kv.get_ns", "ns", LayerMedian(traced, "kv.get_ns")});
  m.push_back({"kv.put_ns", "ns", LayerMedian(traced, "kv.put_ns")});
  m.push_back({"kv.scan_ns_per_entry", "ns", LayerMedian(traced, "kv.scan_ns_per_entry")});
  m.push_back({"mem.rss_kb_per_kop", "KB", LayerMedian(plain, "mem.rss_kb_per_kop")});
  const double traced_kops = MedianOf(traced, Kops);
  m.push_back({"trace.overhead_pct", "%",
               traced_kops <= 0 ? 0.0 : 100.0 * (MedianOf(plain, Kops) / traced_kops - 1.0)});
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  uint64_t ops = 0;  // 0 = the workload's default
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--ops") {
      a->ops = std::strtoull(v, nullptr, 10);
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--ops N] [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      found = &w;
    }
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Workload w = *found;
  if (args.ops > 0) {
    w.ops = std::max<uint64_t>(args.ops, kClients);
  }

  const int64_t origin = WallNs();
  std::vector<RepResult> reps;
  int plain_n = 0;
  int traced_n = 0;
  std::vector<Span> last_spans;
  for (int rep = 0;; ++rep) {
    const bool traced = args.trace == 1 && rep % 2 == 1;
    RepResult r = RunRep(w, args.seed, traced, origin);
    (traced ? traced_n : plain_n)++;
    std::printf(
        "rep %d (%s): slowdown %.3f | setup %.3f s (ctor %.3f, preload %.3f, clients %.3f) | "
        "loaded %llu ops, window %llu ops in %.3f s = %.2f Kops/s, %llu events | "
        "unloaded %zu ops p50 %.2f us p99 %.2f us | readback %.3f s | teardown %.3f s\n",
        rep, traced ? "traced" : "untraced", r.slowdown, r.setup_s, r.ctor_s, r.preload_s, r.clients_s,
        static_cast<unsigned long long>(r.loaded_ops),
        static_cast<unsigned long long>(r.window_ops), r.window_s, r.wall_kops,
        static_cast<unsigned long long>(r.loaded_steps), r.op_wall_us.size(),
        Percentile(r.op_wall_us, 0.5), Percentile(r.op_wall_us, 0.99), r.readback_s,
        r.teardown_s);
    std::fflush(stdout);
    if (traced) {
      last_spans = std::move(r.spans);
    }
    reps.push_back(std::move(r));
    const bool enough = args.trace == 0
                            ? plain_n >= kMinReps
                            : plain_n >= kMinTraceReps && traced_n >= kMinTraceReps;
    if (enough && Seconds(WallNs() - origin) >= args.seconds) {
      break;
    }
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  RepSet plain;
  RepSet traced;
  for (const RepResult& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.readback_mismatches != 0 || r.backlog_end != 0 || r.parked_end != 0) {
      std::fprintf(stderr, "readback mismatches %u, backlog %zu, parked work %zu\n",
                   r.readback_mismatches, r.backlog_end, r.parked_end);
      correct = false;
    }
    if (r.fingerprint != reps[0].fingerprint) {
      std::fprintf(stderr, "repetitions diverged: %s vs %s\n", r.fingerprint.c_str(),
                   reps[0].fingerprint.c_str());
      correct = false;
    }
    (r.traced ? traced : plain).push_back(&r);
  }
  correct = correct && failed == 0;
  std::printf("fingerprint workload=%s seed=%llu %s\n", w.name,
              static_cast<unsigned long long>(args.seed), reps[0].fingerprint.c_str());

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEndMetrics(plain);
  } else {
    metrics = LayerMetrics(plain, traced, args.seed);
    if (!args.trace_out.empty()) {
      WriteChromeTrace(args.trace_out, last_spans);
      std::printf("trace: %zu spans -> %s\n", last_spans.size(), args.trace_out.c_str());
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
