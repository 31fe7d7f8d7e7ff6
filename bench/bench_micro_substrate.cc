// Substrate microbenchmarks (google-benchmark, wall-clock): simulator event
// throughput, coroutine round-trips, KV store (short keys, and schema-shaped
// inode keys spread over a cluster's stores), WAL, change-log append and
// compacted-state maintenance. These bound how much simulated work the
// figure benches can push per host second.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/change_log.h"
#include "src/kv/kvstore.h"
#include "src/kv/wal.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs {
namespace {

void BM_SimulatorEventDispatch(benchmark::State& state) {
  sim::Simulator s;
  uint64_t counter = 0;
  for (auto _ : state) {
    s.ScheduleAfter(1, [&counter] { counter++; });
    s.Run();
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_SimulatorEventDispatch);

// The RPC shape: each iteration schedules one short event and one 2 ms
// timeout that outlives it (a reply and its attempt's timer), then steps
// until the short event has run. At 150 ns per iteration about 13k timeouts
// are pending, the event-queue depth of a loaded perfbench run.
void BM_SimulatorEventBesideTimeouts(benchmark::State& state) {
  constexpr sim::SimTime kTimeout = sim::Milliseconds(2);
  constexpr sim::SimTime kShort = 150;
  sim::Simulator s;
  uint64_t timeouts = 0;
  bool ran = false;
  auto iteration = [&] {
    ran = false;
    s.ScheduleAfter(kShort, [&ran] { ran = true; });
    s.ScheduleTimer(kTimeout, [&timeouts] { timeouts++; });
    while (!ran) {
      s.Step();
    }
  };
  for (sim::SimTime t = 0; t < kTimeout; t += kShort) {
    iteration();  // fill to the steady-state depth before timing
  }
  for (auto _ : state) {
    iteration();
  }
  benchmark::DoNotOptimize(timeouts);
}
BENCHMARK(BM_SimulatorEventBesideTimeouts);

void BM_CoroutineDelayRoundTrip(benchmark::State& state) {
  sim::Simulator s;
  for (auto _ : state) {
    sim::Spawn([](sim::Simulator* sp) -> sim::Task<void> {
      co_await sim::Delay(sp, 1);
    }(&s));
    s.Run();
  }
}
BENCHMARK(BM_CoroutineDelayRoundTrip);

void BM_MutexHandoffChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    sim::Mutex mu(&s);
    for (int i = 0; i < 64; ++i) {
      sim::Spawn([](sim::Simulator* sp, sim::Mutex* m) -> sim::Task<void> {
        auto g = co_await m->Acquire();
        co_await sim::Delay(sp, 1);
      }(&s, &mu));
    }
    s.Run();
  }
}
BENCHMARK(BM_MutexHandoffChain);

void BM_KvStorePut(benchmark::State& state) {
  kv::KvStore store;
  uint64_t i = 0;
  for (auto _ : state) {
    store.Put("key" + std::to_string(i++ & 0xffff), "value");
  }
  benchmark::DoNotOptimize(store.size());
}
BENCHMARK(BM_KvStorePut);

void BM_KvStoreGet(benchmark::State& state) {
  kv::KvStore store;
  for (int i = 0; i < 1 << 16; ++i) {
    store.Put("key" + std::to_string(i), "value");
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get("key" + std::to_string(i++ & 0xffff)));
  }
}
BENCHMARK(BM_KvStoreGet);

// Schema-shaped rows as a loaded cluster holds them: inode keys "i" + a
// 32-byte directory id + "fNN" for 2048 directories x 64 names, spread over
// 32 stores (8 servers x 4 shards), and 64k lookups drawn 80/20 over the
// directories (80% of them go to the first 20%).
struct InodeKeyRows {
  static constexpr uint32_t kDirs = 2048;
  static constexpr uint32_t kNames = 64;
  static constexpr uint32_t kStores = 32;
  static constexpr uint32_t kPicks = 1 << 16;

  std::vector<kv::KvStore> stores = std::vector<kv::KvStore>(kStores);
  std::vector<std::string> keys;
  std::vector<uint32_t> store_of;  // parallel to `keys`
  std::vector<uint32_t> picks;     // indices into `keys`
  const std::string value = std::string(48, 'a');  // an encoded Attr's size

  InodeKeyRows() {
    for (uint32_t d = 0; d < kDirs; ++d) {
      uint64_t id[4] = {(uint64_t{d % 8} << 48) | d, Mix64(d), 0, 2};
      std::string dir(1, 'i');
      dir.append(reinterpret_cast<const char*>(id), sizeof(id));
      for (uint32_t n = 0; n < kNames; ++n) {
        keys.push_back(dir + "f" + std::to_string(n));
        store_of.push_back(
            static_cast<uint32_t>(HashString(keys.back()) % kStores));
        stores[store_of.back()].Put(keys.back(), value);
      }
    }
    Rng rng(1);
    constexpr uint32_t kHotDirs = kDirs / 5;
    for (uint32_t i = 0; i < kPicks; ++i) {
      const uint64_t dir =
          rng.NextBool(0.8) ? rng.NextBelow(kHotDirs)
                            : kHotDirs + rng.NextBelow(kDirs - kHotDirs);
      picks.push_back(static_cast<uint32_t>(dir * kNames +
                                            rng.NextBelow(kNames)));
    }
  }

  static InodeKeyRows& Get() {
    static InodeKeyRows rows;
    return rows;
  }
};

void BM_KvStoreGetInodeKeys(benchmark::State& state) {
  InodeKeyRows& rows = InodeKeyRows::Get();
  uint32_t i = 0;
  for (auto _ : state) {
    const uint32_t k = rows.picks[i++ & (InodeKeyRows::kPicks - 1)];
    benchmark::DoNotOptimize(rows.stores[rows.store_of[k]].Get(rows.keys[k]));
  }
}
BENCHMARK(BM_KvStoreGetInodeKeys);

void BM_KvStorePutInodeKeys(benchmark::State& state) {
  InodeKeyRows& rows = InodeKeyRows::Get();
  uint32_t i = 0;
  for (auto _ : state) {
    const uint32_t k = rows.picks[i++ & (InodeKeyRows::kPicks - 1)];
    rows.stores[rows.store_of[k]].Put(rows.keys[k], rows.value);
  }
  benchmark::DoNotOptimize(rows.stores[0].size());
}
BENCHMARK(BM_KvStorePutInodeKeys);

void BM_WalAppend(benchmark::State& state) {
  kv::Wal wal;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(1, "payload-of-a-typical-record"));
    if (wal.record_count() > 1 << 18) {
      state.PauseTiming();
      wal.TruncateUpTo(wal.next_lsn() - 2);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_WalAppend);

void BM_ChangeLogAppendAck(benchmark::State& state) {
  core::ChangeLog log(core::InodeId{}, 1);
  uint64_t acked = 0;
  for (auto _ : state) {
    core::ChangeLogEntry e;
    e.timestamp = 1;
    e.name = "file";
    e.size_delta = 1;
    const uint64_t seq = log.Append(std::move(e));
    if (log.size() >= 29) {
      acked += log.AckUpTo(seq).size();
    }
  }
  benchmark::DoNotOptimize(acked);
}
BENCHMARK(BM_ChangeLogAppendAck);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  int64_t v = 1;
  for (auto _ : state) {
    h.Record(v);
    v = (v * 2862933555777941757LL + 3037000493LL) & 0xfffff;
  }
  benchmark::DoNotOptimize(h.Mean());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace
}  // namespace switchfs

BENCHMARK_MAIN();
