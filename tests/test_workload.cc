// Workload-layer tests: generator semantics, runner measurement windows,
// trace structure, a cross-system smoke run proving every FsWorld can be
// driven by the same harness, and the bench JSON report.
#include <gtest/gtest.h>

#include <set>

#include "bench/bench_util.h"
#include "src/baselines/baseline.h"
#include "src/core/cluster.h"
#include "src/workload/data_service.h"
#include "src/workload/generator.h"
#include "src/workload/runner.h"
#include "src/common/strings.h"
#include "src/workload/traces.h"
#include "tests/switchfs_test_util.h"

namespace switchfs::wl {
namespace {

TEST(Generators, ShuffledOnceVisitsEachPathExactlyOnce) {
  std::vector<std::string> paths;
  for (int i = 0; i < 100; ++i) {
    paths.push_back("/d/f" + std::to_string(i));
  }
  ShuffledOnceStream stream(core::OpType::kUnlink, paths, 3);
  Rng rng(1);
  std::set<std::string> seen;
  while (auto op = stream.Next(rng)) {
    EXPECT_TRUE(seen.insert(op->path).second) << op->path;
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Generators, FreshNamesNeverRepeat) {
  FreshNameStream stream(core::OpType::kCreate, {"/a", "/b"}, "x");
  Rng rng(1);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    auto op = stream.Next(rng);
    ASSERT_TRUE(op.has_value());
    EXPECT_TRUE(seen.insert(op->path).second);
    EXPECT_TRUE(op->path.rfind("/a/x", 0) == 0 || op->path.rfind("/b/x", 0) == 0);
  }
}

TEST(Generators, BurstStreamGroupsCreatesPerDirectory) {
  BurstCreateStream stream({"/d0", "/d1", "/d2"}, 5);
  Rng rng(1);
  for (int burst = 0; burst < 6; ++burst) {
    std::set<std::string> dirs;
    for (int i = 0; i < 5; ++i) {
      auto op = stream.Next(rng);
      ASSERT_TRUE(op.has_value());
      dirs.insert(std::string(switchfs::ParentPath(op->path)));
    }
    EXPECT_EQ(dirs.size(), 1u) << "burst " << burst;
  }
}

TEST(Generators, MixStreamRespectsRatiosApproximately) {
  std::vector<std::string> dirs;
  for (int i = 0; i < 50; ++i) {
    dirs.push_back("/dir" + std::to_string(i));
  }
  MixStream stream(PanguMix(), dirs, 100, /*skew=*/0.0, 0, 5);
  Rng rng(2);
  int creates = 0;
  int opens = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    auto op = stream.Next(rng);
    ASSERT_TRUE(op.has_value());
    if (op->type == core::OpType::kCreate) {
      creates++;
    }
    if (op->type == core::OpType::kOpen) {
      opens++;
    }
  }
  EXPECT_NEAR(creates / double(kN), 0.0958, 0.01);
  EXPECT_NEAR(opens / double(kN), 0.526, 0.02);
}

TEST(Generators, MixStreamSkewConcentratesOnHotDirs) {
  std::vector<std::string> dirs;
  for (int i = 0; i < 100; ++i) {
    dirs.push_back("/dir" + std::to_string(i));
  }
  MixStream stream(PanguMix(), dirs, 10, /*skew=*/0.8, 0, 5);
  Rng rng(2);
  int hot = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    auto op = stream.Next(rng);
    ASSERT_TRUE(op.has_value());
    // Hot set = first 20 dirs (/dir0../dir19, matching dirs_[0..19]).
    std::string dir(switchfs::ParentPath(op->path));
    if (dir == "/") {
      dir = op->path;  // statdir/readdir target the dir itself
    }
    int index = std::stoi(dir.substr(4));
    if (index < 20) {
      hot++;
    }
  }
  EXPECT_GT(hot / double(kN), 0.7);
}

TEST(Generators, StatBurstStreamEmitsFixedSizeBatches) {
  std::vector<std::string> paths;
  for (int i = 0; i < 40; ++i) {
    paths.push_back("/d/f" + std::to_string(i));
  }
  StatBurstStream stream(paths, 8);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    auto op = stream.Next(rng);
    ASSERT_TRUE(op.has_value());
    EXPECT_EQ(op->type, core::OpType::kBatchStat);
    EXPECT_EQ(op->batch.size(), 8u);
    for (const std::string& p : op->batch) {
      EXPECT_EQ(p.rfind("/d/f", 0), 0u);
    }
  }
}

TEST(Generators, MixStreamEmitsV2OpKinds) {
  MixRatios ratios;
  ratios.paged_readdir = 30;
  ratios.stat_burst = 40;
  ratios.setattr = 30;
  std::vector<std::string> dirs = {"/a", "/b"};
  MixStream stream(ratios, dirs, /*preloaded_per_dir=*/10, 0.0, 0, 9);
  stream.stat_burst_size = 5;
  Rng rng(3);
  int scans = 0;
  int bursts = 0;
  int setattrs = 0;
  for (int i = 0; i < 300; ++i) {
    auto op = stream.Next(rng);
    ASSERT_TRUE(op.has_value());
    switch (op->type) {
      case core::OpType::kReaddirPage:
        scans++;
        break;
      case core::OpType::kBatchStat:
        bursts++;
        EXPECT_EQ(op->batch.size(), 5u);
        break;
      case core::OpType::kSetAttr:
        setattrs++;
        break;
      default:
        ADD_FAILURE() << "unexpected op kind";
    }
  }
  EXPECT_GT(scans, 50);
  EXPECT_GT(bursts, 70);
  EXPECT_GT(setattrs, 50);
}

TEST(Generators, MixStreamEmitsBulkCreateBatches) {
  MixRatios ratios;
  ratios.bulk_create = 100;
  std::vector<std::string> dirs = {"/a", "/b"};
  MixStream stream(ratios, dirs, /*preloaded_per_dir=*/0, 0.0, 0, 9);
  stream.bulk_create_size = 12;
  Rng rng(3);
  std::set<std::string> seen;
  for (int i = 0; i < 50; ++i) {
    auto op = stream.Next(rng);
    ASSERT_TRUE(op.has_value());
    ASSERT_EQ(op->type, core::OpType::kBulkInsert);
    EXPECT_TRUE(op->path == "/a" || op->path == "/b");
    EXPECT_EQ(op->batch.size(), 12u);
    for (const std::string& name : op->batch) {
      // Bare names (the runner opens op.path), fresh across the stream.
      EXPECT_EQ(name.find('/'), std::string::npos);
      EXPECT_TRUE(seen.insert(op->path + "/" + name).second) << name;
    }
  }
}

TEST(Traces, CvTrainingHasThreePhases) {
  TraceConfig cfg;
  cfg.num_dirs = 2;
  cfg.files_per_dir = 10;
  cfg.epochs = 2;
  cfg.with_data = false;
  CvTrainingTrace trace({"/d0", "/d1"}, cfg);
  // 20 creates + 2 epochs * 20 * (stat+open+close) + 20 deletes.
  EXPECT_EQ(trace.total_ops(), 20u + 2u * 20u * 3u + 20u);
  Rng rng(1);
  int creates = 0;
  int unlinks = 0;
  while (auto op = trace.Next(rng)) {
    creates += op->type == core::OpType::kCreate;
    unlinks += op->type == core::OpType::kUnlink;
  }
  EXPECT_EQ(creates, 20);
  EXPECT_EQ(unlinks, 20);
}

TEST(Runner, MeasuresThroughputAndLatencyOnSwitchFs) {
  core::ClusterConfig cfg = core::SmallClusterConfig();
  core::Cluster cluster(cfg);
  auto dirs = PreloadDirs(cluster, 8);
  auto files = PreloadFiles(cluster, dirs, 50);

  RandomChoiceStream stream(core::OpType::kStat, files);
  RunnerConfig rc;
  rc.workers = 16;
  rc.total_ops = 4000;
  rc.warmup_ops = 500;
  RunResult result = RunWorkload(cluster, stream, rc);
  EXPECT_EQ(result.completed, 3500u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.ThroughputOpsPerSec(), 1e4);
  EXPECT_GT(result.MeanLatencyUs(), 1.0);
  EXPECT_LT(result.MeanLatencyUs(), 500.0);
  EXPECT_GE(result.PercentileUs(0.99), result.PercentileUs(0.5));
}

TEST(Runner, DrivesEverySystemUniformly) {
  // The same harness must run unmodified on all five systems.
  std::vector<std::unique_ptr<core::FsWorld>> worlds;
  {
    core::ClusterConfig cfg = core::SmallClusterConfig();
    worlds.push_back(std::make_unique<core::Cluster>(cfg));
  }
  for (auto kind :
       {baselines::SystemKind::kEInfiniFS, baselines::SystemKind::kECfs,
        baselines::SystemKind::kIndexFS}) {
    baselines::BaselineConfig cfg;
    cfg.kind = kind;
    cfg.num_servers = 4;
    worlds.push_back(std::make_unique<baselines::BaselineCluster>(cfg));
  }
  for (auto& world : worlds) {
    auto dirs = PreloadDirs(*world, 4);
    FreshNameStream stream(core::OpType::kCreate, dirs, "w");
    RunnerConfig rc;
    rc.workers = 8;
    rc.total_ops = 600;
    rc.warmup_ops = 100;
    RunResult result = RunWorkload(*world, stream, rc);
    EXPECT_EQ(result.completed, 500u) << world->name();
    EXPECT_EQ(result.failed, 0u) << world->name();
    EXPECT_GT(result.ThroughputOpsPerSec(), 1000.0) << world->name();
  }
}

TEST(Runner, ExecutesV2OpKindsOnEverySystem) {
  // Paged scans, stat bursts, and setattrs must run on all five systems
  // through the shared runner (the v2 fan-out of DrivesEverySystemUniformly).
  std::vector<std::unique_ptr<core::FsWorld>> worlds;
  {
    core::ClusterConfig cfg = core::SmallClusterConfig();
    worlds.push_back(std::make_unique<core::Cluster>(cfg));
  }
  for (auto kind :
       {baselines::SystemKind::kEInfiniFS, baselines::SystemKind::kECfs,
        baselines::SystemKind::kIndexFS}) {
    baselines::BaselineConfig cfg;
    cfg.kind = kind;
    cfg.num_servers = 4;
    worlds.push_back(std::make_unique<baselines::BaselineCluster>(cfg));
  }
  MixRatios ratios;
  ratios.paged_readdir = 10;
  ratios.stat_burst = 50;
  ratios.setattr = 40;
  // bulk_create runs as its own pass below: mixing it with stats would let a
  // worker stat a fresh name before the bulk insert that creates it lands
  // (the same inherent race as create+stat mixes), and this test asserts
  // failed == 0.
  MixRatios bulk_ratios;
  bulk_ratios.bulk_create = 100;
  for (auto& world : worlds) {
    auto dirs = PreloadDirs(*world, 4);
    PreloadFiles(*world, dirs, 40);
    MixStream stream(ratios, dirs, 40, 0.0, 0, 11);
    RunnerConfig rc;
    rc.workers = 8;
    rc.total_ops = 400;
    rc.warmup_ops = 50;
    RunResult result = RunWorkload(*world, stream, rc);
    EXPECT_EQ(result.completed, 350u) << world->name();
    EXPECT_EQ(result.failed, 0u) << world->name();

    MixStream bulk_stream(bulk_ratios, dirs, 0, 0.0, 0, 13);
    bulk_stream.bulk_create_size = 12;
    RunnerConfig brc;
    brc.workers = 8;
    brc.total_ops = 40;
    brc.warmup_ops = 0;
    RunResult bulk = RunWorkload(*world, bulk_stream, brc);
    EXPECT_EQ(bulk.completed, 40u) << world->name();
    EXPECT_EQ(bulk.failed, 0u) << world->name();
  }
}

TEST(Runner, EndToEndWithDataServiceTransfersBytes) {
  core::ClusterConfig cfg = core::SmallClusterConfig();
  core::Cluster cluster(cfg);
  auto dirs = PreloadDirs(cluster, 4);
  DataService data(&cluster.sim(), &cluster.costs(), 4);

  TraceConfig tc;
  tc.num_dirs = 4;
  tc.files_per_dir = 20;
  tc.epochs = 1;
  CvTrainingTrace trace(dirs, tc);
  RunnerConfig rc;
  rc.workers = 8;
  rc.total_ops = 0;  // run the bounded trace dry
  rc.warmup_ops = 0;
  rc.data = &data;
  RunResult result = RunWorkload(cluster, trace, rc);
  EXPECT_EQ(result.completed, trace.total_ops());
  EXPECT_GT(data.transfers(), 0u);
  EXPECT_GT(data.bytes_moved(), 80u * 128 * 1024);
}

TEST(BenchReport, DottedKeysNestInInsertionOrderWithFixedDecimals) {
  bench::Report report;
  report.Set("bench", "demo");
  report.Set("dirs", 256);
  report.Set("per_owner.apply_keps", 29.74, 1);
  report.Set("per_owner.ops", uint64_t{576});
  report.Set("ratio", 6.6481, 2);
  report.Set("per_owner.rate", 0.5, 4);
  report.Set("dirs", 64);  // replaced in place, keeps its position
  EXPECT_EQ(report.ToJson(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"dirs\": 64,\n"
            "  \"per_owner\": {\"apply_keps\": 29.7, \"ops\": 576, "
            "\"rate\": 0.5000},\n"
            "  \"ratio\": 6.65\n"
            "}\n");
}

TEST(BenchReport, UnwritableJsonExitsNonzero) {
  bench::Report report;
  report.Set("bench", "demo");
  EXPECT_EXIT(
      {
        setenv("SFS_BENCH_JSON", "/dev/null/report.json", 1);
        report.Write();
      },
      ::testing::ExitedWithCode(1), "cannot write /dev/null/report.json");
}

}  // namespace
}  // namespace switchfs::wl
