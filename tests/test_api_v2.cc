// MetadataService v2 suite: directory handles, cookie-paged readdir, batched
// lookups, and setattr — run against ALL FIVE systems (SwitchFS + the four
// baselines) through the shared interface, plus SwitchFS-specific property
// and fault tests:
//  * paged streams match the monolithic listing, fill pages to the
//    kPageMtuBytes budget (kPageMtuEntries is only a hard cap), and
//    neither drop a pre-open entry nor duplicate across pages under a
//    concurrent create/unlink/rename storm (4 seeds x snapshot/cursor
//    sessions),
//  * cursor sessions survive unlink-at-cursor and rename-of-next-entry,
//  * sessions expire (stale cookie), die with an owner crash mid-scan, and
//    are LRU-evicted past the table-wide cap,
//  * the prefetching Readdir recovers from an owner crash with speculative
//    pages in flight,
//  * BatchStat groups by owner and returns per-target verdicts,
//  * BulkInsert returns per-name verdicts, batches packets, and survives
//    owner crashes with no committed entry lost,
//  * SetAttr commits durably and round-trips through Stat.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/baselines/baseline.h"
#include "src/common/random.h"
#include "src/common/strings.h"
#include "tests/switchfs_test_util.h"

namespace switchfs::core {
namespace {

// Byte-budget paging: pages fill to kPageMtuBytes of entry wire data
// (DirEntryWireSize each); kPageMtuEntries is only the hard entry-count
// cap. Restated here so the suite pins the page-size contract.
constexpr int kPageEntryCap = 128;
constexpr int kPageByteBudget = 1400;

// Greedy packing over the KV-sorted name set — mirrors how every system
// fills pages, so the stream's page count is exactly predictable.
int ExpectedPageCount(const std::set<std::string>& names) {
  int pages = 1;
  size_t used = 0;
  int count = 0;
  for (const std::string& n : names) {
    if (!PageHasRoom(used, count, DirEntryWireSize(n), kPageByteBudget,
                     kPageEntryCap)) {
      ++pages;
      used = 0;
      count = 0;
    }
    used += DirEntryWireSize(n);
    ++count;
  }
  return pages;
}

// A page is over budget if it exceeds the entry cap, or packs more wire
// bytes than kPageMtuBytes (a single oversized entry is always admitted).
bool PageOverBudget(const std::vector<DirEntry>& entries) {
  if (entries.size() > static_cast<size_t>(kPageEntryCap)) {
    return true;
  }
  size_t used = 0;
  for (const DirEntry& e : entries) {
    used += DirEntryWireSize(e.name);
  }
  return entries.size() > 1 && used > static_cast<size_t>(kPageByteBudget);
}

// ---------------------------------------------------------------------------
// Five-system harness over the shared interface
// ---------------------------------------------------------------------------

std::unique_ptr<FsWorld> MakeSystem(const std::string& name,
                                    sim::SimTime session_ttl) {
  if (name == "SwitchFS") {
    ClusterConfig cfg = SmallClusterConfig(4);
    cfg.server_template.dir_session_ttl = session_ttl;
    return std::make_unique<Cluster>(cfg);
  }
  baselines::BaselineConfig cfg;
  cfg.num_servers = 4;
  cfg.dir_session_ttl = session_ttl;
  if (name == "Emulated-InfiniFS") {
    cfg.kind = baselines::SystemKind::kEInfiniFS;
  } else if (name == "Emulated-CFS") {
    cfg.kind = baselines::SystemKind::kECfs;
  } else if (name == "CephFS-sim") {
    cfg.kind = baselines::SystemKind::kCephFS;
  } else {
    cfg.kind = baselines::SystemKind::kIndexFS;
  }
  return std::make_unique<baselines::BaselineCluster>(cfg);
}

class V2Harness {
 public:
  explicit V2Harness(std::unique_ptr<FsWorld> w)
      : world(std::move(w)), client(world->NewClient(false)) {}

  void Run(sim::Task<void> script) {
    sim::Spawn(std::move(script));
    world->world_sim().Run();
  }

  Status Mkdir(const std::string& p) {
    Status out = InternalError("not run");
    Run([](MetadataService* c, std::string path, Status* o) -> sim::Task<void> {
      *o = co_await c->Mkdir(path);
    }(client.get(), p, &out));
    return out;
  }
  Status Create(const std::string& p) {
    Status out = InternalError("not run");
    Run([](MetadataService* c, std::string path, Status* o) -> sim::Task<void> {
      *o = co_await c->Create(path);
    }(client.get(), p, &out));
    return out;
  }
  StatusOr<Attr> Stat(const std::string& p) {
    StatusOr<Attr> out = InternalError("not run");
    Run([](MetadataService* c, std::string path,
           StatusOr<Attr>* o) -> sim::Task<void> {
      *o = co_await c->Stat(path);
    }(client.get(), p, &out));
    return out;
  }
  StatusOr<std::vector<DirEntry>> Readdir(const std::string& p) {
    StatusOr<std::vector<DirEntry>> out = InternalError("not run");
    Run([](MetadataService* c, std::string path,
           StatusOr<std::vector<DirEntry>>* o) -> sim::Task<void> {
      *o = co_await c->Readdir(path);
    }(client.get(), p, &out));
    return out;
  }
  Status SetAttr(const std::string& p, const AttrDelta& d) {
    Status out = InternalError("not run");
    Run([](MetadataService* c, std::string path, AttrDelta delta,
           Status* o) -> sim::Task<void> {
      *o = co_await c->SetAttr(path, delta);
    }(client.get(), p, d, &out));
    return out;
  }
  std::vector<StatusOr<Attr>> BatchStat(const std::vector<std::string>& ps) {
    std::vector<StatusOr<Attr>> out;
    Run([](MetadataService* c, std::vector<std::string> paths,
           std::vector<StatusOr<Attr>>* o) -> sim::Task<void> {
      *o = co_await c->BatchStat(paths);
    }(client.get(), ps, &out));
    return out;
  }

  std::unique_ptr<FsWorld> world;
  std::unique_ptr<MetadataService> client;
};

class ApiV2Suite : public ::testing::TestWithParam<std::string> {};

TEST_P(ApiV2Suite, PagedStreamMatchesListingAndBoundsPages) {
  V2Harness fs(MakeSystem(GetParam(), sim::Milliseconds(20)));
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  std::set<std::string> expected;
  for (int i = 0; i < 100; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fs.Create("/d/" + name).ok());
    expected.insert(name);
  }

  // Drive the handle lifecycle explicitly: open, drain pages, close.
  std::set<std::string> got;
  int pages = 0;
  bool dup = false;
  bool oversize = false;
  Status result = InternalError("not run");
  fs.Run([](MetadataService* c, std::set<std::string>* got, int* pages,
            bool* dup, bool* oversize, Status* result) -> sim::Task<void> {
    auto handle = co_await c->OpenDir("/d");
    if (!handle.ok()) {
      *result = handle.status();
      co_return;
    }
    uint64_t cookie = kDirStreamStart;
    while (true) {
      auto page = co_await c->ReaddirPage(*handle, cookie);
      if (!page.ok()) {
        *result = page.status();
        co_return;
      }
      (*pages)++;
      if (PageOverBudget(page->entries)) {
        *oversize = true;
      }
      for (const DirEntry& e : page->entries) {
        if (!got->insert(e.name).second) {
          *dup = true;
        }
      }
      if (page->at_end) {
        break;
      }
      cookie = page->next_cookie;
    }
    *result = co_await c->CloseDir(*handle);
  }(fs.client.get(), &got, &pages, &dup, &oversize, &result));

  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_FALSE(dup) << "duplicate entry across pages";
  EXPECT_FALSE(oversize) << "page exceeded the mtu budget";
  // at_end is set on the page that reaches the end, so the stream is exactly
  // the greedy byte-budget packing of the sorted listing — no short pages,
  // no empty tail.
  EXPECT_EQ(pages, ExpectedPageCount(expected));
  EXPECT_EQ(got, expected);

  // The Readdir convenience wrapper (paged under the hood) agrees.
  auto listing = fs.Readdir("/d");
  ASSERT_TRUE(listing.ok());
  std::set<std::string> via_readdir;
  for (const DirEntry& e : *listing) {
    via_readdir.insert(e.name);
  }
  EXPECT_EQ(via_readdir, expected);
}

TEST_P(ApiV2Suite, OpenDirErrorsMatchPosix) {
  V2Harness fs(MakeSystem(GetParam(), sim::Milliseconds(20)));
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());
  Status missing = InternalError("not run");
  Status nondir = InternalError("not run");
  fs.Run([](MetadataService* c, Status* missing,
            Status* nondir) -> sim::Task<void> {
    auto h1 = co_await c->OpenDir("/absent");
    *missing = h1.ok() ? OkStatus() : h1.status();
    auto h2 = co_await c->OpenDir("/d/f");
    *nondir = h2.ok() ? OkStatus() : h2.status();
  }(fs.client.get(), &missing, &nondir));
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_EQ(nondir.code(), StatusCode::kNotADirectory);
}

TEST_P(ApiV2Suite, SessionExpiryYieldsStaleHandle) {
  // Tight TTL so the wait between pages expires the owner-side session
  // (still above CephFS-sim's ~575us per-op stack, so the first page lives).
  V2Harness fs(MakeSystem(GetParam(), sim::Milliseconds(2)));
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  Status first = InternalError("not run");
  Status second = InternalError("not run");
  fs.Run([](FsWorld* world, MetadataService* c, Status* first,
            Status* second) -> sim::Task<void> {
    auto handle = co_await c->OpenDir("/d");
    if (!handle.ok()) {
      *first = handle.status();
      co_return;
    }
    auto page = co_await c->ReaddirPage(*handle, kDirStreamStart);
    *first = page.ok() ? OkStatus() : page.status();
    // Sit past the inactivity TTL: the server-side watchdog reclaims the
    // snapshot, so the next cookie is stale.
    co_await sim::Delay(&world->world_sim(), sim::Milliseconds(20));
    auto late = co_await c->ReaddirPage(*handle, page.ok() ? page->next_cookie
                                                           : kDirStreamStart);
    *second = late.ok() ? OkStatus() : late.status();
    (void)co_await c->CloseDir(*handle);
  }(fs.world.get(), fs.client.get(), &first, &second));
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_EQ(second.code(), StatusCode::kStaleHandle);

  // Readdir() recovers transparently by re-opening.
  auto listing = fs.Readdir("/d");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 40u);
}

TEST_P(ApiV2Suite, CloseDirInvalidatesTheHandle) {
  V2Harness fs(MakeSystem(GetParam(), sim::Milliseconds(20)));
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());
  Status page_after_close = InternalError("not run");
  fs.Run([](MetadataService* c, Status* out) -> sim::Task<void> {
    auto handle = co_await c->OpenDir("/d");
    if (!handle.ok()) {
      *out = handle.status();
      co_return;
    }
    (void)co_await c->CloseDir(*handle);
    auto page = co_await c->ReaddirPage(*handle, kDirStreamStart);
    *out = page.ok() ? OkStatus() : page.status();
  }(fs.client.get(), &page_after_close));
  // The client-side handle is gone (and the server session released): a
  // page call must fail — either verdict of the two layers is acceptable.
  EXPECT_TRUE(page_after_close.code() == StatusCode::kInvalidArgument ||
              page_after_close.code() == StatusCode::kStaleHandle)
      << page_after_close.ToString();
}

TEST_P(ApiV2Suite, BatchStatReturnsPerTargetVerdicts) {
  V2Harness fs(MakeSystem(GetParam(), sim::Milliseconds(20)));
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/b").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fs.Create("/a/f" + std::to_string(i)).ok());
    ASSERT_TRUE(fs.Create("/b/g" + std::to_string(i)).ok());
  }
  // Targets span two directories (and so, on most placements, several
  // owners) plus missing names sprinkled in.
  std::vector<std::string> paths = {"/a/f0", "/b/g3", "/a/missing", "/a/f5",
                                    "/b/absent", "/b/g0", "/a/f2"};
  auto results = fs.BatchStat(paths);
  ASSERT_EQ(results.size(), paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    const bool should_exist = paths[i].find("miss") == std::string::npos &&
                              paths[i].find("absent") == std::string::npos;
    if (should_exist) {
      ASSERT_TRUE(results[i].ok()) << paths[i];
      EXPECT_FALSE(results[i]->is_dir()) << paths[i];
      // Cross-check against the single-path read path.
      auto single = fs.Stat(paths[i]);
      ASSERT_TRUE(single.ok()) << paths[i];
      EXPECT_EQ(results[i]->id, single->id) << paths[i];
    } else {
      EXPECT_EQ(results[i].status().code(), StatusCode::kNotFound) << paths[i];
    }
  }
}

TEST_P(ApiV2Suite, BulkInsertReturnsPerNameVerdicts) {
  V2Harness fs(MakeSystem(GetParam(), sim::Milliseconds(20)));
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/dup").ok());

  // One batch mixing fresh names, a pre-existing name, and an in-batch
  // duplicate: verdicts come back positionally, and only the admitted names
  // commit.
  const std::vector<std::string> names = {"a", "dup", "b", "a", "c"};
  std::vector<Status> verdicts;
  Status lifecycle = InternalError("not run");
  fs.Run([](MetadataService* c, std::vector<std::string> names,
            std::vector<Status>* verdicts, Status* out) -> sim::Task<void> {
    auto handle = co_await c->OpenDir("/d");
    if (!handle.ok()) {
      *out = handle.status();
      co_return;
    }
    *verdicts = co_await c->BulkInsert(*handle, names);
    *out = co_await c->CloseDir(*handle);
  }(fs.client.get(), names, &verdicts, &lifecycle));

  ASSERT_TRUE(lifecycle.ok()) << lifecycle.ToString();
  ASSERT_EQ(verdicts.size(), names.size());
  EXPECT_TRUE(verdicts[0].ok()) << verdicts[0].ToString();
  EXPECT_EQ(verdicts[1].code(), StatusCode::kAlreadyExists);  // pre-existing
  EXPECT_TRUE(verdicts[2].ok()) << verdicts[2].ToString();
  EXPECT_EQ(verdicts[3].code(), StatusCode::kAlreadyExists);  // in-batch dup
  EXPECT_TRUE(verdicts[4].ok()) << verdicts[4].ToString();

  // Committed entries are visible through the regular read paths.
  for (const std::string& n : std::vector<std::string>{"a", "b", "c"}) {
    auto st = fs.Stat("/d/" + n);
    EXPECT_TRUE(st.ok()) << n << ": " << st.status().ToString();
  }
  auto listing = fs.Readdir("/d");
  ASSERT_TRUE(listing.ok());
  std::set<std::string> got;
  for (const DirEntry& e : *listing) {
    got.insert(e.name);
  }
  EXPECT_EQ(got, (std::set<std::string>{"a", "b", "c", "dup"}));
}

TEST_P(ApiV2Suite, SetAttrCommitsModeAndTimes) {
  V2Harness fs(MakeSystem(GetParam(), sim::Milliseconds(20)));
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());

  AttrDelta delta;
  delta.set_mode = true;
  delta.mode = 0600;
  ASSERT_TRUE(fs.SetAttr("/d/f", delta).ok());
  auto st = fs.Stat("/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0600u);

  AttrDelta times;
  times.set_times = true;
  times.mtime = st->mtime + 1000;
  times.atime = st->atime + 500;
  ASSERT_TRUE(fs.SetAttr("/d/f", times).ok());
  st = fs.Stat("/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0600u);  // mode untouched by a times-only delta
  EXPECT_EQ(st->mtime, times.mtime);
  EXPECT_EQ(st->atime, times.atime);

  // Times only move forward (max-merge semantics, matching the deferred
  // entry applies).
  AttrDelta backwards;
  backwards.set_times = true;
  backwards.mtime = 1;
  ASSERT_TRUE(fs.SetAttr("/d/f", backwards).ok());
  st = fs.Stat("/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mtime, times.mtime);

  EXPECT_EQ(fs.SetAttr("/d/none", delta).code(), StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(AllFiveSystems, ApiV2Suite,
                         ::testing::Values("SwitchFS", "Emulated-InfiniFS",
                                           "Emulated-CFS", "CephFS-sim",
                                           "IndexFS-sim"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// SwitchFS property test: paged readdir under a create/unlink/rename storm
// ---------------------------------------------------------------------------

// Parameter: seed. The storm must hold over the O(1)-open KV-cursor
// sessions.
class PagedReaddirStorm : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PagedReaddirStorm, NoLostPreOpenEntryAndNoDuplicateAcrossPages) {
  const uint64_t seed = GetParam();
  ClusterConfig cfg = SmallClusterConfig(4);
  cfg.seed = seed;
  FsHarness fs(cfg);

  // Phase A (quiesced): the pre-open population the stream must not lose.
  ASSERT_TRUE(fs.Mkdir("/hot").ok());
  std::set<std::string> pre_open;
  for (int i = 0; i < 120; ++i) {
    const std::string name = "a" + std::to_string(i);
    ASSERT_TRUE(fs.Create("/hot/" + name).ok());
    pre_open.insert(name);
  }

  // Phase B: a slow scanner pages through the directory while workers storm
  // it with creates/unlinks/renames of THEIR OWN files (pre-open entries are
  // never touched, so the no-loss assertion is exact) and a renamer moves
  // the directory itself mid-scan (the session lives at the owner that
  // opened it).
  std::vector<std::string> scanned;  // names in page order (dup check)
  bool oversize = false;
  Status scan_status = InternalError("not run");
  std::string current_dir = "/hot";

  auto scanner = fs.cluster.MakeClient();
  sim::Spawn([](sim::Simulator* sm, SwitchFsClient* c,
                std::vector<std::string>* scanned, bool* oversize,
                Status* out) -> sim::Task<void> {
    auto handle = co_await c->OpenDir("/hot");
    if (!handle.ok()) {
      *out = handle.status();
      co_return;
    }
    uint64_t cookie = kDirStreamStart;
    while (true) {
      auto page = co_await c->ReaddirPage(*handle, cookie);
      if (!page.ok()) {
        *out = page.status();
        co_return;
      }
      if (PageOverBudget(page->entries)) {
        *oversize = true;
      }
      for (const DirEntry& e : page->entries) {
        scanned->push_back(e.name);
      }
      if (page->at_end) {
        break;
      }
      cookie = page->next_cookie;
      // Slow scan: let the storm interleave between pages.
      co_await sim::Delay(sm, sim::Microseconds(15));
    }
    *out = co_await c->CloseDir(*handle);
  }(&fs.cluster.sim(), scanner.get(), &scanned, &oversize, &scan_status));

  constexpr int kWorkers = 3;
  constexpr int kOpsPerWorker = 40;
  std::vector<std::unique_ptr<SwitchFsClient>> clients;
  for (int w = 0; w < kWorkers; ++w) {
    clients.push_back(fs.cluster.MakeClient());
  }
  for (int w = 0; w < kWorkers; ++w) {
    sim::Spawn([](SwitchFsClient* c, const std::string* dir, int id,
                  uint64_t seed) -> sim::Task<void> {
      Rng rng(seed ^ (0xb00b5ULL * (id + 1)));
      std::vector<std::string> own;  // phase-B files this worker created
      int counter = 0;
      for (int i = 0; i < kOpsPerWorker; ++i) {
        const int action = static_cast<int>(rng.NextBelow(10));
        if (action < 5 || own.empty()) {
          const std::string name =
              "b" + std::to_string(id) + "_" + std::to_string(counter++);
          Status s = co_await c->Create(*dir + "/" + name);
          if (s.ok() || s.code() == StatusCode::kAlreadyExists) {
            own.push_back(name);
          }
        } else if (action < 8) {
          const size_t idx = rng.NextBelow(own.size());
          Status s = co_await c->Unlink(*dir + "/" + own[idx]);
          if (s.ok() || s.code() == StatusCode::kNotFound) {
            own[idx] = own.back();
            own.pop_back();
          }
        } else {
          const size_t idx = rng.NextBelow(own.size());
          const std::string to =
              "b" + std::to_string(id) + "_r" + std::to_string(counter++);
          Status s =
              co_await c->Rename(*dir + "/" + own[idx], *dir + "/" + to);
          if (s.ok()) {
            own[idx] = to;
          }
        }
      }
    }(clients[w].get(), &current_dir, w, seed));
  }
  // The directory itself moves mid-scan: pages keep coming from the
  // session's owner.
  bool renamed = false;
  sim::Spawn([](sim::Simulator* sm, SwitchFsClient* c, std::string* dir,
                bool* renamed) -> sim::Task<void> {
    co_await sim::Delay(sm, sim::Microseconds(40));
    Status s = co_await c->Rename("/hot", "/hot_moved");
    if (s.ok()) {
      *dir = "/hot_moved";
      *renamed = true;
    }
  }(&fs.cluster.sim(), fs.client.get(), &current_dir, &renamed));

  fs.cluster.sim().Run();

  ASSERT_TRUE(scan_status.ok()) << scan_status.ToString();
  EXPECT_TRUE(renamed);
  EXPECT_FALSE(oversize) << "page exceeded the mtu budget";

  // No duplicate across pages.
  std::set<std::string> unique_names(scanned.begin(), scanned.end());
  EXPECT_EQ(unique_names.size(), scanned.size()) << "duplicate across pages";
  // No lost pre-open entry: every phase-A name appears (the storm never
  // touches them). Phase-B names may or may not appear — both are valid.
  for (const std::string& name : pre_open) {
    EXPECT_TRUE(unique_names.count(name) > 0) << "lost pre-open " << name;
  }

  // The directory is still exactly consistent at its final path after the
  // storm (the regular invariants hold alongside the stream semantics).
  auto listing = fs.Readdir(current_dir);
  ASSERT_TRUE(listing.ok());
  std::set<std::string> final_names;
  for (const DirEntry& e : *listing) {
    final_names.insert(e.name);
  }
  for (const std::string& name : pre_open) {
    EXPECT_TRUE(final_names.count(name) > 0) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagedReaddirStorm,
                         ::testing::Values(21, 22, 23, 24),
                         [](const auto& info) {
                           return "cursor_seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// SwitchFS property test: cursor-session edits AT the cursor
// ---------------------------------------------------------------------------

// The KV-cursor session keys its position by the last-returned name. The two
// sharpest edits are hitting that key directly: unlinking the exact cursor
// entry (the resume upper_bound must not skip the successor) and renaming
// the next, not-yet-returned entry (delete + reinsert past the cursor must
// surface it under its new name, once).
class CursorEditStorm : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CursorEditStorm, UnlinkAtCursorAndRenameOfNextEntry) {
  ClusterConfig cfg = SmallClusterConfig(4);
  cfg.seed = GetParam();
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  std::set<std::string> untouched;
  for (int i = 0; i < 120; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "c%03d", i);
    ASSERT_TRUE(fs.Create(std::string("/d/") + buf).ok());
    untouched.insert(buf);
  }

  std::set<std::string> renamed_to;  // entries moved past the cursor mid-scan
  std::vector<std::string> scanned;
  Status status = InternalError("not run");
  fs.Run([](sim::Simulator* sm, SwitchFsClient* c,
            std::set<std::string>* untouched,
            std::set<std::string>* renamed_to,
            std::vector<std::string>* scanned, Status* out) -> sim::Task<void> {
    auto handle = co_await c->OpenDir("/d");
    if (!handle.ok()) {
      *out = handle.status();
      co_return;
    }
    uint64_t cookie = kDirStreamStart;
    while (true) {
      auto page = co_await c->ReaddirPage(*handle, cookie);
      if (!page.ok()) {
        *out = page.status();
        co_return;
      }
      for (const DirEntry& e : page->entries) {
        scanned->push_back(e.name);
      }
      if (page->at_end) {
        break;
      }
      cookie = page->next_cookie;
      if (page->entries.empty()) {
        continue;
      }
      // Unlink the exact last-returned name — the session's cursor key.
      const std::string last = page->entries.back().name;
      if (last[0] == 'c') {
        Status s = co_await c->Unlink("/d/" + last);
        if (s.ok()) {
          untouched->erase(last);
        }
      }
      // Rename the next expected entry out from under the scan. "z_" sorts
      // after every "c" name, so the entry re-enters ahead of the cursor.
      auto it = untouched->upper_bound(last);
      if (it != untouched->end()) {
        const std::string next = *it;
        Status s = co_await c->Rename("/d/" + next, "/d/z_" + next);
        if (s.ok()) {
          untouched->erase(next);
          renamed_to->insert("z_" + next);
        }
      }
      // Let the cross-server push flush (idle timeout 300us) so the edits
      // are in the owner's KV before the next page: the visibility of the
      // renamed-ahead entry is then deterministic, and the assertion tests
      // the cursor-skip logic rather than push latency.
      co_await sim::Delay(sm, sim::Milliseconds(1));
    }
    *out = co_await c->CloseDir(*handle);
  }(&fs.cluster.sim(), fs.client.get(), &untouched, &renamed_to, &scanned,
    &status));

  ASSERT_TRUE(status.ok()) << status.ToString();
  std::set<std::string> unique(scanned.begin(), scanned.end());
  EXPECT_EQ(unique.size(), scanned.size()) << "duplicate across pages";
  for (const std::string& name : untouched) {
    EXPECT_TRUE(unique.count(name) > 0) << "lost " << name;
  }
  for (const std::string& name : renamed_to) {
    EXPECT_TRUE(unique.count(name) > 0) << "lost renamed " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CursorEditStorm,
                         ::testing::Values(31, 32, 33, 34),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// SwitchFS fault test: owner crash mid-scan
// ---------------------------------------------------------------------------

TEST(PagedReaddirFaults, OwnerCrashMidScanStalesTheHandleThenRecovers) {
  ClusterConfig cfg = SmallClusterConfig(4);
  FsHarness fs(cfg);
  // Protocol-created namespace: everything is WAL-backed, so the owner's
  // recovery rebuilds the directory (preload would be wiped by the crash).
  ASSERT_TRUE(fs.Mkdir("/big").ok());
  std::set<std::string> expected;
  for (int i = 0; i < 80; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fs.Create("/big/" + name).ok());
    expected.insert(name);
  }
  const psw::Fingerprint dir_fp = FingerprintOf(RootId(), "big");
  const uint32_t owner = fs.cluster.ring().Owner(dir_fp);

  Status first_page = InternalError("not run");
  Status page_after_crash = InternalError("not run");
  std::set<std::string> rescan;
  fs.Run([](Cluster* cluster, SwitchFsClient* c, uint32_t owner,
            Status* first_page, Status* page_after_crash,
            std::set<std::string>* rescan) -> sim::Task<void> {
    auto handle = co_await c->OpenDir("/big");
    if (!handle.ok()) {
      *first_page = handle.status();
      co_return;
    }
    auto page = co_await c->ReaddirPage(*handle, kDirStreamStart);
    *first_page = page.ok() ? OkStatus() : page.status();

    // The owner dies mid-scan: its session table is volatile, so the stream
    // cannot resume — the client must observe a dead handle, not silently
    // spliced pages.
    cluster->CrashServer(owner);
    auto dead = co_await c->ReaddirPage(
        *handle, page.ok() ? page->next_cookie : kDirStreamStart);
    *page_after_crash = dead.ok() ? OkStatus() : dead.status();
    (void)co_await c->CloseDir(*handle);

    co_await cluster->RecoverServer(owner);
    // A fresh scan after recovery sees the complete listing.
    auto listing = co_await c->Readdir("/big");
    if (listing.ok()) {
      for (const DirEntry& e : *listing) {
        rescan->insert(e.name);
      }
    }
  }(&fs.cluster, fs.client.get(), owner, &first_page, &page_after_crash,
    &rescan));

  EXPECT_TRUE(first_page.ok()) << first_page.ToString();
  EXPECT_EQ(page_after_crash.code(), StatusCode::kStaleHandle)
      << page_after_crash.ToString();
  EXPECT_EQ(rescan, expected);
}

TEST(PagedReaddirFaults, PrefetchedScanSurvivesOwnerCrashViaRescan) {
  // The pipelined Readdir keeps speculative page RPCs in flight; an owner
  // crash mid-scan stales the whole pipeline at once. The client must fold
  // that into ONE restart — never splice prefetched pages from the dead
  // session into the fresh scan (no dup, no loss in the final listing).
  ClusterConfig cfg = SmallClusterConfig(4);
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/big").ok());
  std::set<std::string> expected;
  for (int i = 0; i < 300; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fs.Create("/big/" + name).ok());
    expected.insert(name);
  }
  const uint32_t owner =
      fs.cluster.ring().Owner(FingerprintOf(RootId(), "big"));

  StatusOr<std::vector<DirEntry>> listing = InternalError("not run");
  auto scanner = fs.cluster.MakeClient();
  sim::Spawn([](SwitchFsClient* c,
                StatusOr<std::vector<DirEntry>>* out) -> sim::Task<void> {
    *out = co_await c->Readdir("/big");  // kPrefetchPages-deep pipeline
  }(scanner.get(), &listing));
  sim::Spawn([](Cluster* cluster, uint32_t owner) -> sim::Task<void> {
    // Crash while the scan has prefetched pages in flight, then recover so
    // the client's stale-handle restart can complete.
    co_await sim::Delay(&cluster->sim(), sim::Microseconds(30));
    cluster->CrashServer(owner);
    co_await cluster->RecoverServer(owner);
  }(&fs.cluster, owner));
  fs.cluster.sim().Run();

  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  std::set<std::string> got;
  for (const DirEntry& e : *listing) {
    EXPECT_TRUE(got.insert(e.name).second) << "duplicate " << e.name;
  }
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// SwitchFS BulkInsert: batching, durability, eviction
// ---------------------------------------------------------------------------

TEST(BulkInsertTest, CommittedBatchSurvivesOwnerCrashes) {
  ClusterConfig cfg = SmallClusterConfig(4);
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) {
    names.push_back("k" + std::to_string(i));
  }

  std::vector<Status> verdicts;
  Status lifecycle = InternalError("not run");
  fs.Run([](SwitchFsClient* c, std::vector<std::string> names,
            std::vector<Status>* verdicts, Status* out) -> sim::Task<void> {
    auto handle = co_await c->OpenDir("/d");
    if (!handle.ok()) {
      *out = handle.status();
      co_return;
    }
    *verdicts = co_await c->BulkInsert(*handle, names);
    *out = co_await c->CloseDir(*handle);
  }(fs.client.get(), names, &verdicts, &lifecycle));
  ASSERT_TRUE(lifecycle.ok()) << lifecycle.ToString();
  ASSERT_EQ(verdicts.size(), names.size());
  for (const Status& s : verdicts) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_EQ(fs.cluster.TotalStats().bulk_insert_entries, names.size());

  // Crash + recover every server in turn: each entry owner replays its
  // kWalBulkCommit records. No committed name may be lost.
  fs.Run([](Cluster* cluster) -> sim::Task<void> {
    for (uint32_t s = 0; s < 4; ++s) {
      cluster->CrashServer(s);
      co_await cluster->RecoverServer(s);
    }
  }(&fs.cluster));

  auto listing = fs.Readdir("/d");
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  std::set<std::string> got;
  for (const DirEntry& e : *listing) {
    got.insert(e.name);
  }
  for (const std::string& n : names) {
    EXPECT_TRUE(got.count(n) > 0) << "lost committed " << n;
  }
}

TEST(BulkInsertTest, SendsFarFewerPacketsThanPerEntryCreates) {
  ClusterConfig cfg = SmallClusterConfig(4);
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/loop").ok());
  ASSERT_TRUE(fs.Mkdir("/bulk").ok());
  constexpr int kN = 64;

  uint64_t before = fs.cluster.network().stats().packets_sent;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(fs.Create("/loop/e" + std::to_string(i)).ok());
  }
  const uint64_t loop_packets =
      fs.cluster.network().stats().packets_sent - before;

  std::vector<std::string> names;
  for (int i = 0; i < kN; ++i) {
    names.push_back("e" + std::to_string(i));
  }
  std::vector<Status> verdicts;
  Status lifecycle = InternalError("not run");
  before = fs.cluster.network().stats().packets_sent;
  fs.Run([](SwitchFsClient* c, std::vector<std::string> names,
            std::vector<Status>* verdicts, Status* out) -> sim::Task<void> {
    auto handle = co_await c->OpenDir("/bulk");
    if (!handle.ok()) {
      *out = handle.status();
      co_return;
    }
    *verdicts = co_await c->BulkInsert(*handle, names);
    *out = co_await c->CloseDir(*handle);
  }(fs.client.get(), names, &verdicts, &lifecycle));
  const uint64_t bulk_packets =
      fs.cluster.network().stats().packets_sent - before;
  ASSERT_TRUE(lifecycle.ok()) << lifecycle.ToString();
  for (const Status& s : verdicts) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // N per-entry creates are N full round trips; the bulk path is one chunk
  // per (owner, page-fill) — a handful of packets total. 4x headroom keeps
  // the bound robust to push/ack traffic counted in both windows.
  EXPECT_LT(bulk_packets * 4, loop_packets)
      << "bulk=" << bulk_packets << " loop=" << loop_packets;
  EXPECT_GE(fs.cluster.TotalStats().bulk_inserts, 1u);
}

TEST(DirSessionEviction, TableCapEvictsLruAndSurfacesStaleHandle) {
  ClusterConfig cfg = SmallClusterConfig(4);
  // The configured cap divides across the server's fingerprint-group shards
  // (sessions for one directory all land on its group's shard): 8 over the
  // default 4 shards = 2 sessions per shard.
  cfg.server_template.max_dir_sessions = 8;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }

  Status oldest = InternalError("not run");
  Status newest = InternalError("not run");
  fs.Run([](SwitchFsClient* c, Status* oldest,
            Status* newest) -> sim::Task<void> {
    // Five concurrent sessions land in one owner's table; cap 2 keeps only
    // the two most recently touched, evicting the other three LRU-first.
    std::vector<DirHandle> handles;
    for (int i = 0; i < 5; ++i) {
      auto h = co_await c->OpenDir("/d");
      if (!h.ok()) {
        *oldest = h.status();
        co_return;
      }
      handles.push_back(*h);
    }
    auto p_old = co_await c->ReaddirPage(handles[0], kDirStreamStart);
    *oldest = p_old.ok() ? OkStatus() : p_old.status();
    auto p_new = co_await c->ReaddirPage(handles[4], kDirStreamStart);
    *newest = p_new.ok() ? OkStatus() : p_new.status();
    for (const DirHandle& h : handles) {
      (void)co_await c->CloseDir(h);
    }
  }(fs.client.get(), &oldest, &newest));

  EXPECT_EQ(oldest.code(), StatusCode::kStaleHandle) << oldest.ToString();
  EXPECT_TRUE(newest.ok()) << newest.ToString();
  EXPECT_EQ(fs.cluster.TotalStats().dir_sessions_evicted, 3u);
}

// ---------------------------------------------------------------------------
// DirSessionTable unit semantics (no cluster)
// ---------------------------------------------------------------------------

TEST(DirSessionTableTest, PagingExpiryAndEpochSeparation) {
  DirSessionTable table(/*epoch=*/0);
  std::vector<DirEntry> entries;
  for (int i = 0; i < 10; ++i) {
    entries.push_back(DirEntry{"e" + std::to_string(i), FileType::kFile});
  }
  DirSession& s = table.Open(RootId(), entries, /*now=*/100);
  EXPECT_EQ(table.size(), 1u);

  // Pages: bounded, ordered, exhaustive, idempotent tail.
  DirPage p1 = DirSessionTable::PageOf(s, kDirStreamStart, 4);
  EXPECT_EQ(p1.entries.size(), 4u);
  EXPECT_FALSE(p1.at_end);
  DirPage p2 = DirSessionTable::PageOf(s, p1.next_cookie, 4);
  DirPage p3 = DirSessionTable::PageOf(s, p2.next_cookie, 4);
  EXPECT_EQ(p3.entries.size(), 2u);
  EXPECT_TRUE(p3.at_end);
  DirPage tail = DirSessionTable::PageOf(s, p3.next_cookie, 4);
  EXPECT_TRUE(tail.at_end);
  EXPECT_TRUE(tail.entries.empty());
  DirPage beyond = DirSessionTable::PageOf(s, 10'000, 4);
  EXPECT_TRUE(beyond.at_end);

  // TTL: touch refreshes, idle expires.
  const uint64_t id = s.id;
  EXPECT_NE(table.Touch(id, 150, /*ttl=*/100), nullptr);
  EXPECT_FALSE(table.ExpireIfIdle(id, 200, /*ttl=*/100));
  EXPECT_TRUE(table.ExpireIfIdle(id, 1000, /*ttl=*/100));
  EXPECT_EQ(table.Touch(id, 1000, /*ttl=*/100), nullptr);
  EXPECT_EQ(table.size(), 0u);

  // Sessions of different incarnations can never alias.
  DirSessionTable later_epoch(/*epoch=*/7);
  DirSession& s2 = later_epoch.Open(RootId(), entries, 0);
  DirSessionTable epoch0(/*epoch=*/0);
  DirSession& s3 = epoch0.Open(RootId(), entries, 0);
  EXPECT_NE(s2.id, s3.id);
}

}  // namespace
}  // namespace switchfs::core
