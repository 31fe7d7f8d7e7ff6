// Quickstart: build a SwitchFS cluster, mount a client, and walk through the
// metadata API — the ten-minute tour of the public interface.
//
//   $ ./examples/quickstart
//
// Everything runs inside the deterministic simulator: the "cluster" is four
// metadata servers behind a programmable-switch data plane, and all times
// printed are simulated time. Exits nonzero if any op's verdict differs from
// the one the walkthrough expects.
#include <cstdio>
#include <string>

#include "src/core/cluster.h"

using namespace switchfs;

namespace {

// Client operations are coroutines; a tiny driver runs one script to
// completion on the cluster's simulator.
void Run(core::Cluster& cluster, sim::Task<void> script) {
  sim::Spawn(std::move(script));
  cluster.sim().Run();
}

// Clears `*ok` when a verdict differs from the walkthrough's expectation.
void Expect(bool* ok, bool as_expected) {
  if (!as_expected) {
    *ok = false;
  }
}

sim::Task<void> Tour(core::SwitchFsClient* fs, bool* ok) {
  // Create a small project tree.
  Expect(ok, (co_await fs->Mkdir("/projects")).ok());
  Expect(ok, (co_await fs->Mkdir("/projects/switchfs")).ok());
  for (int i = 0; i < 5; ++i) {
    Status s = co_await fs->Create("/projects/switchfs/src" +
                                   std::to_string(i) + ".cc");
    std::printf("create src%d.cc      -> %s\n", i, s.ToString().c_str());
    Expect(ok, s.ok());
  }

  // Directory reads observe the deferred updates immediately (§5.2.2): the
  // switch's dirty set told the owner to aggregate before answering.
  auto attr = co_await fs->StatDir("/projects/switchfs");
  Expect(ok, attr.ok() && attr->size == 5);
  if (!attr.ok()) {
    co_return;
  }
  std::printf("statdir             -> %llu entries, mtime=%lld\n",
              static_cast<unsigned long long>(attr->size),
              static_cast<long long>(attr->mtime));

  // Listing is a cookie-paged stream (MetadataService v2): OpenDir pins an
  // owner-side snapshot — aggregated once, immune to concurrent mutations —
  // and each page is bounded by kPageMtuBytes / kPageMtuEntries.
  auto dir = co_await fs->OpenDir("/projects/switchfs");
  Expect(ok, dir.ok());
  if (!dir.ok()) {
    co_return;
  }
  std::printf("opendir             -> handle %llu\n",
              static_cast<unsigned long long>(dir->id));
  uint64_t cookie = core::kDirStreamStart;
  int page_no = 0;
  size_t listed = 0;
  while (true) {
    auto page = co_await fs->ReaddirPage(*dir, cookie);
    Expect(ok, page.ok());
    if (!page.ok()) {
      co_return;
    }
    std::printf("page %d              ->", page_no++);
    for (const auto& e : page->entries) {
      std::printf(" %s", e.name.c_str());
    }
    listed += page->entries.size();
    std::printf("%s\n", page->at_end ? "  [end]" : "");
    if (page->at_end) {
      break;
    }
    cookie = page->next_cookie;
  }
  Expect(ok, listed == 5);
  Expect(ok, (co_await fs->CloseDir(*dir)).ok());

  // Batched lookups: one multi-target RPC per owner server instead of one
  // round trip per path. (Named vector: GCC 12 miscompiles brace-init lists
  // inside co_await expressions.)
  std::vector<std::string> targets = {"/projects/switchfs/src1.cc",
                                      "/projects/switchfs/src2.cc",
                                      "/projects/switchfs/nope.cc"};
  auto stats = co_await fs->BatchStat(targets);
  std::printf("batchstat           -> src1: %s, src2: %s, nope: %s\n",
              stats[0].status().ToString().c_str(),
              stats[1].status().ToString().c_str(),
              stats[2].status().ToString().c_str());
  Expect(ok, stats[0].ok() && stats[1].ok() &&
                 stats[2].status().code() == StatusCode::kNotFound);

  // Partial attribute updates commit through the WAL like any mutation.
  core::AttrDelta delta;
  delta.set_mode = true;
  delta.mode = 0600;
  Status ch = co_await fs->SetAttr("/projects/switchfs/src1.cc", delta);
  auto after = co_await fs->Stat("/projects/switchfs/src1.cc");
  Expect(ok, ch.ok() && after.ok() && after->mode == 0600);
  if (!after.ok()) {
    co_return;
  }
  std::printf("setattr 0600        -> %s (stat shows %o)\n",
              ch.ToString().c_str(), after->mode);

  // Rename and deletion round out the API.
  Status mv = co_await fs->Rename("/projects/switchfs/src0.cc",
                                  "/projects/switchfs/main.cc");
  std::printf("rename src0->main   -> %s\n", mv.ToString().c_str());
  Status rm = co_await fs->Unlink("/projects/switchfs/src4.cc");
  std::printf("unlink src4.cc      -> %s\n", rm.ToString().c_str());
  Expect(ok, mv.ok() && rm.ok());

  attr = co_await fs->StatDir("/projects/switchfs");
  Expect(ok, attr.ok() && attr->size == 4);
  if (!attr.ok()) {
    co_return;
  }
  std::printf("statdir             -> %llu entries\n",
              static_cast<unsigned long long>(attr->size));

  // rmdir enforces emptiness through an aggregation (§5.2.3).
  Status busy = co_await fs->Rmdir("/projects/switchfs");
  std::printf("rmdir (non-empty)   -> %s\n", busy.ToString().c_str());
  Expect(ok, busy.code() == StatusCode::kNotEmpty);
}

}  // namespace

int main() {
  std::printf("SwitchFS quickstart — 4 metadata servers, programmable "
              "switch data plane\n\n");
  core::ClusterConfig config;
  config.num_servers = 4;
  core::Cluster cluster(config);
  auto client = cluster.MakeClient();

  bool ok = true;
  Run(cluster, Tour(client.get(), &ok));

  const auto stats = cluster.TotalStats();
  std::printf("\ncluster counters: %llu ops, %llu aggregations, %llu "
              "change-log entries applied, %llu proactive pushes\n",
              static_cast<unsigned long long>(stats.ops),
              static_cast<unsigned long long>(stats.aggregations),
              static_cast<unsigned long long>(stats.entries_applied),
              static_cast<unsigned long long>(stats.pushes_sent));
  std::printf("switch dirty-set footprint: %.1f KiB across %d pipes\n",
              cluster.data_plane()->MemoryBytes() / 1024.0,
              4);
  std::printf("simulated time elapsed: %.1f us\n",
              sim::ToMicros(cluster.sim().Now()));
  return ok ? 0 : 1;
}
