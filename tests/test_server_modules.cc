// Unit tests for the protocol modules extracted from the SwitchServer
// monolith (aggregation, push engine, rename coordinator): each runs against
// a bare ServerContext + ServerVolatile on a single simulated node — no
// Cluster, no SwitchFsClient — exercising the module boundary directly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/aggregation.h"
#include "src/core/push_engine.h"
#include "src/core/rename_coordinator.h"
#include "src/core/schema.h"
#include "src/net/network.h"
#include "src/tracker/owner_tracker.h"

namespace switchfs::core {
namespace {

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

// One server's modules over a bare context. Implements UpdatePublisher with
// a counter so commit paths run without the dirty-set insert machinery.
class ModuleHarness : public UpdatePublisher {
 public:
  ModuleHarness()
      : net(&sim, &costs, /*seed=*/7),
        sw(costs.plain_switch_delay),
        cpu(&sim, config.cores),
        rpc(&sim, &net),
        vol(std::make_shared<ServerVolatile>(&sim)) {
    net.SetSwitch(&sw);
    cluster = std::make_unique<SingleNodeCluster>(rpc.id());
    sw.SetServerGroup({rpc.id()});
    ctx = ServerContext{&sim,    &net, cluster.get(), &durable, &costs,
                        &config, &cpu, &rpc,          &stats,   &tracker_impl};
    agg = std::make_unique<Aggregation>(ctx);
    push = std::make_unique<PushEngine>(ctx, *agg);
    agg->SetRebinder(push.get());
    rename = std::make_unique<RenameCoordinator>(ctx, *agg, *push, *this);
    rpc.SetCpu(&cpu);
    rpc.SetRequestHandler([this](net::Packet p) { OnRequest(std::move(p)); });
    rpc.SetRawHandler([this](net::Packet p) { OnRaw(std::move(p)); });
  }

  sim::Task<void> PublishUpdate(const net::Packet* client_req, VolPtr v,
                                psw::Fingerprint, const InodeId&,
                                net::MsgPtr client_resp) override {
    (void)v;
    publishes++;
    if (client_req != nullptr) {
      rpc.Respond(*client_req, client_resp);
    }
    co_return;
  }

  // The rename module's server-side dependencies, minus SwitchServer.
  void OnRequest(net::Packet p) {
    VolPtr v = vol;
    switch (p.body->type) {
      case MetaReq::kType:
        sim::Spawn(rename->HandleRename(std::move(p), std::move(v)));
        break;
      case RenamePrepare::kType:
        sim::Spawn(rename->HandleRenamePrepare(std::move(p), std::move(v)));
        break;
      case RenameCommit::kType:
        sim::Spawn(rename->HandleRenameCommit(std::move(p), std::move(v)));
        break;
      case AggregateReq::kType:
        sim::Spawn(rename->HandleAggregateReq(std::move(p), std::move(v)));
        break;
      case AggEntries::kType:
        agg->HandleAggEntries(std::move(p), v);
        break;
      case LookupReq::kType: {
        const auto* req = static_cast<const LookupReq*>(p.body.get());
        auto resp = std::make_shared<LookupResp>();
        auto value = v->kv.Get(InodeKey(req->pid, req->name));
        if (value.has_value()) {
          resp->status = StatusCode::kOk;
          resp->attr = Attr::Decode(*value);
          resp->read_at = sim.Now();
        } else {
          resp->status = StatusCode::kNotFound;
        }
        rpc.Respond(p, resp);
        break;
      }
      default:
        break;
    }
  }

  void OnRaw(net::Packet p) {
    if (p.body == nullptr) {
      return;
    }
    if (p.body->type == AggDone::kType) {
      agg->HandleAggDone(*static_cast<const AggDone*>(p.body.get()), vol);
    }
  }

  // Seeds a directory inode at (pid, name) plus its dir-index row; returns
  // the new directory's id.
  InodeId SeedDir(const InodeId& pid, const std::string& name, uint64_t tag) {
    InodeId id;
    id.w[0] = tag;
    id.w[3] = 2;
    Attr attr;
    attr.id = id;
    attr.type = FileType::kDirectory;
    attr.mode = 0755;
    const std::string ikey = InodeKey(pid, name);
    vol->kv.Put(ikey, attr.Encode());
    vol->kv.Put(DirIndexKey(id),
                EncodeDirIndex(ikey, FingerprintOf(pid, name)));
    return id;
  }

  Attr ReadAttr(const InodeId& pid, const std::string& name) {
    auto value = vol->kv.Get(InodeKey(pid, name));
    EXPECT_TRUE(value.has_value());
    return value.has_value() ? Attr::Decode(*value) : Attr{};
  }

  StatusCode Rename(const PathRef& src, const PathRef& dst) {
    auto req = std::make_shared<MetaReq>();
    req->op = OpType::kRename;
    req->ref = src;
    req->ref2 = dst;
    StatusCode out = StatusCode::kInternal;
    net::RpcEndpoint client(&sim, &net);
    sim::Spawn([](net::RpcEndpoint* cli, net::NodeId server, net::MsgPtr msg,
                  StatusCode* o) -> sim::Task<void> {
      net::CallOptions opts;
      opts.timeout = sim::Milliseconds(100);
      opts.max_attempts = 2;
      auto r = co_await cli->Call(server, msg, opts);
      if (r.ok()) {
        if (const auto* resp = net::MsgAs<MetaResp>(*r)) {
          *o = resp->status;
        }
      }
    }(&client, rpc.id(), req, &out));
    sim.Run();
    return out;
  }

  sim::Simulator sim;
  sim::CostModel costs;
  net::Network net;
  net::PlainSwitch sw;
  ServerConfig config;
  // Simplest tracker over the bare context: scattered state lives in the
  // harness's own ServerVolatile, no extra nodes involved.
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
  std::unique_ptr<RenameCoordinator> rename;
  int publishes = 0;
};

ChangeLogEntry MakeEntry(uint64_t seq, const std::string& name, OpType op,
                         int64_t ts) {
  ChangeLogEntry e;
  e.seq = seq;
  e.timestamp = ts;
  e.op = op;
  e.name = name;
  e.entry_type = op == OpType::kMkdir ? FileType::kDirectory : FileType::kFile;
  e.size_delta = op == OpType::kCreate || op == OpType::kMkdir ? 1 : -1;
  return e;
}

class TwoNodeCluster : public ClusterContext {
 public:
  TwoNodeCluster(net::NodeId n0, net::NodeId n1) : nodes_{n0, n1} {
    ring_.AddServer(0);
    ring_.AddServer(1);
  }
  const HashRing& ring() const override { return ring_; }
  net::NodeId ServerNode(uint32_t i) const override { return nodes_[i]; }
  uint32_t ServerCount() const override { return 2; }

 private:
  HashRing ring_;
  net::NodeId nodes_[2];
};

// Two metadata-server module stacks (index 0 = push source, index 1 = the
// usual owner) over one simulated fabric: the minimal cluster that exercises
// real cross-server pushes — batching, retry, owner-side apply — without
// SwitchServer or clients.
class PushHarness {
 public:
  struct Node {
    Node(sim::Simulator* sim, net::Network* net, uint32_t index)
        : cpu(sim, config.cores), rpc(sim, net),
          vol(std::make_shared<ServerVolatile>(sim)) {
      config.index = index;
    }
    ServerConfig config;
    DurableState durable;
    sim::CpuPool cpu;
    net::RpcEndpoint rpc;
    ServerStats stats;
    ServerContext ctx;
    VolPtr vol;
    std::unique_ptr<Aggregation> agg;
    std::unique_ptr<PushEngine> push;
  };

  PushHarness()
      : net(&sim, &costs, /*seed=*/7),
        sw(costs.plain_switch_delay),
        src(&sim, &net, 0),
        owner(&sim, &net, 1) {
    net.SetSwitch(&sw);
    cluster = std::make_unique<TwoNodeCluster>(src.rpc.id(), owner.rpc.id());
    sw.SetServerGroup({src.rpc.id(), owner.rpc.id()});
    for (Node* n : {&src, &owner}) {
      n->ctx = ServerContext{&sim,       &net,   cluster.get(), &n->durable,
                             &costs,     &n->config, &n->cpu,   &n->rpc,
                             &n->stats,  &tracker_impl};
      n->agg = std::make_unique<Aggregation>(n->ctx);
      n->push = std::make_unique<PushEngine>(n->ctx, *n->agg);
      n->agg->SetRebinder(n->push.get());
      n->rpc.SetCpu(&n->cpu);
      n->rpc.SetRequestHandler(
          [this, n](net::Packet p) { OnRequest(*n, std::move(p)); });
      n->rpc.SetRawHandler(
          [this, n](net::Packet p) { OnRaw(*n, std::move(p)); });
    }
  }

  void OnRequest(Node& n, net::Packet p) {
    VolPtr v = n.vol;
    switch (p.body->type) {
      case PushReq::kType:
        sim::Spawn(n.push->HandlePush(std::move(p), std::move(v)));
        break;
      case AggEntries::kType:
        n.agg->HandleAggEntries(std::move(p), std::move(v));
        break;
      default:
        break;
    }
  }

  void OnRaw(Node& n, net::Packet p) {
    if (p.body == nullptr) {
      return;
    }
    switch (p.body->type) {
      case AggCollect::kType:
        sim::Spawn(n.agg->HandleAggCollect(std::move(p), n.vol));
        break;
      case AggDone::kType:
        n.agg->HandleAggDone(*static_cast<const AggDone*>(p.body.get()),
                             n.vol);
        break;
      default:
        break;
    }
  }

  // First "<prefix><i>" whose fingerprint the ring places on `owner_index`.
  std::string NameOwnedBy(const InodeId& pid, uint32_t owner_index,
                          const std::string& prefix) {
    for (int i = 0;; ++i) {
      const std::string name = prefix + std::to_string(i);
      if (cluster->ring().Owner(FingerprintOf(pid, name)) == owner_index) {
        return name;
      }
    }
  }

  // Seeds a directory inode + dir-index row in `n`'s store.
  InodeId SeedDirAt(Node& n, const InodeId& pid, const std::string& name,
                    uint64_t tag) {
    InodeId id;
    id.w[0] = tag;
    id.w[3] = 2;
    Attr attr;
    attr.id = id;
    attr.type = FileType::kDirectory;
    attr.mode = 0755;
    const std::string ikey = InodeKey(pid, name);
    n.vol->kv.Put(ikey, attr.Encode());
    n.vol->kv.Put(DirIndexKey(id),
                  EncodeDirIndex(ikey, FingerprintOf(pid, name)));
    return id;
  }

  // Appends `count` WAL-committed entries to src's change-log for (fp, dir)
  // and schedules the push (what a deferred-update commit does).
  void AppendAndSchedule(psw::Fingerprint fp, const InodeId& dir, int count) {
    ChangeLog& clog = src.vol->GetChangeLog(fp, dir);
    for (int i = 0; i < count; ++i) {
      const uint64_t seq = clog.last_appended_seq() + 1;
      ChangeLogEntry e = MakeEntry(seq, "e" + std::to_string(seq),
                                   OpType::kCreate, 100 + static_cast<int>(seq));
      e.wal_lsn = src.durable.wal.Append(1, "op");
      clog.Restore(std::move(e));
    }
    src.push->MaybeSchedulePush(src.vol, fp, dir);
  }

  size_t SrcPending(psw::Fingerprint fp, const InodeId& dir) {
    return src.vol->GetChangeLog(fp, dir).size();
  }

  Attr OwnerAttr(const InodeId& pid, const std::string& name) {
    auto value = owner.vol->kv.Get(InodeKey(pid, name));
    EXPECT_TRUE(value.has_value());
    return value.has_value() ? Attr::Decode(*value) : Attr{};
  }

  sim::Simulator sim;
  sim::CostModel costs;
  net::Network net;
  net::PlainSwitch sw;
  tracker::OwnerTracker tracker_impl;
  std::unique_ptr<TwoNodeCluster> cluster;
  Node src;
  Node owner;
};

// The §5.3 batching win: pushes are coalesced per owner server — many small
// directories headed to the same owner ride one PushReq with one PerDir
// section each, not one packet per directory.
TEST(PushEngineModule, BatchesDirsHeadedToSameOwnerIntoOnePacket) {
  PushHarness h;
  const InodeId parent = RootId();
  constexpr int kDirs = 8;
  std::vector<std::string> names;
  std::vector<InodeId> ids;
  std::vector<psw::Fingerprint> fps;
  std::string prefix = "d";
  for (int d = 0; d < kDirs; ++d) {
    // Distinct names, every fingerprint owned by server 1.
    const std::string name = h.NameOwnedBy(parent, 1, prefix);
    prefix = name + "_";
    names.push_back(name);
    ids.push_back(h.SeedDirAt(h.owner, parent, name, 100 + d));
    fps.push_back(FingerprintOf(parent, name));
  }
  for (int d = 0; d < kDirs; ++d) {
    h.AppendAndSchedule(fps[d], ids[d], 2);  // 16 entries total, < MTU
  }
  h.sim.Run();

  EXPECT_EQ(h.src.stats.pushes_sent, 1u);
  EXPECT_EQ(h.src.stats.push_dirs_sent, static_cast<uint64_t>(kDirs));
  EXPECT_EQ(h.src.stats.push_entries_sent, 2u * kDirs);
  EXPECT_EQ(h.src.stats.push_failures, 0u);
  EXPECT_EQ(h.src.stats.pushes_local, 0u);
  EXPECT_EQ(h.owner.stats.pushes_received, 1u);
  EXPECT_EQ(h.owner.stats.entries_applied, 2u * kDirs);
  for (int d = 0; d < kDirs; ++d) {
    EXPECT_EQ(h.SrcPending(fps[d], ids[d]), 0u) << names[d];
    EXPECT_EQ(h.OwnerAttr(parent, names[d]).size, 2u) << names[d];
  }
  // Every source WAL record was marked applied by the acked trim.
  for (const kv::WalRecord& r : h.src.durable.wal.records()) {
    EXPECT_TRUE(r.applied);
  }
}

// A batch never exceeds push_mtu_entries entries; the overflow splits across
// packets (29 + 16 here) and every log still drains completely. The owner's
// quiet-period timer is parked: with the exact ready-entry MTU trigger the
// first batch fires as soon as two logs accumulate an MTU worth, and an
// owner-side aggregation racing the second packet would drain the split
// directory's tail out from under the push accounting below.
TEST(PushEngineModule, SplitsBatchesAtMtuBoundary) {
  PushHarness h;
  h.src.config.owner_quiet_period = sim::Seconds(100);
  h.owner.config.owner_quiet_period = sim::Seconds(100);
  const InodeId parent = RootId();
  std::vector<InodeId> ids;
  std::vector<psw::Fingerprint> fps;
  std::string prefix = "m";
  for (int d = 0; d < 3; ++d) {
    const std::string name = h.NameOwnedBy(parent, 1, prefix);
    prefix = name + "_";
    ids.push_back(h.SeedDirAt(h.owner, parent, name, 200 + d));
    fps.push_back(FingerprintOf(parent, name));
  }
  for (int d = 0; d < 3; ++d) {
    h.AppendAndSchedule(fps[d], ids[d], 15);  // 45 entries vs mtu 29
  }
  h.sim.Run();

  EXPECT_EQ(h.src.stats.pushes_sent, 2u);
  EXPECT_EQ(h.src.stats.push_entries_sent, 45u);
  // The dir cut by the MTU boundary appears in both packets.
  EXPECT_EQ(h.src.stats.push_dirs_sent, 4u);
  EXPECT_EQ(h.owner.stats.entries_applied, 45u);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(h.SrcPending(fps[d], ids[d]), 0u);
  }
}

// A sub-MTU trickle spread across many directories of one owner must not
// defer flushing until the idle timeout: an MTU worth of entries accumulated
// across the owner's ready logs triggers a drain immediately.
TEST(PushEngineModule, AggregateMtuAcrossDirsTriggersImmediateDrain) {
  PushHarness h;
  const InodeId parent = RootId();
  const int kDirs = h.src.config.push_mtu_entries + 3;  // one entry each
  std::string prefix = "t";
  for (int d = 0; d < kDirs; ++d) {
    const std::string name = h.NameOwnedBy(parent, 1, prefix);
    prefix = name + "_";
    const InodeId id = h.SeedDirAt(h.owner, parent, name, 700 + d);
    h.AppendAndSchedule(FingerprintOf(parent, name), id, 1);
  }
  // Just under push_idle_timeout: an idle-triggered push could not even
  // have started, so a completed push proves the aggregate MTU trigger.
  h.sim.RunUntil(h.sim.Now() + h.src.config.push_idle_timeout - 1);
  EXPECT_GE(h.src.stats.pushes_sent, 1u);
  EXPECT_GE(h.src.stats.push_entries_sent,
            static_cast<uint64_t>(h.src.config.push_mtu_entries));
  // The idle timer later flushes the remainder.
  h.sim.Run();
  EXPECT_EQ(h.owner.stats.entries_applied, static_cast<uint64_t>(kDirs));
}

// Regression (stranded backlog): a push that fails because the owner is down
// must re-arm a retry instead of stranding the change-log until an unrelated
// trigger. Kill the owner mid-push, then restart it: the log drains.
TEST(PushEngineModule, FailedPushRetriesUntilOwnerRestarts) {
  PushHarness h;
  const InodeId parent = RootId();
  const std::string name = h.NameOwnedBy(parent, 1, "r");
  const InodeId dir = h.SeedDirAt(h.owner, parent, name, 300);
  const psw::Fingerprint fp = FingerprintOf(parent, name);

  h.owner.rpc.SetEnabled(false);  // owner crashes before the push fires
  h.AppendAndSchedule(fp, dir, 3);
  h.sim.RunUntil(h.sim.Now() + sim::Milliseconds(5));

  EXPECT_GE(h.src.stats.push_failures, 1u);
  EXPECT_EQ(h.src.stats.pushes_sent, 0u);
  EXPECT_EQ(h.SrcPending(fp, dir), 3u) << "backlog must survive the failure";

  h.owner.rpc.SetEnabled(true);  // owner restarts; the armed retry drains
  h.sim.Run();

  EXPECT_EQ(h.SrcPending(fp, dir), 0u);
  EXPECT_EQ(h.src.stats.pushes_sent, 1u);
  EXPECT_EQ(h.OwnerAttr(parent, name).size, 3u);
  for (const kv::WalRecord& r : h.src.durable.wal.records()) {
    EXPECT_TRUE(r.applied);
  }
}

// Regression (rmdir race): pushing entries for a directory the owner no
// longer knows (removed since they were logged) must ack the section's max
// seq so the source trims the obsolete backlog — not acked_seq = 0, which
// re-pushed it forever.
TEST(PushEngineModule, VanishedDirectoryPushTrimsSourceLog) {
  PushHarness h;
  const InodeId parent = RootId();
  const std::string name = h.NameOwnedBy(parent, 1, "v");
  // No SeedDirAt: the owner has no dir-index row — the directory is gone.
  InodeId dir;
  dir.w[0] = 400;
  dir.w[3] = 2;
  const psw::Fingerprint fp = FingerprintOf(parent, name);

  h.AppendAndSchedule(fp, dir, 2);
  h.sim.Run();

  EXPECT_EQ(h.SrcPending(fp, dir), 0u) << "obsolete entries must be trimmed";
  EXPECT_EQ(h.src.stats.pushes_sent, 1u);
  EXPECT_EQ(h.owner.stats.pushes_received, 1u);
  EXPECT_EQ(h.owner.stats.entries_applied, 0u);
  for (const kv::WalRecord& r : h.src.durable.wal.records()) {
    EXPECT_TRUE(r.applied);
  }
}

// A directory is live at its owner only if its dir-index row resolves to
// an inode row. With the index row present and the inode row gone
// (LookupDirIndex succeeds), a push for the directory must still be acked
// at its max seq: ApplyEntries alone would drop the entries silently
// without advancing the hwm, and the source would retry forever.
TEST(PushEngineModule, StaleDirIndexWithoutInodeStillTrimsSourceLog) {
  PushHarness h;
  const InodeId parent = RootId();
  const std::string name = h.NameOwnedBy(parent, 1, "s");
  const InodeId dir = h.SeedDirAt(h.owner, parent, name, 600);
  const psw::Fingerprint fp = FingerprintOf(parent, name);
  // Dir-index row present, inode row gone.
  h.owner.vol->kv.Delete(InodeKey(parent, name));

  h.AppendAndSchedule(fp, dir, 2);
  h.sim.Run();

  EXPECT_EQ(h.SrcPending(fp, dir), 0u) << "obsolete entries must be trimmed";
  EXPECT_EQ(h.owner.stats.entries_applied, 0u);
  for (const kv::WalRecord& r : h.src.durable.wal.records()) {
    EXPECT_TRUE(r.applied);
  }
}

// Regression (counter split): owner-local applies never hit the network and
// must count as pushes_local, not pushes_sent.
TEST(PushEngineModule, LocalApplyCountsAsLocalPush) {
  PushHarness h;
  const InodeId parent = RootId();
  const std::string name = h.NameOwnedBy(parent, 0, "l");
  const InodeId dir = h.SeedDirAt(h.src, parent, name, 500);
  const psw::Fingerprint fp = FingerprintOf(parent, name);

  h.AppendAndSchedule(fp, dir, 4);
  h.sim.Run();

  EXPECT_EQ(h.src.stats.pushes_local, 1u);
  EXPECT_EQ(h.src.stats.pushes_sent, 0u);
  EXPECT_EQ(h.src.stats.push_failures, 0u);
  EXPECT_EQ(h.src.stats.entries_applied, 4u);
  EXPECT_EQ(h.SrcPending(fp, dir), 0u);
  auto value = h.src.vol->kv.Get(InodeKey(parent, name));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(Attr::Decode(*value).size, 4u);
}

// ---------------------------------------------------------------------------
// moved_fp rebind (§5.2 rename race)
// ---------------------------------------------------------------------------

// An entry that commits under a directory's old fingerprint in the rename
// race window must be observable at the new owner afterwards. The old owner
// holds a moved tombstone; the push returns kMoved and the source re-keys
// the change-log under the new fingerprint (here owned by the source itself,
// so the rebound push is an owner-local apply) instead of trimming it.
TEST(PushEngineModule, RenameRacedPushRebindsToNewOwner) {
  PushHarness h;
  const InodeId parent = RootId();
  const std::string old_name = h.NameOwnedBy(parent, 1, "mvo");
  const std::string new_name = h.NameOwnedBy(parent, 0, "mvn");
  const psw::Fingerprint old_fp = FingerprintOf(parent, old_name);
  const psw::Fingerprint new_fp = FingerprintOf(parent, new_name);
  // The directory lives at its post-rename location (owned by node 0); the
  // old owner only has the tombstone left behind by the rename's source leg.
  const InodeId dir = h.SeedDirAt(h.src, parent, new_name, 800);
  ServerVolatile::MovedDir tomb;
  tomb.old_fp = old_fp;
  tomb.new_fp = new_fp;
  tomb.new_owner = 0;
  tomb.epoch = 7;
  tomb.installed_at = h.sim.Now();
  h.owner.vol->InstallMovedTombstone(dir, tomb);

  h.AppendAndSchedule(old_fp, dir, 3);  // the raced commits, keyed to old_fp
  h.sim.Run();

  EXPECT_EQ(h.src.stats.pushes_rebound, 1u);
  EXPECT_EQ(h.src.stats.entries_rebound, 3u);
  EXPECT_EQ(h.owner.stats.entries_applied, 0u);
  // The rebound log drained through the new owner (the source itself).
  EXPECT_EQ(h.src.stats.pushes_local, 1u);
  EXPECT_EQ(h.src.stats.entries_applied, 3u);
  EXPECT_EQ(h.SrcPending(old_fp, dir), 0u);
  EXPECT_EQ(h.SrcPending(new_fp, dir), 0u);
  auto value = h.src.vol->kv.Get(InodeKey(parent, new_name));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(Attr::Decode(*value).size, 3u);
  // Only the op-commit records: the owner-local apply also appended
  // EntryApply records, which never carry the remote-applied mark.
  for (const kv::WalRecord& r : h.src.durable.wal.records()) {
    if (r.type == 1) {
      EXPECT_TRUE(r.applied);
    }
  }
}

// The kMoved verdict's acked_seq carries the prefix the old owner applied
// before the rename (it migrated with the directory's entry list): the
// source trims that prefix and rebinds only the unapplied suffix, so nothing
// is double-counted at the new owner.
TEST(PushEngineModule, RebindTrimsPreRenameAppliedPrefix) {
  PushHarness h;
  const InodeId parent = RootId();
  const std::string old_name = h.NameOwnedBy(parent, 1, "pfo");
  const std::string new_name = h.NameOwnedBy(parent, 0, "pfn");
  const psw::Fingerprint old_fp = FingerprintOf(parent, old_name);
  const psw::Fingerprint new_fp = FingerprintOf(parent, new_name);
  const InodeId dir = h.SeedDirAt(h.src, parent, new_name, 802);
  ServerVolatile::MovedDir tomb;
  tomb.old_fp = old_fp;
  tomb.new_fp = new_fp;
  tomb.new_owner = 0;
  tomb.epoch = 9;
  tomb.installed_at = h.sim.Now();
  // The old owner had applied seqs 1-2 before the rename; the tombstone
  // took over those marks (the live hwm rows are erased at install).
  tomb.applied = {{0u, 2u}};
  h.owner.vol->InstallMovedTombstone(dir, tomb);

  h.AppendAndSchedule(old_fp, dir, 5);  // seqs 1..5 pending at the source
  h.sim.Run();

  EXPECT_EQ(h.src.stats.entries_rebound, 3u) << "only the unapplied suffix";
  EXPECT_EQ(h.src.stats.entries_applied, 3u);
  EXPECT_EQ(h.SrcPending(old_fp, dir), 0u);
  EXPECT_EQ(h.SrcPending(new_fp, dir), 0u);
  auto value = h.src.vol->kv.Get(InodeKey(parent, new_name));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(Attr::Decode(*value).size, 3u);
  for (const kv::WalRecord& r : h.src.durable.wal.records()) {
    if (r.type == 1) {
      EXPECT_TRUE(r.applied);  // the trimmed prefix was marked applied too
    }
  }
}

// Tombstones expire after moved_tombstone_ttl (the rebind retention
// horizon): a push arriving later degrades to the removed-directory trim.
TEST(PushEngineModule, ExpiredTombstoneDegradesToRemovedTrim) {
  PushHarness h;
  h.owner.config.moved_tombstone_ttl = sim::Microseconds(10);
  const InodeId parent = RootId();
  const std::string old_name = h.NameOwnedBy(parent, 1, "tto");
  const std::string new_name = h.NameOwnedBy(parent, 0, "ttn");
  const psw::Fingerprint old_fp = FingerprintOf(parent, old_name);
  const InodeId dir = h.SeedDirAt(h.src, parent, new_name, 803);
  ServerVolatile::MovedDir tomb;
  tomb.old_fp = old_fp;
  tomb.new_fp = FingerprintOf(parent, new_name);
  tomb.new_owner = 0;
  tomb.epoch = 3;
  tomb.installed_at = h.sim.Now();
  h.owner.vol->InstallMovedTombstone(dir, tomb);

  // The push fires after the idle timeout (300us), far past the 10us TTL.
  h.AppendAndSchedule(old_fp, dir, 2);
  h.sim.Run();

  EXPECT_EQ(h.src.stats.pushes_rebound, 0u);
  EXPECT_EQ(h.SrcPending(old_fp, dir), 0u) << "trimmed: tombstone expired";
  EXPECT_TRUE(h.owner.vol->moved_dirs.empty()) << "lazy expiry erased it";
}

// The install-side epoch check: a replayed commit of an EARLIER rename must
// not clobber the tombstone of a later one — otherwise a raced log would be
// re-keyed onto the superseded location of the first rename.
TEST(PushEngineModule, TombstoneInstallKeepsNewestEpoch) {
  PushHarness h;
  InodeId dir;
  dir.w[0] = 804;
  dir.w[3] = 2;
  ServerVolatile::MovedDir second;
  second.new_fp = 222;
  second.new_owner = 0;
  second.epoch = 20;
  second.installed_at = h.sim.Now();
  h.owner.vol->InstallMovedTombstone(dir, second);
  ServerVolatile::MovedDir first;  // replayed earlier rename
  first.new_fp = 111;
  first.new_owner = 1;
  first.epoch = 10;
  first.installed_at = h.sim.Now();
  h.owner.vol->InstallMovedTombstone(dir, first);

  const ServerVolatile::MovedDir* tomb = h.owner.vol->FindMovedTombstone(
      dir, h.sim.Now(), h.owner.config.moved_tombstone_ttl);
  ASSERT_NE(tomb, nullptr);
  EXPECT_EQ(tomb->new_fp, 222u) << "the second rename's target survives";
  EXPECT_EQ(tomb->epoch, 20u);
}

// Aggregation-path rebind: entries collected for a moved directory during an
// old-fingerprint aggregation become AggDone moved rows (not acks), and each
// source re-keys its log toward the new owner — agg_rebinds advances instead
// of the entries being trimmed.
TEST(PushEngineModule, AggregationMovedRowRebindsCollectedEntries) {
  PushHarness h;
  const InodeId parent = RootId();
  const std::string old_name = h.NameOwnedBy(parent, 1, "ago");
  const std::string new_name = h.NameOwnedBy(parent, 0, "agn");
  const psw::Fingerprint old_fp = FingerprintOf(parent, old_name);
  const psw::Fingerprint new_fp = FingerprintOf(parent, new_name);
  const InodeId dir = h.SeedDirAt(h.src, parent, new_name, 805);
  ServerVolatile::MovedDir tomb;
  tomb.old_fp = old_fp;
  tomb.new_fp = new_fp;
  tomb.new_owner = 0;
  tomb.epoch = 11;
  tomb.installed_at = h.sim.Now();
  h.owner.vol->InstallMovedTombstone(dir, tomb);

  // Pending entries at the source; no push scheduled — the owner's
  // aggregation collects them instead.
  ChangeLog& clog = h.src.vol->GetChangeLog(old_fp, dir);
  for (int i = 0; i < 4; ++i) {
    const uint64_t seq = clog.last_appended_seq() + 1;
    ChangeLogEntry e = MakeEntry(seq, "e" + std::to_string(seq),
                                 OpType::kCreate, 100 + static_cast<int>(seq));
    e.wal_lsn = h.src.durable.wal.Append(1, "op");
    clog.Restore(std::move(e));
  }
  sim::Spawn(h.owner.agg->GateAndAggregate(h.owner.vol, old_fp));
  h.sim.Run();

  EXPECT_EQ(h.src.stats.agg_rebinds, 1u);
  EXPECT_EQ(h.src.stats.agg_entries_rebound, 4u);
  EXPECT_EQ(h.src.stats.pushes_rebound, 0u);
  EXPECT_EQ(h.owner.stats.entries_applied, 0u);
  EXPECT_EQ(h.SrcPending(old_fp, dir), 0u);
  EXPECT_EQ(h.SrcPending(new_fp, dir), 0u) << "rebound then drained locally";
  EXPECT_EQ(h.src.stats.entries_applied, 4u);
  auto value = h.src.vol->kv.Get(InodeKey(parent, new_name));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(Attr::Decode(*value).size, 4u);
  for (const kv::WalRecord& r : h.src.durable.wal.records()) {
    if (r.type == 1) {
      EXPECT_TRUE(r.applied);
    }
  }
}

// ---------------------------------------------------------------------------
// OwnerQuietTimer (§5.3 owner-side proactive aggregation)
// ---------------------------------------------------------------------------

// Quiet-period expiry triggers exactly one GateAndAggregate, and re-arming
// is suppressed while the timer is armed (then works again afterwards).
TEST(PushEngineModule, OwnerQuietTimerFiresOnceAndRearmsAfterCompletion) {
  ModuleHarness h;
  const psw::Fingerprint fp = 91;
  h.vol->ShardFor(fp).last_push[fp] = h.sim.Now();
  h.push->ArmOwnerQuietTimer(h.vol, fp);
  h.push->ArmOwnerQuietTimer(h.vol, fp);  // suppressed: already armed
  h.push->ArmOwnerQuietTimer(h.vol, fp);
  h.sim.Run();

  EXPECT_EQ(h.stats.aggregations, 1u);
  EXPECT_TRUE(h.vol->ShardFor(fp).quiet_timer_armed.empty());

  // The timer completed: arming again schedules a fresh aggregation.
  h.push->ArmOwnerQuietTimer(h.vol, fp);
  h.sim.Run();
  EXPECT_EQ(h.stats.aggregations, 2u);
  EXPECT_TRUE(h.vol->ShardFor(fp).quiet_timer_armed.empty());
}

// A push arriving mid-wait postpones the quiet-period aggregation (the timer
// loops) — still exactly one aggregation once the pushes stop.
TEST(PushEngineModule, OwnerQuietTimerPostponesWhilePushesArrive) {
  ModuleHarness h;
  const psw::Fingerprint fp = 92;
  h.vol->ShardFor(fp).last_push[fp] = h.sim.Now();
  h.push->ArmOwnerQuietTimer(h.vol, fp);
  // Halfway through the quiet period another push lands.
  h.sim.ScheduleAfter(h.config.owner_quiet_period / 2, [&h, fp] {
    h.vol->ShardFor(fp).last_push[fp] = h.sim.Now();
    h.push->ArmOwnerQuietTimer(h.vol, fp);  // suppressed, timer keeps looping
  });
  h.sim.Run();

  EXPECT_EQ(h.stats.aggregations, 1u);
  EXPECT_TRUE(h.vol->ShardFor(fp).quiet_timer_armed.empty());
}

// A crash (v->dead) mid-wait must leak no timer state: no aggregation runs
// and the armed marker is unwound.
TEST(PushEngineModule, OwnerQuietTimerCrashMidWaitLeaksNoState) {
  ModuleHarness h;
  const psw::Fingerprint fp = 93;
  h.vol->ShardFor(fp).last_push[fp] = h.sim.Now();
  h.push->ArmOwnerQuietTimer(h.vol, fp);
  h.sim.ScheduleAfter(h.config.owner_quiet_period / 2,
                      [&h] { h.vol->dead = true; });
  h.sim.Run();

  EXPECT_EQ(h.stats.aggregations, 0u);
  EXPECT_TRUE(h.vol->ShardFor(fp).quiet_timer_armed.empty());
}

// §5.3 consolidated attribute update: N pending entries cost one attribute
// write, and the directory's size/mtime reflect the whole batch.
TEST(AggregationModule, ApplyEntriesCompactsAttributeUpdate) {
  ModuleHarness h;
  const InodeId parent = RootId();
  const InodeId dir = h.SeedDir(parent, "docs", /*tag=*/77);

  std::vector<ChangeLogEntry> entries;
  for (uint64_t s = 1; s <= 5; ++s) {
    entries.push_back(
        MakeEntry(s, "f" + std::to_string(s), OpType::kCreate, 100 + s));
  }
  sim::Spawn(h.agg->ApplyEntries(h.vol, dir, /*src=*/1,
                                 FingerprintOf(parent, "docs"), entries, ""));
  h.sim.Run();

  Attr attr = h.ReadAttr(parent, "docs");
  EXPECT_EQ(attr.size, 5u);
  EXPECT_EQ(attr.mtime, 105);
  EXPECT_EQ(h.stats.entries_applied, 5u);
  EXPECT_EQ(h.vol->kv.CountPrefix(EntryPrefix(dir)), 5u);
  // The hwm advanced to the batch's tail.
  EXPECT_EQ((h.vol->hwm[{dir, 1u, FingerprintOf(parent, "docs")}]), 5u);
}

TEST(AggregationModule, ApplyEntriesDeduplicatesByHighWaterMark) {
  ModuleHarness h;
  const InodeId parent = RootId();
  const InodeId dir = h.SeedDir(parent, "docs", /*tag=*/78);

  std::vector<ChangeLogEntry> entries;
  for (uint64_t s = 1; s <= 3; ++s) {
    entries.push_back(
        MakeEntry(s, "f" + std::to_string(s), OpType::kCreate, 100 + s));
  }
  sim::Spawn(h.agg->ApplyEntries(h.vol, dir, 1,
                                 FingerprintOf(parent, "docs"), entries, ""));
  h.sim.Run();
  // Replaying the same batch (a duplicated push) applies nothing new.
  sim::Spawn(h.agg->ApplyEntries(h.vol, dir, 1,
                                 FingerprintOf(parent, "docs"), entries, ""));
  h.sim.Run();

  EXPECT_EQ(h.stats.entries_applied, 3u);
  EXPECT_EQ(h.stats.entries_deduped, 3u);
  EXPECT_EQ(h.ReadAttr(parent, "docs").size, 3u);
}

TEST(AggregationModule, ApplyEntriesStopsAtMidBatchSequenceGap) {
  ModuleHarness h;
  const InodeId parent = RootId();
  const InodeId dir = h.SeedDir(parent, "docs", /*tag=*/79);

  // A gap INSIDE a batch (seq 3 missing) means later entries of this very
  // batch are out of FIFO order: apply the contiguous prefix only.
  std::vector<ChangeLogEntry> entries;
  entries.push_back(MakeEntry(1, "a", OpType::kCreate, 101));
  entries.push_back(MakeEntry(2, "b", OpType::kCreate, 102));
  entries.push_back(MakeEntry(4, "d", OpType::kCreate, 104));
  sim::Spawn(h.agg->ApplyEntries(h.vol, dir, 1,
                                 FingerprintOf(parent, "docs"), entries, ""));
  h.sim.Run();

  EXPECT_EQ(h.stats.entries_applied, 2u);
  EXPECT_EQ(h.ReadAttr(parent, "docs").size, 2u);
  EXPECT_EQ(h.vol->kv.CountPrefix(EntryPrefix(dir)), 2u);
  EXPECT_EQ((h.vol->hwm[{dir, 1u, FingerprintOf(parent, "docs")}]), 2u);
}

// Resolved-prefix bridge (moved_fp rebind support): a batch always starts
// at the source log's front, and fronts only advance through resolution —
// so seqs below the batch's first entry are settled (acked here, migrated
// with a renamed directory's entry list, or trimmed as obsolete) and must
// not be waited for. A rebound or straggler batch that resumes above marks
// this lane never saw applies instead of gap-stalling forever.
TEST(AggregationModule, ApplyEntriesBridgesResolvedPrefixBelowBatchFront) {
  ModuleHarness h;
  const InodeId parent = RootId();
  const InodeId dir = h.SeedDir(parent, "docs", /*tag=*/81);

  std::vector<ChangeLogEntry> entries;
  entries.push_back(MakeEntry(3, "c", OpType::kCreate, 103));
  entries.push_back(MakeEntry(4, "d", OpType::kCreate, 104));
  sim::Spawn(h.agg->ApplyEntries(h.vol, dir, 1,
                                 FingerprintOf(parent, "docs"), entries, ""));
  h.sim.Run();

  EXPECT_EQ(h.stats.entries_applied, 2u);
  EXPECT_EQ(h.ReadAttr(parent, "docs").size, 2u);
  EXPECT_EQ((h.vol->hwm[{dir, 1u, FingerprintOf(parent, "docs")}]), 4u);
}

// GateAndAggregate on the owner collects the local change-log, applies it,
// drains the backlog, and marks the WAL records applied (§5.2.2 steps 8-10).
TEST(AggregationModule, GateAndAggregateDrainsLocalChangeLog) {
  ModuleHarness h;
  const InodeId parent = RootId();
  const InodeId dir = h.SeedDir(parent, "docs", /*tag=*/80);
  const psw::Fingerprint fp = FingerprintOf(parent, "docs");

  ChangeLog& clog = h.vol->GetChangeLog(fp, dir);
  for (uint64_t s = 1; s <= 4; ++s) {
    ChangeLogEntry e =
        MakeEntry(s, "f" + std::to_string(s), OpType::kCreate, 200 + s);
    e.wal_lsn = h.durable.wal.Append(1, "op" + std::to_string(s));
    clog.Restore(std::move(e));
  }

  sim::Spawn(h.agg->GateAndAggregate(h.vol, fp));
  h.sim.Run();

  EXPECT_EQ(h.stats.aggregations, 1u);
  EXPECT_EQ(h.stats.entries_applied, 4u);
  EXPECT_TRUE(clog.empty());
  EXPECT_EQ(h.ReadAttr(parent, "docs").size, 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(h.durable.wal.records()[i].applied) << "lsn " << i;
  }
  // The read path's freshness check sees the completed aggregation.
  EXPECT_EQ(h.vol->ShardFor(fp).last_agg_complete.count(fp), 1u);
}

// ROADMAP fault path: a responder session whose initiator goes silent (it
// crashed mid-aggregation) is reaped by the watchdog after
// responder_session_timeout, releasing the shared change-log lock so later
// writers are not blocked forever.
TEST(AggregationModule, ResponderWatchdogReleasesAbandonedSession) {
  ModuleHarness h;
  h.config.responder_session_timeout = sim::Milliseconds(5);
  const psw::Fingerprint fp = 77;

  // Fake initiator: acks the AggEntries reply but never sends AggDone.
  net::RpcEndpoint initiator(&h.sim, &h.net);
  initiator.SetRequestHandler([&initiator](net::Packet p) {
    initiator.Respond(p, net::MakeMsg<Ack>());
  });

  auto collect = std::make_shared<AggCollect>();
  collect->fp = fp;
  collect->initiator_server = 9;
  collect->initiator_node = initiator.id();
  collect->agg_seq = 1;
  net::Packet p;
  p.src = initiator.id();
  p.dst = h.rpc.id();
  p.body = collect;
  sim::Spawn(h.agg->HandleAggCollect(std::move(p), h.vol));
  h.sim.Run();

  // Watchdog expired: session gone, and the change-log lock is free again —
  // an exclusive acquire (what an upsert takes) completes immediately.
  EXPECT_TRUE(h.vol->ShardFor(fp).agg_sessions.empty());
  bool acquired = false;
  sim::Spawn([](ModuleHarness* hh, psw::Fingerprint f,
                bool* out) -> sim::Task<void> {
    auto lock = co_await hh->vol->ShardFor(f).changelog_locks.AcquireExclusive(FpKey(f));
    *out = true;
  }(&h, fp, &acquired));
  h.sim.Run();
  EXPECT_TRUE(acquired);
}

// §5.2 orphaned-loop prevention: moving a directory under one of its own
// descendants must be rejected (kCrossDevice) and all prepare locks undone.
TEST(RenameCoordinatorModule, RejectsOrphanedLoop) {
  ModuleHarness h;
  InodeId a;
  a.w[0] = 42;
  a.w[3] = 2;
  const InodeId d = h.SeedDir(a, "d", /*tag=*/77);

  PathRef src;
  src.pid = a;
  src.name = "d";
  src.parent_fp = FingerprintOf(RootId(), "a");
  src.ancestors = {AncestorRef{RootId(), 0}, AncestorRef{a, 0}};

  PathRef dst;  // destination parent chain passes through d itself
  dst.pid = d;
  dst.name = "sub";
  dst.parent_fp = FingerprintOf(a, "d");
  dst.ancestors = {AncestorRef{RootId(), 0}, AncestorRef{a, 0},
                   AncestorRef{d, 0}};

  EXPECT_EQ(h.Rename(src, dst), StatusCode::kCrossDevice);
  // Both legs aborted: no lingering transaction locks, nothing moved.
  EXPECT_TRUE(h.vol->txn_locks.empty());
  EXPECT_TRUE(h.vol->kv.Contains(InodeKey(a, "d")));
  EXPECT_FALSE(h.vol->kv.Contains(InodeKey(d, "sub")));
  EXPECT_EQ(h.publishes, 0);
}

TEST(RenameCoordinatorModule, RejectsMissingSource) {
  ModuleHarness h;
  InodeId a;
  a.w[0] = 43;
  a.w[3] = 2;
  InodeId b;
  b.w[0] = 44;
  b.w[3] = 2;

  PathRef src;
  src.pid = a;
  src.name = "ghost";
  src.ancestors = {AncestorRef{RootId(), 0}};
  PathRef dst;
  dst.pid = b;
  dst.name = "x";
  dst.ancestors = {AncestorRef{RootId(), 0}};

  EXPECT_EQ(h.Rename(src, dst), StatusCode::kNotFound);
  EXPECT_TRUE(h.vol->txn_locks.empty());
}

// A legal directory move commits both legs: source inode deleted,
// destination inode installed (with its dir-index), and the deferred parent
// updates handed to the publisher.
TEST(RenameCoordinatorModule, CommitsLegalDirectoryMove) {
  ModuleHarness h;
  InodeId a;
  a.w[0] = 45;
  a.w[3] = 2;
  InodeId b;
  b.w[0] = 46;
  b.w[3] = 2;
  const InodeId d = h.SeedDir(a, "d", /*tag=*/90);

  PathRef src;
  src.pid = a;
  src.name = "d";
  src.parent_fp = FingerprintOf(RootId(), "a");
  src.ancestors = {AncestorRef{RootId(), 0}, AncestorRef{a, 0}};
  PathRef dst;
  dst.pid = b;
  dst.name = "moved";
  dst.parent_fp = FingerprintOf(RootId(), "b");
  dst.ancestors = {AncestorRef{RootId(), 0}, AncestorRef{b, 0}};

  EXPECT_EQ(h.Rename(src, dst), StatusCode::kOk);
  EXPECT_FALSE(h.vol->kv.Contains(InodeKey(a, "d")));
  EXPECT_TRUE(h.vol->kv.Contains(InodeKey(b, "moved")));
  Attr moved = h.ReadAttr(b, "moved");
  EXPECT_EQ(moved.id, d);
  EXPECT_TRUE(moved.is_dir());
  // The dir-index row followed the inode to its new key.
  std::string ikey;
  psw::Fingerprint fp = 0;
  ASSERT_TRUE(h.vol->LookupDirIndex(d, &ikey, &fp));
  EXPECT_EQ(ikey, InodeKey(b, "moved"));
  // One deferred parent update per leg.
  EXPECT_EQ(h.publishes, 2);
  EXPECT_TRUE(h.vol->txn_locks.empty());
}

}  // namespace
}  // namespace switchfs::core
