// RPC message bodies for the SwitchFS protocol (client<->server and
// server<->server). Message type tags 100-199 are reserved for this module.
#ifndef SRC_CORE_MESSAGES_H_
#define SRC_CORE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/change_log.h"
#include "src/core/types.h"
#include "src/net/packet.h"
#include "src/pswitch/fingerprint.h"

namespace switchfs::core {

// One resolved ancestor: the directory id plus the server-side read time of
// the cache entry it came from. Invalidation checks compare this against the
// invalidation entry's timestamp (InfiniFS-style lazy invalidation): only
// entries cached *before* the invalidation are stale, so a failed rmdir does
// not poison re-fetched cache entries forever.
struct AncestorRef {
  InodeId id;
  int64_t cached_at = 0;
};

// A client-resolved reference to a (parent directory, name) target, plus the
// ancestor chain the resolution walked through (checked against server
// invalidation lists, §5.2.1 step 3).
struct PathRef {
  InodeId pid;                      // parent directory id
  psw::Fingerprint parent_fp = 0;   // parent directory's fingerprint
  std::string name;                 // target component name
  std::vector<AncestorRef> ancestors;
};

// --- client -> metadata server ---

struct MetaReq : net::Message {
  static constexpr uint32_t kType = 100;
  MetaReq() : Message(kType) {}
  OpType op = OpType::kStat;
  PathRef ref;
  uint32_t mode = 0644;       // create/mkdir permission bits
  PathRef ref2;               // rename destination / link source
  // Tracker-service modes (§7.3.3, dedicated and replicated): the client
  // pre-queried the chain's tail and forwards the scattered bit here (the
  // switch path stamps ds.ret instead). An unreachable or rebuilding tracker
  // sets it, so the owner aggregates rather than trust a clean answer.
  bool scattered_hint = false;
  // Subtree routing keys (CephFS-sim): top-level component of the target
  // path (and of the rename destination).
  std::string top;
  std::string top2;
  // --- MetadataService v2 ---
  uint64_t dir_session = 0;  // kReaddirPage / kCloseDir: owner-side session
  uint64_t cookie = 0;       // kReaddirPage: resume position
  AttrDelta delta;           // kSetAttr
  // kBatchStat: every target the client resolved to this server. `ref` is
  // unused; per-target verdicts return in MetaResp::batch_status/batch_attrs
  // (parallel to this vector).
  std::vector<PathRef> targets;
  // kBulkInsert: names to create inside the directory `ref` points at (ref
  // carries pid / parent_fp / ancestors with an empty name). Every name in
  // one request hashes to this server; per-name verdicts return in
  // MetaResp::batch_status.
  std::vector<std::string> bulk_names;
};

struct MetaResp : net::Message {
  static constexpr uint32_t kType = 101;
  MetaResp() : Message(kType) {}
  explicit MetaResp(StatusCode s) : Message(kType), status(s) {}
  StatusCode status = StatusCode::kOk;
  Attr attr;
  std::vector<DirEntry> entries;      // readdir payload (one page for v2)
  std::vector<InodeId> stale_ids;     // kStaleCache: ancestors to invalidate
  // --- MetadataService v2 ---
  uint64_t dir_session = 0;  // kOpenDir: session the pages are served from
  uint64_t next_cookie = 0;  // kReaddirPage: pass to the next page call
  bool at_end = false;       // kReaddirPage: stream exhausted
  // kBatchStat verdicts, parallel to MetaReq::targets. A per-target
  // kStaleCache points at stale_ids (union across targets); the overall
  // `status` stays kOk so healthy targets in the batch still resolve.
  std::vector<StatusCode> batch_status;
  std::vector<Attr> batch_attrs;
};

// --- dirty-set insert envelope (rides the kInsert packet, §5.2.1 step 6) ---
//
// Carries (a) the pre-built response the switch forwards to the client on
// success (7a), and (b) the change-log backlog the parent's owner needs to
// apply the update synchronously if the insert overflows and the address
// rewriter redirects the packet (§6.2). The mirror copy (7b) tells the
// executing server to release its locks. The envelope lives only on the
// packet: the server's RPC completion record keeps just `client_resp`, which
// is what a client retransmit gets back.
struct InsertEnvelope : net::Message {
  static constexpr uint32_t kType = 102;
  InsertEnvelope() : Message(kType) {}
  net::MsgPtr client_resp;
  InodeId dir;                     // the parent directory being updated
  psw::Fingerprint fp = 0;
  uint32_t src_server = 0;         // metadata-server index of the origin
  uint64_t op_token = 0;           // matches the waiting create coroutine
  std::vector<ChangeLogEntry> backlog;  // full unacked backlog for `dir`
};

// --- aggregation (rides the kRemove multicast, §5.2.2 step 5) ---

struct AggCollect : net::Message {
  static constexpr uint32_t kType = 103;
  AggCollect() : Message(kType) {}
  psw::Fingerprint fp = 0;
  uint32_t initiator_server = 0;
  net::NodeId initiator_node = net::kInvalidNode;
  uint64_t agg_seq = 0;  // the dirty-set remove sequence number
  // rmdir: receivers insert the target into their invalidation lists before
  // snapshotting change-logs (Fig 6 step 5).
  bool invalidate = false;
  InodeId invalidate_id;
};

// Responder -> initiator: all pending change-log entries in the fingerprint
// group (RPC; the response is an empty ack).
struct AggEntries : net::Message {
  static constexpr uint32_t kType = 104;
  AggEntries() : Message(kType) {}
  psw::Fingerprint fp = 0;
  uint64_t agg_seq = 0;
  uint32_t src_server = 0;
  struct PerDir {
    InodeId dir;
    std::vector<ChangeLogEntry> entries;
  };
  std::vector<PerDir> dirs;
};

struct Ack : net::Message {
  static constexpr uint32_t kType = 105;
  Ack() : Message(kType) {}
  explicit Ack(StatusCode s) : Message(kType), status(s) {}
  StatusCode status = StatusCode::kOk;
};

// The owner's verdict on one source's section of one directory's change-log,
// whichever channel carried it (Aggregation::ApplySection; the source
// settles it with PushEngine::SettleVerdict).
//  * Applied, or obsolete (the directory was removed here): the source trims
//    its log up to acked_seq.
//  * moved: the directory was renamed away (a moved tombstone at this
//    owner). acked_seq is the prefix this owner applied *before* the rename
//    (those entries migrated with the directory's entry list, so
//    re-applying them at the new owner would double-count); the source trims
//    that prefix and re-keys the rest under new_fp toward new_owner.
//    rename_epoch echoes the tombstone's epoch for observability; the
//    ordering check itself lives at tombstone install (newest epoch wins,
//    ServerVolatile::InstallMovedTombstone), so a verdict always reflects
//    the latest rename this owner knows of.
struct SectionVerdict {
  InodeId dir;
  uint64_t acked_seq = 0;
  bool moved = false;
  psw::Fingerprint new_fp = 0;  // moved only
  uint32_t new_owner = 0;       // moved only
  uint64_t rename_epoch = 0;    // moved only
};

// Initiator -> all responders (multicast): aggregation complete; settle the
// verdict on each collected section and release change-log locks (§5.2.2
// steps 9a/9b).
struct AggDone : net::Message {
  static constexpr uint32_t kType = 106;
  AggDone() : Message(kType) {}
  psw::Fingerprint fp = 0;
  uint64_t agg_seq = 0;
  // One row per collected section: each responder picks out its own.
  struct Row {
    uint32_t src_server;
    SectionVerdict verdict;
  };
  std::vector<Row> rows;
};

// --- proactive change-log push (§5.3) ---
//
// Pushes are batched per owner server, not per directory: one PushReq
// coalesces every ready change-log headed to the same owner into PerDir
// sections, up to push_mtu_entries entries total (overflow splits across
// packets). The owner applies each section through Aggregation::ApplySection
// and replies with one SectionVerdict per section. Exception: the
// synchronous-fallback path (SwitchServer::SyncParentUpdate) sends one
// directory's full backlog in a single request — the op blocks on the apply,
// so splitting would only add round trips.

struct PushReq : net::Message {
  static constexpr uint32_t kType = 107;
  PushReq() : Message(kType) {}
  uint32_t src_server = 0;
  struct PerDir {
    InodeId dir;
    psw::Fingerprint fp = 0;
    std::vector<ChangeLogEntry> entries;  // FIFO prefix of the unacked backlog
    // Per-(dir, src) idempotency token, minted monotonically by the source
    // per section. The owner commits it with the applied section (WAL
    // kWalEntryApply records) and no-ops + re-acks any section whose token
    // it has already committed, so a duplicated delivery (retransmit after
    // a lost ack, rebind replay) applies exactly once. 0 = untokened
    // (legacy/aggregation paths; hwm-lane dedup still applies).
    uint64_t batch_token = 0;
  };
  std::vector<PerDir> dirs;
};

struct PushResp : net::Message {
  static constexpr uint32_t kType = 108;
  PushResp() : Message(kType) {}
  StatusCode status = StatusCode::kOk;
  // One verdict per PushReq section, in section order.
  std::vector<SectionVerdict> acked;
  // Adaptive pacing hint (ns): non-zero when this owner's apply backlog is
  // deep (kPushBusyThreshold in push_engine.cc). The source pusher defers its
  // next MTU-triggered drain toward this owner by this long, letting the
  // idle timer coalesce a bigger batch instead of hammering a busy owner.
  int64_t retry_after = 0;
};

// Owner -> origin server after a synchronous fallback apply (§5.2.1): settle
// the backlog's verdict and release the operation's locks. `fp` is the
// fingerprint the backlog was logged under: the verdict's acked_seq is
// meaningful only in that log's numbering, and a concurrent moved_fp rebind
// may have re-keyed (re-numbered) the directory's log under another one.
struct FallbackDone : net::Message {
  static constexpr uint32_t kType = 109;
  FallbackDone() : Message(kType) {}
  psw::Fingerprint fp = 0;
  uint64_t op_token = 0;
  SectionVerdict verdict;
};

// --- lookups (path resolution) ---

struct LookupReq : net::Message {
  static constexpr uint32_t kType = 110;
  LookupReq() : Message(kType) {}
  InodeId pid;
  std::string name;
  std::vector<AncestorRef> ancestors;
};

struct LookupResp : net::Message {
  static constexpr uint32_t kType = 111;
  LookupResp() : Message(kType) {}
  StatusCode status = StatusCode::kOk;
  Attr attr;
  // Server-side time the inode was read under lock; becomes the cache
  // entry's `cached_at` so later invalidations are ordered correctly.
  int64_t read_at = 0;
  std::vector<InodeId> stale_ids;
};

// --- recovery (§5.4.2) ---

struct InvalCloneReq : net::Message {
  static constexpr uint32_t kType = 112;
  InvalCloneReq() : Message(kType) {}
};

struct InvalCloneResp : net::Message {
  static constexpr uint32_t kType = 113;
  InvalCloneResp() : Message(kType) {}
  std::vector<std::pair<InodeId, int64_t>> entries;
};

// --- rename distributed transaction (§5.2, coordinator-driven 2PL/2PC) ---

struct RenamePrepare : net::Message {
  static constexpr uint32_t kType = 114;
  RenamePrepare() : Message(kType) {}
  uint64_t txn_id = 0;
  InodeId pid;
  std::string name;
  bool must_exist = false;   // source leg: validate presence, lock, return attr
  bool must_absent = false;  // destination leg: validate absence, lock
};

struct RenamePrepareResp : net::Message {
  static constexpr uint32_t kType = 115;
  RenamePrepareResp() : Message(kType) {}
  StatusCode status = StatusCode::kOk;
  Attr attr;  // source attr when must_exist
};

struct RenameCommit : net::Message {
  static constexpr uint32_t kType = 116;
  RenameCommit() : Message(kType) {}
  uint64_t txn_id = 0;
  bool abort = false;
  // Applied on the leg's server under the txn's locks:
  bool delete_inode = false;  // source leg
  bool put_inode = false;     // destination leg
  Attr inode;                 // inode to write (destination leg)
  // Deferred parent-directory update entry to log locally (change-log).
  bool log_parent_update = false;
  InodeId parent_dir;
  psw::Fingerprint parent_fp = 0;
  OpType parent_op = OpType::kCreate;
  std::string parent_entry_name;
  FileType parent_entry_type = FileType::kFile;
  // Directory renames: the entry list migrates with the inode.
  bool install = false;
  std::vector<DirEntry> install_entries;
  // Source leg of a directory rename: install a moved tombstone (dir id ->
  // new fingerprint / owner) in place of a bare removal, so change-log
  // entries that committed under the old fingerprint in the rename race
  // window are re-keyed to the new owner instead of trimmed as obsolete.
  // The committing server stamps the tombstone's rename epoch.
  bool moved_tombstone = false;
  InodeId moved_dir;                 // the moving directory's id
  psw::Fingerprint moved_new_fp = 0;
  uint32_t moved_new_owner = 0;
  std::string top;  // subtree routing key of the leg's parent (CephFS-sim)
};

// --- hard links (§5.5): reference object pointing at a remote attributes
// object; ref-count updates are 2PC'd by the owning servers. ---

struct LinkRefUpdate : net::Message {
  static constexpr uint32_t kType = 117;
  LinkRefUpdate() : Message(kType) {}
  InodeId file_id;   // attributes-object id
  int32_t delta = 0; // +1 link, -1 unlink, 0 read
  AttrDelta attr;    // setattr on a hard-linked file (mode / times)
};

struct LinkRefUpdateResp : net::Message {
  static constexpr uint32_t kType = 118;
  LinkRefUpdateResp() : Message(kType) {}
  StatusCode status = StatusCode::kOk;
  uint32_t nlink = 0;  // post-update link count
  Attr attrs;          // current shared attributes (delta == 0 reads them)
};

// First hard link to a file: its owner splits the inode into a reference and
// a shared attributes object (§5.5), bumping the link count.
struct LinkConvert : net::Message {
  static constexpr uint32_t kType = 126;
  LinkConvert() : Message(kType) {}
  InodeId pid;
  std::string name;
};

struct LinkConvertResp : net::Message {
  static constexpr uint32_t kType = 127;
  LinkConvertResp() : Message(kType) {}
  StatusCode status = StatusCode::kOk;
  InodeId file_id;         // the attributes object's id
  uint32_t attr_server = 0;  // server index holding the attributes object
};

// --- alternative dirty-state trackers (§7.3.3, Fig 15/16) ---

struct TrackerOp : net::Message {
  static constexpr uint32_t kType = 120;
  TrackerOp() : Message(kType) {}
  net::DsOp op = net::DsOp::kQuery;
  psw::Fingerprint fp = 0;
  uint64_t remove_seq = 0;
  uint32_t origin_server = 0;
};

struct TrackerResp : net::Message {
  static constexpr uint32_t kType = 121;
  TrackerResp() : Message(kType) {}
  bool ok = false;       // insert success / remove executed
  bool present = false;  // query result
  // Chain-replicated tracker group: a downstream replica did not acknowledge
  // (it is crashed or partitioned). `fault_node` names the unreachable hop so
  // the tracker group can start failover on the right replica.
  bool chain_fault = false;
  net::NodeId fault_node = net::kInvalidNode;
};

// Owner-server tracker mode: mark a directory scattered at its owner.
struct MarkScattered : net::Message {
  static constexpr uint32_t kType = 122;
  MarkScattered() : Message(kType) {}
  psw::Fingerprint fp = 0;
};

// Directory-id invalidation broadcast (rename / SetAttr mode change of a
// directory). For renames it doubles as the eager moved_fp signal: on
// receipt every server cleans up an empty stale-era (old_fp, id) change-log
// slot, or — if it holds pending entries — pushes toward the old owner
// immediately so the moved verdict re-keys them with the tombstone's
// authoritative applied marks. Fetching the verdict now, rather than at the
// next idle timeout, keeps old-era entries ordered ahead of new-era entries
// for the same name: the broadcast is one hop and the verdict one round
// trip, while a client op via the new path needs the rename response plus
// at least one resolution RPC. Moved verdicts on any channel remain the
// catch-up for servers that never see the broadcast.
struct InvalBroadcast : net::Message {
  static constexpr uint32_t kType = 123;
  InvalBroadcast() : Message(kType) {}
  InodeId id;
  // Rename-only rebind hint (moved = true); SetAttr broadcasts leave it unset.
  bool moved = false;
  psw::Fingerprint old_fp = 0;
};

// Asks a directory's owner to aggregate a fingerprint group now (rename of a
// source directory, §5.2; recovery tooling).
struct AggregateReq : net::Message {
  static constexpr uint32_t kType = 124;
  AggregateReq() : Message(kType) {}
  psw::Fingerprint fp = 0;
};

// Tracker-group failover (§5.4.2 analog for tracker faults): the rebuilt
// tracker reconstructs its dirty set from the servers' durable scattered-key
// state — every fingerprint group that still holds pending change-log
// entries (entries are WAL-backed, so this survives server crashes too).
struct ScatteredSnapshotReq : net::Message {
  static constexpr uint32_t kType = 128;
  ScatteredSnapshotReq() : Message(kType) {}
};

struct ScatteredSnapshotResp : net::Message {
  static constexpr uint32_t kType = 129;
  ScatteredSnapshotResp() : Message(kType) {}
  std::vector<psw::Fingerprint> fps;  // fingerprints with pending entries
};

// Entry-list migration leg for directory renames: the renamed directory's
// entry list moves with its inode to the new owner.
struct EntryListBlob : net::Message {
  static constexpr uint32_t kType = 125;
  EntryListBlob() : Message(kType) {}
  InodeId dir;
  std::vector<DirEntry> entries;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_MESSAGES_H_
