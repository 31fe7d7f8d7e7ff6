// WAL record payloads (paper §5.4.2, §A.1). Four record types cover
// everything recovery needs. Each type's KV mutation is one apply function
// in write_path.h, called by the live commit and by recovery
// (SwitchServer::ReplayWalInto) alike.
//   * OpCommit    — a committed local operation (create, mkdir, unlink,
//                   rmdir, SetAttr, a rename commit leg, a hard-link
//                   update): the inode mutation plus (for double-inode ops)
//                   the change-log entry for the remote parent. Redo
//                   rebuilds the KV store; un-"applied" records also
//                   rebuild the change-log backlog.
//   * BulkCommit  — one BulkInsert batch: every created inode row and its
//                   parent entry, under a single record.
//   * EntryApply  — the owner persisted a received change-log entry before
//                   applying it to the directory inode (§5.2.2 step 7). The
//                   record carries the *resulting* directory size/mtime so
//                   redo is idempotent, and advances the per-(dir, source)
//                   high-water mark that dedups re-sent entries (§A.1).
//   * WanApply    — the same for a geo-replicated dirent apply (src/wan/).
#ifndef SRC_CORE_WAL_RECORDS_H_
#define SRC_CORE_WAL_RECORDS_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"
#include "src/core/change_log.h"
#include "src/core/types.h"
#include "src/pswitch/fingerprint.h"

namespace switchfs::core {

enum WalRecordType : uint32_t {
  kWalOpCommit = 1,
  kWalEntryApply = 2,
  kWalBulkCommit = 3,
  kWalWanApply = 4,
};

struct OpCommitRecord {
  OpType op = OpType::kCreate;
  // The inode row this record puts (inode_value) or deletes (inode_delete).
  std::string inode_key;
  std::string inode_value;
  bool inode_delete = false;
  // Deferred update to a remote parent directory (empty dir => none).
  InodeId parent_dir;
  psw::Fingerprint parent_fp = 0;
  ChangeLogEntry entry;
  bool has_entry = false;
  // Directory-rename source leg: the moved tombstone (dir id -> new
  // fingerprint/owner at rename epoch) rides the commit record so WAL replay
  // re-installs it — an old-owner crash must not turn rename-away back into
  // indistinguishable-from-removed for in-flight change-logs.
  bool has_moved_tombstone = false;
  InodeId moved_dir;
  psw::Fingerprint moved_old_fp = 0;
  psw::Fingerprint moved_new_fp = 0;
  uint32_t moved_new_owner = 0;
  uint64_t moved_epoch = 0;
  // Pre-rename applied marks per source (the tombstone's `applied` snapshot;
  // the live hwm rows are erased at install — rename era boundary).
  std::vector<std::pair<uint32_t, uint64_t>> moved_applied;
  // Directory-rename destination leg: the migrated entry list. The put-leg
  // commit installs these rows in the KV store; without them in the record a
  // new-owner crash replays the directory's attr (size included) but loses
  // every migrated dirent.
  std::vector<DirEntry> install_entries;

  std::string Encode() const {
    Encoder enc;
    enc.PutU8(static_cast<uint8_t>(op));
    enc.PutString(inode_key);
    enc.PutString(inode_value);
    enc.PutBool(inode_delete);
    parent_dir.EncodeTo(enc);
    enc.PutU64(parent_fp);
    enc.PutBool(has_entry);
    if (has_entry) {
      entry.EncodeTo(enc);
    }
    enc.PutBool(has_moved_tombstone);
    if (has_moved_tombstone) {
      moved_dir.EncodeTo(enc);
      enc.PutU64(moved_old_fp);
      enc.PutU64(moved_new_fp);
      enc.PutU32(moved_new_owner);
      enc.PutU64(moved_epoch);
      enc.PutU32(static_cast<uint32_t>(moved_applied.size()));
      for (const auto& [src, seq] : moved_applied) {
        enc.PutU32(src);
        enc.PutU64(seq);
      }
    }
    enc.PutU32(static_cast<uint32_t>(install_entries.size()));
    for (const DirEntry& e : install_entries) {
      enc.PutString(e.name);
      enc.PutU8(static_cast<uint8_t>(e.type));
    }
    return std::move(enc).Take();
  }

  static OpCommitRecord Decode(const std::string& data) {
    Decoder dec(data);
    OpCommitRecord r;
    r.op = static_cast<OpType>(dec.GetU8());
    r.inode_key = dec.GetString();
    r.inode_value = dec.GetString();
    r.inode_delete = dec.GetBool();
    r.parent_dir = InodeId::DecodeFrom(dec);
    r.parent_fp = dec.GetU64();
    r.has_entry = dec.GetBool();
    if (r.has_entry) {
      r.entry = ChangeLogEntry::DecodeFrom(dec);
    }
    r.has_moved_tombstone = dec.GetBool();
    if (r.has_moved_tombstone) {
      r.moved_dir = InodeId::DecodeFrom(dec);
      r.moved_old_fp = dec.GetU64();
      r.moved_new_fp = dec.GetU64();
      r.moved_new_owner = dec.GetU32();
      r.moved_epoch = dec.GetU64();
      const uint32_t rows = dec.GetU32();
      r.moved_applied.reserve(rows);
      for (uint32_t i = 0; i < rows; ++i) {
        const uint32_t src = dec.GetU32();
        const uint64_t seq = dec.GetU64();
        r.moved_applied.emplace_back(src, seq);
      }
    }
    const uint32_t installs = dec.GetU32();
    r.install_entries.reserve(installs);
    for (uint32_t i = 0; i < installs; ++i) {
      DirEntry e;
      e.name = dec.GetString();
      e.type = static_cast<FileType>(dec.GetU8());
      r.install_entries.push_back(std::move(e));
    }
    return r;
  }
};

// One WAL-committed multi-entry append (BulkInsert): every created inode
// row plus its deferred parent-update entry, sharing a single record (and
// so a single simulated persistence round). All items target the same
// parent directory / fingerprint group. On replay, only the FINAL item's
// change-log entry is stamped with the record's LSN: entries ack in FIFO
// order, so the record may be marked applied only once its last entry is
// acked — a partial ack followed by a crash re-pushes the whole batch and
// the owner's high-water mark dedups the already-applied prefix.
struct BulkCommitRecord {
  InodeId parent_dir;
  psw::Fingerprint parent_fp = 0;
  struct Item {
    std::string inode_key;
    std::string inode_value;
    ChangeLogEntry entry;
  };
  std::vector<Item> items;

  std::string Encode() const {
    Encoder enc;
    parent_dir.EncodeTo(enc);
    enc.PutU64(parent_fp);
    enc.PutU32(static_cast<uint32_t>(items.size()));
    for (const Item& it : items) {
      enc.PutString(it.inode_key);
      enc.PutString(it.inode_value);
      it.entry.EncodeTo(enc);
    }
    return std::move(enc).Take();
  }

  static BulkCommitRecord Decode(const std::string& data) {
    Decoder dec(data);
    BulkCommitRecord r;
    r.parent_dir = InodeId::DecodeFrom(dec);
    r.parent_fp = dec.GetU64();
    const uint32_t n = dec.GetU32();
    r.items.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Item it;
      it.inode_key = dec.GetString();
      it.inode_value = dec.GetString();
      it.entry = ChangeLogEntry::DecodeFrom(dec);
      r.items.push_back(std::move(it));
    }
    return r;
  }
};

struct EntryApplyRecord {
  InodeId dir;
  uint32_t src_server = 0;
  psw::Fingerprint fp = 0;  // dedup lane (see ServerVolatile::hwm)
  ChangeLogEntry entry;
  // Resulting absolute directory attributes (idempotent redo).
  uint64_t result_size = 0;
  int64_t result_mtime = 0;
  // Push-batch idempotency token of the section this apply belonged to
  // (0 = untokened path). Replay rebuilds ServerVolatile::push_tokens from
  // it, so a duplicate delivered after the owner's crash still no-ops.
  uint64_t batch_token = 0;

  std::string Encode() const {
    Encoder enc;
    dir.EncodeTo(enc);
    enc.PutU32(src_server);
    enc.PutU64(fp);
    entry.EncodeTo(enc);
    enc.PutU64(result_size);
    enc.PutI64(result_mtime);
    enc.PutU64(batch_token);
    return std::move(enc).Take();
  }

  static EntryApplyRecord Decode(const std::string& data) {
    Decoder dec(data);
    EntryApplyRecord r;
    r.dir = InodeId::DecodeFrom(dec);
    r.src_server = dec.GetU32();
    r.fp = dec.GetU64();
    r.entry = ChangeLogEntry::DecodeFrom(dec);
    r.result_size = dec.GetU64();
    r.result_mtime = dec.GetI64();
    r.batch_token = dec.GetU64();
    return r;
  }
};

// One WAN-replicated dirent apply persisted at the receiving owner before it
// mutates the directory (the geo-replication analog of EntryApply). The
// record carries the entry's origin identity — the LWW stamp rebuilds from
// it on replay — and the resulting absolute directory attributes so redo is
// idempotent. Records exist only for entries that WON their LWW comparison
// at runtime, so replay applies them unconditionally in WAL order (a
// later-logged record always carries a stamp >= every earlier record for the
// same name; see WanApplier).
struct WanApplyRecord {
  uint32_t origin_cluster = 0;
  InodeId dir;
  uint32_t src_server = 0;
  ChangeLogEntry entry;
  // Resulting absolute directory attributes (idempotent redo).
  uint64_t result_size = 0;
  int64_t result_mtime = 0;

  std::string Encode() const {
    Encoder enc;
    enc.PutU32(origin_cluster);
    dir.EncodeTo(enc);
    enc.PutU32(src_server);
    entry.EncodeTo(enc);
    enc.PutU64(result_size);
    enc.PutI64(result_mtime);
    return std::move(enc).Take();
  }

  static WanApplyRecord Decode(const std::string& data) {
    Decoder dec(data);
    WanApplyRecord r;
    r.origin_cluster = dec.GetU32();
    r.dir = InodeId::DecodeFrom(dec);
    r.src_server = dec.GetU32();
    r.entry = ChangeLogEntry::DecodeFrom(dec);
    r.result_size = dec.GetU64();
    r.result_mtime = dec.GetI64();
    return r;
  }
};

}  // namespace switchfs::core

#endif  // SRC_CORE_WAL_RECORDS_H_
