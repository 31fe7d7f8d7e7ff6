#include "src/core/write_path.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/core/schema.h"

namespace switchfs::core {

std::vector<DirEntry> ApplyOpCommit(ServerVolatile& v,
                                    const OpCommitRecord& rec, int64_t now) {
  std::vector<DirEntry> removed;
  // Only these ops create or remove a directory; the rows of the others
  // (files, SetAttr, link objects) are written without a read or decode.
  const bool dir_op = rec.op == OpType::kMkdir || rec.op == OpType::kRmdir ||
                      rec.op == OpType::kRename;
  if (rec.inode_delete) {
    std::optional<std::string> old;
    if (dir_op) {
      old = v.kv.Get(rec.inode_key);
    }
    v.kv.Delete(rec.inode_key);
    if (old.has_value()) {
      const Attr attr = Attr::Decode(*old);
      if (attr.is_dir()) {
        v.kv.ScanPrefix(EntryPrefix(attr.id),
                        [&](const std::string& k, const std::string& val) {
                          removed.push_back(
                              DirEntry{std::string(EntryNameFromKey(k)),
                                       DecodeEntryValue(val)});
                          return true;
                        });
        for (const DirEntry& e : removed) {
          v.kv.Delete(EntryKey(attr.id, e.name));
        }
        v.kv.Delete(DirIndexKey(attr.id));
      }
    }
  } else {
    v.kv.Put(rec.inode_key, rec.inode_value);
    if (dir_op) {
      const Attr attr = Attr::Decode(rec.inode_value);
      if (attr.is_dir()) {
        if (rec.op == OpType::kRename) {
          v.TakeHwmRows(attr.id, 0);
        }
        // The key embeds (pid, name), whose hash is the directory's own
        // fingerprint: this server owns it.
        v.kv.Put(DirIndexKey(attr.id),
                 EncodeDirIndex(rec.inode_key,
                                FingerprintFromInodeKey(rec.inode_key)));
        for (const DirEntry& e : rec.install_entries) {
          v.kv.Put(EntryKey(attr.id, e.name), EncodeEntryValue(e.type));
        }
      }
    }
  }
  if (rec.has_moved_tombstone) {
    // The live leg took these rows into rec.moved_applied before its WAL
    // append, so this only closes lanes a replay rebuilt.
    v.TakeHwmRows(rec.moved_dir, rec.moved_old_fp);
    ServerVolatile::MovedDir tomb;
    tomb.old_fp = rec.moved_old_fp;
    tomb.new_fp = rec.moved_new_fp;
    tomb.new_owner = rec.moved_new_owner;
    tomb.epoch = rec.moved_epoch;
    tomb.installed_at = now;
    tomb.applied = rec.moved_applied;
    v.InstallMovedTombstone(rec.moved_dir, tomb);
  }
  return removed;
}

void ApplyBulkCommit(ServerVolatile& v, const BulkCommitRecord& rec) {
  for (const BulkCommitRecord::Item& item : rec.items) {
    v.kv.Put(item.inode_key, item.inode_value);
  }
}

void RestoreBulkEntries(ChangeLog& clog, const BulkCommitRecord& rec,
                        uint64_t lsn) {
  for (size_t k = 0; k < rec.items.size(); ++k) {
    ChangeLogEntry entry = rec.items[k].entry;
    entry.wal_lsn = k + 1 == rec.items.size() ? lsn : 0;
    clog.Restore(std::move(entry));
  }
}

void ApplyEntryRow(ServerVolatile& v, const InodeId& dir,
                   const ChangeLogEntry& entry) {
  const std::string ekey = EntryKey(dir, entry.name);
  if (entry.op == OpType::kCreate || entry.op == OpType::kMkdir) {
    v.kv.Put(ekey, EncodeEntryValue(entry.entry_type));
  } else {
    v.kv.Delete(ekey);
  }
}

void ApplyDirAttr(ServerVolatile& v, const std::string& ikey, Attr& attr,
                  uint64_t size, int64_t mtime) {
  attr.size = size;
  attr.mtime = std::max(attr.mtime, mtime);
  attr.atime = std::max(attr.atime, mtime);
  v.kv.Put(ikey, attr.Encode());
}

void RedoDirentApply(ServerVolatile& v, const InodeId& dir,
                     const ChangeLogEntry& entry, const LwwStamp& stamp,
                     uint64_t result_size, int64_t result_mtime) {
  std::string ikey;
  psw::Fingerprint fp = 0;
  const std::optional<std::string> value = v.LiveDirRow(dir, &ikey, &fp);
  if (!value.has_value()) {
    return;
  }
  ApplyEntryRow(v, dir, entry);
  const std::string skey = LwwStampKey(dir, entry.name);
  auto srow = v.kv.Get(skey);
  if (!srow.has_value() || LwwStamp::Decode(*srow) < stamp) {
    v.kv.Put(skey, stamp.Encode());
  }
  Attr attr = Attr::Decode(*value);
  ApplyDirAttr(v, ikey, attr, result_size, result_mtime);
}

sim::Task<std::vector<DirEntry>> CommitOp(ServerContext& ctx, VolPtr v,
                                          OpCommitRecord& rec,
                                          sim::SimTime kv_cost) {
  LockTable::Handle append_lock;
  if (rec.has_entry) {
    append_lock = co_await v->changelog_append_locks.AcquireExclusive(
        ClAppendKey(rec.parent_fp, rec.parent_dir));
    rec.entry.seq =
        v->GetChangeLog(rec.parent_fp, rec.parent_dir).last_appended_seq() +
        1;
  }
  co_await ctx.cpu->Run(ctx.costs->wal_append);
  const uint64_t lsn = ctx.durable->wal.Append(kWalOpCommit, rec.Encode());
  co_await ctx.cpu->Run(kv_cost);
  std::vector<DirEntry> removed = ApplyOpCommit(*v, rec, ctx.Now());
  if (rec.has_entry) {
    co_await ctx.cpu->Run(ctx.costs->changelog_append);
    rec.entry.wal_lsn = lsn;
    // Re-found after the suspensions: the append mutex pins the log's
    // sequence, not a reference into the slot map.
    v->GetChangeLog(rec.parent_fp, rec.parent_dir).Restore(rec.entry);
  }
  co_return removed;
}

}  // namespace switchfs::core
