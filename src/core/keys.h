// Derived KV and lock-table keys shared by the SwitchFS server's protocol
// modules and the baseline systems (paper §4.3, Tab 3). The primary schema
// keys ("i" inode, "e" entry) live in src/core/schema.h; this header covers
// the single-id auxiliary records and the per-fingerprint lock keys.
#ifndef SRC_CORE_KEYS_H_
#define SRC_CORE_KEYS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/core/schema.h"
#include "src/core/types.h"
#include "src/pswitch/fingerprint.h"

namespace switchfs::core {

// Decodes the 32-byte inode id embedded at offset 1 of a schema key: the pid
// half of an inode key "i" + pid + name, or the id of an id-keyed row.
inline InodeId IdFromKeyBytes(std::string_view key) {
  InodeId id;
  for (int i = 0; i < 4; ++i) {
    std::memcpy(&id.w[i], key.data() + 1 + i * 8, sizeof(uint64_t));
  }
  return id;
}

// Fingerprint of an inode key "i" + pid(32B) + name: the (pid, name) hash
// that picks the key's owner server.
inline psw::Fingerprint FingerprintFromInodeKey(std::string_view key) {
  return FingerprintOf(IdFromKeyBytes(key), key.substr(33));
}

// Lock-table key of a fingerprint group: "f" + raw 8-byte fingerprint. Used
// for change-log locks and owner-side aggregation gates (one per group).
inline std::string FpKey(psw::Fingerprint fp) {
  std::string key(1 + sizeof(fp), '\0');
  key[0] = 'f';
  std::memcpy(key.data() + 1, &fp, sizeof(fp));
  return key;
}

// "<prefix>" + id(32B): auxiliary records keyed by a single inode id.
inline std::string IdKey(char prefix, const InodeId& id) {
  std::string key;
  key.reserve(33);
  key.push_back(prefix);
  key += id.ToKeyBytes();
  return key;
}

// Key of a shared attributes object (hard links, §5.5).
inline std::string AttrKey(const InodeId& id) { return IdKey('a', id); }

// Lock-table key of ONE change-log's append mutex: "l" + fingerprint + dir.
// Serializes sequence-number assignment against the log (upsert/rmdir/rename
// commit legs/link legs/moved_fp renumbering) independently of the fp-group
// change-log lock — commit legs cannot take the group lock (it would invert
// the upsert's cl-then-inode order), so a seq captured before their WAL
// suspension used to go stale against a concurrent append or rebind.
inline std::string ClAppendKey(psw::Fingerprint fp, const InodeId& dir) {
  std::string key;
  key.reserve(1 + sizeof(fp) + 32);
  key.push_back('l');
  key.append(reinterpret_cast<const char*>(&fp), sizeof(fp));
  key += dir.ToKeyBytes();
  return key;
}

// Key of the "d" (dir-id -> inode key) index used by aggregation applies.
inline std::string DirIndexKey(const InodeId& id) { return IdKey('d', id); }
// Prefix covering every dir-index row (recovery re-aggregation scan).
inline constexpr const char* kDirIndexPrefix = "d";

// Key of a baseline system's authoritative directory content record, kept at
// the directory's home server (src/baselines).
inline std::string ContentKey(const InodeId& dir) { return IdKey('c', dir); }

// ---- per-entry LWW commit stamps (WAN replication + cross-era ordering) ----
//
// One row per (directory, name) at the directory's owner: the commit stamp of
// the last dirent write applied for that name. Writes (local change-log
// applies and WAN replays alike) compare their stamp against the row and
// no-op when they lose — last-writer-wins with a total order of
// (timestamp, origin cluster, source server, seq). The row persists across an
// unlink (a delete tombstone), so a late create carrying an older stamp
// cannot resurrect a name a newer delete removed. Rebuilt from the WAL on
// recovery (kWalEntryApply / kWalWanApply records carry the stamp fields).

// Key of a name's LWW stamp row: "w" + dir(32B) + name.
inline std::string LwwStampKey(const InodeId& dir, std::string_view name) {
  std::string key;
  key.reserve(33 + name.size());
  key.push_back('w');
  key += dir.ToKeyBytes();
  key.append(name.data(), name.size());
  return key;
}

struct LwwStamp {
  int64_t ts = 0;           // commit timestamp at the origin
  uint32_t origin = 0;      // origin cluster id (ServerConfig::cluster_id)
  uint32_t src = 0;         // origin source server (tie-break)
  uint64_t seq = 0;         // origin change-log seq (tie-break)

  // Strict total order; equal stamps are the same write (idempotent re-apply
  // is allowed, so callers drop only on Less(incoming, existing)).
  friend bool operator<(const LwwStamp& a, const LwwStamp& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.origin != b.origin) return a.origin < b.origin;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }

  std::string Encode() const {
    Encoder enc;
    enc.PutI64(ts);
    enc.PutU32(origin);
    enc.PutU32(src);
    enc.PutU64(seq);
    return std::move(enc).Take();
  }
  static LwwStamp Decode(const std::string& value) {
    Decoder dec(value);
    LwwStamp s;
    s.ts = dec.GetI64();
    s.origin = dec.GetU32();
    s.src = dec.GetU32();
    s.seq = dec.GetU64();
    return s;
  }
};

// Encoded value of a dir-index row: (inode key, fingerprint).
inline std::string EncodeDirIndex(const std::string& inode_key,
                                  psw::Fingerprint fp) {
  Encoder enc;
  enc.PutString(inode_key);
  enc.PutU64(fp);
  return std::move(enc).Take();
}

inline void DecodeDirIndex(const std::string& value, std::string* inode_key,
                           psw::Fingerprint* fp) {
  Decoder dec(value);
  *inode_key = dec.GetString();
  *fp = dec.GetU64();
}

}  // namespace switchfs::core

#endif  // SRC_CORE_KEYS_H_
