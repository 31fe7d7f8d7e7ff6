// Core metadata types shared by SwitchFS and the baseline systems: 256-bit
// inode/directory identifiers (paper §4.3), attribute blocks, directory
// entries, and operation tags.
#ifndef SRC_CORE_TYPES_H_
#define SRC_CORE_TYPES_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "src/common/bytes.h"
#include "src/common/hash.h"

namespace switchfs::core {

// 256-bit identifier, unique per directory/file for the filesystem lifetime
// (paper: "each directory has a 256-bit id").
struct InodeId {
  std::array<uint64_t, 4> w{0, 0, 0, 0};

  bool operator==(const InodeId& o) const { return w == o.w; }
  bool operator!=(const InodeId& o) const { return w != o.w; }
  bool operator<(const InodeId& o) const { return w < o.w; }

  bool IsZero() const { return w[0] == 0 && w[1] == 0 && w[2] == 0 && w[3] == 0; }

  uint64_t Hash64() const {
    return HashCombine(HashCombine(w[0], w[1]), HashCombine(w[2], w[3]));
  }

  void EncodeTo(Encoder& enc) const {
    for (uint64_t v : w) {
      enc.PutU64(v);
    }
  }
  static InodeId DecodeFrom(Decoder& dec) {
    InodeId id;
    for (auto& v : id.w) {
      v = dec.GetU64();
    }
    return id;
  }

  // Compact string form used inside KV keys.
  std::string ToKeyBytes() const {
    std::string out(32, '\0');
    for (int i = 0; i < 4; ++i) {
      std::memcpy(out.data() + i * 8, &w[i], 8);
    }
    return out;
  }

  std::string ToShortString() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%08llx",
                  static_cast<unsigned long long>(w[0] ^ w[1] ^ w[2] ^ w[3]));
    return buf;
  }
};

// The root directory has a well-known id.
inline InodeId RootId() {
  InodeId id;
  id.w[3] = 1;
  return id;
}

struct InodeIdHash {
  size_t operator()(const InodeId& id) const {
    return static_cast<size_t>(id.Hash64());
  }
};

enum class FileType : uint8_t {
  kFile = 0,
  kDirectory = 1,
  // Hard-link support (§5.5): the inode value is a *reference* pointing at a
  // shared attributes object. For a reference Attr: `id` is the attributes
  // object's file id and `size` holds the index of the server storing it.
  kReference = 2,
};

// Attribute block (Tab 3: timestamps, permissions, size, ...).
struct Attr {
  InodeId id;
  FileType type = FileType::kFile;
  uint32_t mode = 0644;
  uint64_t size = 0;      // files: bytes; directories: entry count
  int64_t ctime = 0;
  int64_t mtime = 0;
  int64_t atime = 0;
  uint32_t nlink = 1;

  bool is_dir() const { return type == FileType::kDirectory; }

  void EncodeTo(Encoder& enc) const {
    id.EncodeTo(enc);
    enc.PutU8(static_cast<uint8_t>(type));
    enc.PutU32(mode);
    enc.PutU64(size);
    enc.PutI64(ctime);
    enc.PutI64(mtime);
    enc.PutI64(atime);
    enc.PutU32(nlink);
  }
  static Attr DecodeFrom(Decoder& dec) {
    Attr a;
    a.id = InodeId::DecodeFrom(dec);
    a.type = static_cast<FileType>(dec.GetU8());
    a.mode = dec.GetU32();
    a.size = dec.GetU64();
    a.ctime = dec.GetI64();
    a.mtime = dec.GetI64();
    a.atime = dec.GetI64();
    a.nlink = dec.GetU32();
    return a;
  }

  std::string Encode() const {
    Encoder enc;
    EncodeTo(enc);
    return std::move(enc).Take();
  }
  static Attr Decode(const std::string& data) {
    Decoder dec(data);
    return DecodeFrom(dec);
  }
};

struct DirEntry {
  std::string name;
  FileType type = FileType::kFile;
};

// Metadata operation kinds, used in change-log entries and workload specs.
enum class OpType : uint8_t {
  kCreate = 0,
  kUnlink = 1,
  kMkdir = 2,
  kRmdir = 3,
  kRename = 4,
  kStat = 5,
  kStatDir = 6,
  kReaddir = 7,
  kOpen = 8,
  kClose = 9,
  kLink = 12,
  // MetadataService v2 (directory handles, batched lookups, attr deltas).
  kOpenDir = 13,
  kReaddirPage = 14,
  kCloseDir = 15,
  kBatchStat = 16,
  kSetAttr = 17,
  kBulkInsert = 18,
};

const char* OpTypeName(OpType op);

// Partial attribute update (SetAttr, chmod/utimens-class). Unset fields keep
// their current value; mtime/atime move only forward (concurrent deferred
// entry applies use max-merge, so a backward explicit stamp would be
// silently re-overwritten anyway).
struct AttrDelta {
  bool set_mode = false;
  uint32_t mode = 0644;
  bool set_times = false;
  int64_t mtime = 0;
  int64_t atime = 0;

  bool empty() const { return !set_mode && !set_times; }
  // Applies the delta in place; returns true if anything changed.
  bool ApplyTo(Attr& attr, int64_t now) const {
    bool changed = false;
    if (set_mode && attr.mode != mode) {
      attr.mode = mode;
      changed = true;
    }
    if (set_times) {
      if (mtime > attr.mtime) {
        attr.mtime = mtime;
        changed = true;
      }
      if (atime > attr.atime) {
        attr.atime = atime;
        changed = true;
      }
    }
    if (changed) {
      attr.ctime = now;
    }
    return changed;
  }
};

}  // namespace switchfs::core

#endif  // SRC_CORE_TYPES_H_
