// Packet and message vocabulary for the simulated UDP fabric.
//
// Mirrors the SwitchFS packet format (paper §6.1, Fig 9): an Ethernet/IP/UDP
// envelope (modeled by src/dst node ids and a byte size), an *optional*
// dirty-set operation header that the programmable switch parses and acts on,
// and an opaque DFS request/response payload that only end hosts interpret.
// SwitchFS reserves two UDP ports to distinguish packets with and without the
// dirty-set header; here that is the `ds.op != DsOp::kNone` predicate.
#ifndef SRC_NET_PACKET_H_
#define SRC_NET_PACKET_H_

#include <array>
#include <cstdint>
#include <memory>

namespace switchfs::net {

using NodeId = uint32_t;
constexpr NodeId kInvalidNode = 0xffffffffu;
// Destination meaning "all metadata servers except ds.origin" — expanded by
// the switch's multicast engine (used by aggregation requests, §5.2.2 step 5).
constexpr NodeId kServerMulticast = 0xfffffffeu;

// Dirty-set operations encoded in the optional header (Fig 9: OP field).
enum class DsOp : uint8_t {
  kNone = 0,    // regular packet, forwarded by destination MAC
  kQuery = 1,   // RET <- fingerprint present?
  kInsert = 2,  // insert fingerprint; multicast ack or overflow-fallback
  kRemove = 3,  // remove fingerprint; multicast body to the server group
};

struct DsHeader {
  DsOp op = DsOp::kNone;
  uint64_t fingerprint = 0;  // 49 significant bits (17-bit index + 32-bit tag)
  // Remove-request sequence number, per sending server (§5.4.1): the switch
  // only honors a remove whose seq exceeds all previously seen from `origin`.
  uint64_t remove_seq = 0;
  bool ret = false;          // RET field, written by the switch on query/insert
  NodeId origin = kInvalidNode;   // server that issued the dirty-set op
  NodeId notify = kInvalidNode;   // second ack target on insert (the client)
  NodeId alt_dst = kInvalidNode;  // "alternative MAC": fallback owner server
};

// Metadata-cache operations encoded in the optional read-cache header. Like
// the dirty-set header these are switch-parsed fields, not payload bytes: the
// switch never interprets message bodies, so everything it needs (fingerprint,
// packed attr record, set-version echo) rides the header.
enum class McOp : uint8_t {
  kNone = 0,     // no cache involvement
  kRead = 1,     // lookup/stat request: serve from the cache on a tag hit
  kInstall = 2,  // owner's read reply: install the record (version-guarded)
  kEvict = 3,    // writer's pre-commit invalidate (or broadcast-piggybacked)
};

// Packed attribute record stored per cache way, 32-bit register words to
// match the Tofino register model: 256-bit id (8), type (1), mode (1),
// size (2), ctime/mtime/atime (2 each), nlink (1), owner read timestamp (2).
constexpr int kCacheRecordWords = 21;
using CacheRecord = std::array<uint32_t, kCacheRecordWords>;

struct CacheHeader {
  McOp op = McOp::kNone;
  uint64_t fingerprint = 0;  // 49 significant bits, same layout as DsHeader
  // Per-set version echo: a kRead miss stamps the set's current version; the
  // owner's kInstall echoes it back and the switch rejects the install if any
  // evict bumped the version in between (prevents a stale install racing a
  // concurrent write's invalidation).
  uint32_t version = 0;
  CacheRecord record{};  // kInstall: the packed attr to store
  uint64_t token = 0;    // kEvict: writer's ack-matching token
};

// Base class for typed payloads. Each module assigns message types from its
// own range; handlers switch on `type` and static_cast.
struct Message {
  explicit Message(uint32_t t) : type(t) {}
  virtual ~Message() = default;
  uint32_t type;
};

using MsgPtr = std::shared_ptr<Message>;

template <typename T, typename... Args>
MsgPtr MakeMsg(Args&&... args) {
  return std::make_shared<T>(std::forward<Args>(args)...);
}

template <typename T>
const T* MsgAs(const MsgPtr& m) {
  return (m && m->type == T::kType) ? static_cast<const T*>(m.get()) : nullptr;
}

// RPC envelope. call_id is unique per (caller, call); retransmits reuse it so
// receivers can suppress duplicates (§5.4.1: "(sender server, sequence
// number) tuple attached to each packet"). On a request, ended_below is the
// caller's lowest still-pending call id: every call of `caller` with a
// smaller id has ended (replied or given up), so the receiver may forget its
// completion records for them (RIFL's "first incomplete RPC id").
struct RpcHeader {
  uint64_t call_id = 0;
  NodeId caller = kInvalidNode;
  bool is_response = false;
  uint64_t ended_below = 0;
};

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  DsHeader ds;
  CacheHeader mc;
  RpcHeader rpc;
  MsgPtr body;
  uint32_t size_bytes = 128;

  bool has_ds_op() const { return ds.op != DsOp::kNone; }
  bool has_mc_op() const { return mc.op != McOp::kNone; }
};

}  // namespace switchfs::net

#endif  // SRC_NET_PACKET_H_
