// The public client-facing API (MetadataService v2). Every system in the
// repository — SwitchFS and the four baselines — exposes this interface, so
// workloads, examples, benches, and the consistency tests run unmodified
// across systems.
//
// v2 redesign (directory handles, cookie-paged readdir, batched lookups):
//
//  * OpenDir / ReaddirPage / CloseDir replace the monolithic everything-in-
//    one-RPC directory listing. OpenDir makes the directory consistent once
//    (SwitchFS: dirty-set check + aggregation under the owner's agg gate)
//    and opens an owner-side session; ReaddirPage serves bounded pages via
//    an opaque cookie. SwitchFS sessions are KV cursors (a resume key; each
//    page scans on from it), the baselines' are positional snapshots. The
//    page stream never drops an entry committed before the open and never
//    duplicates an entry across pages, regardless of concurrent
//    creates/unlinks/renames. Sessions expire server-side after an
//    inactivity TTL (and die with an owner crash); a page call against a
//    dead session fails with kStaleHandle and the caller re-opens.
//  * BatchStat amortizes lookup fan-out: the client groups targets by owner
//    placement and ships one multi-target request per server (the read-path
//    mirror of the per-owner push batching).
//  * SetAttr is the chmod/utimens-class partial attribute update, committed
//    through the same WAL path as the other mutations.
//
// All calls are coroutines driven by the discrete-event simulator; latency
// and throughput fall out of simulated time.
#ifndef SRC_CORE_METADATA_SERVICE_H_
#define SRC_CORE_METADATA_SERVICE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/types.h"
#include "src/sim/task.h"

namespace switchfs::core {

// Client-local directory handle returned by OpenDir. Opaque: the id indexes
// the client's handle table (which remembers the owner routing and the
// server-side session); handles are not transferable between clients.
struct DirHandle {
  uint64_t id = 0;
  bool valid() const { return id != 0; }
};

// One page of a directory stream. `next_cookie` feeds the next ReaddirPage
// call; when `at_end` is set the stream is exhausted (next_cookie is then
// meaningless). Cookies are opaque to callers and only valid for the handle
// they came from.
struct DirPage {
  std::vector<DirEntry> entries;
  uint64_t next_cookie = 0;
  bool at_end = false;
};

// Cookie that starts a directory stream from the beginning.
inline constexpr uint64_t kDirStreamStart = 0;

// --- byte-budget page packing (shared by all five systems) ---
//
// A readdir page is filled until the next entry would overflow the
// transport's kPageMtuBytes budget; kPageMtuEntries is only a hard cap.
// BulkInsert chunks its requests by the same budget. Each entry's wire
// footprint is its name plus the fixed framing a production page carries
// per entry: a type tag, a length-prefixed name, and the readdirplus-style
// attr summary (id + size + mtime).
inline constexpr int kPageMtuBytes = 1400;
inline constexpr int kPageMtuEntries = 128;
inline constexpr size_t kDirEntryWireFixed = 19;

inline size_t DirEntryWireSize(const std::string& name) {
  return kDirEntryWireFixed + name.size();
}

// True if an entry of `wire` bytes still fits a page currently holding
// `used` bytes / `count` entries. Every page admits at least one entry so
// oversized names cannot wedge a stream. `mtu_bytes <= 0` disables the byte
// budget (entry-count-only paging).
inline bool PageHasRoom(size_t used, int count, size_t wire, int mtu_bytes,
                        int max_entries) {
  if (count == 0) {
    return true;
  }
  if (max_entries > 0 && count >= max_entries) {
    return false;
  }
  return mtu_bytes <= 0 || used + wire <= static_cast<size_t>(mtu_bytes);
}

class MetadataService {
 public:
  virtual ~MetadataService() = default;

  // Double-inode operations (§5.2.1, §5.2.3).
  virtual sim::Task<Status> Create(const std::string& path) = 0;
  virtual sim::Task<Status> Unlink(const std::string& path) = 0;
  virtual sim::Task<Status> Mkdir(const std::string& path) = 0;
  virtual sim::Task<Status> Rmdir(const std::string& path) = 0;

  // Single-inode operations.
  virtual sim::Task<StatusOr<Attr>> Stat(const std::string& path) = 0;
  virtual sim::Task<StatusOr<Attr>> StatDir(const std::string& path) = 0;
  virtual sim::Task<StatusOr<Attr>> Open(const std::string& path) = 0;
  virtual sim::Task<Status> Close(const std::string& path) = 0;

  // Partial attribute update (chmod / utimens). Commits at the target's
  // owner through the regular mutation WAL path.
  virtual sim::Task<Status> SetAttr(const std::string& path,
                                    const AttrDelta& delta) = 0;

  // --- directory streams (v2) ---
  virtual sim::Task<StatusOr<DirHandle>> OpenDir(const std::string& path) = 0;
  // Serves the page at `cookie` (kDirStreamStart begins the stream). Pages
  // fill to the kPageMtuBytes budget (DirEntryWireSize per entry), with
  // kPageMtuEntries as the hard entry-count cap.
  // Fails with kStaleHandle when the server-side session expired or died.
  virtual sim::Task<StatusOr<DirPage>> ReaddirPage(const DirHandle& handle,
                                                   uint64_t cookie) = 0;
  virtual sim::Task<Status> CloseDir(const DirHandle& handle) = 0;

  // --- batched lookups (v2) ---
  // Stats every path; result i corresponds to paths[i]. Targets are grouped
  // by owner placement into multi-target requests (one RPC per server, not
  // per path).
  virtual sim::Task<std::vector<StatusOr<Attr>>> BatchStat(
      const std::vector<std::string>& paths) = 0;

  // --- bulk insert (v2) ---
  // Creates `names` inside the open directory `handle` — the create-path
  // mirror of BatchStat. The client groups names by owner placement and
  // ships one multi-entry request per server per page-fill, each committed
  // as a single WAL record. Result i corresponds to names[i] (kOk or
  // kAlreadyExists per entry; a whole-request failure such as kStaleHandle
  // is replicated to every slot it covered).
  virtual sim::Task<std::vector<Status>> BulkInsert(
      const DirHandle& handle, const std::vector<std::string>& names) = 0;

  // Rename (§5.2: distributed transaction through a central coordinator).
  virtual sim::Task<Status> Rename(const std::string& from,
                                   const std::string& to) = 0;

  // Whole-directory listing, built on the paged stream: OpenDir, drain the
  // pages, CloseDir. Restarts from scratch on a kStaleHandle mid-stream
  // (expired session / owner crash), so the returned listing is always one
  // coherent snapshot. Overridable for systems with a cheaper native path.
  virtual sim::Task<StatusOr<std::vector<DirEntry>>> Readdir(
      const std::string& path);
};

}  // namespace switchfs::core

#endif  // SRC_CORE_METADATA_SERVICE_H_
