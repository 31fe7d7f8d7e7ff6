// Owner-side directory-stream sessions (MetadataService v2). An OpenDir
// pins a stream over one directory's entry list; ReaddirPage serves
// byte-budget pages from it. The table is shared by the SwitchFS server and
// the four baseline servers so the stream semantics are identical across
// systems. Two session flavours:
//
//  * Snapshot sessions (baselines) copy the entry list at open. The
//    snapshot is immutable: a page stream never drops an entry that was
//    committed before the open and never duplicates an entry across pages —
//    concurrent creates/unlinks/renames mutate the live entry list, not the
//    snapshot.
//  * Cursor sessions (SwitchFS) store only the scan position — the
//    KV key of the last served entry — and each page does a bounded KV seek
//    from it. OpenDir is O(1) instead of O(directory). The entry keyspace
//    is ordered and deletes remove keys outright (no tombstone rows), so
//    the seek's implicit skip over deleted cursors preserves the no-dup/
//    no-loss guarantee: a key is served at most once, and every pre-open
//    entry that survives the scan window is reached. Entries created or
//    renamed ahead of the cursor may appear (live semantics, like POSIX
//    readdir); entries behind it never re-appear.
//
// SwitchFS streams are page-sequenced: the cookie is the page's sequence
// number, so a client can speculatively issue page p+1 while consuming page
// p (pipelined prefetch). The session caches the last served page for
// idempotent re-serves and briefly parks pages that arrive ahead of their
// turn (network jitter reorders packets). Baseline streams keep positional
// cookies (index into the snapshot) — they never prefetch.
//
// Sessions are volatile: they expire after an inactivity TTL (watchdog +
// lazy check), are LRU-evicted past the table cap (a crash-looping scanner
// abandoning handles must not bloat the owner), and die with the server
// incarnation. A page call against a missing session fails with
// kStaleHandle and the client re-opens. Session ids embed an incarnation
// epoch so a handle minted before a crash can never alias a session created
// after recovery. Each server keeps one table: a SwitchFS server caps it at
// ServerConfig::max_dir_sessions, a baseline server leaves it uncapped.
#ifndef SRC_CORE_DIR_SESSION_H_
#define SRC_CORE_DIR_SESSION_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/core/metadata_service.h"
#include "src/core/types.h"
#include "src/sim/time.h"

namespace switchfs::core {

// Inactivity TTL of a directory-stream session at the owner, in all five
// systems. A page call after expiry gets kStaleHandle and the client
// re-opens; the TTL must dwarf the per-page RPC cadence (~µs).
inline constexpr sim::SimTime kDirSessionTtl = sim::Milliseconds(20);

struct DirSession {
  uint64_t id = 0;
  InodeId dir;
  // Stamp of the consistency point the stream represents: the simulated
  // time the owner opened it (after the OpenDir-time aggregation on
  // SwitchFS). Monotone per directory, so two handles can be ordered by
  // freshness.
  int64_t snapshot_at = 0;
  std::vector<DirEntry> entries;  // snapshot sessions: key-ordered copy

  // Page-sequenced stream state (SwitchFS cursor sessions).
  uint64_t next_page = 0;   // sequence number the stream serves next
  std::string cursor_key;   // KV key of the last served entry
  bool at_end = false;      // the stream has served its final entry
  DirPage last_page;        // cached last-served page (idempotent re-serve)

  int64_t last_access = 0;  // inactivity-TTL base
};

class SFS_SUSPENSION_SHARED DirSessionTable {
 public:
  // `epoch` disambiguates server incarnations (pass the sim time the
  // incarnation was created; only one incarnation can exist per instant).
  explicit DirSessionTable(int64_t epoch)
      : epoch_(static_cast<uint64_t>(epoch)) {}

  // Opens a snapshot session over a pre-scanned entry list.
  DirSession& Open(const InodeId& dir, std::vector<DirEntry> entries,
                   int64_t now) {
    DirSession s;
    s.id = (epoch_ << 20) | next_id_++;
    s.dir = dir;
    s.snapshot_at = now;
    s.entries = std::move(entries);
    s.last_access = now;
    return sessions_.emplace(s.id, std::move(s)).first->second;
  }

  // Opens a cursor session: no snapshot copy, O(1).
  DirSession& OpenCursor(const InodeId& dir, int64_t now) {
    return Open(dir, {}, now);
  }

  // Live session or nullptr; refreshes the inactivity clock on a hit and
  // lazily expires on a miss-by-TTL.
  DirSession* Touch(uint64_t id, int64_t now, sim::SimTime ttl) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return nullptr;
    }
    if (now - it->second.last_access > ttl) {
      sessions_.erase(it);
      return nullptr;
    }
    it->second.last_access = now;
    return &it->second;
  }

  bool Close(uint64_t id) { return sessions_.erase(id) > 0; }

  // Watchdog sweep: erases the session if it has been idle past `ttl`.
  // Returns true when the session is gone (expired now or already closed) —
  // the watchdog coroutine exits; false keeps it watching.
  bool ExpireIfIdle(uint64_t id, int64_t now, sim::SimTime ttl) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return true;
    }
    if (now - it->second.last_access > ttl) {
      sessions_.erase(it);
      return true;
    }
    return false;
  }

  // Table-wide cap: evicts least-recently-used sessions until at most `cap`
  // remain. Returns the number evicted; the abandoned handles surface as
  // kStaleHandle on their next page call.
  size_t EvictLruOverCap(size_t cap) {
    size_t evicted = 0;
    while (sessions_.size() > cap) {
      auto victim = sessions_.begin();
      for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        if (it->second.last_access < victim->second.last_access) {
          victim = it;
        }
      }
      sessions_.erase(victim);
      ++evicted;
    }
    return evicted;
  }

  size_t size() const { return sessions_.size(); }

  // Builds the page at `cookie` (a position into the snapshot): entries are
  // admitted until the next one would overflow `mtu_bytes` (0 disables the
  // byte budget), capped at `limit` entries. The returned next_cookie
  // continues the stream; at_end marks exhaustion. A cookie beyond the
  // snapshot yields an empty at_end page (idempotent tail re-reads are
  // harmless).
  static DirPage PageOf(const DirSession& s, uint64_t cookie, int limit,
                        int mtu_bytes = 0) {
    DirPage page;
    const uint64_t n = s.entries.size();
    uint64_t i = cookie > n ? n : cookie;
    size_t used = 0;
    while (i < n && PageHasRoom(used, static_cast<int>(page.entries.size()),
                                DirEntryWireSize(s.entries[i].name), mtu_bytes,
                                limit)) {
      used += DirEntryWireSize(s.entries[i].name);
      page.entries.push_back(s.entries[i]);
      ++i;
    }
    page.next_cookie = i;
    page.at_end = i >= n;
    return page;
  }

 private:
  uint64_t epoch_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, DirSession> sessions_;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_DIR_SESSION_H_
