#include "src/core/metadata_service.h"

namespace switchfs::core {

sim::Task<StatusOr<std::vector<DirEntry>>> MetadataService::Readdir(
    const std::string& path) {
  // A whole-directory listing is one paged stream drained to the end. A
  // kStaleHandle mid-stream (session expired or the owner crashed) restarts
  // the scan from a fresh OpenDir: resuming would splice two snapshots and
  // could drop or duplicate entries across the seam.
  constexpr int kMaxRestarts = 4;
  for (int attempt = 0; attempt <= kMaxRestarts; ++attempt) {
    auto handle = co_await OpenDir(path);
    if (!handle.ok()) {
      co_return handle.status();
    }
    std::vector<DirEntry> all;
    uint64_t cookie = kDirStreamStart;
    bool stale = false;
    while (true) {
      auto page = co_await ReaddirPage(*handle, cookie);
      if (!page.ok()) {
        if (page.status().code() == StatusCode::kStaleHandle) {
          stale = true;
          break;
        }
        (void)co_await CloseDir(*handle);
        co_return page.status();
      }
      for (DirEntry& e : page->entries) {
        all.push_back(std::move(e));
      }
      if (page->at_end) {
        (void)co_await CloseDir(*handle);
        co_return all;
      }
      cookie = page->next_cookie;
    }
    if (stale) {
      (void)co_await CloseDir(*handle);  // drops the client-side handle state
      continue;
    }
  }
  co_return StaleHandleError("readdir restarts exhausted");
}

}  // namespace switchfs::core
