// The one worker pool of the restore paths: the scan's body checks, the
// chain loader, the chunk apply and the lazy restorer's background sweep
// all run on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/options.h"

namespace crpm::snapshot {

// A restore's pool size: the requested restore_workers, clamped to
// [1, kMaxRestoreWorkers] (0 asks for the single-threaded restore).
inline uint32_t pool_size(uint32_t requested) {
  if (requested == 0) return 1;
  return requested > kMaxRestoreWorkers ? kMaxRestoreWorkers : requested;
}

// Claims the items [0, n) one at a time off a shared cursor, over at most
// `workers` threads, the calling thread included as worker 0: claim(i,
// self) runs item i on worker self. A false return stops every worker from
// claiming further items (items already claimed still finish). With one
// worker or fewer the items run inline on the caller, so a test hook that
// throws (the crash matrix's restore step hook) unwinds the calling thread
// instead of terminating a worker.
template <typename Claim>
void claim_each(uint64_t n, uint32_t workers, Claim&& claim) {
  std::atomic<uint64_t> cursor{0};
  std::atomic<bool> stop{false};
  auto body = [&](uint32_t self) {
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      if (!claim(i, self)) stop.store(true, std::memory_order_relaxed);
    }
  };
  if (workers > n) workers = static_cast<uint32_t>(n);
  std::vector<std::thread> pool;
  for (uint32_t w = 1; w < workers; ++w) pool.emplace_back(body, w);
  body(0u);
  for (auto& t : pool) t.join();
}

}  // namespace crpm::snapshot
