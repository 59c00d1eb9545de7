// The one worker pool of the restore paths: the scan's body checks, the
// chain loader, the sharded record apply and the lazy restorer's
// background sweep all run on it.
//
// `workers` threads run the body, the calling thread included as worker 0.
// With one worker or fewer the body runs inline on the caller, so a test
// hook that throws (the crash matrix's restore step hook) unwinds the
// calling thread instead of terminating a worker.
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

// Runs body(self) for self in [0, workers) on `workers` threads.
template <typename Body>
void run_workers(uint32_t workers, Body&& body) {
  if (workers <= 1) {
    body(0u);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (uint32_t w = 1; w < workers; ++w) {
    pool.emplace_back([&body, w] { body(w); });
  }
  body(0u);
  for (auto& t : pool) t.join();
}

// Claims the items [0, n) one at a time off a shared cursor, over at most
// `workers` threads: claim(i, self) runs item i on worker self. A false
// return stops every worker from claiming further items (items already
// claimed still finish).
template <typename Claim>
void claim_each(uint64_t n, uint32_t workers, Claim&& claim) {
  std::atomic<uint64_t> cursor{0};
  std::atomic<bool> stop{false};
  if (workers > n) workers = static_cast<uint32_t>(n);
  run_workers(workers, [&](uint32_t self) {
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      if (!claim(i, self)) stop.store(true, std::memory_order_relaxed);
    }
  });
}

}  // namespace crpm::snapshot
