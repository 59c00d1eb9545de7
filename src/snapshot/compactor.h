// Delta-chain compaction: fold an archive's history into one full base
// snapshot.
//
// The fold writes a brand-new file `<path>.tmp` containing the archive
// header plus a single base frame (every non-zero block of the running
// image at `epoch`) and publishes it over the archive
// (durable_file::atomic_replace: fdatasync, rename, directory fsync).
// Either the rename happens — and the archive is a one-frame chain that
// every subsequent delta extends — or it doesn't, and the old delta chain
// is untouched: compaction can never make previously restorable epochs
// unrestorable by crashing halfway.
//
// The trade: epochs older than the fold point leave the archive. Choose
// compact_every to bound file growth at (roughly) one base image plus
// compact_every deltas.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "snapshot/format.h"

namespace crpm::snapshot {

struct CompactionResult {
  bool ok = false;
  uint64_t bytes_written = 0;
  std::string error;
};

// Writes `image` (the full working state at `epoch`) as a base frame into a
// fresh archive that replaces `path`. `write_fn(fd, buf, len)` performs the
// writes so callers can inject failures (crash simulation); it returns
// false to abort the fold.
CompactionResult fold_to_base(
    const std::string& path, const ArchiveHeader& header, uint64_t epoch,
    const std::array<uint64_t, kNumRoots>& roots,
    const std::vector<uint8_t>& image, uint64_t block_size,
    const std::function<bool(int fd, const void* buf, size_t len)>& write_fn);

}  // namespace crpm::snapshot
