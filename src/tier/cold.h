// Cold tier: compressed base frames of retired epochs.
//
// When compaction folds the hot archive's delta chain, every epoch older
// than the fold point leaves the hot file. With the cold tier enabled the
// writer first lands the fold state as a standalone one-frame archive
//
//   <archive>.cold/base-<epoch 016x>.crpmsnap
//
// written with durable_file::atomic_replace: tmp file, write, fdatasync,
// rename, directory fsync — a crash mid-store leaves at worst a stale tmp
// and never a torn cold base. Each cold file is itself a valid snapshot
// archive (header + one, usually coded, base frame), so ArchiveReader /
// snapshot::read_state / crpm_inspect handle it with no special casing;
// the restore path falls back here for epochs the hot archive no longer
// holds. ReplicaStore reuses this layout for cold bases shipped via the
// writer's cold observer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace crpm::tier {

struct ColdEntry {
  uint64_t epoch = 0;
  std::string path;
  uint64_t bytes = 0;
};

class ColdTier {
 public:
  // `dir` as produced by dir_for(); created lazily on first store.
  explicit ColdTier(std::string dir) : dir_(std::move(dir)) {}

  static std::string dir_for(const std::string& archive_path) {
    return archive_path + ".cold";
  }
  static std::string base_name(uint64_t epoch);

  const std::string& dir() const { return dir_; }

  // Writes via `write_fn(fd, buf, len)` (so the archive writer's crash
  // budget and file-op hook apply; plain callers pass
  // durable_file::write_all), then publishes the file. False (with err)
  // on I/O failure or an aborted write_fn; a false return never leaves a
  // visible cold base.
  using WriteFn = std::function<bool(int fd, const void* buf, size_t len)>;
  bool store(uint64_t epoch, const void* header, size_t header_len,
             const void* frame, size_t frame_len, const WriteFn& write_fn,
             std::string* err);

  // Cold bases under `dir`, ascending by epoch. Unparseable names are
  // skipped; intactness is the reader's job.
  static std::vector<ColdEntry> list(const std::string& dir);
  // Convenience: list for an archive path.
  static std::vector<ColdEntry> list_for_archive(const std::string& path) {
    return list(dir_for(path));
  }

 private:
  std::string dir_;
};

}  // namespace crpm::tier
