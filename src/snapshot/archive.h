// Archive read path: scanning, CRC verification, truncated-tail and
// corrupt-epoch handling, and state reconstruction.
//
// Robustness policy (ISSUE: crash mid-append, bit rot):
//   * A frame whose header never made it to disk intact ends the scan —
//     everything from there on is an unparseable tail (the normal shape of
//     a crash mid-append) and is reported as truncated bytes.
//   * A frame with an intact header but a failing record/footer CRC is
//     *skipped with a warning*: its length is known, so later epochs are
//     still enumerated. Epochs whose delta chain passes through the corrupt
//     frame are simply not restorable; later epochs become restorable again
//     at the next base frame.
//   * restorable()/latest_restorable() expose exactly which epochs can be
//     reconstructed; state_at() refuses anything else.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/format.h"

namespace crpm::snapshot {

struct EpochInfo : FrameInfo {
  uint64_t file_offset = 0;  // of the FrameHeader
  bool intact = false;       // the frame passes check_frame()
};

struct ScanResult {
  bool valid = false;  // file exists and the archive header verifies
  ArchiveHeader header{};
  std::vector<EpochInfo> epochs;  // in file order; epochs strictly ascend
  uint64_t scan_end = 0;          // offset past the last parseable frame
  uint64_t truncated_bytes = 0;   // unparseable tail dropped by the scan
  std::vector<std::string> warnings;
};

// Thread-CPU accounting for the record apply inside state_at().
// `apply_ns_total` sums the CLOCK_THREAD_CPUTIME_ID time spent applying
// records; `apply_ns_critical` max-reduces the per-SHARD apply time of
// each frame (the critical path of the sharding), mirroring the async
// commit pipeline's shard_flush_ns convention. Attributing the time to
// the shard rather than the applying thread keeps the ratio meaningful
// on any core count: work stealing lets one thread drain every shard on
// a loaded or single-core host, but the shards themselves still carry an
// even split, so total/critical still reads ~workers when the sharding
// spreads the work and collapses to ~1 when it stops doing so.
struct RestorePerf {
  uint32_t workers = 1;
  uint64_t frames = 0;
  uint64_t records = 0;
  uint64_t apply_ns_total = 0;
  uint64_t apply_ns_critical = 0;
};

class ArchiveReader {
 public:
  // `scan_workers` > 1 fans the scan's per-frame check (check_frame)
  // out over that many threads, the caller included; verdicts and
  // warnings equal the single-threaded scan's.
  explicit ArchiveReader(const std::string& path, uint32_t scan_workers = 1);
  ~ArchiveReader();

  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;

  // True if the file opened and its header verified.
  bool ok() const { return scan_.valid; }
  const ScanResult& scan() const { return scan_; }

  // True if `epoch` is archived, intact, and its whole chain back to a base
  // frame (or the implicit all-zero base before epoch 1) is intact.
  bool restorable(uint64_t epoch) const;

  // Newest restorable epoch; false if the archive holds none.
  bool latest_restorable(uint64_t* epoch) const;

  // Reconstructs the working state at `epoch` into `image` (resized to the
  // archive's region size) and the committed roots into `roots` (may be
  // null). Returns false with `err` set if the epoch is not restorable or
  // re-reading the frames hits an I/O error.
  bool state_at(uint64_t epoch, std::vector<uint8_t>* image,
                std::array<uint64_t, kNumRoots>* roots,
                std::string* err) const;

  // Parallel variant: the chain loader decodes a window of
  // kDecodeAheadPerWorker * workers frames ahead (the most it holds
  // decoded at once), then the window's frames are applied in chain
  // order. `workers` threads shard each frame's record apply by
  // owning segment (seg % workers) with work stealing, each worker
  // re-verifying the CRC of every record it applies, so corruption is
  // pinned to the shard that owns it. Block indices are unique within a
  // frame, so the sharded memcpys never alias. workers <= 1 is the serial
  // path. `perf` (may be null) accumulates thread-CPU apply cost for
  // benchmarking.
  bool state_at(uint64_t epoch, std::vector<uint8_t>* image,
                std::array<uint64_t, kNumRoots>* roots, std::string* err,
                uint32_t workers, RestorePerf* perf) const;

  // The intact frame chain reconstructing `epoch`, base (or implicit
  // all-zero start) through target, in file order. False with `err` when
  // the epoch is not restorable. Lets callers stage their own apply (the
  // lazy restorer materializes per-chunk instead of front-to-back).
  bool chain(uint64_t epoch, std::vector<EpochInfo>* frames,
             std::string* err) const;

  // One chain frame as a restore works from it: `recs` points at its
  // block_count records (record_bytes(block_size) bytes each) inside
  // `buf`, which holds the decoded plain frame of a coded frame and the
  // record region of a plain one.
  struct LoadedFrame {
    std::vector<uint8_t> buf;
    const uint8_t* recs = nullptr;
  };

  // The chain loader: reads frames[first, last) into out[0, last - first),
  // each exactly once, over `workers` threads claiming frames off a
  // shared cursor, the caller included (<= 1 runs inline). A coded frame
  // passes its encoded CRC, is decoded once and passes its raw CRC; a
  // plain frame's record CRCs were checked by the scan. Buffers already in
  // `out` are reused. False with `err` on a read or check failure.
  bool load_frames(const std::vector<EpochInfo>& frames, size_t first,
                   size_t last, uint32_t workers,
                   std::vector<LoadedFrame>* out, std::string* err) const;

  // Decoded frames the blocking state_at holds per worker.
  static constexpr uint32_t kDecodeAheadPerWorker = 2;

  // Reads the committed roots stored in frame `info`'s header.
  bool frame_roots(const EpochInfo& info,
                   std::array<uint64_t, kNumRoots>* roots) const;

 private:
  void run_scan(const std::string& path, uint32_t workers);
  // The scan's check of frame `info`, read whole into `buf`: false in
  // *read_ok when the frame could not be read, else whether it passes
  // check_frame().
  bool frame_intact(const EpochInfo& info, std::vector<uint8_t>* buf,
                    bool* read_ok) const;
  // Reads and checks one chain frame, a coded one through `coded`; null
  // on success, else why not.
  const char* load_frame(const EpochInfo& info, std::vector<uint8_t>* coded,
                         LoadedFrame* f) const;
  // Index into scan_.epochs of the chain start for `epoch`, or -1.
  int chain_start(uint64_t epoch) const;
  int index_of(uint64_t epoch) const;
  // Record-region apply shared by the plain and decoded paths; dispatches
  // to the serial or sharded implementation and accounts `perf`.
  bool apply_span(const uint8_t* recs, uint64_t block_count,
                  uint32_t workers, std::vector<uint8_t>* image,
                  std::string* err, RestorePerf* perf) const;
  bool apply_records(const uint8_t* recs, uint64_t block_count,
                     std::vector<uint8_t>* image, std::string* err) const;
  bool apply_records_parallel(const uint8_t* recs, uint64_t block_count,
                              uint32_t workers, std::vector<uint8_t>* image,
                              std::string* err, uint64_t* cpu_total,
                              uint64_t* cpu_critical) const;

  int fd_ = -1;
  ScanResult scan_;
};

}  // namespace crpm::snapshot
