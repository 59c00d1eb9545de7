// Archive read path: scanning, CRC verification, truncated-tail and
// corrupt-epoch handling, and state reconstruction.
//
// Robustness policy (crash mid-append, bit rot, I/O errors):
//   * A frame whose header never made it to disk intact ends the scan —
//     everything from there on is an unparseable tail (the normal shape of
//     a crash mid-append) and is reported as truncated bytes.
//   * A read that fails also ends the scan, with a warning, but is flagged
//     as a read error: the bytes behind it may be perfectly good frames, so
//     attach paths refuse the file instead of truncating it.
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
  uint64_t truncated_bytes = 0;   // tail dropped by the scan (torn or unread)
  // The scan stopped at a failed read, not at a torn tail: the bytes from
  // scan_end on may still hold acked frames, so nothing may truncate them.
  bool read_error = false;
  std::vector<std::string> warnings;
};

// The scan's first pass: reads the archive header of the open file `fd`
// and walks the frame heads, which carry each frame's geometry, epoch and
// length, up to the torn tail or a read error. Reads no frame body, so no
// `intact` is set. The reader's scan and the archive writer's attach both
// run it.
ScanResult scan_heads(int fd);

// Thread-CPU accounting for the chunk apply of a blocking restore. Each
// window of the chain is applied as one ChunkPlan; chunk c's apply time
// counts toward shard c % workers. `apply_ns_total` sums every chunk's
// CLOCK_THREAD_CPUTIME_ID apply time; `apply_ns_critical` sums, over the
// windows, the largest shard's. Attributing the time to the shard rather
// than the applying thread keeps the ratio meaningful on any core count:
// the pool's claiming lets one thread drain every chunk on a loaded or
// single-core host, but the shards still carry an even split, so
// total/critical still reads ~workers when the chunks spread the work and
// collapses to ~1 when they stop doing so.
struct RestorePerf {
  uint32_t workers = 1;
  uint64_t frames = 0;
  uint64_t records = 0;
  uint64_t apply_ns_total = 0;
  uint64_t apply_ns_critical = 0;
};

// One chain frame as a restore works from it: `recs` points at its `count`
// records (record_bytes(block_size) bytes each) inside `buf`, which holds
// the decoded plain frame of a coded frame and the whole plain frame
// otherwise.
struct LoadedFrame {
  std::vector<uint8_t> buf;
  const uint8_t* recs = nullptr;
  uint64_t count = 0;
};

// The per-chunk apply plan of a run of loaded chain frames, shared by the
// blocking and the lazy restore. A chunk is max(segment, page) bytes of
// the region; the plan lists, per chunk, the records landing in it in
// chain order, so the chunks can be applied in any order, on any threads,
// and still give the chain's image.
class ChunkPlan {
 public:
  // Plans `frames` (in chain order) over the archive `geometry`. False
  // with `err` when a record's block lies outside the region.
  bool build(const ArchiveHeader& geometry,
             const std::vector<LoadedFrame>& frames, std::string* err);
  // Copies chunk `c`'s records into `image` (the region's bytes).
  void apply(uint64_t c, uint8_t* image) const;
  uint64_t chunk_size() const { return chunk_size_; }
  uint64_t chunks() const { return chunks_.size(); }

 private:
  uint64_t block_size_ = 0;
  uint64_t chunk_size_ = 0;
  std::vector<std::vector<const uint8_t*>> chunks_;
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
  // null): the blocking restore. False with `err` set if the epoch is not
  // restorable or re-reading the frames hits an I/O error or a failed
  // check. The chain is applied in windows whose decoded bytes
  // (FrameInfo::raw_bytes) sum to at most the region size, a larger frame
  // being a window of its own, so at most max(region, one frame) decoded
  // bytes are held at once. Each window is loaded by load_frames, planned
  // as one ChunkPlan and applied by `workers` threads claiming chunks.
  // `perf` (may be null) accumulates the apply's thread CPU.
  bool state_at(uint64_t epoch, std::vector<uint8_t>* image,
                std::array<uint64_t, kNumRoots>* roots, std::string* err,
                uint32_t workers = 1, RestorePerf* perf = nullptr) const;

  // The intact frame chain reconstructing `epoch`, base (or implicit
  // all-zero start) through target, in file order. False with `err` when
  // the epoch is not restorable.
  bool chain(uint64_t epoch, std::vector<EpochInfo>* frames,
             std::string* err) const;

  // The chain loader: reads frames[first, last) into out[0, last - first),
  // each exactly once, over `workers` threads claiming frames off a
  // shared cursor, the caller included (<= 1 runs inline). Every byte is
  // checked after this, its last read: a plain frame passes check_frame,
  // a coded frame its encoded CRC and, decoded, its raw CRC. False with
  // `err` on a read or check failure.
  bool load_frames(const std::vector<EpochInfo>& frames, size_t first,
                   size_t last, uint32_t workers,
                   std::vector<LoadedFrame>* out, std::string* err) const;

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

  int fd_ = -1;
  ScanResult scan_;
};

}  // namespace crpm::snapshot
