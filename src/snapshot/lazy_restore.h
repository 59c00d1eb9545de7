// On-demand restore: serve reads of an archived epoch before the full
// record apply completes.
//
// start() does only the cheap part of a restore — scan the archive, pick
// the target epoch (with the same corrupt-tail fallback as restore()), and
// stage the chain's verified record regions in DRAM — then maps an
// initially-empty image. Chunks (one copy-on-write segment, rounded up to
// a page) materialize on first access: the image is a memfd with two
// mappings, a private always-writable view the materializer applies
// records through, and the consumer-facing view data(), whose pages stay
// PROT_NONE until their chunk is fully applied and flip to PROT_READ only
// then. A SIGSEGV on the read view materializes the faulted chunk in the
// handler, so readers that outrun the background sweep block exactly as
// long as their own chunk's apply — this is what lets KvService answer
// GETs while restore is still running (time-to-first-query bounded by the
// scan, not the apply).
//
// Concurrency: chunk states are a cold -> busy -> ready atomic ladder; the
// loser of the cold->busy race spins until ready. The read view never
// exposes a half-applied chunk because its protection flips only after the
// apply. materialize_all() drives the remaining chunks from a worker pool;
// finish_file() then builds a crash-atomic container file from the
// completed image (same side-file + rename discipline as restore_file).
//
// Lifetime: a LazyRestorer MUST outlive every thread that may still touch
// data(). Destruction unregisters the fault-router slot and unmaps the
// views, but a thread faulting into the view concurrently with the
// destructor races the handler's slot load (use-after-free) — quiesce all
// readers first. KvService satisfies this by keeping the restorer alive
// for the service's lifetime.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snapshot/restore.h"

namespace crpm::snapshot {

class LazyRestorer {
 public:
  LazyRestorer();
  ~LazyRestorer();

  LazyRestorer(const LazyRestorer&) = delete;
  LazyRestorer& operator=(const LazyRestorer&) = delete;

  // Scans `archive_path`, resolves `epoch` (Container::kLatestEpoch falls
  // back past corrupt tail epochs with a warning, and to the cold tier
  // when the hot archive cannot serve), loads the chain's record regions
  // into DRAM, and maps the faulting image. Cost is proportional to the
  // archived delta bytes read, not to the apply. False on failure (see
  // error()).
  bool start(const std::string& archive_path, uint64_t epoch,
             const CrpmOptions& opt);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  const std::vector<std::string>& warnings() const { return warnings_; }

  uint64_t epoch() const { return epoch_; }
  uint64_t size() const { return region_size_; }
  uint64_t root(uint32_t slot) const { return roots_[slot]; }
  const std::array<uint64_t, kNumRoots>& roots() const { return roots_; }

  // The faulting read view of the restored image. Reads of untouched
  // chunks materialize them on first access.
  const uint8_t* data() const { return read_base_; }

  // Materializes every chunk overlapping [off, off+len) synchronously.
  void ensure_range(uint64_t off, uint64_t len);

  // Materializes all remaining chunks over `workers` threads (<= 1 runs
  // inline). Honors CRPM_LAZY_THROTTLE_US (test knob: per-chunk sleep, so
  // tests can reliably race reads against an unfinished restore).
  void materialize_all(uint32_t workers);

  uint64_t chunks_total() const { return nr_chunks_; }
  uint64_t chunks_ready() const {
    return ready_chunks_.load(std::memory_order_acquire);
  }
  bool done() const { return chunks_ready() == chunks_total(); }

  // Materializes any remaining chunks, then builds a crash-atomic
  // container file at `container_path` from the completed image (side
  // file + fsync + rename, exactly like restore_file).
  RestoreResult finish_file(const std::string& container_path,
                            const CrpmOptions& opt);

 private:
  struct Plan;  // per-chunk record apply list

  void materialize(uint64_t chunk_index);
  bool owns(const void* addr) const;
  void materialize_addr(const void* addr);
  void unmap();

  static void install_fault_handler();
  static void fault_handler(int sig, void* info, void* uc);
  friend struct LazyFaultRouter;

  bool ok_ = false;
  std::string error_;
  std::vector<std::string> warnings_;
  uint64_t epoch_ = 0;
  std::array<uint64_t, kNumRoots> roots_{};

  uint64_t region_size_ = 0;
  uint64_t block_size_ = 0;
  uint64_t map_size_ = 0;    // region_size_ rounded up to a page
  uint64_t chunk_size_ = 0;  // max(segment_size, page size)
  uint64_t nr_chunks_ = 0;
  uint8_t* write_base_ = nullptr;  // always-RW apply view
  uint8_t* read_base_ = nullptr;   // PROT_NONE -> PROT_READ consumer view

  std::vector<ArchiveReader::LoadedFrame> frames_;  // the staged chain
  std::vector<Plan> plans_;
  std::unique_ptr<std::atomic<uint8_t>[]> chunk_state_;
  std::atomic<uint64_t> ready_chunks_{0};
  uint64_t throttle_us_ = 0;  // CRPM_LAZY_THROTTLE_US
  int registry_slot_ = -1;
};

// Convenience factory: start() a restorer on the heap; the result is
// non-null but !ok() (with error() set) when the archive cannot serve.
std::unique_ptr<LazyRestorer> restore_lazy(const std::string& archive_path,
                                           uint64_t epoch,
                                           const CrpmOptions& opt);

}  // namespace crpm::snapshot
