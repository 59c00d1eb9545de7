// FTI-like application-level checkpoint-recovery library (Bautista-Gomez et
// al., SC'11 — Section 5.1, system 6; multilevel checkpointing disabled).
//
// The application registers ("protects") its state buffers; checkpoint()
// serializes every protected buffer into a checkpoint file and atomically
// publishes it (durable_file::atomic_replace: fdatasync, rename, directory
// fsync). This is the full-checkpoint cost
// structure Figure 8 compares against: every checkpoint writes the entire
// protected state regardless of how little changed.
//
// The hash-based incremental mode of footnote 4 is also provided: per-256B
// chunk FNV hashes decide which chunks to rewrite; the hash computation
// itself is the dominant cost, as the paper observes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace crpm {

class FtiLike {
 public:
  // Checkpoint files live under `dir` as ckpt-<rank>-<epoch>.fti.
  FtiLike(std::string dir, int rank);
  ~FtiLike();

  // Registers a buffer. All protects must happen before recover() /
  // checkpoint() and be identical across restarts (FTI's contract).
  void protect(int id, void* ptr, uint64_t bytes);

  // Serializes all protected buffers; on return the checkpoint is durable
  // and published.
  void checkpoint();

  // Loads the most recent committed checkpoint into the protected buffers.
  // Returns false if none exists.
  bool recover();

  // Hash-based incremental checkpointing (differential checkpoint, dCP).
  void set_incremental(bool on) { incremental_ = on; }

  // Emulated storage write cost in ns per 64 B, so FTI checkpoints pay the
  // same NVM media latency the crpm containers pay (the paper's FTI writes
  // its checkpoint files to the same DCPMM). 0 = free (raw file speed).
  void set_write_cost_ns_per_line(double ns) { write_cost_ns_ = ns; }

  uint64_t checkpoint_count() const { return epoch_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t checkpoint_state_bytes() const;  // serialized size of one ckpt

 private:
  struct Buffer {
    int id;
    uint8_t* ptr;
    uint64_t bytes;
  };

  std::string committed_path() const;

  // Writes every protected buffer into a fresh file and publishes it.
  void write_full();
  void write_incremental();

  void charge_write(uint64_t bytes);

  std::string dir_;
  int rank_;
  uint64_t epoch_ = 0;
  bool incremental_ = false;
  double write_cost_ns_ = 0;
  std::vector<Buffer> buffers_;
  std::vector<std::vector<uint64_t>> chunk_hashes_;  // per buffer
  uint64_t bytes_written_ = 0;
};

}  // namespace crpm
