// Replica-side persistence of partner frames.
//
// A ReplicaStore is a directory holding one snapshot-archive file per peer
// rank (`peer_<rank>.crpmsnap`) in the standard archive format — plain or
// codec-compressed frames alike (the frame header names the codec, so a
// replica never needs the origin's tier configuration): ArchiveReader
// reads it, snapshot::restore() restores from it, and `crpm_inspect repl
// status` audits it. Frames arrive over the transport already in archive
// frame encoding; append() accepts exactly the frames that reader marks
// intact (snapshot::check_frame, under the message's geometry; coded
// frames stay encoded) and appends + fdatasyncs them through
// util/durable_file, so a stored frame survives a replica crash exactly
// like a locally archived one (same torn-tail argument). A failed write
// or sync is never acknowledged: append() cuts the file back and returns
// kError, and the sender's retry appends the frame again.
//
// Acceptance rules keep every stored chain restorable under a transport
// that reorders and duplicates:
//   * a frame with epoch <= newest stored is a duplicate/stale: not
//     stored, but reported kStale so the receiver re-acks (idempotence);
//   * a delta frame must extend the chain by exactly one epoch — a gap
//     means an earlier frame is still in flight, so it is rejected
//     (kGap, no ack) and the sender's retry fills the hole first;
//   * a base frame restarts the chain and may jump forward arbitrarily.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace crpm::repl {

enum class AppendVerdict {
  kStored,   // appended and durable — ack
  kStale,    // already have this epoch — ack (idempotent receive)
  kGap,      // would break the chain — no ack, sender must retry earlier
  kInvalid,  // frame bytes failed validation — no ack
  kError,    // local I/O failure — no ack
};

class ReplicaStore {
 public:
  // Creates `dir` if missing and adopts any peer files already in it
  // (newest intact epoch per peer is re-derived by scanning; torn tails
  // from a replica crash are truncated).
  explicit ReplicaStore(std::string dir);
  ~ReplicaStore();

  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;

  // Appends one archive-encoded frame of `origin`'s epoch `epoch`. On a
  // failed write or fdatasync returns kError with the file truncated back
  // to its length before the append and newest_epoch() unchanged.
  // `block_size`/`region_size`/`segment_size` describe the origin
  // container's geometry (written into the per-peer archive header on
  // first contact and checked afterwards).
  AppendVerdict append(int origin, uint64_t epoch, uint64_t block_size,
                       uint64_t region_size, uint64_t segment_size,
                       const uint8_t* frame, size_t len, bool fsync);

  // Persists a shipped cold-tier base (the writer's cold observer feed)
  // under `peer_<origin>.crpmsnap.cold/` with the same
  // durable_file::atomic_replace the origin uses locally. The frame must
  // be a (possibly coded) base frame for `epoch` that passes the same
  // check as append(). Idempotent: re-storing an epoch atomically
  // replaces an identical file.
  bool store_cold(int origin, uint64_t epoch, uint64_t block_size,
                  uint64_t region_size, uint64_t segment_size,
                  const uint8_t* frame, size_t len);

  // Newest epoch stored for `origin` whose chain is intact (0 = none).
  uint64_t newest_epoch(int origin) const;

  // Ranks with a peer file in this store (on disk or appended this run).
  std::vector<int> peers() const;

  const std::string& dir() const { return dir_; }
  std::string peer_path(int origin) const { return peer_path(dir_, origin); }
  static std::string peer_path(const std::string& dir, int origin);

  uint64_t frames_stored() const;
  uint64_t bytes_stored() const;
  uint64_t cold_stored() const;

 private:
  struct PeerFile {
    int fd = -1;
    uint64_t end = 0;  // file length: where the next frame is appended
    uint64_t newest = 0;
    uint64_t block_size = 0;
    uint64_t region_size = 0;
  };

  // Opens (scanning/truncating) or creates the peer file; mu_ held.
  PeerFile* open_peer(int origin, uint64_t block_size, uint64_t region_size,
                      uint64_t segment_size);

  std::string dir_;
  mutable std::mutex mu_;
  std::map<int, PeerFile> peers_;
  uint64_t frames_stored_ = 0;
  uint64_t bytes_stored_ = 0;
  uint64_t cold_stored_ = 0;
};

}  // namespace crpm::repl
