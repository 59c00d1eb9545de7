// ReplNode: one rank's end of the peer checkpoint replication protocol.
//
// Sender side: ArchiveWriter invokes the node's frame observer after each
// epoch frame is durably appended to the local archive (replication never
// runs ahead of local durability). The observer only enqueues the frame on
// a bounded queue — everything else happens on the node's sender thread,
// which streams the frame to the rank's R partners and drives a per-frame,
// per-partner ack/retry state machine:
//
//        enqueue            send                 ack from partner
//   frame ----> [pending] ----> [in flight, t/o] ------------------> done
//                   ^                |  retransmit after timeout,
//                   '----------------'  exponential backoff, until
//                                       acked or max_attempts
//
// The commit path is untouched: backpressure from a full queue lands on
// the (SCHED_IDLE) writer thread, and only propagates to the committing
// thread once the archive queue in front of it also fills.
//
// Receiver side: a service thread drains this rank's Channel inbox.
// Partner frames are validated and persisted through ReplicaStore (then
// acked); acks update the sender state machine; kQueryNewest/kPull serve
// recovery, reading either the rank's replica store or — when asked about
// the rank's own state — its local archive, so a recovering peer can also
// refill the replica files it lost.
//
// All handlers are idempotent (transport may duplicate and reorder) and
// every retry is counted, so tests can assert the fault injector actually
// bit.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "core/container.h"
#include "repl/protocol.h"
#include "repl/replica_store.h"
#include "snapshot/writer.h"

namespace crpm::repl {

struct ReplConfig {
  // Partner count R: rank r streams to ranks r+1 .. r+R (mod nranks).
  int replicas = 1;
  // Directory persisting partner frames received by this rank.
  std::string store_dir;
  // This rank's own archive file; served when a recovering peer pulls this
  // rank's state to refill its replica store. Empty = serve replicas only.
  std::string local_archive;
  // Frames buffered for sending before the enqueuing (writer) thread
  // blocks. Backpressure, never data loss.
  uint32_t queue_depth = 16;
  // Initial retransmit timeout; doubles per retry up to max_backoff_us.
  uint64_t ack_timeout_us = 2000;
  double backoff = 2.0;
  uint64_t max_backoff_us = 64 * 1000;
  // Send attempts per frame per partner before giving up (graceful
  // degradation: the epoch is counted dropped for that partner and the
  // stream continues). 0 = retry forever.
  uint32_t max_attempts = 0;
  // fdatasync replica-store appends (the durable-replica guarantee).
  bool fsync_store = true;
  // Cold-tier bases retained per peer when the partner ships them
  // (0 = keep all).
  uint32_t cold_keep = 0;
};

struct ReplNodeStats {
  // Sender.
  uint64_t frames_sent = 0;  // datagrams sent (first sends + retries)
  uint64_t bytes_sent = 0;
  uint64_t frames_acked = 0;     // (frame, partner) pairs acked
  uint64_t retries = 0;          // retransmissions
  uint64_t frames_given_up = 0;  // (frame, partner) pairs abandoned
  uint64_t queue_stall_ns = 0;   // enqueue time blocked on a full queue
  uint64_t queue_hwm = 0;
  // Receiver.
  uint64_t frames_stored = 0;
  uint64_t cold_stored = 0;    // cold-tier bases persisted
  uint64_t stale_frames = 0;   // duplicates re-acked
  uint64_t gap_rejects = 0;    // out-of-order deltas refused
  uint64_t invalid_msgs = 0;   // CRC/parse failures ignored
  uint64_t acks_sent = 0;
  uint64_t pulls_served = 0;
  uint64_t pull_frames_sent = 0;
};

class ReplNode {
 public:
  // The channel must outlive the node. The store directory is created and
  // any prior peer files adopted immediately.
  ReplNode(Channel& channel, int rank, ReplConfig cfg);
  ~ReplNode();

  ReplNode(const ReplNode&) = delete;
  ReplNode& operator=(const ReplNode&) = delete;

  // Registers this node as `w`'s frame observer and binds the container's
  // CrpmStats for the repl_* counters. The node must outlive the writer
  // (or the writer be destroyed first — it detaches its observer then).
  void attach(Container& c, snapshot::ArchiveWriter& w);

  // Blocks until every enqueued frame is acked by (or abandoned for) all
  // partners. Call after ArchiveWriter::drain().
  void flush();

  int rank() const { return rank_; }
  const ReplConfig& config() const { return cfg_; }
  std::vector<int> partners() const {
    return partners_of(rank_, channel_.nranks(), cfg_.replicas);
  }

  // Newest epoch e of this rank such that every frame up to e is acked by
  // `partner` (the sender-side mirror of the replica's durable state).
  uint64_t newest_acked(int partner) const;

  ReplicaStore& store() { return store_; }
  ReplNodeStats stats() const;

  // --- recovery client (app thread) ----------------------------------
  // Newest epoch of `origin`'s state that `partner` can serve; false on
  // timeout (partner unreachable).
  bool query_newest(int partner, int origin, uint64_t* newest);
  // Pulls every frame needed to restore (`origin`, `epoch`) from `partner`
  // into a fresh archive file at `dest_path`, published with
  // durable_file::atomic_replace. On failure returns false and leaves
  // `dest_path` untouched and no `<dest_path>.tmp` behind.
  bool pull(int partner, int origin, uint64_t epoch,
            const std::string& dest_path, std::string* err);

  // Direct enqueue, used by the writer observer and by tests.
  void on_frame(uint64_t epoch, uint32_t kind, const uint8_t* frame,
                size_t len);
  // Cold-tier feed (the writer's cold observer): ships the fold base to
  // every partner with the same ack/retry machinery as epoch frames.
  void on_cold_base(uint64_t epoch, const uint8_t* frame, size_t len);

 private:
  struct PartnerState {
    bool acked = false;
    bool given_up = false;
    uint32_t attempts = 0;
    uint64_t next_send_us = 0;
    uint64_t backoff_us = 0;
  };
  struct Outgoing {
    uint64_t seq = 0;
    uint64_t epoch = 0;
    uint32_t kind = kReplMagic;  // frame kind, not msg type
    bool cold = false;           // ships as kColdBase instead of kFrame
    std::vector<uint8_t> bytes;
    std::vector<PartnerState> per_partner;
    bool done() const {
      for (const auto& p : per_partner) {
        if (!p.acked && !p.given_up) return false;
      }
      return true;
    }
  };
  struct AckTracker {
    uint64_t contig_seq = 0;  // all seqs <= this acked
    uint64_t newest_acked_epoch = 0;
    std::map<uint64_t, uint64_t> ahead;  // seq -> epoch, acked out of order
  };
  struct PendingReq {
    bool active = false;
    uint32_t type = 0;
    uint32_t nonce = 0;
    int partner = -1;
    int origin = -1;
    bool failed = false;  // partner answered "cannot serve"
    uint64_t newest = 0;
    bool newest_valid = false;
    uint64_t total = 0;
    bool total_valid = false;
    uint64_t block_size = 0, region_size = 0, segment_size = 0;
    std::map<uint64_t, std::vector<uint8_t>> frames;  // idx -> bytes
  };

  void enqueue(Outgoing&& o);
  void sender();
  void service();
  void handle(Message&& m);
  void handle_frame(const ReplMsgHeader& h, const uint8_t* body, size_t len,
                    int src);
  void handle_cold(const ReplMsgHeader& h, const uint8_t* body, size_t len,
                   int src);
  void handle_ack(const ReplMsgHeader& h, int src);
  void handle_query(const ReplMsgHeader& h, int src);
  void handle_pull(const ReplMsgHeader& h, int src);
  void handle_pull_frame(const ReplMsgHeader& h, const uint8_t* body,
                         size_t len, int src);
  void send_msg(int dst, const ReplMsgHeader& h, const uint8_t* body,
                size_t len);
  uint64_t now_us() const;
  int partner_index(int rank) const;

  Channel& channel_;
  int rank_;
  ReplConfig cfg_;
  std::vector<int> partners_;
  ReplicaStore store_;
  // Set by attach() while the service thread may already be receiving
  // partner frames; read through stats_sink().
  std::atomic<CrpmStats*> crpm_stats_{nullptr};
  CrpmStats* stats_sink() const {
    return crpm_stats_.load(std::memory_order_acquire);
  }

  // Frame geometry, fixed at attach (or first test enqueue).
  uint64_t block_size_ = 0;
  uint64_t region_size_ = 0;
  uint64_t segment_size_ = 0;

  mutable std::mutex mu_;            // sender state
  std::condition_variable cv_send_;  // sender: work or earlier deadline
  std::condition_variable cv_space_;  // enqueue: queue full
  std::condition_variable cv_flush_;  // flush(): all done
  std::deque<Outgoing> out_;
  uint64_t next_seq_ = 0;
  std::map<int, AckTracker> ack_track_;  // partner rank -> tracker

  std::mutex req_mu_;  // recovery request/response state
  std::condition_variable cv_req_;
  PendingReq pending_;
  uint32_t next_nonce_ = 1;

  std::atomic<bool> stop_{false};
  std::thread sender_thread_;
  std::thread service_thread_;

  // Stats (several updater threads).
  std::atomic<uint64_t> st_sent_{0}, st_bytes_{0}, st_acked_{0},
      st_retries_{0}, st_given_up_{0}, st_stall_ns_{0}, st_qhwm_{0},
      st_stored_{0}, st_cold_stored_{0}, st_stale_{0}, st_gap_{0},
      st_invalid_{0}, st_acks_sent_{0}, st_pulls_{0}, st_pull_frames_{0};
};

}  // namespace crpm::repl
