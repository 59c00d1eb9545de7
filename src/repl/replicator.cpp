#include "repl/replicator.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "snapshot/archive.h"
#include "util/durable_file.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace crpm::repl {

using snapshot::ArchiveReader;

ReplNode::ReplNode(Channel& channel, int rank, ReplConfig cfg)
    : channel_(channel),
      rank_(rank),
      cfg_(std::move(cfg)),
      partners_(partners_of(rank, channel.nranks(), cfg_.replicas)),
      store_(cfg_.store_dir) {
  if (cfg_.queue_depth == 0) cfg_.queue_depth = 1;
  sender_thread_ = std::thread([this] { sender(); });
  service_thread_ = std::thread([this] { service(); });
}

ReplNode::~ReplNode() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(mu_);
    cv_send_.notify_all();
    cv_space_.notify_all();
    cv_flush_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lk(req_mu_);
    cv_req_.notify_all();
  }
  sender_thread_.join();
  service_thread_.join();
}

uint64_t ReplNode::now_us() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int ReplNode::partner_index(int rank) const {
  for (size_t i = 0; i < partners_.size(); ++i) {
    if (partners_[i] == rank) return static_cast<int>(i);
  }
  return -1;
}

void ReplNode::attach(Container& c, snapshot::ArchiveWriter& w) {
  block_size_ = c.geometry().block_size();
  region_size_ = c.geometry().main_region_size();
  segment_size_ = c.geometry().segment_size();
  crpm_stats_.store(&c.stats(), std::memory_order_release);
  if (cfg_.local_archive.empty()) cfg_.local_archive = w.path();
  w.set_frame_observer(
      [this](uint64_t epoch, uint32_t kind, const uint8_t* frame,
             size_t len) { on_frame(epoch, kind, frame, len); });
  w.set_cold_observer(
      [this](uint64_t epoch, const uint8_t* frame, size_t len) {
        on_cold_base(epoch, frame, len);
      });
}

void ReplNode::on_frame(uint64_t epoch, uint32_t kind, const uint8_t* frame,
                        size_t len) {
  if (partners_.empty()) return;
  Outgoing o;
  o.epoch = epoch;
  o.kind = kind;
  o.bytes.assign(frame, frame + len);
  o.per_partner.resize(partners_.size());
  enqueue(std::move(o));
}

void ReplNode::on_cold_base(uint64_t epoch, const uint8_t* frame,
                            size_t len) {
  if (partners_.empty()) return;
  Outgoing o;
  o.epoch = epoch;
  o.cold = true;
  o.bytes.assign(frame, frame + len);
  o.per_partner.resize(partners_.size());
  enqueue(std::move(o));
}

void ReplNode::enqueue(Outgoing&& o) {
  std::unique_lock<std::mutex> lk(mu_);
  if (out_.size() >= cfg_.queue_depth) {
    Stopwatch sw;
    cv_space_.wait(lk, [&] {
      return out_.size() < cfg_.queue_depth ||
             stop_.load(std::memory_order_acquire);
    });
    uint64_t ns = sw.elapsed_ns();
    st_stall_ns_.fetch_add(ns, std::memory_order_relaxed);
    if (CrpmStats* st = stats_sink()) st->add_repl_stall_ns(ns);
  }
  if (stop_.load(std::memory_order_acquire)) return;
  o.seq = ++next_seq_;
  out_.push_back(std::move(o));
  uint64_t depth = out_.size();
  uint64_t prev = st_qhwm_.load(std::memory_order_relaxed);
  while (depth > prev && !st_qhwm_.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }
  lk.unlock();
  cv_send_.notify_one();
}

void ReplNode::send_msg(int dst, const ReplMsgHeader& h, const uint8_t* body,
                        size_t len) {
  std::vector<uint8_t> wire = encode(h, body, len);
  channel_.send(rank_, dst, h.type, wire);
}

void ReplNode::sender() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    const uint64_t now = now_us();
    uint64_t next_deadline = ~uint64_t{0};
    bool popped = false;
    for (Outgoing& o : out_) {
      for (size_t i = 0; i < o.per_partner.size(); ++i) {
        PartnerState& p = o.per_partner[i];
        if (p.acked || p.given_up) continue;
        if (p.next_send_us > now) {
          if (p.next_send_us < next_deadline) next_deadline = p.next_send_us;
          continue;
        }
        if (cfg_.max_attempts != 0 && p.attempts >= cfg_.max_attempts) {
          p.given_up = true;
          st_given_up_.fetch_add(1, std::memory_order_relaxed);
          if (CrpmStats* st = stats_sink()) st->add_repl_frame_dropped();
          CRPM_LOG_WARN(
              "repl rank %d: giving up on epoch %llu -> rank %d after %u "
              "attempts",
              rank_, (unsigned long long)o.epoch, partners_[i], p.attempts);
          continue;
        }
        ReplMsgHeader h;
        h.type = o.cold ? kColdBase : kFrame;
        h.origin = static_cast<uint32_t>(rank_);
        h.epoch = o.epoch;
        h.block_size = block_size_;
        h.region_size = region_size_;
        h.segment_size = segment_size_;
        h.aux = o.seq;
        send_msg(partners_[i], h, o.bytes.data(), o.bytes.size());
        ++p.attempts;
        st_sent_.fetch_add(1, std::memory_order_relaxed);
        st_bytes_.fetch_add(o.bytes.size(), std::memory_order_relaxed);
        if (p.attempts > 1) {
          st_retries_.fetch_add(1, std::memory_order_relaxed);
          if (CrpmStats* st = stats_sink()) st->add_repl_retry();
        }
        if (CrpmStats* st = stats_sink()) {
          st->add_repl_frame_sent(o.bytes.size());
        }
        p.backoff_us = p.backoff_us == 0
                           ? cfg_.ack_timeout_us
                           : static_cast<uint64_t>(
                                 static_cast<double>(p.backoff_us) *
                                 cfg_.backoff);
        if (p.backoff_us > cfg_.max_backoff_us) {
          p.backoff_us = cfg_.max_backoff_us;
        }
        p.next_send_us = now + p.backoff_us;
        if (p.next_send_us < next_deadline) next_deadline = p.next_send_us;
      }
    }
    while (!out_.empty() && out_.front().done()) {
      out_.pop_front();
      popped = true;
    }
    if (popped) {
      cv_space_.notify_all();
      if (out_.empty()) cv_flush_.notify_all();
    }
    if (next_deadline == ~uint64_t{0}) {
      cv_send_.wait(lk, [&] {
        return stop_.load(std::memory_order_acquire) ||
               !out_.empty();
      });
      // Re-evaluate: new frames (or acks marking frames done) arrived.
      if (!out_.empty() && out_.front().done()) continue;
    } else {
      const uint64_t n2 = now_us();
      uint64_t sleep_us = next_deadline > n2 ? next_deadline - n2 : 1;
      cv_send_.wait_for(lk, std::chrono::microseconds(sleep_us));
    }
  }
}

void ReplNode::flush() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_flush_.wait(lk, [&] {
    return out_.empty() || stop_.load(std::memory_order_acquire);
  });
}

uint64_t ReplNode::newest_acked(int partner) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = ack_track_.find(partner);
  return it == ack_track_.end() ? 0 : it->second.newest_acked_epoch;
}

// --- receive path ---------------------------------------------------------

void ReplNode::service() {
  Message m;
  while (!stop_.load(std::memory_order_acquire)) {
    if (channel_.recv(rank_, &m, 2000)) {
      handle(std::move(m));
    } else if (channel_.closed()) {
      // Drained and closed: nothing more will arrive; idle politely until
      // the node is destroyed.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

void ReplNode::handle(Message&& m) {
  ReplMsgHeader h;
  const uint8_t* body = nullptr;
  size_t len = 0;
  if (!decode(m.payload, &h, &body, &len)) {
    st_invalid_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  switch (h.type) {
    case kFrame:
      handle_frame(h, body, len, m.src);
      break;
    case kColdBase:
      handle_cold(h, body, len, m.src);
      break;
    case kAck:
      handle_ack(h, m.src);
      break;
    case kQueryNewest:
      handle_query(h, m.src);
      break;
    case kNewestResp:
    case kPullFrame:
      handle_pull_frame(h, body, len, m.src);
      break;
    case kPull:
      handle_pull(h, m.src);
      break;
    default:
      st_invalid_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ReplNode::handle_frame(const ReplMsgHeader& h, const uint8_t* body,
                            size_t len, int src) {
  if (body == nullptr || len == 0) {
    st_invalid_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  AppendVerdict v =
      store_.append(static_cast<int>(h.origin), h.epoch, h.block_size,
                    h.region_size, h.segment_size, body, len,
                    cfg_.fsync_store);
  switch (v) {
    case AppendVerdict::kStored:
      st_stored_.fetch_add(1, std::memory_order_relaxed);
      if (CrpmStats* st = stats_sink()) st->add_repl_frame_stored();
      break;
    case AppendVerdict::kStale:
      st_stale_.fetch_add(1, std::memory_order_relaxed);
      break;
    case AppendVerdict::kGap:
      st_gap_.fetch_add(1, std::memory_order_relaxed);
      return;  // no ack: the sender must land the missing epoch first
    case AppendVerdict::kInvalid:
      st_invalid_.fetch_add(1, std::memory_order_relaxed);
      return;
    case AppendVerdict::kError:
      return;
  }
  ReplMsgHeader ack;
  ack.type = kAck;
  ack.origin = h.origin;
  ack.epoch = h.epoch;
  ack.aux = h.aux;  // echo the sender's sequence number
  send_msg(src, ack, nullptr, 0);
  st_acks_sent_.fetch_add(1, std::memory_order_relaxed);
}

void ReplNode::handle_cold(const ReplMsgHeader& h, const uint8_t* body,
                           size_t len, int src) {
  if (body == nullptr || len == 0) {
    st_invalid_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Idempotent: re-storing an epoch atomically replaces an identical cold
  // base, so duplicates are stored-and-acked rather than special-cased.
  if (!store_.store_cold(static_cast<int>(h.origin), h.epoch, h.block_size,
                         h.region_size, h.segment_size, body, len,
                         cfg_.cold_keep)) {
    st_invalid_.fetch_add(1, std::memory_order_relaxed);
    return;  // no ack: validation or I/O failure, sender retries
  }
  st_cold_stored_.fetch_add(1, std::memory_order_relaxed);
  ReplMsgHeader ack;
  ack.type = kAck;
  ack.origin = h.origin;
  ack.epoch = h.epoch;
  ack.aux = h.aux;  // echo the sender's sequence number
  send_msg(src, ack, nullptr, 0);
  st_acks_sent_.fetch_add(1, std::memory_order_relaxed);
}

void ReplNode::handle_ack(const ReplMsgHeader& h, int src) {
  if (static_cast<int>(h.origin) != rank_) return;  // not our frame
  const int pi = partner_index(src);
  if (pi < 0) return;
  bool newly = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (Outgoing& o : out_) {
      // Match by echoed sequence number, not epoch: a cold base shares its
      // epoch with the (long-acked) frame of the fold point.
      if (o.seq != h.aux || o.epoch != h.epoch) continue;
      PartnerState& p = o.per_partner[static_cast<size_t>(pi)];
      if (!p.acked) {
        p.acked = true;
        newly = true;
        AckTracker& t = ack_track_[src];
        t.ahead.emplace(o.seq, o.epoch);
        while (!t.ahead.empty() &&
               t.ahead.begin()->first == t.contig_seq + 1) {
          t.contig_seq = t.ahead.begin()->first;
          t.newest_acked_epoch = t.ahead.begin()->second;
          t.ahead.erase(t.ahead.begin());
        }
      }
      break;
    }
  }
  if (newly) {
    st_acked_.fetch_add(1, std::memory_order_relaxed);
    if (CrpmStats* st = stats_sink()) st->add_repl_frame_acked();
    cv_send_.notify_one();  // completed frames unblock space/flush waiters
  }
}

namespace {

// Frames (offset, length, epoch) needed to rebuild `epoch`: everything at
// or below it — restore replays from the newest base frame underneath.
struct ServableFrame {
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

bool collect_frames(const std::string& path, uint64_t epoch,
                    std::vector<ServableFrame>* frames,
                    snapshot::ArchiveHeader* header) {
  ArchiveReader reader(path);
  if (!reader.ok() || !reader.restorable(epoch)) return false;
  *header = reader.scan().header;
  for (const auto& e : reader.scan().epochs) {
    if (e.epoch > epoch || !e.intact) continue;
    frames->push_back({e.file_offset, e.frame_bytes});
  }
  return !frames->empty();
}

}  // namespace

void ReplNode::handle_query(const ReplMsgHeader& h, int src) {
  const int origin = static_cast<int>(h.origin);
  uint64_t newest = 0;
  if (origin == rank_) {
    if (!cfg_.local_archive.empty()) {
      ArchiveReader reader(cfg_.local_archive);
      if (reader.ok()) reader.latest_restorable(&newest);
    }
  } else {
    newest = store_.newest_epoch(origin);
  }
  ReplMsgHeader resp;
  resp.type = kNewestResp;
  resp.origin = h.origin;
  resp.flags = h.flags;
  resp.aux = newest;
  send_msg(src, resp, nullptr, 0);
}

void ReplNode::handle_pull(const ReplMsgHeader& h, int src) {
  const int origin = static_cast<int>(h.origin);
  const std::string path = origin == rank_ ? cfg_.local_archive
                                           : store_.peer_path(origin);
  std::vector<ServableFrame> frames;
  snapshot::ArchiveHeader ah;
  const bool ok =
      !path.empty() && collect_frames(path, h.epoch, &frames, &ah);

  st_pulls_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    ReplMsgHeader resp;
    resp.type = kPullFrame;
    resp.origin = h.origin;
    resp.flags = h.flags;
    resp.epoch = h.epoch;
    resp.aux2 = 0;  // cannot serve
    send_msg(src, resp, nullptr, 0);
    return;
  }

  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;  // puller times out and retries / tries another peer
  std::vector<uint8_t> buf;
  for (size_t i = 0; i < frames.size(); ++i) {
    buf.resize(frames[i].bytes);
    ssize_t n = ::pread(fd, buf.data(), buf.size(),
                        static_cast<off_t>(frames[i].offset));
    if (n != static_cast<ssize_t>(buf.size())) break;
    ReplMsgHeader resp;
    resp.type = kPullFrame;
    resp.origin = h.origin;
    resp.flags = h.flags;
    resp.epoch = h.epoch;
    resp.block_size = ah.block_size;
    resp.region_size = ah.region_size;
    resp.segment_size = ah.segment_size;
    resp.aux = i;
    resp.aux2 = frames.size();
    send_msg(src, resp, buf.data(), buf.size());
    st_pull_frames_.fetch_add(1, std::memory_order_relaxed);
  }
  ::close(fd);
}

void ReplNode::handle_pull_frame(const ReplMsgHeader& h, const uint8_t* body,
                                 size_t len, int src) {
  std::lock_guard<std::mutex> lk(req_mu_);
  if (!pending_.active || pending_.nonce != h.flags ||
      pending_.partner != src ||
      pending_.origin != static_cast<int>(h.origin)) {
    return;  // stale response from an earlier attempt
  }
  if (h.type == kNewestResp) {
    pending_.newest = h.aux;
    pending_.newest_valid = true;
  } else {
    if (h.aux2 == 0) {
      pending_.failed = true;
    } else {
      pending_.total = h.aux2;
      pending_.total_valid = true;
      pending_.block_size = h.block_size;
      pending_.region_size = h.region_size;
      pending_.segment_size = h.segment_size;
      if (body != nullptr && len != 0 &&
          pending_.frames.find(h.aux) == pending_.frames.end()) {
        pending_.frames.emplace(
            h.aux, std::vector<uint8_t>(body, body + len));
      }
    }
  }
  cv_req_.notify_all();
}

bool ReplNode::query_newest(int partner, int origin, uint64_t* newest) {
  ReplMsgHeader req;
  req.type = kQueryNewest;
  req.origin = static_cast<uint32_t>(origin);
  {
    std::lock_guard<std::mutex> lk(req_mu_);
    pending_ = PendingReq{};
    pending_.active = true;
    pending_.type = kQueryNewest;
    pending_.nonce = next_nonce_++;
    pending_.partner = partner;
    pending_.origin = origin;
    req.flags = pending_.nonce;
  }
  bool got = false;
  for (int attempt = 0; attempt < 16 && !got; ++attempt) {
    send_msg(partner, req, nullptr, 0);
    std::unique_lock<std::mutex> lk(req_mu_);
    cv_req_.wait_for(
        lk, std::chrono::microseconds(cfg_.ack_timeout_us * (attempt + 1)),
        [&] {
          return pending_.newest_valid ||
                 stop_.load(std::memory_order_acquire);
        });
    got = pending_.newest_valid;
    if (stop_.load(std::memory_order_acquire)) break;
  }
  std::lock_guard<std::mutex> lk(req_mu_);
  *newest = pending_.newest;
  pending_ = PendingReq{};
  return got;
}

bool ReplNode::pull(int partner, int origin, uint64_t epoch,
                    const std::string& dest_path, std::string* err) {
  ReplMsgHeader req;
  req.type = kPull;
  req.origin = static_cast<uint32_t>(origin);
  req.epoch = epoch;
  {
    std::lock_guard<std::mutex> lk(req_mu_);
    pending_ = PendingReq{};
    pending_.active = true;
    pending_.type = kPull;
    pending_.nonce = next_nonce_++;
    pending_.partner = partner;
    pending_.origin = origin;
    req.flags = pending_.nonce;
  }

  bool complete = false, failed = false;
  for (int attempt = 0; attempt < 32 && !complete && !failed; ++attempt) {
    send_msg(partner, req, nullptr, 0);
    std::unique_lock<std::mutex> lk(req_mu_);
    cv_req_.wait_for(
        lk, std::chrono::microseconds(cfg_.ack_timeout_us * (attempt + 2)),
        [&] {
          return pending_.failed ||
                 (pending_.total_valid &&
                  pending_.frames.size() == pending_.total) ||
                 stop_.load(std::memory_order_acquire);
        });
    failed = pending_.failed;
    complete =
        pending_.total_valid && pending_.frames.size() == pending_.total;
    if (stop_.load(std::memory_order_acquire)) break;
  }

  std::unique_lock<std::mutex> lk(req_mu_);
  if (!complete) {
    pending_ = PendingReq{};
    if (err != nullptr) {
      *err = failed ? "partner cannot serve the requested epoch"
                    : "pull timed out";
    }
    return false;
  }

  // Materialize the pulled chain as a local archive file; every frame is
  // CRC-verified again by the ArchiveReader that restores from it.
  const snapshot::ArchiveHeader ah = snapshot::make_header(
      pending_.block_size, pending_.region_size, pending_.segment_size);
  const auto frames = std::move(pending_.frames);
  pending_ = PendingReq{};
  lk.unlock();
  std::string werr;
  const bool ok = durable_file::atomic_replace(
      dest_path,
      [&](int fd) {
        if (!durable_file::write_all(fd, &ah, sizeof(ah))) return false;
        for (const auto& [idx, bytes] : frames) {
          (void)idx;
          if (!durable_file::write_all(fd, bytes.data(), bytes.size())) {
            return false;
          }
        }
        return true;
      },
      &werr);
  if (!ok && err != nullptr) *err = "writing pulled archive failed: " + werr;
  return ok;
}

ReplNodeStats ReplNode::stats() const {
  ReplNodeStats s;
  s.frames_sent = st_sent_.load(std::memory_order_relaxed);
  s.bytes_sent = st_bytes_.load(std::memory_order_relaxed);
  s.frames_acked = st_acked_.load(std::memory_order_relaxed);
  s.retries = st_retries_.load(std::memory_order_relaxed);
  s.frames_given_up = st_given_up_.load(std::memory_order_relaxed);
  s.queue_stall_ns = st_stall_ns_.load(std::memory_order_relaxed);
  s.queue_hwm = st_qhwm_.load(std::memory_order_relaxed);
  s.frames_stored = st_stored_.load(std::memory_order_relaxed);
  s.cold_stored = st_cold_stored_.load(std::memory_order_relaxed);
  s.stale_frames = st_stale_.load(std::memory_order_relaxed);
  s.gap_rejects = st_gap_.load(std::memory_order_relaxed);
  s.invalid_msgs = st_invalid_.load(std::memory_order_relaxed);
  s.acks_sent = st_acks_sent_.load(std::memory_order_relaxed);
  s.pulls_served = st_pulls_.load(std::memory_order_relaxed);
  s.pull_frames_sent = st_pull_frames_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace crpm::repl
