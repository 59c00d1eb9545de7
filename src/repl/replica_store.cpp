#include "repl/replica_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "snapshot/archive.h"
#include "snapshot/format.h"
#include "tier/cold.h"
#include "util/durable_file.h"
#include "util/logging.h"

namespace crpm::repl {

using snapshot::ArchiveReader;

namespace {

// The store accepts exactly what its reader marks intact: a frame of
// `epoch` that passes the frame check under the message's geometry
// `geom`. The geometry must pass header_valid first, because the check
// divides by its block size.
bool acceptable(const snapshot::ArchiveHeader& geom, uint64_t epoch,
                const uint8_t* frame, size_t len, uint32_t* kind) {
  snapshot::FrameInfo info;
  if (!snapshot::header_valid(geom) ||
      !snapshot::check_frame(frame, len, geom, &info) ||
      info.epoch != epoch) {
    return false;
  }
  *kind = info.kind;
  return true;
}

}  // namespace

ReplicaStore::ReplicaStore(std::string dir) : dir_(std::move(dir)) {
  if (!durable_file::make_dirs(dir_)) {
    CRPM_LOG_WARN("replica store %s: cannot create it: %s", dir_.c_str(),
                  std::strerror(errno));
  }
  std::error_code ec;
  // Adopt peer files left by a previous run so newest_epoch() answers
  // before any new frame arrives (recovery queries hit exactly this).
  for (const auto& e : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("peer_", 0) != 0) continue;
    const size_t dot = name.find(".crpmsnap");
    if (dot == std::string::npos) continue;
    char* end = nullptr;
    long r = std::strtol(name.c_str() + 5, &end, 10);
    if (end == nullptr || std::string(end) != ".crpmsnap") continue;
    // Only the header here: open_peer scans the file.
    snapshot::ArchiveHeader h;
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    const bool ok = fd >= 0 && durable_file::read_at(fd, &h, sizeof(h), 0) &&
                    snapshot::header_valid(h);
    if (fd >= 0) ::close(fd);
    if (!ok) continue;
    std::lock_guard<std::mutex> lk(mu_);
    open_peer(static_cast<int>(r), h.block_size, h.region_size,
              h.segment_size);
  }
}

ReplicaStore::~ReplicaStore() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [rank, pf] : peers_) {
    (void)rank;
    if (pf.fd >= 0) ::close(pf.fd);
  }
}

std::string ReplicaStore::peer_path(const std::string& dir, int origin) {
  return dir + "/peer_" + std::to_string(origin) + ".crpmsnap";
}

ReplicaStore::PeerFile* ReplicaStore::open_peer(int origin,
                                                uint64_t block_size,
                                                uint64_t region_size,
                                                uint64_t segment_size) {
  auto it = peers_.find(origin);
  if (it != peers_.end()) {
    PeerFile& pf = it->second;
    if (pf.block_size != block_size || pf.region_size != region_size) {
      CRPM_LOG_WARN("replica store %s: peer %d geometry mismatch",
                    dir_.c_str(), origin);
      return nullptr;
    }
    return &pf;
  }

  const std::string path = peer_path(origin);
  uint64_t newest = 0;
  uint64_t truncate_to = 0;
  bool reuse = false;
  {
    ArchiveReader reader(path);
    if (reader.scan().read_error) {
      // Not a torn tail: the unread bytes may be acked frames, so neither
      // truncate nor re-create the file.
      CRPM_LOG_WARN("replica store %s: peer %d file unreadable; refusing it",
                    dir_.c_str(), origin);
      return nullptr;
    }
    if (reader.ok()) {
      const auto& h = reader.scan().header;
      if (h.block_size != block_size || h.region_size != region_size) {
        CRPM_LOG_WARN("replica store %s: peer %d file has foreign geometry",
                      dir_.c_str(), origin);
        return nullptr;
      }
      reuse = true;
      truncate_to = reader.scan().scan_end;
      // Drop any corrupt tail epochs so `newest` only counts frames a
      // restore can actually use; the chain below them stays servable.
      const auto& epochs = reader.scan().epochs;
      size_t keep = epochs.size();
      while (keep > 0 && !reader.restorable(epochs[keep - 1].epoch)) --keep;
      if (keep < epochs.size()) truncate_to = epochs[keep].file_offset;
      if (keep > 0) newest = epochs[keep - 1].epoch;
    }
  }

  PeerFile pf;
  bool ok = false;
  if (reuse) {
    pf.fd = ::open(path.c_str(), O_RDWR);
    pf.end = truncate_to;
    ok = pf.fd >= 0 &&
         ::ftruncate(pf.fd, static_cast<off_t>(truncate_to)) == 0 &&
         ::lseek(pf.fd, 0, SEEK_END) >= 0;
  } else {
    const snapshot::ArchiveHeader h =
        snapshot::make_header(block_size, region_size, segment_size);
    pf.fd = durable_file::create(path, O_RDWR | O_TRUNC);
    pf.end = sizeof(h);
    ok = pf.fd >= 0 && durable_file::write_all(pf.fd, &h, sizeof(h));
  }
  if (!ok) {
    CRPM_LOG_WARN("replica store %s: opening %s failed: %s", dir_.c_str(),
                  path.c_str(), std::strerror(errno));
    if (pf.fd >= 0) ::close(pf.fd);
    return nullptr;
  }
  pf.newest = newest;
  pf.block_size = block_size;
  pf.region_size = region_size;
  return &peers_.emplace(origin, pf).first->second;
}

AppendVerdict ReplicaStore::append(int origin, uint64_t epoch,
                                   uint64_t block_size, uint64_t region_size,
                                   uint64_t segment_size,
                                   const uint8_t* frame, size_t len,
                                   bool fsync) {
  uint32_t kind = 0;
  if (!acceptable(snapshot::make_header(block_size, region_size,
                                        segment_size),
                  epoch, frame, len, &kind)) {
    return AppendVerdict::kInvalid;
  }

  std::lock_guard<std::mutex> lk(mu_);
  PeerFile* pf = open_peer(origin, block_size, region_size, segment_size);
  if (pf == nullptr) return AppendVerdict::kError;
  if (epoch <= pf->newest) return AppendVerdict::kStale;
  if (snapshot::is_delta_kind(kind) && epoch != pf->newest + 1) {
    // An earlier delta is still in flight; storing this one would leave an
    // unrestorable gap the archive format cannot express.
    return AppendVerdict::kGap;
  }

  if (!durable_file::write_all(pf->fd, frame, len) ||
      (fsync && !durable_file::sync(pf->fd))) {
    CRPM_LOG_WARN("replica store %s: append for peer %d failed: %s",
                  dir_.c_str(), origin, std::strerror(errno));
    // Fatal for this frame: cut the file back to its length before the
    // append, so a retry appends at the old end and a restart never adopts
    // bytes whose sync failed. If even the truncate fails, forget the peer
    // file; the next append reopens and rescans it.
    if (::ftruncate(pf->fd, static_cast<off_t>(pf->end)) != 0 ||
        ::lseek(pf->fd, static_cast<off_t>(pf->end), SEEK_SET) < 0) {
      ::close(pf->fd);
      peers_.erase(origin);
    }
    return AppendVerdict::kError;
  }
  pf->end += len;
  pf->newest = epoch;
  ++frames_stored_;
  bytes_stored_ += len;
  return AppendVerdict::kStored;
}

bool ReplicaStore::store_cold(int origin, uint64_t epoch,
                              uint64_t block_size, uint64_t region_size,
                              uint64_t segment_size, const uint8_t* frame,
                              size_t len) {
  const snapshot::ArchiveHeader h =
      snapshot::make_header(block_size, region_size, segment_size);
  uint32_t kind = 0;
  if (!acceptable(h, epoch, frame, len, &kind) ||
      !snapshot::is_base_kind(kind)) {
    return false;
  }
  tier::ColdTier cold(tier::ColdTier::dir_for(peer_path(origin)));
  std::string err;
  bool ok = cold.store(epoch, &h, sizeof(h), frame, len,
                       durable_file::write_all, &err);
  if (!ok) {
    CRPM_LOG_WARN("replica store %s: cold store for peer %d epoch %llu "
                  "failed: %s",
                  dir_.c_str(), origin, (unsigned long long)epoch,
                  err.c_str());
    return false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++cold_stored_;
  bytes_stored_ += len;
  return true;
}

uint64_t ReplicaStore::cold_stored() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cold_stored_;
}

uint64_t ReplicaStore::newest_epoch(int origin) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = peers_.find(origin);
  return it == peers_.end() ? 0 : it->second.newest;
}

std::vector<int> ReplicaStore::peers() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<int> out;
  out.reserve(peers_.size());
  for (const auto& [rank, pf] : peers_) {
    (void)pf;
    out.push_back(rank);
  }
  return out;
}

uint64_t ReplicaStore::frames_stored() const {
  std::lock_guard<std::mutex> lk(mu_);
  return frames_stored_;
}

uint64_t ReplicaStore::bytes_stored() const {
  std::lock_guard<std::mutex> lk(mu_);
  return bytes_stored_;
}

}  // namespace crpm::repl
