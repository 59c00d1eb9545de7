#include "baselines/fti.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "nvm/cost_model.h"
#include "util/durable_file.h"
#include "util/logging.h"

namespace crpm {

namespace {

constexpr uint64_t kFtiMagic = 0x6674692d66756c6cull;  // "fti-full"
constexpr uint64_t kChunk = 256;

struct FileHeader {
  uint64_t magic;
  uint64_t epoch;
  uint64_t buffer_count;
};

struct BufferHeader {
  int64_t id;
  uint64_t bytes;
};

uint64_t fnv1a(const uint8_t* p, uint64_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void full_read(int fd, void* data, uint64_t n) {
  uint8_t* p = static_cast<uint8_t*>(data);
  while (n > 0) {
    ssize_t r = ::read(fd, p, n);
    CRPM_CHECK(r > 0, "checkpoint read failed: %s", std::strerror(errno));
    p += r;
    n -= static_cast<uint64_t>(r);
  }
}

}  // namespace

FtiLike::FtiLike(std::string dir, int rank)
    : dir_(std::move(dir)), rank_(rank) {}

void FtiLike::charge_write(uint64_t bytes) {
  if (write_cost_ns_ > 0) {
    spin_for_ns(write_cost_ns_ * double((bytes + 63) / 64));
  }
}

FtiLike::~FtiLike() = default;

std::string FtiLike::committed_path() const {
  return dir_ + "/ckpt-" + std::to_string(rank_) + ".fti";
}

void FtiLike::protect(int id, void* ptr, uint64_t bytes) {
  buffers_.push_back(Buffer{id, static_cast<uint8_t*>(ptr), bytes});
  chunk_hashes_.emplace_back();
}

uint64_t FtiLike::checkpoint_state_bytes() const {
  uint64_t total = sizeof(FileHeader);
  for (const Buffer& b : buffers_) total += sizeof(BufferHeader) + b.bytes;
  return total;
}

void FtiLike::write_full() {
  // Atomic publish over the previous committed checkpoint.
  std::string err;
  const bool ok = durable_file::atomic_replace(
      committed_path(),
      [this](int fd) {
        FileHeader fh{kFtiMagic, epoch_ + 1, buffers_.size()};
        if (!durable_file::write_all(fd, &fh, sizeof(fh))) return false;
        bytes_written_ += sizeof(fh);
        for (const Buffer& b : buffers_) {
          BufferHeader bh{b.id, b.bytes};
          if (!durable_file::write_all(fd, &bh, sizeof(bh)) ||
              !durable_file::write_all(fd, b.ptr, b.bytes)) {
            return false;
          }
          charge_write(b.bytes);
          bytes_written_ += sizeof(bh) + b.bytes;
        }
        return true;
      },
      &err);
  CRPM_CHECK(ok, "checkpoint failed: %s", err.c_str());
}

void FtiLike::write_incremental() {
  // Differential checkpointing: hash every 256 B chunk and rewrite only the
  // chunks whose hash changed, in place in the committed file. The hash
  // pass itself touches every protected byte — which is why footnote 4
  // reports hash computation dominating the dCP overhead.
  std::string path = committed_path();
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    // No base checkpoint yet: fall back to a full one and seed the hash
    // table so the next incremental pass only rewrites real changes.
    write_full();
    for (size_t i = 0; i < buffers_.size(); ++i) {
      const Buffer& b = buffers_[i];
      uint64_t chunks = (b.bytes + kChunk - 1) / kChunk;
      auto& hashes = chunk_hashes_[i];
      hashes.assign(chunks, 0);
      for (uint64_t c = 0; c < chunks; ++c) {
        uint64_t off = c * kChunk;
        uint64_t len = off + kChunk <= b.bytes ? kChunk : b.bytes - off;
        hashes[c] = fnv1a(b.ptr + off, len);
      }
    }
  } else {
    uint64_t file_off = sizeof(FileHeader);
    for (size_t i = 0; i < buffers_.size(); ++i) {
      const Buffer& b = buffers_[i];
      file_off += sizeof(BufferHeader);
      uint64_t chunks = (b.bytes + kChunk - 1) / kChunk;
      auto& hashes = chunk_hashes_[i];
      hashes.resize(chunks, 0);
      for (uint64_t c = 0; c < chunks; ++c) {
        uint64_t off = c * kChunk;
        uint64_t len = off + kChunk <= b.bytes ? kChunk : b.bytes - off;
        uint64_t h = fnv1a(b.ptr + off, len);
        if (h != hashes[c]) {
          ssize_t w = ::pwrite(fd, b.ptr + off, len,
                               static_cast<off_t>(file_off + off));
          CRPM_CHECK(w == static_cast<ssize_t>(len), "pwrite failed");
          charge_write(len);
          bytes_written_ += len;
          hashes[c] = h;
        }
      }
      file_off += b.bytes;
    }
    // Publish the new epoch in the file header.
    FileHeader fh{kFtiMagic, epoch_ + 1, buffers_.size()};
    CRPM_CHECK(::pwrite(fd, &fh, sizeof(fh), 0) == sizeof(fh),
               "header pwrite failed");
    CRPM_CHECK(durable_file::sync(fd), "checkpoint sync failed: %s",
               std::strerror(errno));
    ::close(fd);
  }
}

void FtiLike::checkpoint() {
  if (incremental_) {
    write_incremental();
  } else {
    write_full();
  }
  ++epoch_;
}

bool FtiLike::recover() {
  int fd = ::open(committed_path().c_str(), O_RDONLY);
  if (fd < 0) return false;
  FileHeader fh{};
  full_read(fd, &fh, sizeof(fh));
  CRPM_CHECK(fh.magic == kFtiMagic, "not an FTI checkpoint");
  CRPM_CHECK(fh.buffer_count == buffers_.size(),
             "checkpoint has %llu buffers, %zu protected",
             (unsigned long long)fh.buffer_count, buffers_.size());
  for (Buffer& b : buffers_) {
    BufferHeader bh{};
    full_read(fd, &bh, sizeof(bh));
    CRPM_CHECK(bh.id == b.id && bh.bytes == b.bytes,
               "protect list mismatch at id %d", b.id);
    full_read(fd, b.ptr, b.bytes);
  }
  ::close(fd);
  epoch_ = fh.epoch;
  // Invalidate incremental hashes; they will be recomputed lazily.
  for (auto& h : chunk_hashes_) h.clear();
  return true;
}

}  // namespace crpm
