#include "snapshot/archive.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>

#include "snapshot/workers.h"
#include "util/logging.h"

namespace crpm::snapshot {

namespace {

uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

bool pread_exact(int fd, void* buf, size_t len, uint64_t off) {
  auto* p = static_cast<uint8_t*>(buf);
  while (len > 0) {
    ssize_t n = ::pread(fd, p, len, static_cast<off_t>(off));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    off += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return true;
}

std::string warnf(const char* fmt, unsigned long long a,
                  unsigned long long b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

ArchiveReader::ArchiveReader(const std::string& path, uint32_t scan_workers) {
  run_scan(path, scan_workers);
}

ArchiveReader::~ArchiveReader() {
  if (fd_ >= 0) ::close(fd_);
}

void ArchiveReader::run_scan(const std::string& path, uint32_t workers) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    scan_.warnings.push_back("cannot open archive: " +
                             std::string(std::strerror(errno)));
    return;
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) return;
  const auto file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < sizeof(ArchiveHeader)) {
    scan_.warnings.push_back("file too small to be a snapshot archive");
    return;
  }
  ArchiveHeader h;
  if (!pread_exact(fd_, &h, sizeof(h), 0) || !header_valid(h)) {
    scan_.warnings.push_back("archive header corrupt or not an archive");
    return;
  }
  scan_.valid = true;
  scan_.header = h;

  // Pass 1: walk the frame heads, which carry each frame's length.
  // Whatever stops the walk is the unparseable tail.
  std::string tail_warning;
  uint64_t off = sizeof(ArchiveHeader);
  uint64_t prev_epoch = 0;
  uint8_t head[kMaxFrameHeadBytes];
  while (off + sizeof(FrameHeader) <= file_size) {
    const size_t avail = static_cast<size_t>(
        std::min<uint64_t>(sizeof(head), file_size - off));
    if (!pread_exact(fd_, head, avail, off)) break;
    EpochInfo info;
    info.file_offset = off;
    const char* why = parse_frame_head(head, avail, h, &info);
    if (why == nullptr && info.epoch <= prev_epoch) {
      why = "frame out of epoch order";
    }
    if (why == nullptr && off + info.frame_bytes > file_size) {
      why = "frame truncated mid-append";
    }
    if (why != nullptr) {
      tail_warning = why + warnf(" at offset %llu: dropping %llu tail bytes",
                                 off, file_size - off);
      break;
    }
    scan_.epochs.push_back(info);
    prev_epoch = info.epoch;
    off += info.frame_bytes;
  }

  // Pass 2: every frame's check, claimed off a shared cursor; each worker
  // reads through one buffer.
  const size_t n = scan_.epochs.size();
  auto read_ok = std::make_unique<bool[]>(n);
  workers = pool_size(workers);
  std::vector<std::vector<uint8_t>> bufs(workers);
  claim_each(n, workers, [&](uint64_t i, uint32_t self) {
    scan_.epochs[i].intact =
        frame_intact(scan_.epochs[i], &bufs[self], &read_ok[i]);
    return true;
  });

  // Verdicts in file order, as a front-to-back scan reports them: a frame
  // that cannot be read ends the scan there, like an I/O error mid-walk.
  for (size_t i = 0; i < n; ++i) {
    const EpochInfo& info = scan_.epochs[i];
    if (!read_ok[i]) {
      off = info.file_offset;
      scan_.epochs.resize(i);
      tail_warning.clear();
      break;
    }
    if (!info.intact) {
      scan_.warnings.push_back(warnf(
          "epoch %llu at offset %llu failed CRC verification: skipping "
          "corrupt frame",
          info.epoch, info.file_offset));
    }
  }
  if (!tail_warning.empty()) scan_.warnings.push_back(tail_warning);
  scan_.scan_end = off;
  scan_.truncated_bytes = file_size - off;
  for (const auto& w : scan_.warnings) {
    CRPM_LOG_WARN("archive %s: %s", path.c_str(), w.c_str());
  }
}

bool ArchiveReader::frame_intact(const EpochInfo& info,
                                 std::vector<uint8_t>* buf,
                                 bool* read_ok) const {
  buf->resize(info.frame_bytes);
  *read_ok = pread_exact(fd_, buf->data(), buf->size(), info.file_offset);
  return *read_ok && check_frame(buf->data(), buf->size(), scan_.header);
}

int ArchiveReader::index_of(uint64_t epoch) const {
  for (size_t i = 0; i < scan_.epochs.size(); ++i) {
    if (scan_.epochs[i].epoch == epoch) return static_cast<int>(i);
  }
  return -1;
}

int ArchiveReader::chain_start(uint64_t epoch) const {
  int i = index_of(epoch);
  if (i < 0 || !scan_.epochs[i].intact) return -1;
  for (int j = i; j >= 0; --j) {
    const EpochInfo& f = scan_.epochs[j];
    if (!f.intact) return -1;
    if (is_base_kind(f.kind)) return j;
    if (j == 0) {
      // A delta chain at the head of the file starts from the implicit
      // all-zero image only if it begins at the container's first epoch.
      return f.epoch == 1 ? 0 : -1;
    }
    // The chain needs the immediately preceding epoch's delta.
    if (scan_.epochs[j - 1].epoch != f.epoch - 1) return -1;
  }
  return -1;
}

bool ArchiveReader::restorable(uint64_t epoch) const {
  return scan_.valid && chain_start(epoch) >= 0;
}

bool ArchiveReader::latest_restorable(uint64_t* epoch) const {
  if (!scan_.valid) return false;
  for (auto it = scan_.epochs.rbegin(); it != scan_.epochs.rend(); ++it) {
    if (chain_start(it->epoch) >= 0) {
      *epoch = it->epoch;
      return true;
    }
  }
  return false;
}

bool ArchiveReader::apply_records(const uint8_t* recs, uint64_t block_count,
                                  std::vector<uint8_t>* image,
                                  std::string* err) const {
  const uint64_t bs = scan_.header.block_size;
  const uint64_t rec = record_bytes(bs);
  const uint8_t* p = recs;
  for (uint64_t i = 0; i < block_count; ++i, p += rec) {
    uint64_t idx = 0;
    std::memcpy(&idx, p, 8);
    uint32_t stored = 0;
    std::memcpy(&stored, p + rec - 4, 4);
    if (stored != crc32(p, rec - 4) ||
        (idx + 1) * bs > image->size()) {
      if (err) *err = "record CRC mismatch while applying epoch frame";
      return false;
    }
    std::memcpy(image->data() + idx * bs, p + 8, bs);
  }
  return true;
}

bool ArchiveReader::apply_records_parallel(
    const uint8_t* recs, uint64_t block_count, uint32_t workers,
    std::vector<uint8_t>* image, std::string* err, uint64_t* cpu_total,
    uint64_t* cpu_critical) const {
  const uint64_t bs = scan_.header.block_size;
  const uint64_t seg = scan_.header.segment_size;
  const uint64_t rec = record_bytes(bs);
  // Partition records by owning segment, segments round-robin over the
  // workers — the commit_shards layout applied to the read path. Block
  // indices are unique within a frame, so shard applies never alias.
  // Record indices stay 64-bit end to end: a frame can legitimately carry
  // >= 2^32 records, and truncated indices would restore silently wrong
  // bytes instead of failing.
  std::vector<std::vector<uint64_t>> shards(workers);
  for (uint64_t i = 0; i < block_count; ++i) {
    uint64_t idx = 0;
    std::memcpy(&idx, recs + i * rec, 8);
    shards[(idx * bs / seg) % workers].push_back(i);
  }
  std::vector<std::atomic<uint64_t>> cursors(workers);
  for (auto& c : cursors) c.store(0, std::memory_order_relaxed);
  std::atomic<int> bad_shard{-1};
  // Apply CPU is accounted per SHARD, not per thread: stealing means one
  // thread may drain several shards (on a single-core host the first
  // runner drains them all), but the max per-shard CPU still reports how
  // evenly the sharding spread the work — the same convention as the
  // commit pipeline's flush accounting, meaningful on any core count.
  std::vector<std::atomic<uint64_t>> shard_ns(workers);
  for (auto& ns : shard_ns) ns.store(0, std::memory_order_relaxed);
  // Records are small (a block plus header), so claiming them one at a
  // time turns the shared cursors into an atomic-RMW hot spot; claiming
  // batches keeps the contention negligible while stealing still balances
  // at batch granularity.
  constexpr uint64_t kClaimBatch = 128;
  auto sweep = [&](uint32_t self) {
    // Own shard first, then steal from lagging shards.
    for (uint32_t pass = 0; pass < workers; ++pass) {
      const uint32_t s = (self + pass) % workers;
      const uint64_t shard_size = shards[s].size();
      for (;;) {
        if (bad_shard.load(std::memory_order_relaxed) >= 0) break;
        const uint64_t at =
            cursors[s].fetch_add(kClaimBatch, std::memory_order_relaxed);
        if (at >= shard_size) break;
        const uint64_t end = std::min(at + kClaimBatch, shard_size);
        const uint64_t t0 = thread_cpu_ns();
        for (uint64_t j = at; j < end; ++j) {
          const uint8_t* p = recs + shards[s][j] * rec;
          uint64_t idx = 0;
          std::memcpy(&idx, p, 8);
          uint32_t stored = 0;
          std::memcpy(&stored, p + rec - 4, 4);
          if (stored != crc32(p, rec - 4) ||
              (idx + 1) * bs > image->size()) {
            int expect = -1;
            bad_shard.compare_exchange_strong(expect, static_cast<int>(s));
            break;
          }
          std::memcpy(image->data() + idx * bs, p + 8, bs);
        }
        shard_ns[s].fetch_add(thread_cpu_ns() - t0,
                              std::memory_order_relaxed);
      }
    }
  };
  run_workers(workers, sweep);
  uint64_t max_ns = 0;
  for (auto& ns : shard_ns) {
    const uint64_t v = ns.load(std::memory_order_relaxed);
    *cpu_total += v;
    max_ns = std::max(max_ns, v);
  }
  *cpu_critical += max_ns;
  const int bad = bad_shard.load(std::memory_order_relaxed);
  if (bad >= 0) {
    if (err) {
      *err = "record CRC mismatch while applying epoch frame (restore "
             "shard " +
             std::to_string(bad) + " of " + std::to_string(workers) + ")";
    }
    return false;
  }
  return true;
}

bool ArchiveReader::apply_span(const uint8_t* recs, uint64_t block_count,
                               uint32_t workers, std::vector<uint8_t>* image,
                               std::string* err, RestorePerf* perf) const {
  uint64_t cpu_total = 0;
  uint64_t cpu_critical = 0;
  bool ok;
  if (workers <= 1 || block_count == 0) {
    const uint64_t t0 = thread_cpu_ns();
    ok = apply_records(recs, block_count, image, err);
    cpu_total = cpu_critical = thread_cpu_ns() - t0;
  } else {
    ok = apply_records_parallel(recs, block_count, workers, image, err,
                                &cpu_total, &cpu_critical);
  }
  if (perf != nullptr) {
    perf->frames += 1;
    perf->records += block_count;
    perf->apply_ns_total += cpu_total;
    perf->apply_ns_critical += cpu_critical;
  }
  return ok;
}

const char* ArchiveReader::load_frame(const EpochInfo& info,
                                      std::vector<uint8_t>* coded,
                                      LoadedFrame* f) const {
  if (is_coded_kind(info.kind)) {
    coded->resize(info.frame_bytes);
    if (!pread_exact(fd_, coded->data(), coded->size(), info.file_offset)) {
      return "archive read failed while applying coded frame";
    }
    if (!decode_frame(coded->data(), coded->size(), scan_.header, &f->buf)) {
      return "coded frame failed CRC verification or decode";
    }
    f->recs = f->buf.data() + sizeof(FrameHeader);
    return nullptr;
  }
  f->buf.resize(info.block_count * record_bytes(scan_.header.block_size));
  if (!pread_exact(fd_, f->buf.data(), f->buf.size(),
                   info.file_offset + sizeof(FrameHeader))) {
    return "archive read failed while applying epoch frame";
  }
  f->recs = f->buf.data();
  return nullptr;
}

bool ArchiveReader::load_frames(const std::vector<EpochInfo>& frames,
                                size_t first, size_t last, uint32_t workers,
                                std::vector<LoadedFrame>* out,
                                std::string* err) const {
  out->resize(last - first);
  // Per frame, why it failed: the earliest failure in chain order is the
  // one reported, as a front-to-back load would.
  std::vector<const char*> why(last - first, nullptr);
  workers = pool_size(workers);
  std::vector<std::vector<uint8_t>> coded(workers);
  claim_each(last - first, workers, [&](uint64_t k, uint32_t self) {
    why[k] = load_frame(frames[first + k], &coded[self], &(*out)[k]);
    return why[k] == nullptr;
  });
  for (const char* w : why) {
    if (w != nullptr) {
      if (err) *err = w;
      return false;
    }
  }
  return true;
}

bool ArchiveReader::frame_roots(const EpochInfo& info,
                                std::array<uint64_t, kNumRoots>* roots) const {
  FrameHeader fh;
  if (!pread_exact(fd_, &fh, sizeof(fh), info.file_offset)) return false;
  std::memcpy(roots->data(), fh.roots, sizeof(fh.roots));
  return true;
}

bool ArchiveReader::chain(uint64_t epoch, std::vector<EpochInfo>* frames,
                          std::string* err) const {
  frames->clear();
  if (!scan_.valid) {
    if (err) *err = "not a valid snapshot archive";
    return false;
  }
  int start = chain_start(epoch);
  if (start < 0) {
    if (err) {
      *err = "epoch " + std::to_string(epoch) +
             " is not restorable from this archive (missing, corrupt, or "
             "its delta chain is broken)";
    }
    return false;
  }
  const int target = index_of(epoch);
  for (int j = start; j <= target; ++j) frames->push_back(scan_.epochs[j]);
  return true;
}

bool ArchiveReader::state_at(uint64_t epoch, std::vector<uint8_t>* image,
                             std::array<uint64_t, kNumRoots>* roots,
                             std::string* err) const {
  return state_at(epoch, image, roots, err, 1, nullptr);
}

bool ArchiveReader::state_at(uint64_t epoch, std::vector<uint8_t>* image,
                             std::array<uint64_t, kNumRoots>* roots,
                             std::string* err, uint32_t workers,
                             RestorePerf* perf) const {
  std::vector<EpochInfo> frames;
  if (!chain(epoch, &frames, err)) return false;
  workers = pool_size(workers);
  if (perf != nullptr) perf->workers = workers;
  image->assign(scan_.header.region_size, 0);
  // Decode one window ahead, then apply it in chain order; the window's
  // buffers are reused by the next one.
  const size_t window = size_t{workers} * kDecodeAheadPerWorker;
  std::vector<LoadedFrame> loaded;
  for (size_t first = 0; first < frames.size(); first += window) {
    const size_t last = std::min(first + window, frames.size());
    if (!load_frames(frames, first, last, workers, &loaded, err)) {
      return false;
    }
    for (size_t k = first; k < last; ++k) {
      if (!apply_span(loaded[k - first].recs, frames[k].block_count,
                      workers, image, err, perf)) {
        return false;
      }
    }
  }
  if (roots != nullptr && !frame_roots(frames.back(), roots)) {
    if (err) *err = "archive read failed while loading roots";
    return false;
  }
  return true;
}

}  // namespace crpm::snapshot
