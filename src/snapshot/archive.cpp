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
#include "util/durable_file.h"
#include "util/logging.h"

namespace crpm::snapshot {

namespace {

uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::string warnf(const char* fmt, unsigned long long a,
                  unsigned long long b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

// Stops `scan` at `off` of a `file_size`-byte file on a failed read.
void read_failed(ScanResult* scan, uint64_t off, uint64_t file_size) {
  scan->read_error = true;
  scan->warnings.push_back(
      warnf("read error at offset %llu: %llu bytes from there on unread",
            off, file_size - off));
}

}  // namespace

ScanResult scan_heads(int fd) {
  ScanResult scan;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    read_failed(&scan, 0, 0);
    return scan;
  }
  const auto file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < sizeof(ArchiveHeader)) {
    scan.warnings.push_back("file too small to be a snapshot archive");
    return scan;
  }
  ArchiveHeader h;
  if (!durable_file::read_at(fd, &h, sizeof(h), 0)) {
    read_failed(&scan, 0, file_size);
    return scan;
  }
  if (!header_valid(h)) {
    scan.warnings.push_back("archive header corrupt or not an archive");
    return scan;
  }
  scan.valid = true;
  scan.header = h;

  // Whatever stops the walk is the unparseable tail, unless a read failed.
  uint64_t off = sizeof(ArchiveHeader);
  uint64_t prev_epoch = 0;
  uint8_t head[kMaxFrameHeadBytes];
  while (off + sizeof(FrameHeader) <= file_size) {
    const size_t avail = static_cast<size_t>(
        std::min<uint64_t>(sizeof(head), file_size - off));
    if (!durable_file::read_at(fd, head, avail, off)) {
      read_failed(&scan, off, file_size);
      break;
    }
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
      scan.warnings.push_back(
          why + warnf(" at offset %llu: dropping %llu tail bytes", off,
                      file_size - off));
      break;
    }
    scan.epochs.push_back(info);
    prev_epoch = info.epoch;
    off += info.frame_bytes;
  }
  scan.scan_end = off;
  scan.truncated_bytes = file_size - off;
  return scan;
}

bool ChunkPlan::build(const ArchiveHeader& geometry,
                      const std::vector<LoadedFrame>& frames,
                      std::string* err) {
  static const auto page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  // A block never straddles chunks: the chunk size is a multiple of the
  // block size (both powers of two).
  block_size_ = geometry.block_size;
  chunk_size_ = std::max<uint64_t>(geometry.segment_size, page);
  chunks_.resize((geometry.region_size + chunk_size_ - 1) / chunk_size_);
  for (auto& c : chunks_) c.clear();
  const uint64_t rec = record_bytes(block_size_);
  for (const LoadedFrame& f : frames) {
    for (uint64_t i = 0; i < f.count; ++i) {
      const uint8_t* p = f.recs + i * rec;
      uint64_t idx = 0;
      std::memcpy(&idx, p, 8);
      if (idx >= geometry.region_size / block_size_) {
        if (err) *err = "archived record lies outside the region";
        return false;
      }
      chunks_[idx * block_size_ / chunk_size_].push_back(p);
    }
  }
  return true;
}

void ChunkPlan::apply(uint64_t c, uint8_t* image) const {
  for (const uint8_t* p : chunks_[c]) {
    uint64_t idx = 0;
    std::memcpy(&idx, p, 8);
    std::memcpy(image + idx * block_size_, p + 8, block_size_);
  }
}

ArchiveReader::ArchiveReader(const std::string& path, uint32_t scan_workers) {
  run_scan(path, scan_workers);
}

ArchiveReader::~ArchiveReader() {
  if (fd_ >= 0) ::close(fd_);
}

void ArchiveReader::run_scan(const std::string& path, uint32_t workers) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    scan_.read_error = errno != ENOENT;
    scan_.warnings.push_back("cannot open archive: " +
                             std::string(std::strerror(errno)));
    return;
  }
  scan_ = scan_heads(fd_);
  if (!scan_.valid && !scan_.read_error) return;

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
  // that cannot be read ends the scan there, like a failed head read.
  std::vector<std::string> frame_warnings;
  for (size_t i = 0; i < n; ++i) {
    const EpochInfo& info = scan_.epochs[i];
    if (!read_ok[i]) {
      const uint64_t file_size = scan_.scan_end + scan_.truncated_bytes;
      scan_.warnings.clear();
      read_failed(&scan_, info.file_offset, file_size);
      scan_.scan_end = info.file_offset;
      scan_.truncated_bytes = file_size - info.file_offset;
      scan_.epochs.resize(i);
      break;
    }
    if (!info.intact) {
      frame_warnings.push_back(warnf(
          "epoch %llu at offset %llu failed CRC verification: skipping "
          "corrupt frame",
          info.epoch, info.file_offset));
    }
  }
  scan_.warnings.insert(scan_.warnings.begin(), frame_warnings.begin(),
                        frame_warnings.end());
  for (const auto& w : scan_.warnings) {
    CRPM_LOG_WARN("archive %s: %s", path.c_str(), w.c_str());
  }
}

bool ArchiveReader::frame_intact(const EpochInfo& info,
                                 std::vector<uint8_t>* buf,
                                 bool* read_ok) const {
  buf->resize(info.frame_bytes);
  *read_ok =
      durable_file::read_at(fd_, buf->data(), buf->size(), info.file_offset);
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

const char* ArchiveReader::load_frame(const EpochInfo& info,
                                      std::vector<uint8_t>* coded,
                                      LoadedFrame* f) const {
  const bool is_coded = is_coded_kind(info.kind);
  std::vector<uint8_t>* raw = is_coded ? coded : &f->buf;
  raw->resize(info.frame_bytes);
  if (!durable_file::read_at(fd_, raw->data(), raw->size(),
                             info.file_offset)) {
    return "archive read failed while loading chain frame";
  }
  if (is_coded) {
    if (!decode_frame(coded->data(), coded->size(), scan_.header, &f->buf)) {
      return "coded frame failed CRC verification or decode";
    }
  } else if (!check_frame(f->buf.data(), f->buf.size(), scan_.header)) {
    return "epoch frame failed CRC verification while loading";
  }
  f->recs = f->buf.data() + sizeof(FrameHeader);
  f->count = info.block_count;
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
  if (!durable_file::read_at(fd_, &fh, sizeof(fh), info.file_offset)) {
    return false;
  }
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
                             std::string* err, uint32_t workers,
                             RestorePerf* perf) const {
  std::vector<EpochInfo> frames;
  if (!chain(epoch, &frames, err)) return false;
  workers = pool_size(workers);
  if (perf != nullptr) perf->workers = workers;
  const uint64_t region = scan_.header.region_size;
  image->assign(region, 0);
  ChunkPlan plan;
  std::vector<std::atomic<uint64_t>> shard_ns(workers);
  for (size_t first = 0, last = 0; first < frames.size(); first = last) {
    uint64_t decoded = frames[first].raw_bytes;
    for (last = first + 1; last < frames.size() &&
                           decoded + frames[last].raw_bytes <= region;
         ++last) {
      decoded += frames[last].raw_bytes;
    }
    std::vector<LoadedFrame> window;
    if (!load_frames(frames, first, last, workers, &window, err) ||
        !plan.build(scan_.header, window, err)) {
      return false;
    }
    for (auto& ns : shard_ns) ns.store(0, std::memory_order_relaxed);
    claim_each(plan.chunks(), workers, [&](uint64_t c, uint32_t) {
      const uint64_t t0 = thread_cpu_ns();
      plan.apply(c, image->data());
      shard_ns[c % workers].fetch_add(thread_cpu_ns() - t0,
                                      std::memory_order_relaxed);
      return true;
    });
    if (perf == nullptr) continue;
    uint64_t max_ns = 0;
    for (auto& ns : shard_ns) {
      const uint64_t v = ns.load(std::memory_order_relaxed);
      perf->apply_ns_total += v;
      max_ns = std::max(max_ns, v);
    }
    perf->apply_ns_critical += max_ns;
    perf->frames += last - first;
    for (const LoadedFrame& f : window) perf->records += f.count;
  }
  if (roots != nullptr && !frame_roots(frames.back(), roots)) {
    if (err) *err = "archive read failed while loading roots";
    return false;
  }
  return true;
}

}  // namespace crpm::snapshot
