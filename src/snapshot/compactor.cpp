#include "snapshot/compactor.h"

#include <cstring>

#include "util/durable_file.h"

namespace crpm::snapshot {

CompactionResult fold_to_base(
    const std::string& path, const ArchiveHeader& header, uint64_t epoch,
    const std::array<uint64_t, kNumRoots>& roots,
    const std::vector<uint8_t>& image, uint64_t block_size,
    const std::function<bool(int fd, const void* buf, size_t len)>&
        write_fn) {
  CompactionResult r;
  if (image.size() != header.region_size || image.empty()) {
    r.error = "image size does not match archive geometry";
    return r;
  }

  // Gather every non-zero block; zero blocks are implicit (restore starts
  // from an all-zero image).
  std::vector<uint64_t> blocks;
  std::vector<uint8_t> payload;
  const uint64_t nr = header.region_size / block_size;
  for (uint64_t b = 0; b < nr; ++b) {
    const uint8_t* p = image.data() + b * block_size;
    bool zero = p[0] == 0 && std::memcmp(p, p + 1, block_size - 1) == 0;
    if (zero) continue;
    blocks.push_back(b);
    payload.insert(payload.end(), p, p + block_size);
  }

  std::vector<uint8_t> frame;
  serialize_frame(kBaseFrame, epoch, roots, blocks, payload.data(),
                  block_size, &frame);
  r.ok = durable_file::atomic_replace(
      path,
      [&](int fd) {
        return write_fn(fd, &header, sizeof(header)) &&
               write_fn(fd, frame.data(), frame.size());
      },
      &r.error);
  if (!r.ok) return r;
  r.bytes_written = sizeof(header) + frame.size();
  return r;
}

}  // namespace crpm::snapshot
