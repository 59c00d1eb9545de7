#include "snapshot/format.h"

#include <cstring>

#include "tier/codec.h"

namespace crpm::snapshot {

ArchiveHeader make_header(uint64_t block_size, uint64_t region_size,
                          uint64_t segment_size) {
  ArchiveHeader h;
  h.block_size = block_size;
  h.region_size = region_size;
  h.segment_size = segment_size;
  h.header_crc = crc32(&h, offsetof(ArchiveHeader, header_crc));
  return h;
}

bool header_valid(const ArchiveHeader& h) {
  if (h.magic != kArchiveMagic || h.version < kArchiveMinVersion ||
      h.version > kArchiveVersion) {
    return false;
  }
  if (h.header_crc != crc32(&h, offsetof(ArchiveHeader, header_crc))) {
    return false;
  }
  if (h.block_size == 0 || (h.block_size & (h.block_size - 1)) != 0) {
    return false;
  }
  return h.region_size != 0 && h.region_size % h.block_size == 0;
}

namespace {

// Writes the footer of a frame of `total` bytes at `p`, the frame's end.
void put_footer(uint8_t* p, uint64_t epoch, uint64_t total,
                uint32_t payload_crc) {
  FrameFooter ff;
  ff.epoch = epoch;
  ff.frame_bytes = total;
  ff.payload_crc = payload_crc;
  ff.footer_crc = crc32(&ff, offsetof(FrameFooter, footer_crc));
  std::memcpy(p, &ff, sizeof(ff));
}

// Writes `fh` with its CRC at `p`.
void put_header(uint8_t* p, FrameHeader fh) {
  fh.header_crc = crc32(&fh, offsetof(FrameHeader, header_crc));
  std::memcpy(p, &fh, sizeof(fh));
}

// The extent of the coded frame at `frame`, whose head has parsed.
CodedExtent extent_of(const uint8_t* frame) {
  CodedExtent ce;
  std::memcpy(&ce, frame + sizeof(FrameHeader), sizeof(ce));
  return ce;
}

}  // namespace

void serialize_frame(uint32_t kind, uint64_t epoch,
                     const std::array<uint64_t, kNumRoots>& roots,
                     const std::vector<uint64_t>& blocks,
                     const uint8_t* payload, uint64_t block_size,
                     std::vector<uint8_t>* out) {
  const uint64_t total = frame_bytes(blocks.size(), block_size);
  out->resize(total);
  uint8_t* p = out->data();

  FrameHeader fh;
  fh.kind = kind;
  fh.epoch = epoch;
  fh.block_count = blocks.size();
  std::memcpy(fh.roots, roots.data(), sizeof(fh.roots));
  put_header(p, fh);
  p += sizeof(fh);

  uint32_t payload_crc = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    uint64_t idx = blocks[i];
    std::memcpy(p, &idx, 8);
    std::memcpy(p + 8, payload + i * block_size, block_size);
    uint32_t rec_crc = crc32(p, 8 + block_size);
    std::memcpy(p + 8 + block_size, &rec_crc, 4);
    payload_crc = crc32(&rec_crc, 4, payload_crc);
    p += record_bytes(block_size);
  }
  put_footer(p, epoch, total, payload_crc);
}

void gather_base(const uint8_t* image, uint64_t region_size,
                 uint64_t block_size, std::vector<uint64_t>* blocks,
                 std::vector<uint8_t>* payload) {
  blocks->clear();
  payload->clear();
  for (uint64_t b = 0; b < region_size / block_size; ++b) {
    const uint8_t* p = image + b * block_size;
    if (p[0] == 0 && std::memcmp(p, p + 1, block_size - 1) == 0) continue;
    blocks->push_back(b);
    payload->insert(payload->end(), p, p + block_size);
  }
}

bool encode_frame(const uint8_t* plain, size_t plain_len, uint32_t codec_id,
                  double min_ratio, std::vector<uint8_t>* out) {
  const tier::Codec* codec = tier::codec_by_id(codec_id);
  if (codec == nullptr ||
      plain_len < sizeof(FrameHeader) + sizeof(FrameFooter)) {
    return false;
  }
  FrameHeader fh;
  std::memcpy(&fh, plain, sizeof(fh));
  if (is_coded_kind(fh.kind)) return false;  // never double-code

  std::vector<uint8_t> enc(codec->max_encoded_bytes(plain_len));
  const size_t enc_len =
      codec->encode(plain, plain_len, enc.data(), enc.size());
  if (enc_len == 0) return false;
  const uint64_t total = coded_frame_bytes(enc_len);
  // The whole coded frame (framing overhead included) must beat the plain
  // frame by the configured margin, or the plain frame wins.
  if (double(total) > min_ratio * double(plain_len)) return false;

  out->resize(total);
  uint8_t* p = out->data();
  fh.kind = fh.kind == kDeltaFrame ? kCodedDeltaFrame : kCodedBaseFrame;
  put_header(p, fh);
  p += sizeof(fh);

  CodedExtent ce;
  ce.codec = codec_id;
  ce.raw_bytes = plain_len;
  ce.encoded_bytes = enc_len;
  ce.raw_crc = crc32(plain, plain_len);
  ce.encoded_crc = crc32(enc.data(), enc_len);
  ce.extent_crc = crc32(&ce, offsetof(CodedExtent, extent_crc));
  std::memcpy(p, &ce, sizeof(ce));
  p += sizeof(ce);

  std::memcpy(p, enc.data(), enc_len);
  put_footer(p + enc_len, fh.epoch, total, ce.encoded_crc);
  return true;
}

const char* parse_frame_head(const uint8_t* p, size_t avail,
                             const ArchiveHeader& geometry, FrameInfo* info) {
  FrameHeader fh;
  std::memcpy(&fh, p, sizeof(fh));
  if (fh.marker != kFrameMarker ||
      fh.header_crc != crc32(&fh, offsetof(FrameHeader, header_crc))) {
    return "unparseable frame header (torn append)";
  }
  // The count comes from the bytes being checked: bounded by the region's
  // blocks, and so that no frame size below can wrap (2^63 bytes).
  if (!known_kind(fh.kind) ||
      fh.block_count > geometry.region_size / geometry.block_size ||
      fh.block_count > (UINT64_MAX / 2) / record_bytes(geometry.block_size)) {
    return "implausible frame kind or block count";
  }
  info->epoch = fh.epoch;
  info->kind = fh.kind;
  info->block_count = fh.block_count;
  info->raw_bytes = frame_bytes(fh.block_count, geometry.block_size);
  info->frame_bytes = info->raw_bytes;
  info->codec = 0;
  if (!is_coded_kind(fh.kind)) return nullptr;
  // A coded frame's length comes from its extent, which must itself
  // verify before it is trusted. A torn extent is the tail shape of a
  // crash mid-append, exactly like a torn header.
  if (avail < kMaxFrameHeadBytes) return "coded frame truncated mid-append";
  const CodedExtent ce = extent_of(p);
  if (ce.marker != kExtentMarker ||
      ce.extent_crc != crc32(&ce, offsetof(CodedExtent, extent_crc)) ||
      ce.raw_bytes != info->raw_bytes || ce.encoded_bytes >= ce.raw_bytes) {
    return "unparseable coded extent (torn append)";
  }
  info->frame_bytes = coded_frame_bytes(ce.encoded_bytes);
  info->codec = ce.codec;
  return nullptr;
}

bool check_frame(const uint8_t* frame, size_t len,
                 const ArchiveHeader& geometry, FrameInfo* info) {
  FrameInfo fi;
  if (len < sizeof(FrameHeader) ||
      parse_frame_head(frame, len, geometry, &fi) != nullptr ||
      fi.frame_bytes != len) {
    return false;
  }
  uint32_t payload_crc = 0;
  if (is_coded_kind(fi.kind)) {
    const CodedExtent ce = extent_of(frame);
    payload_crc = crc32(frame + kMaxFrameHeadBytes, ce.encoded_bytes);
    if (payload_crc != ce.encoded_crc) return false;
  } else {
    const uint64_t nr_blocks = geometry.region_size / geometry.block_size;
    const uint64_t rec = record_bytes(geometry.block_size);
    const uint8_t* p = frame + sizeof(FrameHeader);
    for (uint64_t i = 0; i < fi.block_count; ++i, p += rec) {
      uint32_t stored = 0;
      std::memcpy(&stored, p + rec - 4, 4);
      uint64_t idx = 0;
      std::memcpy(&idx, p, 8);
      if (stored != crc32(p, rec - 4) || idx >= nr_blocks) return false;
      payload_crc = crc32(&stored, 4, payload_crc);
    }
  }
  FrameFooter ff;
  std::memcpy(&ff, frame + len - sizeof(ff), sizeof(ff));
  if (ff.marker != kFooterMarker || ff.epoch != fi.epoch ||
      ff.frame_bytes != len || ff.payload_crc != payload_crc ||
      ff.footer_crc != crc32(&ff, offsetof(FrameFooter, footer_crc))) {
    return false;
  }
  if (info != nullptr) *info = fi;
  return true;
}

bool decode_frame(const uint8_t* frame, size_t len,
                  const ArchiveHeader& geometry,
                  std::vector<uint8_t>* plain_out) {
  FrameInfo fi;
  if (!check_frame(frame, len, geometry, &fi) || !is_coded_kind(fi.kind)) {
    return false;
  }
  const CodedExtent ce = extent_of(frame);
  const tier::Codec* codec = tier::codec_by_id(ce.codec);
  if (codec == nullptr) return false;
  plain_out->resize(ce.raw_bytes);
  if (!codec->decode(frame + kMaxFrameHeadBytes, ce.encoded_bytes,
                     plain_out->data(), ce.raw_bytes)) {
    return false;
  }
  return crc32(plain_out->data(), plain_out->size()) == ce.raw_crc;
}

}  // namespace crpm::snapshot
