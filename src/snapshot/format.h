// On-disk format of the multi-epoch snapshot archive, and the one module
// that builds and checks its frames: the writer, the cold tier and the
// replica store build them here, and the reader's scan, its restore
// decode and the replica store check them here.
//
// An archive is an append-only file:
//
//   [ ArchiveHeader ]                         48 B, CRC32-protected
//   [ frame ]*                                one frame per archived epoch
//
// and each frame is
//
//   [ FrameHeader   ]  marker, kind, epoch, block count, roots, CRC32
//   [ record ]*        block index (8 B) + payload (block_size B) + CRC32
//   [ FrameFooter   ]  marker, epoch, frame byte count, payload CRC, CRC32
//
// Two plain frame kinds:
//   * kDeltaFrame — the blocks modified during exactly one epoch. A delta
//     chain beginning at epoch 1 implicitly starts from the all-zero image
//     of a freshly formatted container.
//   * kBaseFrame — a full snapshot: every non-zero block of the working
//     state at that epoch. Written when the writer attaches mid-history and
//     by compaction; restore starts from the newest base at or below the
//     target epoch.
//
// Version 2 adds *coded* frames (kCodedDeltaFrame/kCodedBaseFrame): the
// complete serialized plain frame is run through a per-frame codec
// (tier/codec) and stored as
//
//   [ FrameHeader  ]  same struct; kind names the coded variant
//   [ CodedExtent  ]  codec id, raw/encoded byte counts, dual CRC
//   [ encoded bytes]  codec output; decodes to the exact plain frame
//   [ FrameFooter  ]  frame_bytes covers the coded frame,
//                     payload_crc == CodedExtent::encoded_crc
//
// The codec is negotiated per frame: an incompressible epoch is simply
// appended as a plain frame, so readers of either version-1 or version-2
// archives handle every frame by looking at its kind. The dual CRC —
// encoded_crc over the bytes on disk, raw_crc over the decoded plain
// frame (whose records carry their own per-record CRCs) — keeps both the
// scan (no decode needed) and the restore path independently verifiable.
//
// Crash-safety argument (see DESIGN.md): frames are appended with a single
// buffered write followed by fdatasync, and nothing before the append point
// is ever modified in place (compaction writes a fresh file and renames it
// over the archive atomically). A crash mid-append therefore leaves either
// a missing footer or a torn header/record region strictly at the tail;
// readers validate CRCs front to back and drop the torn tail, falling back
// to the newest intact epoch.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/layout.h"
#include "util/crc32.h"

namespace crpm::snapshot {

inline constexpr uint64_t kArchiveMagic = 0x6372706d2d617263ull;  // "crpm-arc"
inline constexpr uint32_t kArchiveVersion = 2;
inline constexpr uint32_t kArchiveMinVersion = 1;  // still readable
inline constexpr uint32_t kFrameMarker = 0xF0A3C0DEu;
inline constexpr uint32_t kFooterMarker = 0xF007E4Du;
inline constexpr uint32_t kExtentMarker = 0xC0DEC5E1u;

enum FrameKind : uint32_t {
  kDeltaFrame = 1,
  kBaseFrame = 2,
  kCodedDeltaFrame = 3,  // CodedExtent + encoded plain delta frame
  kCodedBaseFrame = 4,   // CodedExtent + encoded plain base frame
};

inline constexpr bool is_coded_kind(uint32_t k) {
  return k == kCodedDeltaFrame || k == kCodedBaseFrame;
}
inline constexpr bool is_delta_kind(uint32_t k) {
  return k == kDeltaFrame || k == kCodedDeltaFrame;
}
inline constexpr bool is_base_kind(uint32_t k) {
  return k == kBaseFrame || k == kCodedBaseFrame;
}
inline constexpr bool known_kind(uint32_t k) {
  return k >= kDeltaFrame && k <= kCodedBaseFrame;
}
// The plain equivalent of any kind (identity for plain kinds).
inline constexpr uint32_t plain_kind(uint32_t k) {
  return k == kCodedDeltaFrame ? kDeltaFrame
         : k == kCodedBaseFrame ? kBaseFrame
                                : k;
}

// All structs are written to disk verbatim; every field group is naturally
// aligned and padding bytes are zero (value-initialized), so the CRC over
// the raw bytes is deterministic.
struct ArchiveHeader {
  uint64_t magic = kArchiveMagic;
  uint32_t version = kArchiveVersion;
  uint32_t reserved = 0;
  uint64_t block_size = 0;
  uint64_t region_size = 0;    // container main-region bytes
  uint64_t segment_size = 0;   // informational (0 if unknown)
  uint32_t header_crc = 0;     // CRC32 of the preceding bytes
  uint32_t pad = 0;
};
static_assert(sizeof(ArchiveHeader) == 48);

struct FrameHeader {
  uint32_t marker = kFrameMarker;
  uint32_t kind = kDeltaFrame;
  uint64_t epoch = 0;
  uint64_t block_count = 0;
  uint64_t roots[kNumRoots] = {};  // committed root array at `epoch`
  uint32_t header_crc = 0;         // CRC32 of the preceding bytes
  uint32_t pad = 0;
};
static_assert(sizeof(FrameHeader) == 160);

struct FrameFooter {
  uint32_t marker = kFooterMarker;
  uint32_t pad = 0;
  uint64_t epoch = 0;
  uint64_t frame_bytes = 0;  // header + records + footer
  uint32_t payload_crc = 0;  // running CRC32 over every record's CRC
  uint32_t footer_crc = 0;   // CRC32 of the preceding bytes
};
static_assert(sizeof(FrameFooter) == 32);

// Sits between the FrameHeader and the encoded bytes of a coded frame.
// raw_* describes the decoded plain frame; encoded_* the bytes on disk.
// Both are CRC'd so a coded frame is verifiable without decoding (scan)
// and after decoding (restore) — see the dual-CRC note above.
struct CodedExtent {
  uint32_t marker = kExtentMarker;
  uint32_t codec = 0;          // tier codec id (tier::kCodecNone forbidden)
  uint64_t raw_bytes = 0;      // decoded plain-frame bytes
  uint64_t encoded_bytes = 0;  // bytes following this struct
  uint32_t raw_crc = 0;        // CRC32 of the decoded plain frame
  uint32_t encoded_crc = 0;    // CRC32 of the encoded bytes
  uint32_t extent_crc = 0;     // CRC32 of the preceding bytes
  uint32_t pad = 0;
};
static_assert(sizeof(CodedExtent) == 40);

// Bytes of one record for a given block size.
inline constexpr uint64_t record_bytes(uint64_t block_size) {
  return 8 + block_size + 4;
}

// Total frame bytes for `blocks` records of `block_size` (plain frames).
inline constexpr uint64_t frame_bytes(uint64_t blocks, uint64_t block_size) {
  return sizeof(FrameHeader) + blocks * record_bytes(block_size) +
         sizeof(FrameFooter);
}

// Total on-disk bytes of a coded frame carrying `encoded` codec bytes.
inline constexpr uint64_t coded_frame_bytes(uint64_t encoded) {
  return sizeof(FrameHeader) + sizeof(CodedExtent) + encoded +
         sizeof(FrameFooter);
}

// The most bytes a frame's head takes: its header, and the extent of a
// coded frame.
inline constexpr uint64_t kMaxFrameHeadBytes =
    sizeof(FrameHeader) + sizeof(CodedExtent);

using ::crpm::crc32;

// What a frame's head (its header, and the extent of a coded frame) says
// about the frame.
struct FrameInfo {
  uint64_t epoch = 0;
  uint32_t kind = kDeltaFrame;
  uint64_t block_count = 0;
  uint64_t frame_bytes = 0;  // on-disk bytes (encoded size for coded frames)
  uint32_t codec = 0;        // tier codec id; 0 for plain frames
  uint64_t raw_bytes = 0;    // plain-frame equivalent bytes
};

// Serializes the archive file header.
ArchiveHeader make_header(uint64_t block_size, uint64_t region_size,
                          uint64_t segment_size);

// Validates a header read from disk (magic, version, CRC, sane geometry).
// Every frame check below assumes a geometry that passes it.
bool header_valid(const ArchiveHeader& h);

// Serializes one complete frame (header, records, footer) into `out`.
// `blocks[i]`'s payload is payload + i * block_size. `out` is overwritten.
void serialize_frame(uint32_t kind, uint64_t epoch,
                     const std::array<uint64_t, kNumRoots>& roots,
                     const std::vector<uint64_t>& blocks,
                     const uint8_t* payload, uint64_t block_size,
                     std::vector<uint8_t>* out);

// The contents of a base frame: replaces `blocks` and `payload` with every
// non-zero block of `image` (region_size bytes). Zero blocks stay implicit,
// since a restore starts from an all-zero image.
void gather_base(const uint8_t* image, uint64_t region_size,
                 uint64_t block_size, std::vector<uint64_t>* blocks,
                 std::vector<uint8_t>* payload);

// Plain frame bytes -> coded frame bytes: the outer header with the kind
// switched to the coded variant, the extent with the dual CRC, the codec
// output and a footer repeating encoded_crc. False when codec_id is
// none/unknown or the whole coded frame is not at most min_ratio of the
// plain one: negotiation, not failure, so the caller keeps the plain frame.
bool encode_frame(const uint8_t* plain, size_t plain_len, uint32_t codec_id,
                  double min_ratio, std::vector<uint8_t>* out);

// Parses the head of the frame at `p`, of which `avail` bytes (at least a
// FrameHeader) are at hand, against the archive `geometry`: the header's
// marker and CRC, a known kind, a block count no larger than the region's
// (nor than a 2^63-byte frame holds), and for a coded frame its extent
// (marker, CRC, a raw size that matches the block count, and encoded <
// raw). Null with `info` filled, else why the head does not parse. Reads
// nothing past the head.
const char* parse_frame_head(const uint8_t* p, size_t avail,
                             const ArchiveHeader& geometry, FrameInfo* info);

// The frame check, exactly what a reader marks intact: a head that parses,
// a length of exactly `len`, every record's CRC and block index (plain) or
// the encoded CRC (coded), and a footer that matches. `info` may be null.
bool check_frame(const uint8_t* frame, size_t len,
                 const ArchiveHeader& geometry, FrameInfo* info = nullptr);

// Coded frame bytes -> the exact plain frame bytes: the frame check, the
// decode, then the raw CRC of the result. False on any damage.
bool decode_frame(const uint8_t* frame, size_t len,
                  const ArchiveHeader& geometry,
                  std::vector<uint8_t>* plain_out);

}  // namespace crpm::snapshot
