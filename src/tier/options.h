// Knobs for the archive tiering layer (codec negotiation, group commit,
// async writeback, cold tier). Defaults reproduce the pre-tiering archive
// behavior exactly: plain frames, one device write + fdatasync per epoch,
// synchronous writeback, no cold tier.
#pragma once

#include <cstdint>
#include <string>

#include "tier/codec.h"

namespace crpm::tier {

struct TierOptions {
  // Codec tried for every frame (kCodecNone = always plain). A frame is
  // coded only when the whole coded frame is at most codec_min_ratio of
  // the plain frame; otherwise the plain frame is appended.
  uint32_t codec = kCodecNone;
  double codec_min_ratio = 0.90;

  // Group commit: staged frames accumulate into one batch flushed with a
  // single device write + fdatasync once `group_epochs` frames or
  // `group_bytes` bytes are pending — or when the oldest pending frame
  // has waited `flush_deadline_us`, which bounds the durability latency
  // of a lone small epoch (crpm_kvd's durable-PUT ack path).
  uint32_t group_epochs = 1;
  uint64_t group_bytes = 4ull << 20;
  uint64_t flush_deadline_us = 2000;

  // Writeback draining the batch ring (tier/writeback.h): "sync" (write +
  // fdatasync on the writer thread) or "threads" (two worker threads).
  // The archive writer rejects any other value.
  std::string writeback = "sync";

  // Cold tier: at every compaction fold, the state at the fold epoch is
  // also written as a (codec-negotiated) base frame into `<archive>.cold/`
  // via durable_file::atomic_replace, so epochs the fold retires from the
  // hot archive stay restorable. cold_keep bounds retained cold bases
  // (0 = keep all).
  bool cold_enabled = false;
  uint32_t cold_keep = 0;
};

}  // namespace crpm::tier
