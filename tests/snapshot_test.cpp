// Snapshot subsystem tests: archive every epoch of a workload, then prove
// restore() reproduces the exact working state (bytes and roots) of every
// archived epoch — for both container modes, across compaction folds,
// around corrupt frames, and under queue backpressure — and pin the
// archive's exact bytes.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/container.h"
#include "nvm/device.h"
#include "snapshot/archive.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "tier/codec.h"
#include "tier/cold.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace crpm {
namespace {

CrpmOptions small_opts(bool buffered) {
  CrpmOptions o;
  o.segment_size = 1024;
  o.block_size = 128;
  o.main_region_size = 64 * 1024;
  o.buffered = buffered;
  return o;
}

std::string temp_archive(const std::string& tag) {
  auto p = std::filesystem::temp_directory_path() /
           ("crpm_snapshot_test_" + tag + ".crpmsnap");
  std::filesystem::remove(p);
  return p.string();
}

// One epoch of the reference workload: dirty a few runs, set a root, commit.
// Returns the full working-state image right after the commit.
std::vector<uint8_t> run_epoch(Container& c, Xoshiro256& rng, uint64_t epoch) {
  const uint64_t region = c.capacity();
  for (int r = 0; r < 6; ++r) {
    uint64_t len = 64 + rng.next_below(512);
    uint64_t off = rng.next_below(region - len);
    c.annotate(c.data() + off, len);
    for (uint64_t i = 0; i < len; ++i) {
      c.data()[off + i] = static_cast<uint8_t>(rng.next());
    }
  }
  c.set_root(0, epoch * 1000);
  c.set_root(1, rng.next());
  c.checkpoint();
  return std::vector<uint8_t>(c.data(), c.data() + region);
}

struct EpochRecord {
  std::vector<uint8_t> image;
  std::array<uint64_t, kNumRoots> roots{};
};

// Drives `epochs` epochs through a container with an attached writer and
// returns the per-epoch reference states (index e-1 holds epoch e).
std::vector<EpochRecord> build_archive(Container& c,
                                       snapshot::ArchiveWriter& w,
                                       uint64_t epochs, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<EpochRecord> recs;
  for (uint64_t e = 1; e <= epochs; ++e) {
    EpochRecord r;
    r.image = run_epoch(c, rng, e);
    for (uint32_t s = 0; s < kNumRoots; ++s) r.roots[s] = c.get_root(s);
    recs.push_back(std::move(r));
  }
  w.drain();
  return recs;
}

void expect_restores_exactly(const std::string& archive, uint64_t epoch,
                             const EpochRecord& want,
                             const CrpmOptions& opt) {
  // Image-level check.
  std::vector<uint8_t> image;
  std::array<uint64_t, kNumRoots> roots{};
  std::string err;
  ASSERT_TRUE(snapshot::read_state(archive, epoch, &image, &roots, &err))
      << "epoch " << epoch << ": " << err;
  ASSERT_EQ(image.size(), want.image.size());
  EXPECT_EQ(std::memcmp(image.data(), want.image.data(), image.size()), 0)
      << "image mismatch at epoch " << epoch;
  EXPECT_EQ(roots, want.roots) << "roots mismatch at epoch " << epoch;

  // Full restore onto a fresh device: the container's working state must be
  // bit-identical to the archived epoch's.
  auto dev = std::make_unique<HeapNvmDevice>(
      Container::required_device_size(opt));
  snapshot::RestoreResult rr =
      snapshot::restore(archive, epoch, std::move(dev), opt);
  ASSERT_NE(rr.container, nullptr)
      << "epoch " << epoch << ": " << rr.error;
  EXPECT_EQ(rr.epoch, epoch);
  ASSERT_EQ(rr.container->capacity(), want.image.size());
  EXPECT_EQ(std::memcmp(rr.container->data(), want.image.data(),
                        want.image.size()),
            0)
      << "restored container mismatch at epoch " << epoch;
  for (uint32_t s = 0; s < kNumRoots; ++s) {
    EXPECT_EQ(rr.container->get_root(s), want.roots[s]) << "slot " << s;
  }
}

TEST(SnapshotTest, RestoresEveryArchivedEpochDefaultContainer) {
  const CrpmOptions opt = small_opts(false);
  const std::string path = temp_archive("default");
  const uint64_t kEpochs = 10;
  std::vector<EpochRecord> recs;
  {
    auto c = Container::open(
        std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
        opt);
    snapshot::ArchiveWriter w(path);
    w.attach(*c);
    recs = build_archive(*c, w, kEpochs, /*seed=*/7);
    c->set_epoch_sink(nullptr);
    EXPECT_FALSE(w.failed());
    EXPECT_EQ(w.writer_stats().epochs_appended, kEpochs);
  }
  for (uint64_t e = 1; e <= kEpochs; ++e) {
    expect_restores_exactly(path, e, recs[e - 1], opt);
  }
  std::filesystem::remove(path);
}

TEST(SnapshotTest, RestoresEveryArchivedEpochBufferedContainer) {
  const CrpmOptions opt = small_opts(true);
  const std::string path = temp_archive("buffered");
  const uint64_t kEpochs = 10;
  std::vector<EpochRecord> recs;
  {
    auto c = Container::open(
        std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
        opt);
    snapshot::ArchiveWriter w(path);
    w.attach(*c);
    recs = build_archive(*c, w, kEpochs, /*seed=*/11);
    c->set_epoch_sink(nullptr);
    EXPECT_FALSE(w.failed());
  }
  for (uint64_t e = 1; e <= kEpochs; ++e) {
    expect_restores_exactly(path, e, recs[e - 1], opt);
  }
  std::filesystem::remove(path);
}

TEST(SnapshotTest, RestoresAcrossCompactionFolds) {
  const CrpmOptions opt = small_opts(false);
  const std::string path = temp_archive("compact");
  const uint64_t kEpochs = 12;
  snapshot::SnapshotOptions sopt;
  sopt.compact_every = 4;
  std::vector<EpochRecord> recs;
  uint64_t compactions = 0;
  {
    auto c = Container::open(
        std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
        opt);
    snapshot::ArchiveWriter w(path, sopt);
    w.attach(*c);
    recs = build_archive(*c, w, kEpochs, /*seed=*/13);
    c->set_epoch_sink(nullptr);
    compactions = w.writer_stats().compactions;
  }
  EXPECT_GE(compactions, 2u);

  // Compaction folds history into a base frame: epochs before the newest
  // base are gone, every epoch still in the archive must restore exactly.
  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_FALSE(reader.scan().epochs.empty());
  const uint64_t oldest = reader.scan().epochs.front().epoch;
  EXPECT_GT(oldest, 1u) << "compaction should have dropped early epochs";
  uint64_t latest = 0;
  ASSERT_TRUE(reader.latest_restorable(&latest));
  EXPECT_EQ(latest, kEpochs);
  for (uint64_t e = oldest; e <= kEpochs; ++e) {
    ASSERT_TRUE(reader.restorable(e)) << "epoch " << e;
    expect_restores_exactly(path, e, recs[e - 1], opt);
  }
  EXPECT_FALSE(reader.restorable(oldest - 1));
  std::filesystem::remove(path);
}

TEST(SnapshotTest, CorruptFrameIsSkippedAndNewestIntactEpochWins) {
  const CrpmOptions opt = small_opts(false);
  const std::string path = temp_archive("corrupt");
  const uint64_t kEpochs = 6;
  std::vector<EpochRecord> recs;
  {
    auto c = Container::open(
        std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
        opt);
    snapshot::ArchiveWriter w(path);
    w.attach(*c);
    recs = build_archive(*c, w, kEpochs, /*seed=*/17);
    c->set_epoch_sink(nullptr);
  }

  // Flip one payload byte inside epoch 4's frame.
  uint64_t off = 0, frame_bytes = 0;
  {
    snapshot::ArchiveReader reader(path);
    ASSERT_TRUE(reader.ok());
    const auto& epochs = reader.scan().epochs;
    ASSERT_EQ(epochs.size(), kEpochs);
    off = epochs[3].file_offset;
    frame_bytes = epochs[3].frame_bytes;
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(off + frame_bytes / 2),
                         SEEK_SET),
              0);
    int ch = std::fgetc(f);
    ASSERT_NE(ch, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(ch ^ 0x5a, f);
    std::fclose(f);
  }

  // The corrupt frame is skipped with a warning; epochs whose delta chain
  // passes through it (4..6 — no base frame after) are not restorable, and
  // the newest intact epoch is 3.
  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.scan().warnings.empty());
  EXPECT_EQ(reader.scan().epochs.size(), kEpochs)
      << "later epochs must still be enumerated past the corrupt frame";
  EXPECT_TRUE(reader.restorable(3));
  EXPECT_FALSE(reader.restorable(4));
  EXPECT_FALSE(reader.restorable(5));
  EXPECT_FALSE(reader.restorable(6));
  uint64_t latest = 0;
  ASSERT_TRUE(reader.latest_restorable(&latest));
  EXPECT_EQ(latest, 3u);
  expect_restores_exactly(path, 3, recs[2], opt);

  // Restoring "latest" falls back past the corrupt tail, with a warning.
  auto dev = std::make_unique<HeapNvmDevice>(
      Container::required_device_size(opt));
  snapshot::RestoreResult rr =
      snapshot::restore(path, Container::kLatestEpoch, std::move(dev), opt);
  ASSERT_NE(rr.container, nullptr) << rr.error;
  EXPECT_EQ(rr.epoch, 3u);
  EXPECT_FALSE(rr.warnings.empty());
  std::filesystem::remove(path);
}

TEST(SnapshotTest, ObservabilityCountersFlowThroughCrpmStats) {
  const CrpmOptions opt = small_opts(false);
  const std::string path = temp_archive("stats");
  auto c = Container::open(
      std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
      opt);
  snapshot::ArchiveWriter w(path);
  w.attach(*c);
  build_archive(*c, w, 5, /*seed=*/19);
  c->set_epoch_sink(nullptr);

  CrpmStatsSnapshot s = c->stats().snapshot();
  EXPECT_EQ(s.archive_epochs, 5u);
  EXPECT_GT(s.archive_bytes, 0u);
  EXPECT_GE(s.archive_queue_hwm, 1u);
  EXPECT_GT(s.archive_capture_ns, 0u);
  snapshot::ArchiveWriterStats ws = w.writer_stats();
  EXPECT_EQ(ws.epochs_appended, 5u);
  EXPECT_EQ(ws.bytes_appended, s.archive_bytes);
  EXPECT_GT(ws.fsyncs, 0u);
  EXPECT_EQ(ws.dropped_epochs, 0u);
  std::filesystem::remove(path);
}

TEST(SnapshotTest, BackpressureBoundsTheQueueWithoutLosingEpochs) {
  const CrpmOptions opt = small_opts(false);
  const std::string path = temp_archive("backpressure");
  const uint64_t kEpochs = 16;
  snapshot::SnapshotOptions sopt;
  sopt.queue_depth = 2;
  std::vector<EpochRecord> recs;
  {
    auto c = Container::open(
        std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
        opt);
    snapshot::ArchiveWriter w(path, sopt);
    w.attach(*c);
    recs = build_archive(*c, w, kEpochs, /*seed=*/23);
    c->set_epoch_sink(nullptr);
    EXPECT_LE(w.writer_stats().queue_hwm, 2u);
    EXPECT_EQ(w.writer_stats().epochs_appended, kEpochs);
  }
  expect_restores_exactly(path, kEpochs, recs[kEpochs - 1], opt);
  std::filesystem::remove(path);
}

TEST(SnapshotTest, ReattachResumesTheEpochChain) {
  const CrpmOptions opt = small_opts(false);
  const std::string path = temp_archive("reattach");
  auto c = Container::open(
      std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
      opt);
  Xoshiro256 rng(29);
  std::vector<EpochRecord> recs;
  auto commit_epochs = [&](snapshot::ArchiveWriter& w, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      EpochRecord r;
      r.image = run_epoch(*c, rng, recs.size() + 1);
      for (uint32_t s = 0; s < kNumRoots; ++s) r.roots[s] = c->get_root(s);
      recs.push_back(std::move(r));
    }
    w.drain();
  };
  {
    snapshot::ArchiveWriter w(path);
    w.attach(*c);
    commit_epochs(w, 4);
    c->set_epoch_sink(nullptr);
  }
  {
    // A fresh writer on the same file adopts the archive and continues
    // at epoch 5 with a delta, not a base.
    snapshot::ArchiveWriter w(path);
    w.attach(*c);
    EXPECT_EQ(w.last_epoch(), 4u);
    commit_epochs(w, 3);
    c->set_epoch_sink(nullptr);
    EXPECT_EQ(w.writer_stats().base_frames, 0u);
  }
  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.scan().epochs.size(), 7u);
  for (uint64_t e = 1; e <= 7; ++e) {
    expect_restores_exactly(path, e, recs[e - 1], opt);
  }
  std::filesystem::remove(path);
}

TEST(SnapshotTest, MidHistoryAttachPromotesToBaseFrame) {
  const CrpmOptions opt = small_opts(false);
  const std::string path = temp_archive("midhistory");
  auto c = Container::open(
      std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
      opt);
  Xoshiro256 rng(31);
  // Three epochs with no writer attached: that history is unobserved.
  for (uint64_t e = 1; e <= 3; ++e) run_epoch(*c, rng, e);

  snapshot::ArchiveWriter w(path);
  w.attach(*c);
  std::vector<EpochRecord> recs;
  for (uint64_t e = 4; e <= 6; ++e) {
    EpochRecord r;
    r.image = run_epoch(*c, rng, e);
    for (uint32_t s = 0; s < kNumRoots; ++s) r.roots[s] = c->get_root(s);
    recs.push_back(std::move(r));
  }
  w.drain();
  c->set_epoch_sink(nullptr);
  EXPECT_EQ(w.writer_stats().base_frames, 1u)
      << "first observed epoch after a gap must be archived as a base";

  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.restorable(3));
  for (uint64_t e = 4; e <= 6; ++e) {
    expect_restores_exactly(path, e, recs[e - 4], opt);
  }
  std::filesystem::remove(path);
}

TEST(SnapshotTest, RestoreRefusesNonPristineDeviceAndWrongGeometry) {
  const CrpmOptions opt = small_opts(false);
  const std::string path = temp_archive("refuse");
  {
    auto c = Container::open(
        std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
        opt);
    snapshot::ArchiveWriter w(path);
    w.attach(*c);
    build_archive(*c, w, 2, /*seed=*/37);
    c->set_epoch_sink(nullptr);
  }

  // Non-pristine target device.
  HeapNvmDevice used(Container::required_device_size(opt));
  { auto c2 = Container::open(&used, opt); c2->checkpoint(); }
  snapshot::RestoreResult rr = snapshot::restore(path, 2, &used, opt);
  EXPECT_EQ(rr.container, nullptr);
  EXPECT_NE(rr.error.find("pristine"), std::string::npos) << rr.error;

  // Mismatched region size.
  CrpmOptions wrong = opt;
  wrong.main_region_size = 128 * 1024;
  auto dev = std::make_unique<HeapNvmDevice>(
      Container::required_device_size(wrong));
  rr = snapshot::restore(path, 2, std::move(dev), wrong);
  EXPECT_EQ(rr.container, nullptr);
  EXPECT_FALSE(rr.error.empty());
  std::filesystem::remove(path);
}

// Size and CRC32 of a whole file.
std::pair<uint64_t, uint32_t> file_fingerprint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return {bytes.size(), crc32(bytes.data(), bytes.size())};
}

// The archive's bytes, pinned exactly: one fixed single-thread workload
// (sync checkpoints, cost model off, "sync" writeback, a drain after every
// checkpoint) archived plain, lzb-coded, and lzb-coded with compaction
// folds and the cold tier. A change that moves one byte of the on-disk
// format, the codec negotiation, the batch cut or the fold changes a
// number here. Odd epochs write random bytes and even epochs runs, so the
// lzb runs hold plain and coded frames.
TEST(ArchiveFormat, BytesArePinned) {
  using Fingerprint = std::pair<uint64_t, uint32_t>;
  struct Pinned {
    const char* name;
    uint32_t codec;
    uint32_t compact_every;
    bool cold;
    Fingerprint hot;
    std::map<uint32_t, uint64_t> kinds;  // frames per kind, hot archive
    std::vector<Fingerprint> cold_bases;
    // writer_stats(): bytes, raw bytes, coded frames, batches, fsyncs,
    // compactions, cold bases.
    std::array<uint64_t, 7> stats;
  };
  const std::vector<Pinned> pinned = {
      {"plain", tier::kCodecNone, 0, false,
       {25664, 1123748038u}, {{snapshot::kDeltaFrame, 8}}, {},
       {25616, 25616, 0, 8, 8, 0, 0}},
      {"lzb", tier::kCodecLzb, 0, false,
       {14324, 3231862020u},
       {{snapshot::kDeltaFrame, 1}, {snapshot::kCodedDeltaFrame, 7}}, {},
       {14276, 25616, 7, 8, 8, 0, 0}},
      {"lzb-compact-cold", tier::kCodecLzb, 3, true,
       {19856, 1554716694u},
       {{snapshot::kBaseFrame, 1}, {snapshot::kCodedDeltaFrame, 2}},
       {{4452, 284666196u}, {6712, 3697064870u}},
       {48320, 25616, 7, 8, 12, 2, 2}},
  };
  for (const Pinned& want : pinned) {
    SCOPED_TRACE(want.name);
    const CrpmOptions opt = small_opts(false);
    const std::string path = temp_archive(std::string("pinned_") + want.name);
    const std::string cold_dir = tier::ColdTier::dir_for(path);
    std::filesystem::remove_all(cold_dir);
    snapshot::SnapshotOptions sopt;
    sopt.compact_every = want.compact_every;
    sopt.tier.codec = want.codec;
    sopt.tier.writeback = "sync";
    sopt.tier.cold_enabled = want.cold;
    snapshot::ArchiveWriterStats st;
    {
      auto dev = std::make_unique<HeapNvmDevice>(
          Container::required_device_size(opt));
      dev->set_cost_model(CostModel::disabled());
      auto c = Container::open(std::move(dev), opt);
      snapshot::ArchiveWriter w(path, sopt);
      w.attach(*c);
      Xoshiro256 rng(2026);
      for (uint64_t e = 1; e <= 8; ++e) {
        for (int r = 0; r < 4; ++r) {
          const uint64_t len = 128 + rng.next_below(1024);
          const uint64_t off = rng.next_below(c->capacity() - len);
          c->annotate(c->data() + off, len);
          for (uint64_t i = 0; i < len; ++i) {
            c->data()[off + i] = e % 2 == 0
                                     ? static_cast<uint8_t>(e * 16 + r)
                                     : static_cast<uint8_t>(rng.next());
          }
        }
        c->set_root(0, e);
        c->checkpoint();
        w.drain();
      }
      st = w.writer_stats();
      c->set_epoch_sink(nullptr);
      EXPECT_FALSE(w.failed());
    }
    EXPECT_EQ(file_fingerprint(path), want.hot);
    snapshot::ArchiveReader reader(path);
    ASSERT_TRUE(reader.ok());
    std::map<uint32_t, uint64_t> kinds;
    for (const auto& info : reader.scan().epochs) ++kinds[info.kind];
    EXPECT_EQ(kinds, want.kinds);
    std::vector<Fingerprint> cold;
    for (const auto& e : tier::ColdTier::list(cold_dir)) {
      cold.push_back(file_fingerprint(e.path));
    }
    EXPECT_EQ(cold, want.cold_bases);
    const std::array<uint64_t, 7> stats = {
        st.bytes_appended, st.raw_bytes,   st.coded_frames, st.batches,
        st.fsyncs,         st.compactions, st.cold_bases};
    EXPECT_EQ(stats, want.stats);
    std::filesystem::remove(path);
    std::filesystem::remove_all(cold_dir);
  }
}

}  // namespace
}  // namespace crpm
