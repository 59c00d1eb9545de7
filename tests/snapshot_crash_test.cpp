// Archive crash robustness: kill the writer mid-append and verify the
// read path recovers the newest intact epoch from the truncated tail; kill
// it mid-compaction and verify the delta chain survives the failed fold;
// verify a re-attached writer reconciles frames the container never
// committed (pre-commit staging) by truncating them; verify a failed
// sync of that truncate fails the writer instead of appending after it;
// and verify a failed read while attaching fails the writer without
// touching the file.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/container.h"
#include "nvm/device.h"
#include "snapshot/archive.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "util/durable_file.h"
#include "util/rng.h"

namespace crpm {
namespace {

CrpmOptions small_opts() {
  CrpmOptions o;
  o.segment_size = 1024;
  o.block_size = 128;
  o.main_region_size = 64 * 1024;
  return o;
}

std::string temp_archive(const std::string& tag) {
  auto p = std::filesystem::temp_directory_path() /
           ("crpm_snapshot_crash_" + tag + ".crpmsnap");
  std::filesystem::remove(p);
  return p.string();
}

// Deterministic epoch workload (same seed → same dirty pattern and bytes).
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
  c.set_root(0, epoch);
  c.checkpoint();
  return std::vector<uint8_t>(c.data(), c.data() + region);
}

TEST(SnapshotCrashTest, KillMidAppendRecoversNewestIntactEpoch) {
  const CrpmOptions opt = small_opts();
  const uint64_t kEpochs = 5;

  // Pass 1 (reference): learn the cumulative archive size after each epoch
  // for this exact workload.
  std::vector<uint64_t> bytes_after;  // cumulative, index e-1
  std::vector<std::vector<uint8_t>> images;
  {
    const std::string ref = temp_archive("ref");
    auto c = Container::open(
        std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
        opt);
    snapshot::ArchiveWriter w(ref);
    w.attach(*c);
    Xoshiro256 rng(101);
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      images.push_back(run_epoch(*c, rng, e));
      w.drain();
      bytes_after.push_back(w.writer_stats().bytes_appended);
    }
    c->set_epoch_sink(nullptr);
    std::filesystem::remove(ref);
  }

  // Pass 2: same workload, but the writer's file I/O dies midway through
  // epoch 4's frame — as a process kill during the append would look.
  const std::string path = temp_archive("kill");
  {
    auto c = Container::open(
        std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
        opt);
    snapshot::ArchiveWriter w(path);
    w.attach(*c);
    const uint64_t frame4 = bytes_after[3] - bytes_after[2];
    w.kill_after_bytes(bytes_after[2] + frame4 / 2);
    Xoshiro256 rng(101);
    for (uint64_t e = 1; e <= kEpochs; ++e) run_epoch(*c, rng, e);
    w.drain();
    c->set_epoch_sink(nullptr);
    EXPECT_TRUE(w.failed());
    EXPECT_GE(w.writer_stats().dropped_epochs, 1u);
  }

  // Reopen: the torn tail is reported and the newest intact epoch is 3.
  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_GT(reader.scan().truncated_bytes, 0u);
  uint64_t latest = 0;
  ASSERT_TRUE(reader.latest_restorable(&latest));
  EXPECT_EQ(latest, 3u);

  std::vector<uint8_t> image;
  std::string err;
  ASSERT_TRUE(snapshot::read_state(path, 3, &image, nullptr, &err)) << err;
  ASSERT_EQ(image.size(), images[2].size());
  EXPECT_EQ(std::memcmp(image.data(), images[2].data(), image.size()), 0);
  std::filesystem::remove(path);
}

TEST(SnapshotCrashTest, KillMidCompactionKeepsTheDeltaChain) {
  const CrpmOptions opt = small_opts();
  const std::string path = temp_archive("compactkill");

  // Reference pass: the same workload without compaction, to learn how
  // many bytes the four delta frames take.
  uint64_t delta_bytes = 0;
  {
    const std::string ref = temp_archive("compactref");
    auto c = Container::open(
        std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
        opt);
    snapshot::ArchiveWriter w(ref);
    w.attach(*c);
    Xoshiro256 rng(103);
    for (uint64_t e = 1; e <= 4; ++e) run_epoch(*c, rng, e);
    w.drain();
    delta_bytes = w.writer_stats().bytes_appended;
    c->set_epoch_sink(nullptr);
    std::filesystem::remove(ref);
  }

  snapshot::SnapshotOptions sopt;
  sopt.compact_every = 4;
  std::vector<std::vector<uint8_t>> images;
  {
    auto c = Container::open(
        std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
        opt);
    snapshot::ArchiveWriter w(path, sopt);
    w.attach(*c);
    // Budget: all four delta frames fit, and the fold triggered by epoch 4
    // dies 64 bytes into writing the base file.
    w.kill_after_bytes(delta_bytes + 64);
    Xoshiro256 rng(103);
    for (uint64_t e = 1; e <= 4; ++e) {
      images.push_back(run_epoch(*c, rng, e));
    }
    w.drain();
    c->set_epoch_sink(nullptr);
  }

  // The fold went to a temp file and never replaced the archive: all four
  // delta frames are still restorable.
  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.ok());
  uint64_t latest = 0;
  ASSERT_TRUE(reader.latest_restorable(&latest));
  EXPECT_EQ(latest, 4u);
  for (uint64_t e = 1; e <= 4; ++e) {
    std::vector<uint8_t> image;
    std::string err;
    ASSERT_TRUE(snapshot::read_state(path, e, &image, nullptr, &err)) << err;
    EXPECT_EQ(std::memcmp(image.data(), images[e - 1].data(), image.size()),
              0)
        << "epoch " << e;
  }
  std::filesystem::remove(path);
}

TEST(SnapshotCrashTest, ReattachTruncatesFramesBeyondCommittedEpoch) {
  // Deltas are staged before the commit point: a crash in between leaves
  // the archive one epoch ahead of the container. Simulate by archiving an
  // epoch the (non-owned, surviving) device never sees committed — here by
  // rolling the container back — and verify a fresh writer drops it.
  CrpmOptions opt = small_opts();
  opt.eager_cow_segments = 0;  // retain previous epoch for rollback
  const std::string path = temp_archive("reconcile");
  HeapNvmDevice dev(Container::required_device_size(opt));
  Xoshiro256 rng(107);

  std::vector<std::vector<uint8_t>> images;
  {
    auto c = Container::open(&dev, opt);
    snapshot::ArchiveWriter w(path);
    w.attach(*c);
    for (uint64_t e = 1; e <= 4; ++e) images.push_back(run_epoch(*c, rng, e));
    w.drain();
    c->set_epoch_sink(nullptr);
  }

  // "Crash" and recover one epoch back: the container now holds epoch 3,
  // the archive holds 1..4 — frame 4 was never part of this timeline.
  auto c = Container::open(&dev, opt, /*target_epoch=*/3);
  ASSERT_EQ(c->committed_epoch(), 3u);

  snapshot::ArchiveWriter w(path);
  w.attach(*c);
  EXPECT_EQ(w.last_epoch(), 3u) << "attach must truncate the orphan frame";

  // The next commit is epoch 4 again, with different content; it must
  // archive as a contiguous delta and win over the truncated original.
  std::vector<uint8_t> new4 = run_epoch(*c, rng, 4);
  w.drain();
  c->set_epoch_sink(nullptr);
  EXPECT_EQ(w.writer_stats().base_frames, 0u);
  EXPECT_EQ(w.last_epoch(), 4u);

  std::vector<uint8_t> image;
  std::string err;
  ASSERT_TRUE(snapshot::read_state(path, 4, &image, nullptr, &err)) << err;
  EXPECT_EQ(std::memcmp(image.data(), new4.data(), image.size()), 0)
      << "epoch 4 must hold the post-rollback timeline's data";
  ASSERT_TRUE(snapshot::read_state(path, 3, &image, nullptr, &err)) << err;
  EXPECT_EQ(std::memcmp(image.data(), images[2].data(), image.size()), 0);
  std::filesystem::remove(path);
}

TEST(SnapshotCrashTest, FailedReattachSyncFailsTheWriter) {
  // The re-attach truncate is a durability point: when its fdatasync
  // fails, the file cannot be trusted, so the writer goes failed() and
  // drops every later epoch rather than appending after it.
  const CrpmOptions opt = small_opts();
  const std::string path = temp_archive("initsync");
  HeapNvmDevice dev(Container::required_device_size(opt));
  Xoshiro256 rng(109);
  auto c = Container::open(&dev, opt);
  {
    snapshot::ArchiveWriter w(path);
    w.attach(*c);
    for (uint64_t e = 1; e <= 2; ++e) run_epoch(*c, rng, e);
    w.drain();
    c->set_epoch_sink(nullptr);
    ASSERT_FALSE(w.failed());
  }

  std::atomic<bool> fired{false};
  durable_file::set_fault_hook([&](durable_file::Op op) {
    return op == durable_file::Op::kSync && !fired.exchange(true) ? EIO : 0;
  });
  snapshot::ArchiveWriter w(path);
  w.attach(*c);
  durable_file::set_fault_hook({});
  ASSERT_TRUE(fired.load());
  EXPECT_TRUE(w.failed());
  for (uint64_t e = 3; e <= 5; ++e) run_epoch(*c, rng, e);
  w.drain();
  c->set_epoch_sink(nullptr);
  EXPECT_EQ(w.writer_stats().dropped_epochs, 3u);
  EXPECT_EQ(w.writer_stats().epochs_appended, 0u);

  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.ok());
  uint64_t latest = 0;
  ASSERT_TRUE(reader.latest_restorable(&latest));
  EXPECT_EQ(latest, 2u);
  std::filesystem::remove(path);
}

// A file's size and CRC32.
std::pair<uint64_t, uint32_t> file_sig(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<uint8_t> bytes;
  for (int ch; f != nullptr && (ch = std::fgetc(f)) != EOF;) {
    bytes.push_back(static_cast<uint8_t>(ch));
  }
  if (f != nullptr) std::fclose(f);
  return {bytes.size(), crc32(bytes.data(), bytes.size())};
}

TEST(SnapshotCrashTest, ReadErrorOnAttachFailsTheWriterAndKeepsTheFile) {
  // A read that fails while attaching is not a torn tail: the frames
  // behind it were archived, and may have been acked. For every read the
  // attach makes (the head walk, and with compaction on the shadow
  // rebuild), an EIO there must fail the writer without truncating or
  // re-creating the file, and once reads work again every epoch restores.
  const CrpmOptions opt = small_opts();
  const std::string path = temp_archive("readerr");
  HeapNvmDevice dev(Container::required_device_size(opt));
  Xoshiro256 rng(113);
  auto c = Container::open(&dev, opt);
  snapshot::SnapshotOptions so;
  so.compact_every = 64;  // no fold here, but attach rebuilds the shadow
  std::vector<std::vector<uint8_t>> images;
  {
    snapshot::ArchiveWriter w(path, so);
    w.attach(*c);
    for (uint64_t e = 1; e <= 4; ++e) images.push_back(run_epoch(*c, rng, e));
    w.drain();
    c->set_epoch_sink(nullptr);
    ASSERT_FALSE(w.failed());
  }
  const auto before = file_sig(path);

  uint64_t k = 0;
  for (;; ++k) {
    SCOPED_TRACE("failing read " + std::to_string(k));
    std::atomic<uint64_t> reads{0};
    std::atomic<bool> fired{false};
    durable_file::set_fault_hook([&](durable_file::Op op) {
      if (op != durable_file::Op::kRead || reads++ != k) return 0;
      fired = true;
      return EIO;
    });
    bool failed = false;
    {
      snapshot::ArchiveWriter w(path, so);
      w.attach(*c);
      durable_file::set_fault_hook({});
      failed = w.failed();
      c->set_epoch_sink(nullptr);
    }
    if (!fired) {
      EXPECT_FALSE(failed);
      break;
    }
    EXPECT_TRUE(failed);
    EXPECT_EQ(file_sig(path), before);
  }
  EXPECT_GE(k, 5u) << "the header and four heads are read at least";

  for (uint64_t e = 1; e <= 4; ++e) {
    std::vector<uint8_t> image;
    std::string err;
    ASSERT_TRUE(snapshot::read_state(path, e, &image, nullptr, &err)) << err;
    EXPECT_EQ(image, images[e - 1]) << "epoch " << e;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace crpm
