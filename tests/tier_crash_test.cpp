// Tiered-archive robustness: codec negotiation and coded-frame CRCs,
// group-commit durability (batch boundaries and the flush deadline), a
// torn tail landing inside a compressed batch, cold-tier restore of
// epochs compaction retired from the hot archive, a kill mid-cold-store,
// cold-base shipping into a ReplicaStore, and a sweep over the two
// writeback kinds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/container.h"
#include "nvm/device.h"
#include "repl/replica_store.h"
#include "snapshot/archive.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "tier/codec.h"
#include "tier/cold.h"
#include "util/rng.h"

namespace crpm {
namespace {

namespace fs = std::filesystem;

CrpmOptions small_opts() {
  CrpmOptions o;
  o.segment_size = 1024;
  o.block_size = 128;
  o.main_region_size = 64 * 1024;
  return o;
}

std::string temp_archive(const std::string& tag) {
  auto p = fs::temp_directory_path() /
           ("crpm_tier_crash_" + tag + ".crpmsnap");
  fs::remove(p);
  fs::remove_all(p.string() + ".cold");
  return p.string();
}

// Deterministic, highly compressible epoch workload (memset runs): the
// same seed produces the same dirty pattern, bytes and coded sizes.
std::vector<uint8_t> run_epoch(Container& c, Xoshiro256& rng,
                               uint64_t epoch) {
  const uint64_t region = c.capacity();
  for (int r = 0; r < 6; ++r) {
    uint64_t len = 256 + rng.next_below(1024);
    uint64_t off = rng.next_below(region - len);
    c.annotate(c.data() + off, len);
    std::memset(c.data() + off, static_cast<int>(epoch * 17 + r + 1), len);
  }
  c.set_root(0, epoch);
  c.checkpoint();
  return std::vector<uint8_t>(c.data(), c.data() + region);
}

std::unique_ptr<Container> open_heap(const CrpmOptions& opt) {
  return Container::open(
      std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
      opt);
}

TEST(TierCodecTest, RegistryAndLzbRoundTrip) {
  uint32_t id = ~0u;
  EXPECT_TRUE(tier::parse_codec("none", &id));
  EXPECT_EQ(id, tier::kCodecNone);
  EXPECT_TRUE(tier::parse_codec("lzb", &id));
  EXPECT_EQ(id, tier::kCodecLzb);
  EXPECT_FALSE(tier::parse_codec("snappy", &id));
  EXPECT_EQ(tier::codec_by_id(tier::kCodecNone), nullptr);

  const tier::Codec* lzb = tier::codec_by_id(tier::kCodecLzb);
  ASSERT_NE(lzb, nullptr);
  EXPECT_STREQ(lzb->name(), "lzb");

  // Runs and repeated structure (a checkpoint payload lookalike).
  std::vector<uint8_t> raw(16 * 1024);
  Xoshiro256 rng(7);
  for (size_t i = 0; i < raw.size(); i += 512) {
    std::memset(raw.data() + i, static_cast<int>(rng.next()), 512);
  }
  std::vector<uint8_t> enc(lzb->max_encoded_bytes(raw.size()));
  size_t n = lzb->encode(raw.data(), raw.size(), enc.data(), enc.size());
  ASSERT_GT(n, 0u);
  EXPECT_LT(n, raw.size() / 2);  // memset runs must compress hard
  std::vector<uint8_t> back(raw.size());
  ASSERT_TRUE(lzb->decode(enc.data(), n, back.data(), back.size()));
  EXPECT_EQ(raw, back);

  // Negotiation refusal: a too-small output budget returns 0, not junk.
  EXPECT_EQ(lzb->encode(raw.data(), raw.size(), enc.data(), 8), 0u);
}

TEST(TierCodedFrameTest, RoundTripAndDamageDetection) {
  const CrpmOptions opt = small_opts();
  const std::string path = temp_archive("coded_roundtrip");

  // Capture one plain frame via the writer's observer (codec off).
  std::vector<uint8_t> plain;
  {
    auto c = open_heap(opt);
    snapshot::ArchiveWriter w(path);
    w.attach(*c);
    w.set_frame_observer(
        [&](uint64_t, uint32_t, const uint8_t* f, size_t len) {
          if (plain.empty()) plain.assign(f, f + len);
        });
    Xoshiro256 rng(11);
    run_epoch(*c, rng, 1);
    w.drain();
    w.set_frame_observer({});
    c->set_epoch_sink(nullptr);
  }
  ASSERT_FALSE(plain.empty());

  const snapshot::ArchiveHeader geom = snapshot::make_header(
      opt.block_size, opt.main_region_size, opt.segment_size);
  std::vector<uint8_t> coded;
  ASSERT_TRUE(snapshot::encode_frame(plain.data(), plain.size(),
                                     tier::kCodecLzb, 0.95, &coded));
  ASSERT_LT(coded.size(), plain.size());
  snapshot::FrameInfo info;
  ASSERT_TRUE(snapshot::check_frame(coded.data(), coded.size(), geom, &info));
  EXPECT_EQ(info.codec, tier::kCodecLzb);
  EXPECT_EQ(info.raw_bytes, plain.size());

  // The one frame check, which the replica store applies too, reports
  // the coded kind and the epoch.
  EXPECT_TRUE(snapshot::is_coded_kind(info.kind));
  EXPECT_EQ(info.epoch, 1u);

  std::vector<uint8_t> back;
  ASSERT_TRUE(
      snapshot::decode_frame(coded.data(), coded.size(), geom, &back));
  EXPECT_EQ(back, plain);

  // A refusal ratio no real encode can reach keeps the plain frame.
  std::vector<uint8_t> refused;
  EXPECT_FALSE(snapshot::encode_frame(plain.data(), plain.size(),
                                      tier::kCodecLzb, 0.0001, &refused));

  // One flipped byte anywhere in the encoded payload must be caught.
  std::vector<uint8_t> bad = coded;
  bad[sizeof(snapshot::FrameHeader) + sizeof(snapshot::CodedExtent) + 3] ^=
      0x40;
  EXPECT_FALSE(snapshot::check_frame(bad.data(), bad.size(), geom, nullptr));
  EXPECT_FALSE(snapshot::decode_frame(bad.data(), bad.size(), geom, &back));
  fs::remove(path);
}

TEST(TierCrashTest, CompressedArchiveRestoresEveryEpoch) {
  const CrpmOptions opt = small_opts();
  const std::string path = temp_archive("compressed");
  const uint64_t kEpochs = 5;
  std::vector<std::vector<uint8_t>> images;
  {
    auto c = open_heap(opt);
    snapshot::SnapshotOptions s;
    s.tier.codec = tier::kCodecLzb;
    s.tier.group_epochs = 2;
    s.tier.flush_deadline_us = 3'600'000'000ull;  // batch-full or drain
    snapshot::ArchiveWriter w(path, s);
    w.attach(*c);
    Xoshiro256 rng(23);
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      images.push_back(run_epoch(*c, rng, e));
      if (e % 2 == 0) w.drain();
    }
    w.drain();
    c->set_epoch_sink(nullptr);
    const auto st = w.writer_stats();
    EXPECT_EQ(st.epochs_appended, kEpochs);
    EXPECT_GT(st.coded_frames, 0u);
    EXPECT_LT(st.bytes_appended, st.raw_bytes);  // the codec must win
    EXPECT_LT(st.batches, kEpochs);              // batches span epochs
    EXPECT_EQ(st.fsyncs, st.batches);            // one sync per batch
  }

  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.ok());
  bool saw_coded = false;
  for (const auto& info : reader.scan().epochs) {
    saw_coded |= info.codec != tier::kCodecNone;
  }
  EXPECT_TRUE(saw_coded);
  for (uint64_t e = 1; e <= kEpochs; ++e) {
    std::vector<uint8_t> image;
    std::string err;
    ASSERT_TRUE(snapshot::read_state(path, e, &image, nullptr, &err)) << err;
    EXPECT_EQ(std::memcmp(image.data(), images[e - 1].data(), image.size()),
              0)
        << "epoch " << e;
  }
  fs::remove(path);
}

TEST(TierCrashTest, TornTailInsideCodedBatchRecoversNewestIntactEpoch) {
  const CrpmOptions opt = small_opts();
  const uint64_t kEpochs = 4;
  auto make_sopt = [] {
    snapshot::SnapshotOptions s;
    s.tier.codec = tier::kCodecLzb;
    s.tier.group_epochs = 2;
    s.tier.flush_deadline_us = 3'600'000'000ull;
    return s;
  };

  // Reference pass: cumulative on-disk bytes after each two-epoch batch.
  std::vector<uint64_t> bytes_after_batch;
  std::vector<std::vector<uint8_t>> images;
  {
    const std::string ref = temp_archive("torn_ref");
    auto c = open_heap(opt);
    snapshot::ArchiveWriter w(ref, make_sopt());
    w.attach(*c);
    Xoshiro256 rng(31);
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      images.push_back(run_epoch(*c, rng, e));
      if (e % 2 == 0) {
        w.drain();
        bytes_after_batch.push_back(w.writer_stats().bytes_appended);
      }
    }
    c->set_epoch_sink(nullptr);
    fs::remove(ref);
  }
  ASSERT_EQ(bytes_after_batch.size(), 2u);

  // Injected pass: the write budget runs out halfway through the second
  // batch — a kill mid-device-write of a compressed group.
  const std::string path = temp_archive("torn");
  {
    auto c = open_heap(opt);
    snapshot::ArchiveWriter w(path, make_sopt());
    w.attach(*c);
    const uint64_t batch2 = bytes_after_batch[1] - bytes_after_batch[0];
    w.kill_after_bytes(bytes_after_batch[0] + batch2 / 2);
    Xoshiro256 rng(31);
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      run_epoch(*c, rng, e);
      if (e % 2 == 0) w.drain();
    }
    w.drain();
    c->set_epoch_sink(nullptr);
    EXPECT_TRUE(w.failed());
    EXPECT_GE(w.writer_stats().dropped_epochs, 1u);
  }

  // The torn tail is truncated away; the newest intact epoch survives.
  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_GT(reader.scan().truncated_bytes, 0u);
  uint64_t latest = 0;
  ASSERT_TRUE(reader.latest_restorable(&latest));
  ASSERT_GE(latest, 2u);  // batch 1 was fully synced
  ASSERT_LT(latest, kEpochs);
  std::vector<uint8_t> image;
  std::string err;
  ASSERT_TRUE(snapshot::read_state(path, latest, &image, nullptr, &err))
      << err;
  EXPECT_EQ(
      std::memcmp(image.data(), images[latest - 1].data(), image.size()), 0);
  fs::remove(path);
}

TEST(TierCrashTest, FlushDeadlineMakesLoneEpochDurableWithoutDrain) {
  const CrpmOptions opt = small_opts();
  const std::string path = temp_archive("deadline");
  auto c = open_heap(opt);
  snapshot::SnapshotOptions s;
  s.tier.group_epochs = 8;           // never fills from one epoch
  s.tier.flush_deadline_us = 5'000;  // the only flush trigger
  snapshot::ArchiveWriter w(path, s);
  w.attach(*c);
  Xoshiro256 rng(41);
  run_epoch(*c, rng, 1);
  // No drain: the group-commit deadline alone must bound durability.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (w.writer_stats().epochs_appended < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(w.writer_stats().epochs_appended, 1u);
  EXPECT_GE(w.writer_stats().fsyncs, 1u);
  c->set_epoch_sink(nullptr);
  fs::remove(path);
}

TEST(TierCrashTest, ColdTierServesEpochsTheFoldRetired) {
  const CrpmOptions opt = small_opts();
  const std::string path = temp_archive("cold");
  const uint64_t kEpochs = 6;
  std::vector<std::vector<uint8_t>> images;
  {
    auto c = open_heap(opt);
    snapshot::SnapshotOptions s;
    s.compact_every = 2;
    s.tier.codec = tier::kCodecLzb;
    s.tier.cold_enabled = true;
    snapshot::ArchiveWriter w(path, s);
    w.attach(*c);
    Xoshiro256 rng(53);
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      images.push_back(run_epoch(*c, rng, e));
      w.drain();
    }
    c->set_epoch_sink(nullptr);
    EXPECT_GE(w.writer_stats().compactions, 2u);
    EXPECT_EQ(w.writer_stats().cold_bases, w.writer_stats().compactions);
  }

  auto cold = tier::ColdTier::list_for_archive(path);
  ASSERT_GE(cold.size(), 2u);
  snapshot::ArchiveReader hot(path);
  ASSERT_TRUE(hot.ok());
  // The oldest fold point left the hot archive with the next fold; the
  // cold tier must still serve it, bit-identical — through the same
  // read_state() entry point the restore tools use.
  const auto& retired = cold.front();
  ASSERT_FALSE(hot.restorable(retired.epoch));
  std::vector<uint8_t> image;
  std::array<uint64_t, kNumRoots> roots{};
  std::string err;
  ASSERT_TRUE(
      snapshot::read_state(path, retired.epoch, &image, &roots, &err))
      << err;
  EXPECT_EQ(std::memcmp(image.data(), images[retired.epoch - 1].data(),
                        image.size()),
            0);
  EXPECT_EQ(roots[0], retired.epoch);

  // Each cold file is itself a valid one-frame archive.
  snapshot::ArchiveReader cr(retired.path);
  ASSERT_TRUE(cr.ok());
  EXPECT_TRUE(cr.restorable(retired.epoch));

  fs::remove(path);
  fs::remove_all(tier::ColdTier::dir_for(path));
}

TEST(TierCrashTest, KillMidColdStoreSkipsTheFoldAndKeepsTheChain) {
  const CrpmOptions opt = small_opts();
  const std::string path = temp_archive("coldkill");
  const uint64_t kEpochs = 4;
  std::vector<std::vector<uint8_t>> images;
  {
    auto c = open_heap(opt);
    snapshot::SnapshotOptions s;
    s.compact_every = 2;
    s.tier.codec = tier::kCodecLzb;
    s.tier.cold_enabled = true;
    snapshot::ArchiveWriter w(path, s);
    w.attach(*c);
    // Kill the writer at its first cold-tier write: the fold must be
    // abandoned whole — no cold base appears and the delta chain stays.
    w.set_file_op_hook([](const char* site, uint64_t) {
      return std::strcmp(site, "tier.cold") != 0;
    });
    Xoshiro256 rng(67);
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      images.push_back(run_epoch(*c, rng, e));
      w.drain();
    }
    w.set_file_op_hook({});
    c->set_epoch_sink(nullptr);
    EXPECT_TRUE(w.failed());
    EXPECT_EQ(w.writer_stats().cold_bases, 0u);
    EXPECT_EQ(w.writer_stats().compactions, 0u);
  }

  EXPECT_TRUE(tier::ColdTier::list_for_archive(path).empty());
  snapshot::ArchiveReader reader(path);
  ASSERT_TRUE(reader.ok());
  uint64_t latest = 0;
  ASSERT_TRUE(reader.latest_restorable(&latest));
  ASSERT_GE(latest, 2u);  // everything before the kill is durable
  for (uint64_t e = 1; e <= latest; ++e) {
    if (!reader.restorable(e)) continue;
    std::vector<uint8_t> image;
    std::string err;
    ASSERT_TRUE(snapshot::read_state(path, e, &image, nullptr, &err)) << err;
    EXPECT_EQ(std::memcmp(image.data(), images[e - 1].data(), image.size()),
              0)
        << "epoch " << e;
  }
  fs::remove(path);
  fs::remove_all(tier::ColdTier::dir_for(path));
}

TEST(TierCrashTest, ColdBasesShipIntoAReplicaStore) {
  const CrpmOptions opt = small_opts();
  const std::string path = temp_archive("coldship");
  const auto store_dir = fs::temp_directory_path() / "crpm_tier_coldship";
  fs::remove_all(store_dir);
  const uint64_t kEpochs = 4;
  std::vector<std::vector<uint8_t>> images;
  std::atomic<uint64_t> ship_failures{0};
  uint64_t shipped_epoch = 0;
  {
    repl::ReplicaStore store(store_dir.string());
    auto c = open_heap(opt);
    snapshot::SnapshotOptions s;
    s.compact_every = 2;
    s.tier.codec = tier::kCodecLzb;
    s.tier.cold_enabled = true;
    snapshot::ArchiveWriter w(path, s);
    w.attach(*c);
    // The ReplNode wires this up in attach(); here the store is fed
    // directly so the test stays single-process and deterministic.
    w.set_cold_observer(
        [&](uint64_t epoch, const uint8_t* frame, size_t len) {
          if (!store.store_cold(0, epoch, opt.block_size,
                                opt.main_region_size, opt.segment_size,
                                frame, len)) {
            ship_failures.fetch_add(1);
          } else {
            shipped_epoch = epoch;
          }
        });
    Xoshiro256 rng(79);
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      images.push_back(run_epoch(*c, rng, e));
      w.drain();
    }
    w.set_cold_observer({});
    c->set_epoch_sink(nullptr);
    EXPECT_GE(w.writer_stats().cold_bases, 1u);
    EXPECT_EQ(ship_failures.load(), 0u);
    EXPECT_GE(store.cold_stored(), 1u);

    // The replica's cold copy restores bit-identically even though the
    // peer has no hot archive file at all (read_state falls through to
    // the cold directory).
    ASSERT_GE(shipped_epoch, 1u);
    const std::string peer = store.peer_path(0);
    std::vector<uint8_t> image;
    std::string err;
    ASSERT_TRUE(
        snapshot::read_state(peer, shipped_epoch, &image, nullptr, &err))
        << err;
    EXPECT_EQ(std::memcmp(image.data(), images[shipped_epoch - 1].data(),
                          image.size()),
              0);
  }
  fs::remove(path);
  fs::remove_all(tier::ColdTier::dir_for(path));
  fs::remove_all(store_dir);
}

TEST(TierCrashTest, WritebackEngineSweepProducesIdenticalArchives) {
  const CrpmOptions opt = small_opts();
  const uint64_t kEpochs = 4;
  for (const char* engine : {"sync", "threads"}) {
    const std::string path = temp_archive(std::string("engine_") + engine);
    std::vector<std::vector<uint8_t>> images;
    {
      auto c = open_heap(opt);
      snapshot::SnapshotOptions s;
      s.tier.codec = tier::kCodecLzb;
      s.tier.group_epochs = 2;
      s.tier.flush_deadline_us = 3'600'000'000ull;
      s.tier.writeback = engine;
      snapshot::ArchiveWriter w(path, s);
      w.attach(*c);
      // No fallback exists: the requested writeback is the one running.
      EXPECT_STREQ(w.writeback_name(), engine);
      Xoshiro256 rng(97);
      for (uint64_t e = 1; e <= kEpochs; ++e) {
        images.push_back(run_epoch(*c, rng, e));
        if (e % 2 == 0) w.drain();
      }
      w.drain();
      c->set_epoch_sink(nullptr);
      EXPECT_FALSE(w.failed()) << engine;
      EXPECT_EQ(w.writer_stats().epochs_appended, kEpochs) << engine;
    }
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      std::vector<uint8_t> image;
      std::string err;
      ASSERT_TRUE(snapshot::read_state(path, e, &image, nullptr, &err))
          << engine << " epoch " << e << ": " << err;
      EXPECT_EQ(
          std::memcmp(image.data(), images[e - 1].data(), image.size()), 0)
          << engine << " epoch " << e;
    }
    fs::remove(path);
  }
}

TEST(TierCrashTest, RemovedWritebackKindsAbort) {
  // Only "sync" and "threads" exist: any other kind must abort rather than
  // quietly run synchronous writeback.
  for (const char* kind : {"uring", "auto", "bogus"}) {
    snapshot::SnapshotOptions s;
    s.tier.writeback = kind;
    EXPECT_DEATH(snapshot::ArchiveWriter(temp_archive("removed_kind"), s),
                 "unknown writeback");
  }
}

}  // namespace
}  // namespace crpm
