// Property test for the parallel restore paths: across randomized
// epoch/segment geometries, plain and lzb-coded chains, the parallel chain
// loader and record apply must reproduce the serial ones byte for byte —
// which in turn must reproduce the recorded golden state — for every
// restorable epoch, at every worker count, on the blocking and the lazy
// path, and through the corrupt-frame fallbacks. The worker pool only
// reorders the loads and the apply; any divergence is a sharding,
// stealing or claiming bug.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/container.h"
#include "nvm/device.h"
#include "snapshot/archive.h"
#include "snapshot/lazy_restore.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "tier/codec.h"
#include "util/rng.h"

namespace crpm {
namespace {

struct Geometry {
  uint64_t segment_size = 0;
  uint64_t block_size = 0;
  uint64_t region = 0;
  uint64_t epochs = 0;
  uint64_t seed = 0;
};

CrpmOptions opts_for(const Geometry& g) {
  CrpmOptions o;
  o.segment_size = g.segment_size;
  o.block_size = g.block_size;
  o.main_region_size = g.region;
  return o;
}

// Draws a geometry whose segment count and epoch count vary enough to hit
// uneven shards, single-segment regions, and worker counts above the
// segment count.
Geometry draw_geometry(Xoshiro256& rng) {
  static const uint64_t kSegs[] = {512, 1024, 2048, 4096};
  static const uint64_t kBlocks[] = {64, 128, 256};
  Geometry g;
  g.segment_size = kSegs[rng.next_below(4)];
  g.block_size = kBlocks[rng.next_below(3)];
  if (g.block_size > g.segment_size) g.block_size = g.segment_size;
  g.region = g.segment_size * (1 + rng.next_below(24));
  g.epochs = 2 + rng.next_below(5);
  g.seed = rng.next();
  return g;
}

std::string temp_archive(const std::string& tag) {
  auto p = std::filesystem::temp_directory_path() /
           ("crpm_restore_parallel_" + tag + ".crpmsnap");
  std::filesystem::remove(p);
  return p.string();
}

struct EpochRecord {
  std::vector<uint8_t> image;
  std::array<uint64_t, kNumRoots> roots{};
};

// Archives `g.epochs` epochs of a seeded random workload and returns the
// reference state after each commit (index e-1 holds epoch e). `coded`
// archives through the lzb codec and writes byte runs, which it
// compresses, instead of noise, which it would append as plain frames.
std::vector<EpochRecord> build_archive(const Geometry& g,
                                       const std::string& path,
                                       bool coded = false) {
  const CrpmOptions opt = opts_for(g);
  auto c = Container::open(
      std::make_unique<HeapNvmDevice>(Container::required_device_size(opt)),
      opt);
  snapshot::SnapshotOptions so;
  if (coded) so.tier.codec = tier::kCodecLzb;
  snapshot::ArchiveWriter w(path, so);
  w.attach(*c);
  Xoshiro256 rng(g.seed);
  std::vector<EpochRecord> recs;
  for (uint64_t e = 1; e <= g.epochs; ++e) {
    const int runs = 2 + static_cast<int>(rng.next_below(6));
    for (int r = 0; r < runs; ++r) {
      uint64_t len = 1 + rng.next_below(2 * g.segment_size);
      if (len > g.region) len = g.region;
      uint64_t off = rng.next_below(g.region - len + 1);
      c->annotate(c->data() + off, len);
      const auto run_byte = static_cast<uint8_t>(rng.next());
      for (uint64_t i = 0; i < len; ++i) {
        c->data()[off + i] =
            coded ? run_byte : static_cast<uint8_t>(rng.next());
      }
    }
    c->set_root(0, e * 1000);
    c->set_root(1, rng.next());
    c->checkpoint();
    EpochRecord rec;
    rec.image.assign(c->data(), c->data() + g.region);
    for (uint32_t s = 0; s < kNumRoots; ++s) rec.roots[s] = c->get_root(s);
    recs.push_back(std::move(rec));
  }
  w.drain();
  c->set_epoch_sink(nullptr);
  return recs;
}

// Threads of this process, from /proc/self/status.
int thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int n = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &n) == 1) break;
  }
  std::fclose(f);
  return n;
}

// What one restore of epoch `e` produced: blocking_outcome runs
// read_state, lazy_outcome restore_lazy and then materialize_all.
struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<uint8_t> image;
  std::array<uint64_t, kNumRoots> roots{};
};

Outcome blocking_outcome(const std::string& path, uint64_t e,
                         uint32_t workers) {
  Outcome o;
  o.ok = snapshot::read_state(path, e, &o.image, &o.roots, &o.error, workers);
  return o;
}

Outcome lazy_outcome(const std::string& path, uint64_t e, CrpmOptions opt,
                     uint32_t workers) {
  opt.restore_workers = workers;
  auto lz = snapshot::restore_lazy(path, e, opt);
  Outcome o;
  o.ok = lz->ok();
  o.error = lz->error();
  if (o.ok) {
    lz->materialize_all(workers);
    o.image.assign(lz->data(), lz->data() + lz->size());
    o.roots = lz->roots();
  }
  return o;
}

// Same verdict, same error, and on success the same image and roots.
void expect_same(const Outcome& got, const Outcome& want, const char* what) {
  EXPECT_EQ(got.ok, want.ok) << what << ": " << got.error;
  EXPECT_EQ(got.error, want.error) << what;
  if (!got.ok || !want.ok) return;
  EXPECT_EQ(got.image, want.image) << what;
  EXPECT_EQ(got.roots, want.roots) << what;
}

TEST(RestoreParallel, MatchesSerialAndGoldenAcrossRandomGeometries) {
  Xoshiro256 meta_rng(20260808);
  Xoshiro256 coded_rng(20261019);
  for (int trial = 0; trial < 12; ++trial) {
    const bool coded = trial >= 6;
    const Geometry g = draw_geometry(coded ? coded_rng : meta_rng);
    SCOPED_TRACE("segment=" + std::to_string(g.segment_size) +
                 " block=" + std::to_string(g.block_size) +
                 " region=" + std::to_string(g.region) +
                 " epochs=" + std::to_string(g.epochs) +
                 " seed=" + std::to_string(g.seed) +
                 (coded ? " lzb" : " plain"));
    const std::string path = temp_archive("prop" + std::to_string(trial));
    const std::vector<EpochRecord> recs = build_archive(g, path, coded);
    if (coded) {
      snapshot::ArchiveReader reader(path);
      ASSERT_TRUE(reader.ok());
      uint64_t coded_frames = 0;
      for (const auto& f : reader.scan().epochs) coded_frames += f.codec != 0;
      ASSERT_GT(coded_frames, 0u) << "the workload must produce coded frames";
    }

    for (uint64_t e = 1; e <= g.epochs; ++e) {
      std::vector<uint8_t> serial_image;
      std::array<uint64_t, kNumRoots> serial_roots{};
      std::string err;
      ASSERT_TRUE(snapshot::read_state(path, e, &serial_image, &serial_roots,
                                       &err))
          << "epoch " << e << ": " << err;
      ASSERT_EQ(serial_image, recs[e - 1].image) << "serial diverges from "
                                                    "golden at epoch "
                                                 << e;
      ASSERT_EQ(serial_roots, recs[e - 1].roots);

      for (uint32_t workers : {2u, 3u, 8u}) {
        std::vector<uint8_t> par_image;
        std::array<uint64_t, kNumRoots> par_roots{};
        snapshot::RestorePerf perf;
        ASSERT_TRUE(snapshot::read_state(path, e, &par_image, &par_roots,
                                         &err, workers, &perf))
            << "epoch " << e << " workers " << workers << ": " << err;
        EXPECT_EQ(par_image, serial_image)
            << "parallel apply diverged at epoch " << e << " with "
            << workers << " workers";
        EXPECT_EQ(par_roots, serial_roots);
        EXPECT_EQ(perf.workers, workers);
        EXPECT_GT(perf.records, 0u);
        EXPECT_GE(perf.apply_ns_total, perf.apply_ns_critical)
            << "the critical path cannot exceed the summed thread CPU";
      }
      const Outcome serial{true, {}, serial_image, serial_roots};
      expect_same(lazy_outcome(path, e, opts_for(g), 0), serial, "lazy x1");
      expect_same(lazy_outcome(path, e, opts_for(g), 4), serial, "lazy x4");
    }
    std::filesystem::remove(path);
  }
}

TEST(RestoreParallel, FullRestoreContainerIsBitIdentical) {
  Xoshiro256 meta_rng(77);
  const Geometry g = draw_geometry(meta_rng);
  const CrpmOptions opt = opts_for(g);
  const std::string path = temp_archive("container");
  const std::vector<EpochRecord> recs = build_archive(g, path);

  CrpmOptions popt = opt;
  popt.restore_workers = 4;
  auto rr = snapshot::restore(
      path, Container::kLatestEpoch,
      std::make_unique<HeapNvmDevice>(Container::required_device_size(popt)),
      popt);
  ASSERT_NE(rr.container, nullptr) << rr.error;
  EXPECT_EQ(rr.epoch, g.epochs);
  EXPECT_EQ(rr.perf.workers, 4u);
  EXPECT_GT(rr.perf.frames, 0u);
  const EpochRecord& want = recs[g.epochs - 1];
  EXPECT_EQ(std::memcmp(rr.container->data(), want.image.data(),
                        want.image.size()),
            0);
  for (uint32_t s = 0; s < kNumRoots; ++s) {
    EXPECT_EQ(rr.container->get_root(s), want.roots[s]) << "slot " << s;
  }
  std::filesystem::remove(path);
}

TEST(RestoreParallel, CorruptFrameFallbackMatchesSerial) {
  Geometry g;
  g.segment_size = 1024;
  g.block_size = 128;
  g.region = 16 * 1024;
  g.epochs = 5;
  g.seed = 42;
  const std::string path = temp_archive("corrupt");
  const std::vector<EpochRecord> recs = build_archive(g, path);

  // Flip one payload byte inside the tail epoch's frame: "latest" must
  // fall back to the newest intact epoch, with a warning, identically for
  // the serial and the parallel apply.
  {
    snapshot::ArchiveReader reader(path);
    ASSERT_TRUE(reader.ok());
    const auto& epochs = reader.scan().epochs;
    ASSERT_EQ(epochs.size(), g.epochs);
    const auto& tail = epochs.back();
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(
                  f,
                  static_cast<long>(tail.file_offset + tail.frame_bytes / 2),
                  SEEK_SET),
              0);
    int ch = std::fgetc(f);
    ASSERT_NE(ch, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(ch ^ 0x5a, f);
    std::fclose(f);
  }

  CrpmOptions popt = opts_for(g);
  popt.restore_workers = 4;
  auto par = snapshot::restore(
      path, Container::kLatestEpoch,
      std::make_unique<HeapNvmDevice>(Container::required_device_size(popt)),
      popt);
  ASSERT_NE(par.container, nullptr) << par.error;
  EXPECT_LT(par.epoch, g.epochs) << "fallback must skip the corrupt tail";
  EXPECT_FALSE(par.warnings.empty());

  auto serial = snapshot::restore(
      path, Container::kLatestEpoch,
      std::make_unique<HeapNvmDevice>(Container::required_device_size(popt)),
      opts_for(g));
  ASSERT_NE(serial.container, nullptr) << serial.error;
  EXPECT_EQ(par.epoch, serial.epoch);
  EXPECT_EQ(std::memcmp(par.container->data(), serial.container->data(),
                        g.region),
            0);
  const EpochRecord& want = recs[par.epoch - 1];
  EXPECT_EQ(std::memcmp(par.container->data(), want.image.data(),
                        want.image.size()),
            0);
  std::filesystem::remove(path);
}

// A coded frame whose extent carries a wrong raw CRC, with the extent CRC
// recomputed: the scan (encoded CRC only) passes it, so only the decode
// check can catch it. Every chain through it must fail on both paths,
// in parallel exactly as serially, and leave no worker running.
TEST(RestoreParallel, WrongRawCrcFailsOnlyAtDecodeOnBothPaths) {
  Geometry g;
  g.segment_size = 1024;
  g.block_size = 128;
  g.region = 16 * 1024;
  g.epochs = 6;
  g.seed = 99;
  const std::string path = temp_archive("rawcrc");
  const std::vector<EpochRecord> recs = build_archive(g, path, true);

  uint64_t bad_epoch = 0;
  {
    snapshot::ArchiveReader reader(path);
    ASSERT_TRUE(reader.ok());
    for (const auto& f : reader.scan().epochs) {
      if (f.codec != 0 && f.epoch > 1 && f.epoch < g.epochs) {
        bad_epoch = f.epoch;
        const auto at = static_cast<long>(f.file_offset +
                                          sizeof(snapshot::FrameHeader));
        std::FILE* file = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(file, nullptr);
        snapshot::CodedExtent ce;
        ASSERT_EQ(std::fseek(file, at, SEEK_SET), 0);
        ASSERT_EQ(std::fread(&ce, sizeof(ce), 1, file), 1u);
        ce.raw_crc ^= 0x1;
        ce.extent_crc =
            crc32(&ce, offsetof(snapshot::CodedExtent, extent_crc));
        ASSERT_EQ(std::fseek(file, at, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(&ce, sizeof(ce), 1, file), 1u);
        std::fclose(file);
        break;
      }
    }
  }
  ASSERT_NE(bad_epoch, 0u) << "no coded frame mid-chain to damage";
  {
    snapshot::ArchiveReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(reader.scan().warnings.empty())
        << "the scan must not see the damage: "
        << reader.scan().warnings.front();
    uint64_t latest = 0;
    ASSERT_TRUE(reader.latest_restorable(&latest));
    EXPECT_EQ(latest, g.epochs);
  }

  const int threads_before = thread_count();
  for (uint64_t e = 1; e <= g.epochs; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const Outcome serial = blocking_outcome(path, e, 1);
    if (e < bad_epoch) {
      ASSERT_TRUE(serial.ok) << serial.error;
      EXPECT_EQ(serial.image, recs[e - 1].image);
    } else {
      EXPECT_FALSE(serial.ok);
      EXPECT_NE(serial.error.find("failed CRC verification or decode"),
                std::string::npos)
          << serial.error;
    }
    for (uint32_t workers : {2u, 4u, 8u}) {
      expect_same(blocking_outcome(path, e, workers), serial, "blocking");
    }
    expect_same(lazy_outcome(path, e, opts_for(g), 0), serial, "lazy x1");
    expect_same(lazy_outcome(path, e, opts_for(g), 4), serial, "lazy x4");
  }
  // Latest: no cold tier to fall back to, so every path fails alike.
  const Outcome latest = blocking_outcome(path, Container::kLatestEpoch, 1);
  EXPECT_FALSE(latest.ok);
  expect_same(blocking_outcome(path, Container::kLatestEpoch, 4), latest,
              "blocking latest x4");
  expect_same(lazy_outcome(path, Container::kLatestEpoch, opts_for(g), 4),
              latest, "lazy latest x4");
  EXPECT_EQ(thread_count(), threads_before) << "a restore worker outlived it";
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace crpm
