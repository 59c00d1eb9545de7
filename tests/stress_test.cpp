// Heavier randomized/stress coverage: heap fuzzing against a shadow
// allocator model, multithreaded epoch stress with per-thread golden
// models, and long-haul epoch cycling.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "baselines/crpm_policy.h"
#include "core/container.h"
#include "core/heap.h"
#include "nvm/crash_sim.h"
#include "util/rng.h"

namespace crpm {
namespace {

CrpmOptions stress_opts() {
  CrpmOptions o;
  o.segment_size = 32 * 1024;
  o.block_size = 256;
  o.main_region_size = 16 << 20;
  return o;
}

TEST(HeapFuzz, RandomAllocFreeAgainstShadowModel) {
  CrpmOptions o = stress_opts();
  HeapNvmDevice dev(Container::required_device_size(o));
  auto ctr = Container::open(&dev, o);
  Heap heap(*ctr);
  Xoshiro256 rng(31);

  struct Live {
    uint64_t off;
    size_t size;
    uint8_t fill;
  };
  std::vector<Live> live;
  // Interval map of live [start, end) ranges to detect overlap.
  std::map<uint64_t, uint64_t> ranges;

  for (int i = 0; i < 20000; ++i) {
    bool do_alloc = live.empty() || (rng.next() % 3) != 0;
    if (do_alloc) {
      size_t size = 1 + rng.next_below(2000);
      auto* p = static_cast<uint8_t*>(heap.allocate(size));
      uint64_t off = ctr->to_offset(p);
      // No overlap with any live allocation.
      auto it = ranges.upper_bound(off);
      if (it != ranges.begin()) {
        auto prev = std::prev(it);
        ASSERT_LE(prev->second, off) << "overlap with earlier allocation";
      }
      if (it != ranges.end()) {
        ASSERT_LE(off + size, it->first) << "overlap with later allocation";
      }
      ranges[off] = off + size;
      uint8_t fill = uint8_t(rng.next());
      ctr->annotate(p, size);
      std::memset(p, fill, size);
      live.push_back(Live{off, size, fill});
    } else {
      size_t idx = rng.next_below(live.size());
      Live v = live[idx];
      auto* p = static_cast<uint8_t*>(ctr->from_offset(v.off));
      // Contents intact until freed (no allocator scribbling except the
      // free-list link, which happens only after this check).
      for (size_t b = 0; b < v.size; b += 97) {
        ASSERT_EQ(p[b], v.fill) << "allocation clobbered";
      }
      heap.deallocate(p, v.size);
      ranges.erase(v.off);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  EXPECT_GT(heap.bytes_in_use(), 0u);
}

TEST(MultithreadStress, ConcurrentWritersWithCollectiveCheckpoints) {
  constexpr int kThreads = 4;
  constexpr int kEpochs = 12;
  constexpr uint64_t kCellsPerThread = 2048;
  CrpmOptions o = stress_opts();
  o.thread_count = kThreads;
  CrashSimDevice dev(Container::required_device_size(o));
  Xoshiro256 crash_rng(55);

  // Each thread owns a disjoint striped cell range; golden model per
  // thread, updated at every collective checkpoint.
  std::vector<std::vector<uint64_t>> committed(
      kThreads, std::vector<uint64_t>(kCellsPerThread, 0));
  {
    auto ctr = Container::open(&dev, o);
    auto worker = [&](int tid) {
      Xoshiro256 rng(100 + uint64_t(tid));
      std::vector<uint64_t> mine(kCellsPerThread, 0);
      for (int e = 0; e < kEpochs; ++e) {
        for (int op = 0; op < 300; ++op) {
          uint64_t c = rng.next_below(kCellsPerThread);
          uint64_t off = (c * uint64_t(kThreads) + uint64_t(tid)) * 8;
          uint64_t v = rng.next();
          ctr->annotate(ctr->data() + off, 8);
          std::memcpy(ctr->data() + off, &v, 8);
          mine[c] = v;
        }
        ctr->checkpoint();
        committed[size_t(tid)] = mine;  // races impossible: model is mine
      }
    };
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) ts.emplace_back(worker, t);
    for (auto& t : ts) t.join();
    EXPECT_EQ(ctr->committed_epoch(), uint64_t(kEpochs));
  }
  // Crash and verify every thread's last committed model.
  dev.crash_and_restart(CrashPolicy::kDropPending, crash_rng);
  auto ctr = Container::open(&dev, o);
  for (int tid = 0; tid < kThreads; ++tid) {
    for (uint64_t c = 0; c < kCellsPerThread; ++c) {
      uint64_t off = (c * uint64_t(kThreads) + uint64_t(tid)) * 8;
      uint64_t v = 0;
      std::memcpy(&v, ctr->data() + off, 8);
      ASSERT_EQ(v, committed[size_t(tid)][c])
          << "thread " << tid << " cell " << c;
    }
  }
}

TEST(LongHaul, ManyEpochsWithPeriodicReopen) {
  // Cycle a file-backed container through many epochs and full reopens;
  // verifies epoch monotonicity, backup pairing stability, and that
  // recovery never degrades state across generations.
  auto path = std::filesystem::temp_directory_path() / "crpm_longhaul";
  std::filesystem::remove(path);
  CrpmOptions o;
  o.segment_size = 16 * 1024;
  o.block_size = 256;
  o.main_region_size = 2 << 20;
  Xoshiro256 rng(77);
  std::vector<uint64_t> model(o.main_region_size / 8, 0);
  uint64_t epoch = 0;
  for (int gen = 0; gen < 6; ++gen) {
    auto ctr = Container::open_file(path.string(), o);
    EXPECT_EQ(ctr->committed_epoch(), epoch);
    // Verify a sample of the model.
    for (int s = 0; s < 200; ++s) {
      uint64_t i = rng.next_below(model.size());
      uint64_t v = 0;
      std::memcpy(&v, ctr->data() + i * 8, 8);
      ASSERT_EQ(v, model[i]) << "generation " << gen;
    }
    for (int e = 0; e < 15; ++e) {
      for (int op = 0; op < 200; ++op) {
        uint64_t i = rng.next_below(model.size());
        uint64_t v = rng.next();
        ctr->annotate(ctr->data() + i * 8, 8);
        std::memcpy(ctr->data() + i * 8, &v, 8);
        model[i] = v;
      }
      ctr->checkpoint();
      ++epoch;
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace crpm
