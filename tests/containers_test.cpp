#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <unordered_map>
#include <vector>

#include "baselines/crpm_policy.h"
#include "baselines/nvmnp.h"
#include "containers/phashmap.h"
#include "containers/pmap.h"
#include "core/container.h"
#include "nvm/crash_sim.h"
#include "util/rng.h"

namespace crpm {
namespace {

CrpmOptions kv_opts(uint64_t main_mb = 32) {
  CrpmOptions o;
  o.segment_size = 64 * 1024;
  o.block_size = 256;
  o.main_region_size = main_mb << 20;
  return o;
}

std::unique_ptr<CrpmPolicy> make_crpm_policy(const CrpmOptions& o) {
  auto dev =
      std::make_unique<HeapNvmDevice>(Container::required_device_size(o));
  return std::make_unique<CrpmPolicy>(std::move(dev), o);
}

TEST(PHashMap, InsertFindUpdateErase) {
  auto p = make_crpm_policy(kv_opts());
  PHashMap<uint64_t, uint64_t, CrpmPolicy> m(*p, 1024);
  EXPECT_TRUE(m.insert(1, 100));
  EXPECT_FALSE(m.insert(1, 200));  // duplicate
  uint64_t v = 0;
  EXPECT_TRUE(m.find(1, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_TRUE(m.update(1, 300));
  EXPECT_TRUE(m.find(1, &v));
  EXPECT_EQ(v, 300u);
  EXPECT_FALSE(m.update(2, 1));
  EXPECT_FALSE(m.erase(2));
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.find(1, &v));
  EXPECT_EQ(m.size(), 0u);
}

TEST(PHashMap, ChainsAndForEach) {
  auto p = make_crpm_policy(kv_opts());
  // Tiny bucket array forces long chains.
  PHashMap<uint64_t, uint64_t, CrpmPolicy> m(*p, 4);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(m.insert(k, k * 2));
  EXPECT_EQ(m.size(), 100u);
  uint64_t sum = 0, cnt = 0;
  m.for_each([&](uint64_t k, uint64_t v) {
    EXPECT_EQ(v, k * 2);
    sum += k;
    ++cnt;
  });
  EXPECT_EQ(cnt, 100u);
  EXPECT_EQ(sum, 4950u);
  for (uint64_t k = 0; k < 100; k += 2) EXPECT_TRUE(m.erase(k));
  EXPECT_EQ(m.size(), 50u);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(m.contains(k), k % 2 == 1) << k;
  }
}

TEST(PHashMap, RandomizedAgainstStdUnorderedMap) {
  auto p = make_crpm_policy(kv_opts());
  PHashMap<uint64_t, uint64_t, CrpmPolicy> m(*p, 512);
  std::unordered_map<uint64_t, uint64_t> ref;
  Xoshiro256 rng(77);
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = rng.next_below(700);
    switch (rng.next_below(4)) {
      case 0:
        EXPECT_EQ(m.insert(k, uint64_t(i)), ref.emplace(k, i).second);
        break;
      case 1: {
        bool had = ref.count(k) != 0;
        if (had) ref[k] = uint64_t(i);
        EXPECT_EQ(m.update(k, uint64_t(i)), had);
        break;
      }
      case 2:
        EXPECT_EQ(m.erase(k), ref.erase(k) != 0);
        break;
      default: {
        uint64_t v = 0;
        bool found = m.find(k, &v);
        auto it = ref.find(k);
        EXPECT_EQ(found, it != ref.end());
        if (found) EXPECT_EQ(v, it->second);
      }
    }
  }
  EXPECT_EQ(m.size(), ref.size());
}

TEST(PHashMap, SurvivesCrashAndRecovery) {
  CrpmOptions o = kv_opts(8);
  CrashSimDevice dev(Container::required_device_size(o));
  Xoshiro256 rng(5);
  {
    CrpmPolicy p(&dev, o);
    PHashMap<uint64_t, uint64_t, CrpmPolicy> m(p, 256);
    for (uint64_t k = 0; k < 500; ++k) m.insert(k, k + 7);
    p.checkpoint();
    // Uncheckpointed tail that must vanish.
    for (uint64_t k = 500; k < 600; ++k) m.insert(k, k);
    m.update(3, 999);
  }
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  {
    CrpmPolicy p(&dev, o);
    PHashMap<uint64_t, uint64_t, CrpmPolicy> m(p, 256);
    EXPECT_EQ(m.size(), 500u);
    uint64_t v = 0;
    EXPECT_TRUE(m.find(3, &v));
    EXPECT_EQ(v, 10u);  // update rolled back
    EXPECT_FALSE(m.contains(555));
  }
}

TEST(PMap, OrderedInsertAndTraversal) {
  auto p = make_crpm_policy(kv_opts());
  PMap<uint64_t, uint64_t, CrpmPolicy> m(*p);
  for (uint64_t k : {5u, 1u, 9u, 3u, 7u, 2u, 8u}) {
    EXPECT_TRUE(m.insert(k, k * 10));
  }
  EXPECT_FALSE(m.insert(5, 0));
  std::vector<uint64_t> keys;
  m.for_each([&](uint64_t k, uint64_t v) {
    EXPECT_EQ(v, k * 10);
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<uint64_t>{1, 2, 3, 5, 7, 8, 9}));
  m.check_invariants();
}

TEST(PMap, RandomizedAgainstStdMap) {
  auto p = make_crpm_policy(kv_opts());
  PMap<uint64_t, uint64_t, CrpmPolicy> m(*p);
  std::map<uint64_t, uint64_t> ref;
  Xoshiro256 rng(123);
  for (int i = 0; i < 30000; ++i) {
    uint64_t k = rng.next_below(900);
    switch (rng.next_below(4)) {
      case 0:
        EXPECT_EQ(m.insert(k, uint64_t(i)), ref.emplace(k, i).second);
        break;
      case 1: {
        bool had = ref.count(k) != 0;
        if (had) ref[k] = uint64_t(i);
        EXPECT_EQ(m.update(k, uint64_t(i)), had);
        break;
      }
      case 2:
        EXPECT_EQ(m.erase(k), ref.erase(k) != 0);
        break;
      default: {
        uint64_t v = 0;
        bool found = m.find(k, &v);
        auto it = ref.find(k);
        EXPECT_EQ(found, it != ref.end());
        if (found) EXPECT_EQ(v, it->second);
      }
    }
    if (i % 2500 == 0) m.check_invariants();
  }
  m.check_invariants();
  EXPECT_EQ(m.size(), ref.size());
  // Full in-order comparison.
  auto it = ref.begin();
  m.for_each([&](uint64_t k, uint64_t v) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  });
  EXPECT_EQ(it, ref.end());
}

TEST(PMap, AscendingAndDescendingInsertions) {
  auto p = make_crpm_policy(kv_opts());
  PMap<uint64_t, uint64_t, CrpmPolicy> m(*p);
  for (uint64_t k = 0; k < 2000; ++k) m.insert(k, k);
  m.check_invariants();
  for (uint64_t k = 0; k < 2000; ++k) EXPECT_TRUE(m.contains(k));
  for (uint64_t k = 0; k < 2000; k += 2) EXPECT_TRUE(m.erase(k));
  m.check_invariants();
  EXPECT_EQ(m.size(), 1000u);
  PMap<uint64_t, uint64_t, CrpmPolicy> m2(*p, /*root_slot=*/1);
  for (uint64_t k = 3000; k-- > 2000;) m2.insert(k, k);
  m2.check_invariants();
  EXPECT_EQ(m2.size(), 1000u);
}

TEST(PMap, RangeQueriesAndBounds) {
  auto p = make_crpm_policy(kv_opts());
  PMap<uint64_t, uint64_t, CrpmPolicy> m(*p);
  uint64_t k = 0, v = 0;
  EXPECT_FALSE(m.lower_bound(0, &k));
  EXPECT_FALSE(m.min_key(&k));
  EXPECT_FALSE(m.max_key(&k));
  for (uint64_t i = 0; i < 100; ++i) m.insert(i * 10, i);

  EXPECT_TRUE(m.min_key(&k, &v));
  EXPECT_EQ(k, 0u);
  EXPECT_TRUE(m.max_key(&k, &v));
  EXPECT_EQ(k, 990u);
  EXPECT_EQ(v, 99u);

  EXPECT_TRUE(m.lower_bound(55, &k, &v));
  EXPECT_EQ(k, 60u);  // smallest key >= 55
  EXPECT_EQ(v, 6u);
  EXPECT_TRUE(m.lower_bound(60, &k));
  EXPECT_EQ(k, 60u);  // exact hit
  EXPECT_FALSE(m.lower_bound(991, &k));

  std::vector<uint64_t> keys;
  m.for_each_range(250, 300, [&](uint64_t kk, uint64_t vv) {
    EXPECT_EQ(vv, kk / 10);
    keys.push_back(kk);
  });
  EXPECT_EQ(keys, (std::vector<uint64_t>{250, 260, 270, 280, 290}));
  keys.clear();
  m.for_each_range(0, 1, [&](uint64_t kk, uint64_t) { keys.push_back(kk); });
  EXPECT_EQ(keys, (std::vector<uint64_t>{0}));
  keys.clear();
  m.for_each_range(995, 2000,
                   [&](uint64_t kk, uint64_t) { keys.push_back(kk); });
  EXPECT_TRUE(keys.empty());
}

TEST(PMap, RangeAgainstStdMapRandomized) {
  auto p = make_crpm_policy(kv_opts());
  PMap<uint64_t, uint64_t, CrpmPolicy> m(*p);
  std::map<uint64_t, uint64_t> ref;
  Xoshiro256 rng(313);
  for (int i = 0; i < 3000; ++i) {
    uint64_t k = rng.next_below(5000);
    if (m.insert(k, uint64_t(i))) ref.emplace(k, i);
  }
  for (int q = 0; q < 200; ++q) {
    uint64_t lo = rng.next_below(5200);
    uint64_t hi = lo + rng.next_below(800);
    std::vector<std::pair<uint64_t, uint64_t>> got;
    m.for_each_range(lo, hi,
                     [&](uint64_t k, uint64_t v) { got.emplace_back(k, v); });
    std::vector<std::pair<uint64_t, uint64_t>> want(ref.lower_bound(lo),
                                                    ref.lower_bound(hi));
    ASSERT_EQ(got, want) << "range [" << lo << ", " << hi << ")";
    uint64_t k = 0;
    bool found = m.lower_bound(lo, &k);
    auto it = ref.lower_bound(lo);
    ASSERT_EQ(found, it != ref.end());
    if (found) ASSERT_EQ(k, it->first);
  }
}

TEST(PMap, SurvivesCrashAndRecovery) {
  CrpmOptions o = kv_opts(8);
  CrashSimDevice dev(Container::required_device_size(o));
  Xoshiro256 rng(6);
  {
    CrpmPolicy p(&dev, o);
    PMap<uint64_t, uint64_t, CrpmPolicy> m(p);
    for (uint64_t k = 0; k < 300; ++k) m.insert(k * 3, k);
    p.checkpoint();
    for (uint64_t k = 0; k < 50; ++k) m.erase(k * 3);  // uncheckpointed
  }
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  {
    CrpmPolicy p(&dev, o);
    PMap<uint64_t, uint64_t, CrpmPolicy> m(p);
    m.check_invariants();
    EXPECT_EQ(m.size(), 300u);
    for (uint64_t k = 0; k < 300; ++k) {
      uint64_t v = 0;
      ASSERT_TRUE(m.find(k * 3, &v));
      EXPECT_EQ(v, k);
    }
  }
}

TEST(PMap, WorksOverNvmNpPolicy) {
  auto dev = std::make_unique<HeapNvmDevice>(8 << 20);
  NvmNpPolicy p(std::move(dev));
  PMap<uint64_t, uint64_t, NvmNpPolicy> m(p);
  for (uint64_t k = 0; k < 1000; ++k) m.insert(k ^ 0x5A, k);
  m.check_invariants();
  EXPECT_EQ(m.size(), 1000u);
}

struct FatValue {
  uint64_t id;
  char payload[100];
  bool operator==(const FatValue& o) const {
    return id == o.id && std::memcmp(payload, o.payload, sizeof(payload)) == 0;
  }
};

TEST(PHashMap, BlockSpanningValues) {
  // Values larger than a 256B block exercise multi-block annotation and
  // differential copies that straddle block boundaries.
  CrpmOptions o = kv_opts(8);
  o.block_size = 64;
  CrashSimDevice dev(Container::required_device_size(o));
  Xoshiro256 rng(41);
  {
    CrpmPolicy p(&dev, o);
    PHashMap<uint64_t, FatValue, CrpmPolicy> m(p, 128);
    for (uint64_t k = 0; k < 200; ++k) {
      FatValue v{};
      v.id = k * 11;
      std::memset(v.payload, int('a' + k % 26), sizeof(v.payload));
      m.insert(k, v);
    }
    p.checkpoint();
    // Mutate half, crash uncommitted.
    for (uint64_t k = 0; k < 100; ++k) {
      FatValue v{};
      v.id = 0xBAD;
      m.update(k, v);
    }
  }
  dev.crash_and_restart(CrashPolicy::kDropPending, rng);
  {
    CrpmPolicy p(&dev, o);
    PHashMap<uint64_t, FatValue, CrpmPolicy> m(p, 128);
    for (uint64_t k = 0; k < 200; ++k) {
      FatValue v{};
      ASSERT_TRUE(m.find(k, &v));
      EXPECT_EQ(v.id, k * 11);
      EXPECT_EQ(v.payload[50], char('a' + k % 26));
    }
  }
}

}  // namespace
}  // namespace crpm
