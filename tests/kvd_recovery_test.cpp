// Acked writes survive a second container loss. A service whose container
// file is gone rebuilds it from the snapshot archive; the rebuilt container
// resumes at the archived epoch, so the archive writer that reattaches to
// it keeps every archived frame and appends the post-restore epochs after
// them. Each round below restores, reads back every value acked so far,
// acks a new batch of durable PUTs, and then loses the container again —
// once with the blocking restore and once with the lazy one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "net/kv_service.h"
#include "snapshot/archive.h"
#include "snapshot/writer.h"

namespace crpm::net {
namespace {

constexpr uint64_t kKeys = 1500;
constexpr int kBatches = 3;  // durable batches, so commits, per round

class DoubleLoss : public ::testing::TestWithParam<bool> {};

TEST_P(DoubleLoss, AckedWritesSurviveRepeatedContainerLoss) {
  const bool lazy = GetParam();
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("crpm_double_loss_" + std::string(lazy ? "lazy" : "blocking") + "_" +
       std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  KvService::Config cfg;
  cfg.dir = dir.string();
  cfg.capacity_bytes = 16 << 20;
  cfg.buckets = 1 << 10;
  cfg.archive = true;
  cfg.lazy_restore = lazy;
  cfg.restore_workers = 2;
  const std::string ctr = StateStore::container_path(cfg.dir, 0);
  const std::string snap = StateStore::archive_path(cfg.dir, 0);

  std::vector<uint64_t> acked(kKeys, 0);  // 0: never written
  uint64_t last_epoch = 0;
  for (uint64_t round = 1; round <= 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto svc = std::make_unique<KvService>(cfg);
    if (round > 1) {
      EXPECT_EQ(svc->last_recovery(), RecoverySource::kArchive);
    }
    // Every value acked before the loss reads back, during a lazy restore
    // as well as after it.
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t k = 0; k < kKeys; ++k) {
        KvVal v;
        uint64_t stamp = 0;
        const bool found = svc->get(k, &v);
        ASSERT_EQ(found, acked[k] != 0) << "key " << k;
        if (!found) continue;
        ASSERT_TRUE(check_value(v, k, &stamp)) << "key " << k;
        ASSERT_EQ(stamp, acked[k]) << "key " << k;
      }
      svc->wait_ready();
    }
    EXPECT_EQ(svc->committed_epoch(), last_epoch)
        << "a restored container resumes at the archived epoch";

    // Durable PUTs over a round-dependent slice, in several batches: each
    // flush() returns once every tag handed out is committed, the ack.
    for (int b = 0; b < kBatches; ++b) {
      std::vector<uint64_t> batch;
      for (uint64_t k = b; k < kKeys; k += round + kBatches) {
        const uint64_t tag = svc->put(k, make_value(k, round * 10 + b));
        ASSERT_GT(tag, 0u);
        batch.push_back(k);
      }
      svc->flush();
      for (uint64_t k : batch) acked[k] = round * 10 + b;
    }
    last_epoch = svc->committed_epoch();
    // The archive is the second recovery level and lags the container by
    // its writer queue: drain it before the container goes.
    svc->store().archive_writer()->drain();
    svc.reset();

    snapshot::ArchiveReader reader(snap);
    ASSERT_TRUE(reader.ok());
    uint64_t latest = 0;
    ASSERT_TRUE(reader.latest_restorable(&latest));
    EXPECT_EQ(latest, last_epoch) << "the archive dropped acked epochs";
    ASSERT_TRUE(std::filesystem::remove(ctr)) << "lose the container";
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(BlockingAndLazy, DoubleLoss, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Lazy" : "Blocking";
                         });

}  // namespace
}  // namespace crpm::net
