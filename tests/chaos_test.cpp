// Self-tests for the crash-matrix harness: the enumeration must be
// deterministic (or reproducers are meaningless), event selection must
// shard without loss, bounded matrices over every scenario must come back
// clean, and the matrix must actually catch a planted ordering bug and
// shrink it to a reproducer that fails the same way every time.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "chaos/chaos.h"

namespace crpm::chaos {
namespace {

MatrixConfig small_config(const std::string& scenario) {
  MatrixConfig cfg;
  cfg.scenario = scenario;
  cfg.seed = 11;
  cfg.epochs = 3;
  cfg.ops_per_epoch = 32;
  return cfg;
}

TEST(ChaosEnumeration, DeterministicAcrossRuns) {
  for (const char* name : {"core", "core-buffered", "core-async", "archive"}) {
    SCOPED_TRACE(name);
    MatrixConfig cfg = small_config(name);
    auto s1 = make_scenario(name);
    auto s2 = make_scenario(name);
    ASSERT_NE(s1, nullptr);
    EventCensus a = s1->enumerate(cfg);
    EventCensus b = s2->enumerate(cfg);
    ASSERT_GT(a.total(), 0u);
    ASSERT_EQ(a.total(), b.total());
    for (uint64_t i = 0; i < a.total(); ++i) {
      ASSERT_STREQ(a.tags[i], b.tags[i]) << "event " << i;
    }
    // And stable within one scenario object too.
    EventCensus c = s1->enumerate(cfg);
    ASSERT_EQ(a.total(), c.total());
    ASSERT_EQ(a.domain_events, c.domain_events);
  }
}

TEST(ChaosEnumeration, EveryEventIsTagged) {
  MatrixConfig cfg = small_config("archive");
  EventCensus census = make_scenario("archive")->enumerate(cfg);
  auto sites = census.per_site();
  EXPECT_EQ(sites.count("untagged"), 0u)
      << "a persistence event fired outside any PersistSiteScope";
  // The census must span the protocol: commit points, flush phase, CoW.
  EXPECT_GT(sites["ckpt.commit"], 0u);
  EXPECT_GT(sites["ckpt.flush"], 0u);
  EXPECT_GT(sites["cow.data"], 0u);
  EXPECT_GT(sites["archive.frame"], 0u);
  EXPECT_GT(sites["archive.fsync"], 0u);
}

// Every scenario's per-site census at seed 7 with the default epochs and
// ops, pinned exactly: a change to the runner or to the protocol that
// adds, drops or moves a persistence event changes a number here, and a
// new scenario row must bring its census. The numbers are what
// `crpm_crashmatrix --scenario S --seed 7 --count` prints.
TEST(ChaosEnumeration, CensusIsPinned) {
  using Census = std::map<std::string, uint64_t>;
  const std::map<std::string, Census> pinned = {
      {"core",  // 693
       {{"ckpt.commit", 6}, {"ckpt.flush", 247}, {"ckpt.stage", 12},
        {"cow.data", 344}, {"cow.flip", 56}, {"cow.pair", 15},
        {"format", 13}}},
      {"core-buffered",  // 574
       {{"ckpt.commit", 6}, {"ckpt.replicate", 527}, {"ckpt.stage", 12},
        {"cow.pair", 16}, {"format", 13}}},
      {"core-adaptive",  // 576
       {{"adaptive.ckpt", 207}, {"adaptive.commit", 6}, {"adaptive.cow", 68},
        {"adaptive.format", 4}, {"adaptive.log", 183},
        {"adaptive.promote", 102}, {"adaptive.trunc", 6}}},
      {"core-async",  // 741
       {{"async.commit", 6}, {"async.final", 381}, {"async.flush", 103},
        {"async.stage", 12}, {"async.steal", 185}, {"cow.data", 17},
        {"cow.flip", 3}, {"cow.pair", 15}, {"format", 13},
        {"shard.commit", 6}}},
      {"core-multiwindow",  // 768
       {{"async.commit", 6}, {"async.final", 381}, {"async.flush", 103},
        {"async.stage", 12}, {"async.steal", 185}, {"cow.data", 17},
        {"cow.flip", 5}, {"cow.pair", 15}, {"format", 20},
        {"shard.commit", 24}}},
      {"archive",  // 704
       {{"archive.compact", 2}, {"archive.frame", 3}, {"archive.fsync", 3},
        {"ckpt.commit", 6}, {"ckpt.flush", 247}, {"ckpt.stage", 12},
        {"cow.data", 344}, {"cow.flip", 56}, {"cow.pair", 15},
        {"format", 13}, {"tier.complete", 3}}},
      {"archive-tier",  // 706
       {{"archive.compact", 2}, {"archive.frame", 2}, {"archive.fsync", 2},
        {"ckpt.commit", 6}, {"ckpt.flush", 247}, {"ckpt.stage", 12},
        {"cow.data", 344}, {"cow.flip", 56}, {"cow.pair", 15},
        {"format", 13}, {"tier.cold", 2}, {"tier.complete", 2},
        {"tier.encode", 3}}},
      {"repl",  // 693
       {{"ckpt.commit", 6}, {"ckpt.flush", 247}, {"ckpt.stage", 12},
        {"cow.data", 344}, {"cow.flip", 56}, {"cow.pair", 15},
        {"format", 13}}},
      {"recovery",  // 40: the restore commits at the archived epoch
       {{"ckpt.commit", 2}, {"ckpt.flush", 2}, {"ckpt.stage", 4},
        {"commit.renumber", 2}, {"format", 13}, {"lazy.chunk", 4},
        {"lazy.plan", 1},
        {"restore.container", 1}, {"restore.image", 1},
        {"restore.renamed", 2}, {"restore.synced", 2}, {"restore.tmp", 2},
        {"scrub.archive", 1}, {"scrub.cold", 1}, {"scrub.container", 1},
        {"scrub.pass", 1}}},
  };
  const std::vector<std::string> names = scenario_names();
  EXPECT_EQ(names.size(), pinned.size()) << "a pinned scenario has no row";
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end()) << "scenario has no pinned census";
    MatrixConfig cfg;
    cfg.scenario = name;
    cfg.seed = 7;
    EXPECT_EQ(make_scenario(name)->enumerate(cfg).per_site(), it->second);
  }
}

TEST(ChaosSelect, ShardsPartitionTheMatrix) {
  EventCensus census;
  const char* sites[] = {"a", "b", "c"};
  for (int i = 0; i < 100; ++i) census.tags.push_back(sites[i % 3]);

  MatrixConfig cfg;
  cfg.shard_count = 4;
  std::set<uint64_t> seen;
  for (uint32_t shard = 0; shard < 4; ++shard) {
    cfg.shard_index = shard;
    for (uint64_t k : select_events(census, cfg)) {
      EXPECT_TRUE(seen.insert(k).second) << "event " << k << " in 2 shards";
    }
  }
  EXPECT_EQ(seen.size(), 100u);  // disjoint and exhaustive
}

TEST(ChaosSelect, SampleIsDeterministicAndStratified) {
  EventCensus census;
  for (int i = 0; i < 500; ++i) census.tags.push_back("common");
  census.tags.push_back("rare");

  MatrixConfig cfg;
  cfg.seed = 3;
  cfg.sample = 20;
  std::vector<uint64_t> a = select_events(census, cfg);
  std::vector<uint64_t> b = select_events(census, cfg);
  EXPECT_EQ(a, b);
  EXPECT_LE(a.size(), 21u);
  // Stratification keeps at least one event per site, however rare.
  EXPECT_TRUE(std::find(a.begin(), a.end(), 500u) != a.end())
      << "the single 'rare' event was sampled away";

  cfg.max_events = 5;
  EXPECT_EQ(select_events(census, cfg).size(), 5u);
}

TEST(ChaosEnumeration, AsyncScenarioCoversEveryPipelineSite) {
  MatrixConfig cfg = small_config("core-async");
  EventCensus census = make_scenario("core-async")->enumerate(cfg);
  auto sites = census.per_site();
  EXPECT_EQ(sites.count("untagged"), 0u);
  // The async protocol's full surface: pipeline flushes, write-hook
  // steals, the staged seg_state/roots, the background commit point, and
  // the post-commit rebuild of stolen segments' backups.
  EXPECT_GT(sites["async.flush"], 0u);
  EXPECT_GT(sites["async.steal"], 0u);
  EXPECT_GT(sites["async.stage"], 0u);
  EXPECT_GT(sites["async.commit"], 0u);
  EXPECT_GT(sites["async.final"], 0u);
}

TEST(ChaosMatrix, CoreScenarioBoundedClean) {
  MatrixConfig cfg = small_config("core");
  cfg.sample = 120;
  MatrixResult r = run_matrix(cfg);
  EXPECT_GT(r.events_tested, 0u);
  EXPECT_GT(r.crashes_fired, 0u);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().detail << "\n  "
      << reproducer_command(cfg, r.violations.front().event_index);
}

TEST(ChaosMatrix, BufferedScenarioBoundedClean) {
  MatrixConfig cfg = small_config("core-buffered");
  cfg.sample = 100;
  MatrixResult r = run_matrix(cfg);
  EXPECT_GT(r.crashes_fired, 0u);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().detail << "\n  "
      << reproducer_command(cfg, r.violations.front().event_index);
}

TEST(ChaosMatrix, AdaptiveScenarioBoundedClean) {
  MatrixConfig cfg = small_config("core-adaptive");
  cfg.sample = 120;
  MatrixResult r = run_matrix(cfg);
  EXPECT_GT(r.events_tested, 0u);
  EXPECT_GT(r.crashes_fired, 0u);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().detail << "\n  "
      << reproducer_command(cfg, r.violations.front().event_index);
}

TEST(ChaosEnumeration, AdaptiveScenarioCoversEveryProtocolSite) {
  MatrixConfig cfg = small_config("core-adaptive");
  EventCensus census = make_scenario("core-adaptive")->enumerate(cfg);
  auto sites = census.per_site();
  EXPECT_EQ(sites.count("untagged"), 0u);
  // The hybrid's full surface: per-block undo entries, segment pre-images,
  // the mid-epoch LOG->COW promotion, the flush phase, the commit bump and
  // the log truncate.
  EXPECT_GT(sites["adaptive.log"], 0u);
  EXPECT_GT(sites["adaptive.cow"], 0u);
  EXPECT_GT(sites["adaptive.promote"], 0u);
  EXPECT_GT(sites["adaptive.ckpt"], 0u);
  EXPECT_GT(sites["adaptive.commit"], 0u);
  EXPECT_GT(sites["adaptive.trunc"], 0u);
}

TEST(ChaosMatrix, AsyncScenarioBoundedClean) {
  MatrixConfig cfg = small_config("core-async");
  cfg.sample = 120;
  MatrixResult r = run_matrix(cfg);
  EXPECT_GT(r.crashes_fired, 0u);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().detail << "\n  "
      << reproducer_command(cfg, r.violations.front().event_index);
}

TEST(ChaosMatrix, ArchiveScenarioBoundedClean) {
  MatrixConfig cfg = small_config("archive");
  cfg.sample = 60;
  MatrixResult r = run_matrix(cfg);
  EXPECT_GT(r.crashes_fired, 0u);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().detail << "\n  "
      << reproducer_command(cfg, r.violations.front().event_index);
}

TEST(ChaosMatrix, ReplScenarioBoundedClean) {
  MatrixConfig cfg = small_config("repl");
  cfg.sample = 40;
  MatrixResult r = run_matrix(cfg);
  EXPECT_GT(r.crashes_fired, 0u);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().detail << "\n  "
      << reproducer_command(cfg, r.violations.front().event_index);
}

// The planted bug: persist the seg_state flip before the CoW data copy is
// fenced. A crash between flip and copy leaves a backup segment marked
// valid while holding stale bytes — exactly the ordering class the matrix
// exists to catch. It must be found, shrink to a smaller config, and the
// shrunk reproducer must fail identically on every re-run.
TEST(ChaosFault, FlipBeforeCopyIsCaughtAndShrinks) {
  MatrixConfig cfg = small_config("core");
  cfg.epochs = 2;
  cfg.ops_per_epoch = 16;
  cfg.fault = "flip-before-copy";
  MatrixResult r = run_matrix(cfg);
  ASSERT_FALSE(r.violations.empty())
      << "matrix missed the planted flip-before-copy bug";
  EXPECT_EQ(r.violations.front().site, "cow.data");

  ShrinkResult shrunk;
  ASSERT_TRUE(shrink(cfg, r.violations.front(), &shrunk));
  EXPECT_GT(shrunk.sweeps, 0u);
  EXPECT_LE(shrunk.config.epochs * shrunk.config.ops_per_epoch,
            cfg.epochs * cfg.ops_per_epoch);
  EXPECT_EQ(shrunk.config.shard_count, 1u);
  EXPECT_EQ(shrunk.config.sample, 0u);

  auto scenario = make_scenario(shrunk.config.scenario);
  const EventCensus census = scenario->enumerate(shrunk.config);
  RunOutcome first =
      scenario->run_crash_at(shrunk.config, census, shrunk.event_index);
  RunOutcome second =
      scenario->run_crash_at(shrunk.config, census, shrunk.event_index);
  EXPECT_TRUE(first.crash_fired);
  EXPECT_TRUE(first.violation);
  EXPECT_TRUE(second.violation);
  EXPECT_EQ(first.detail, second.detail) << "reproducer is not deterministic";
  EXPECT_EQ(first.detail, shrunk.detail);
}

// The async planted bug: the write-hook steal skips the captured-block
// flush and the image snapshot, so the background pipeline commits an
// epoch whose captured values were already overwritten by the next
// epoch's stores. Any crash that forces recovery from that epoch exposes
// the divergence — the matrix must catch it, shrink it, and the shrunk
// reproducer must carry the fault flag and fail deterministically.
TEST(ChaosFault, SkipStealCopyIsCaughtAndShrinks) {
  MatrixConfig cfg = small_config("core-async");
  cfg.ops_per_epoch = 16;
  cfg.fault = "skip-steal-copy";
  MatrixResult r = run_matrix(cfg);
  ASSERT_FALSE(r.violations.empty())
      << "matrix missed the planted skip-steal-copy bug";

  ShrinkResult shrunk;
  ASSERT_TRUE(shrink(cfg, r.violations.front(), &shrunk));
  EXPECT_GT(shrunk.sweeps, 0u);
  EXPECT_LE(shrunk.config.epochs * shrunk.config.ops_per_epoch,
            cfg.epochs * cfg.ops_per_epoch);
  std::string cmd =
      reproducer_command(shrunk.config, shrunk.event_index);
  EXPECT_NE(cmd.find("--scenario core-async"), std::string::npos);
  EXPECT_NE(cmd.find("--fault skip-steal-copy"), std::string::npos);

  auto scenario = make_scenario(shrunk.config.scenario);
  const EventCensus census = scenario->enumerate(shrunk.config);
  RunOutcome first =
      scenario->run_crash_at(shrunk.config, census, shrunk.event_index);
  RunOutcome second =
      scenario->run_crash_at(shrunk.config, census, shrunk.event_index);
  EXPECT_TRUE(first.crash_fired);
  EXPECT_TRUE(first.violation);
  EXPECT_TRUE(second.violation);
  EXPECT_EQ(first.detail, second.detail) << "reproducer is not deterministic";
  EXPECT_EQ(first.detail, shrunk.detail);
}

// The adaptive planted bug: a mid-epoch LOG->COW promotion persists the
// log entry header (and, through it, the advanced log head) but skips
// flushing the segment pre-image payload. A crash before the epoch
// commits makes recovery replay the promotion entry's torn payload over
// the segment — the matrix must find it, shrink it, and the shrunk
// reproducer must carry the fault flag and fail deterministically.
TEST(ChaosFault, AdaptiveSkipTransitionFlushIsCaughtAndShrinks) {
  MatrixConfig cfg = small_config("core-adaptive");
  cfg.ops_per_epoch = 24;
  cfg.fault = "adaptive-skip-transition-flush";
  MatrixResult r = run_matrix(cfg);
  ASSERT_FALSE(r.violations.empty())
      << "matrix missed the planted adaptive transition-flush bug";

  ShrinkResult shrunk;
  ASSERT_TRUE(shrink(cfg, r.violations.front(), &shrunk));
  EXPECT_GT(shrunk.sweeps, 0u);
  EXPECT_LE(shrunk.config.epochs * shrunk.config.ops_per_epoch,
            cfg.epochs * cfg.ops_per_epoch);
  std::string cmd = reproducer_command(shrunk.config, shrunk.event_index);
  EXPECT_NE(cmd.find("--scenario core-adaptive"), std::string::npos);
  EXPECT_NE(cmd.find("--fault adaptive-skip-transition-flush"),
            std::string::npos);

  auto scenario = make_scenario(shrunk.config.scenario);
  const EventCensus census = scenario->enumerate(shrunk.config);
  RunOutcome first =
      scenario->run_crash_at(shrunk.config, census, shrunk.event_index);
  RunOutcome second =
      scenario->run_crash_at(shrunk.config, census, shrunk.event_index);
  EXPECT_TRUE(first.crash_fired);
  EXPECT_TRUE(first.violation);
  EXPECT_TRUE(second.violation);
  EXPECT_EQ(first.detail, second.detail) << "reproducer is not deterministic";
  EXPECT_EQ(first.detail, shrunk.detail);
}

TEST(ChaosFault, AdaptiveCleanRunSurvivesTheFaultEventIndices) {
  // Same config as the adaptive fault test but without the fault flag:
  // clean, so the violations above really come from the planted bug.
  MatrixConfig cfg = small_config("core-adaptive");
  cfg.ops_per_epoch = 24;
  MatrixResult r = run_matrix(cfg);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().detail << "\n  "
      << reproducer_command(cfg, r.violations.front().event_index);
}

TEST(ChaosFault, AsyncCleanRunSurvivesTheFaultEventIndices) {
  // Same config as the skip-steal test but without the fault: clean, so
  // the violations above really come from the planted bug.
  MatrixConfig cfg = small_config("core-async");
  cfg.ops_per_epoch = 16;
  MatrixResult r = run_matrix(cfg);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().detail << "\n  "
      << reproducer_command(cfg, r.violations.front().event_index);
}

TEST(ChaosFault, CleanProtocolSurvivesTheFaultEventIndices) {
  // Sanity for the fault test above: the same config without the fault
  // flag is clean, so the violations really come from the planted bug.
  MatrixConfig cfg = small_config("core");
  cfg.epochs = 2;
  cfg.ops_per_epoch = 16;
  MatrixResult r = run_matrix(cfg);
  EXPECT_TRUE(r.violations.empty());
}

// The planted-fault table is the one map from a --fault name to the
// option it sets: each name resolves and switches on exactly its field.
TEST(ChaosFault, TableSetsExactlyItsField) {
  MatrixConfig cfg = small_config("core");
  const CrpmOptions plain = scenario_options(cfg);
  for (const PlantedFault& f : kPlantedFaults) {
    SCOPED_TRACE(f.name);
    ASSERT_EQ(find_fault(f.name), &f);
    EXPECT_FALSE(plain.*(f.field));
    cfg.fault = f.name;
    const CrpmOptions o = scenario_options(cfg);
    for (const PlantedFault& other : kPlantedFaults) {
      EXPECT_EQ(o.*(other.field), &other == &f) << other.name;
    }
  }
  EXPECT_EQ(find_fault("bogus"), nullptr);
  EXPECT_EQ(find_fault(""), nullptr);
}

TEST(ChaosReport, ReproducerAndJsonRoundOut) {
  MatrixConfig cfg = small_config("core");
  cfg.fault = "flip-before-copy";
  std::string cmd = reproducer_command(cfg, 42);
  EXPECT_NE(cmd.find("--scenario core"), std::string::npos);
  EXPECT_NE(cmd.find("--seed 11"), std::string::npos);
  EXPECT_NE(cmd.find("--fault flip-before-copy"), std::string::npos);
  EXPECT_NE(cmd.find("--crash-at 42"), std::string::npos);

  cfg.fault.clear();
  cfg.sample = 30;
  MatrixResult r = run_matrix(cfg);
  auto path = std::filesystem::temp_directory_path() /
              "crpm_chaos_report_test.json";
  std::string err;
  ASSERT_TRUE(write_json_report(path.string(), cfg, r, &err)) << err;
  std::ifstream f(path);
  std::string body((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("\"events_total\""), std::string::npos);
  EXPECT_NE(body.find("\"sites\""), std::string::npos);
  EXPECT_NE(body.find("\"violations\""), std::string::npos);
  EXPECT_NE(body.find("\"fault\": \"\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ChaosPolicy, NamesRoundTrip) {
  for (CrashPolicy p : {CrashPolicy::kDropPending, CrashPolicy::kCommitPending,
                        CrashPolicy::kRandomPending}) {
    CrashPolicy q;
    ASSERT_TRUE(parse_policy(policy_name(p), &q));
    EXPECT_EQ(p, q);
  }
  CrashPolicy q;
  EXPECT_FALSE(parse_policy("bogus", &q));
}

}  // namespace
}  // namespace crpm::chaos
