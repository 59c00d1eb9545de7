// Crash-matrix scenarios: one table, one runner.
//
// A row of kRows holds only what differs between scenarios: its options,
// its workload, what a live run attaches to the container, and its
// ordered injection domains. How many epochs checkpoint() may leave
// uncommitted follows from the options (0 sync, 1 async, K for the
// multi-window pipeline). The runner owns everything else: recording the
// census, joining the domains into one event axis, the crash -> restart
// -> reopen sequence, the shared oracles and the forward-progress tail. A
// new scenario is one row plus one pinned census
// (ChaosEnumeration.CensusIsPinned in tests/chaos_test.cpp).
//
// Every run replays the golden workload: epoch e's stores are a pure
// function of (seed, e), so re-running epoch e on a target holding
// golden[e-1] reproduces golden[e] — which is what lets an injected run
// continue past recovery and re-verify the final state. Domains are
// joined domain-major (every event of the first domain, then the next),
// so an index maps to one deterministic injection no matter how the
// writer and replica threads interleave in real time.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "apps/state_store.h"
#include "chaos/chaos.h"
#include "comm/channel.h"
#include "core/container.h"
#include "engines/engine.h"
#include "repl/replica_store.h"
#include "repl/replicator.h"
#include "scrub/scrubber.h"
#include "snapshot/archive.h"
#include "snapshot/lazy_restore.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "tier/cold.h"
#include "tier/codec.h"
#include "util/logging.h"
#include "util/rng.h"

namespace crpm::chaos {

enum class Workload {
  kUniform,     // ops_per_epoch stores scattered over the whole region
  kHotSegment,  // 7 of 8 stores in a rotating hot segment (epoch_writes)
};

// What a live run attaches to its container. The archive kinds and the
// replica pair add one epoch to the run, so a reattached writer provably
// resumes.
enum class Attach {
  kNone,
  kArchive,        // archive writer: append + compaction every 3 deltas
  kTieredArchive,  // + lzb frames, group commit, writeback, cold tier
  kReplicaPair,    // archive writer + rank 0 replicating to rank 1
  kSourceArchive,  // uncompacted archive that the restore domains read
};

enum class Domain {
  kDevice,          // a live run's device events (PersistSiteScope tags)
  kArchiveFileOps,  // the live run's archive file ops (FileOpHook sites)
  kRestoreDevice,   // device events of a parallel restore of the archive
  kRestoreSteps,    // restore_file() durability steps (restore step hook)
  kLazySteps,       // lazy restore + finish_file steps, driven serially
  kScrubSteps,      // scrubber steps over a healthy restored directory
};

struct ScenarioRow {
  const char* name;
  void (*options)(const MatrixConfig& cfg, CrpmOptions* o);
  Workload workload;
  Attach attach;
  std::vector<Domain> domains;
};

namespace {

namespace fs = std::filesystem;

void no_change(const MatrixConfig&, CrpmOptions*) {}

// Cooperative pipeline mode (async_workers = 0) keeps the event stream
// deterministic: each checkpoint(e) captures epoch e and, through
// backpressure, commits the oldest open window inline; a window drains
// during the next epochs' ops (write-hook steals) and captures.
void cooperative_async(const MatrixConfig&, CrpmOptions* o) {
  o->async_checkpoint = true;
  o->async_workers = 0;
}

const ScenarioRow kRows[] = {
    // The bare commit protocol (Fig. 6), direct and buffered.
    {"core", no_change, Workload::kUniform, Attach::kNone, {Domain::kDevice}},
    {"core-buffered",
     [](const MatrixConfig&, CrpmOptions* o) { o->buffered = true; },
     Workload::kUniform, Attach::kNone, {Domain::kDevice}},
    // The per-segment hybrid engine (src/engines/adaptive). The hot
    // segment keeps a mixed strategy population alive, so log/cow
    // pre-images, the mid-epoch promote, the flush, the commit bump and
    // the log truncate are all crash points. 8 tracked blocks per segment
    // (promote threshold 4) keep the next hot segment's seed writes under
    // the mid-epoch promote trigger. Its roots live in the protected
    // reserve area and commit with the epoch, so the shared root oracle
    // holds as it does for the container.
    {"core-adaptive",
     [](const MatrixConfig&, CrpmOptions* o) {
       o->engine = "adaptive";
       o->segment_size = 2048;
     },
     Workload::kHotSegment, Attach::kNone, {Domain::kDevice}},
    // Concurrent background checkpointing: crash points cover every async
    // persist site, including steals interleaved with post-capture
    // mutation. checkpoint(e) guarantees only epoch e-1.
    {"core-async", cooperative_async, Workload::kUniform, Attach::kNone,
     {Domain::kDevice}},
    // The sharded multi-window pipeline: K capture windows accumulate
    // before backpressure drains the oldest, and S per-shard epoch words
    // are min-reduced by a coordinated commit ("shard.commit" then
    // "async.commit"). Kills land between a shard-local commit and the
    // joined committed_epoch, mid-flush with several windows open, and
    // inside the deferred flush of segments held across windows; recovery
    // may land anywhere in [last observed commit, +K].
    {"core-multiwindow",
     [](const MatrixConfig& cfg, CrpmOptions* o) {
       cooperative_async(cfg, o);
       o->max_inflight_epochs = cfg.mw_windows == 0 ? 1 : cfg.mw_windows;
       o->commit_shards = cfg.mw_shards == 0 ? 1 : cfg.mw_shards;
     },
     Workload::kUniform, Attach::kNone, {Domain::kDevice}},
    // Commit loop + background archive append + compaction; the tiered
    // variant adds the tier.encode / archive.frame / tier.cold /
    // archive.compact sites to the file-op axis.
    {"archive", no_change, Workload::kUniform, Attach::kArchive,
     {Domain::kDevice, Domain::kArchiveFileOps}},
    {"archive-tier", no_change, Workload::kUniform, Attach::kTieredArchive,
     {Domain::kDevice, Domain::kArchiveFileOps}},
    // Replicated commit: rank 0 crashes, the partner's replica chain must
    // stay a valid prefix of the golden history.
    {"repl", no_change, Workload::kUniform, Attach::kReplicaPair,
     {Domain::kDevice}},
    // The restorer itself. The record apply runs in DRAM, so a parallel
    // apply (the subject under test) still gives a deterministic device
    // event stream.
    {"recovery",
     [](const MatrixConfig&, CrpmOptions* o) { o->restore_workers = 2; },
     Workload::kUniform, Attach::kSourceArchive,
     {Domain::kRestoreDevice, Domain::kRestoreSteps, Domain::kLazySteps,
      Domain::kScrubSteps}},
};

const ScenarioRow* find_row(const std::string& name) {
  for (const ScenarioRow& r : kRows) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

// Epoch e's stores under `w`, as (offset, value) pairs in store order.
// Values are never 0, so a store is distinguishable from the fresh region.
std::vector<std::pair<uint64_t, uint64_t>> epoch_writes(
    const MatrixConfig& cfg, Workload w, const CrpmOptions& o,
    uint64_t epoch) {
  Xoshiro256 rng(cfg.seed * 0x9e3779b97f4a7c15ULL + epoch);
  const uint64_t region = o.main_region_size;
  std::vector<std::pair<uint64_t, uint64_t>> out;
  if (w == Workload::kUniform) {
    for (uint64_t op = 0; op < cfg.ops_per_epoch; ++op) {
      const uint64_t off = rng.next_below(region / 8) * 8;
      out.emplace_back(off, rng.next() | 1);
    }
    return out;
  }
  // 7 of 8 ops land in the rotating hot segment: fresh in LOG mode each
  // epoch, it crosses the dense threshold mid-epoch and promotes. The rest
  // scatter uniformly (a heavier scatter on this window would drive EVERY
  // segment dense and leave no LOG-mode population for the matrix to
  // crash). Each epoch also seeds 3 distinct blocks of the NEXT epoch's
  // hot segment — few enough to keep it in LOG mode, but enough that the
  // committed image a crash recovers to has content there: the mid-epoch
  // promotion's segment pre-image must faithfully restore those seeds, so
  // an ordering bug in the transition (adaptive-skip-transition-flush)
  // shows up as a golden divergence instead of tearing an all-zero segment
  // into all zeros.
  const uint64_t seg = o.segment_size;
  const uint64_t nseg = region / seg;
  const uint64_t hot = (epoch % nseg) * seg;
  for (uint64_t op = 0; op < cfg.ops_per_epoch; ++op) {
    const uint64_t off = (op % 8 != 7) ? hot + rng.next_below(seg / 8) * 8
                                       : rng.next_below(region / 8) * 8;
    out.emplace_back(off, rng.next() | 1);
  }
  const uint64_t next_hot = ((epoch + 1) % nseg) * seg;
  const uint64_t blocks = seg / 256;  // the engine's tracking granule
  for (uint64_t i = 0; i < 3; ++i) {
    const uint64_t block = (epoch + 3 * i) % blocks;
    const uint64_t off = next_hot + block * 256 + rng.next_below(256 / 8) * 8;
    out.emplace_back(off, rng.next() | 1);
  }
  return out;
}

// Per-event RNG for the crash policy's pending-line coin flips.
Xoshiro256 crash_rng(const MatrixConfig& cfg, uint64_t event) {
  return Xoshiro256(cfg.seed ^ (event * 0x9e3779b97f4a7c15ULL) ^
                    0xc4a5b3c0ull);
}

RunOutcome violation(RunOutcome out, std::string detail) {
  out.violation = true;
  out.detail = std::move(detail);
  return out;
}

// Archive / replica-chain oracle: every restorable epoch must be
// bit-identical to its golden image (with its committed root), and no
// archived epoch may exceed `max_epoch`.
bool check_chain_prefix(const std::string& path, const GoldenModel& g,
                        uint64_t max_epoch, const char* what,
                        std::string* why) {
  if (!fs::exists(path)) return true;  // never written: an empty prefix
  snapshot::ArchiveReader reader(path);
  if (!reader.ok()) {
    *why = std::string(what) + " " + path + ": header unreadable";
    return false;
  }
  for (const auto& info : reader.scan().epochs) {
    if (info.epoch > max_epoch) {
      *why = std::string(what) + " holds epoch " +
             std::to_string(info.epoch) + " beyond reachable epoch " +
             std::to_string(max_epoch);
      return false;
    }
  }
  for (uint64_t e = 1; e <= max_epoch && e < g.at.size(); ++e) {
    if (!reader.restorable(e)) continue;
    std::vector<uint8_t> image;
    std::array<uint64_t, kNumRoots> roots{};
    std::string err;
    if (!reader.state_at(e, &image, &roots, &err)) {
      *why = std::string(what) + " epoch " + std::to_string(e) +
             " restorable but unreadable: " + err;
      return false;
    }
    if (!matches_golden(g, e, image.data(), roots[0], what, why)) {
      return false;
    }
  }
  return true;
}

// Cold-tier oracle: every cold base beside `path` must be a readable
// one-frame archive whose state is bit-identical to its golden epoch, and
// no cold base may hold an unreachable epoch. A mid-store kill leaves only
// the tmp file behind (never listed), so a listed entry has no excuse.
bool check_cold_tier(const std::string& path, const GoldenModel& g,
                     uint64_t max_epoch, std::string* why) {
  for (const auto& e : tier::ColdTier::list_for_archive(path)) {
    if (e.epoch > max_epoch) {
      *why = "cold tier holds epoch " + std::to_string(e.epoch) +
             " beyond reachable epoch " + std::to_string(max_epoch);
      return false;
    }
    snapshot::ArchiveReader reader(e.path);
    std::vector<uint8_t> image;
    std::array<uint64_t, kNumRoots> roots{};
    std::string err;
    if (!reader.ok() || !reader.state_at(e.epoch, &image, &roots, &err)) {
      *why = "cold base for epoch " + std::to_string(e.epoch) +
             " unreadable: " + err;
      return false;
    }
    if (e.epoch >= g.at.size()) continue;
    if (!matches_golden(g, e.epoch, image.data(), roots[0], "cold base",
                        why)) {
      return false;
    }
  }
  return true;
}

std::vector<uint8_t> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f),
                              std::istreambuf_iterator<char>());
}

// Unchanged-file oracle: readers (restore, lazy restore, scrub) never
// mutate what they read or audit.
bool unchanged(const std::string& path, const std::vector<uint8_t>& before,
               const std::string& who, std::string* why) {
  if (slurp(path) == before) return true;
  *why = who + " mutated " + path;
  return false;
}

// The system under test: a Container, or the engine a row's options name
// (through engines::open_engine; its FOCA wrapper would wait out every
// async window, so FOCA rows use the Container directly).
struct Target {
  std::unique_ptr<Container> c;
  std::unique_ptr<engines::Engine> engine;

  uint8_t* data() { return c ? c->data() : engine->data(); }
  void annotate(const void* p, size_t n) {
    if (c) return c->annotate(p, n);
    engine->annotate(p, n);
  }
  void set_root(uint32_t slot, uint64_t v) {
    if (c) return c->set_root(slot, v);
    engine->set_root(slot, v);
  }
  uint64_t get_root(uint32_t slot) {
    return c ? c->get_root(slot) : engine->get_root(slot);
  }
  uint64_t committed_epoch() const {
    return c ? c->committed_epoch() : engine->committed_epoch();
  }
  void checkpoint() {
    if (c) return c->checkpoint();
    engine->checkpoint();
  }
  void reset() {
    c.reset();
    engine.reset();
  }
};

// The archive writer and, for a replica pair, the channel and both nodes.
// Members die in reverse order: the writer first, so it detaches the frame
// observer before the node dies, and the channel last.
struct Attachments {
  std::unique_ptr<Channel> channel;
  std::unique_ptr<repl::ReplNode> replica;  // rank 1
  std::unique_ptr<repl::ReplNode> origin;   // rank 0
  std::unique_ptr<snapshot::ArchiveWriter> writer;
};

// One scenario run (a census recording or one injection) of one row.
// Owns a temporary directory for the row's files.
class Runner {
 public:
  Runner(const ScenarioRow& row, const MatrixConfig& cfg)
      : row_(row),
        cfg_(cfg),
        opt_(scenario_options(cfg)),
        window_(opt_.async_checkpoint ? opt_.max_inflight_epochs : 0),
        dir_(fs::temp_directory_path() /
             (std::string("crpm_chaos_") + row.name + "_" +
              std::to_string(::getpid()))),
        archive_((dir_ / "a.crpmsnap").string()),
        ctr_((dir_ / "restored.ctr").string()) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~Runner() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  std::vector<const char*> record(Domain d);
  RunOutcome inject(Domain d, uint64_t index);

 private:
  uint64_t device_size() const {
    return opt_.engine == "foca" ? Container::required_device_size(opt_)
                                 : engines::engine_device_size(opt_);
  }
  Target open(CrashSimDevice& dev) const;
  void attach(Container& c);
  void detach(Target& t, bool killed);
  void run_epochs(const GoldenModel& g, Target& t, uint64_t from,
                  uint64_t to, uint64_t* last);
  void clean_run(std::vector<const char*>* device_tags,
                 std::vector<const char*>* file_tags);
  bool attachments_match(const GoldenModel& g, uint64_t reach,
                         bool caught_up, std::string* why);
  RunOutcome inject_live(Domain d, uint64_t index);
  RunOutcome inject_restore(uint64_t event);
  std::string run_steps(Domain d);
  RunOutcome inject_steps(Domain d, uint64_t step);
  bool file_recovery_ok(const GoldenModel& g, std::string* why);

  const ScenarioRow& row_;
  const MatrixConfig& cfg_;
  const CrpmOptions opt_;
  const uint64_t window_;  // epochs checkpoint() may leave uncommitted
  const fs::path dir_;
  const std::string archive_;
  const std::string ctr_;  // restore_file / lazy finish / scrub target
  std::optional<Attachments> a_;  // set while the row's attachment runs
};

Target Runner::open(CrashSimDevice& dev) const {
  Target t;
  if (opt_.engine == "foca") {
    t.c = Container::open(&dev, opt_);
  } else {
    t.engine = engines::open_engine(&dev, opt_);
  }
  return t;
}

void Runner::attach(Container& c) {
  if (row_.attach == Attach::kNone) return;
  snapshot::SnapshotOptions s;
  s.queue_depth = 4;
  s.fsync_each_epoch = true;
  if (row_.attach != Attach::kSourceArchive) s.compact_every = 3;
  if (row_.attach == Attach::kTieredArchive) {
    s.tier.codec = tier::kCodecLzb;
    s.tier.group_epochs = 2;
    // Batch-full or drain only: a timer-driven flush would make the
    // file-op census depend on wall-clock scheduling.
    s.tier.flush_deadline_us = 3'600'000'000ull;
    s.tier.writeback = "threads";
    s.tier.cold_enabled = true;
  }
  a_.emplace();
  a_->writer = std::make_unique<snapshot::ArchiveWriter>(archive_, s);
  if (row_.attach == Attach::kReplicaPair) {
    a_->channel = std::make_unique<Channel>(2, FaultSpec());
    repl::ReplConfig rc;
    rc.replicas = 1;
    rc.ack_timeout_us = 5000;
    rc.max_attempts = 2;  // bounded: a post-restart gap never resolves
    rc.store_dir = (dir_ / "store0").string();
    rc.local_archive = archive_;
    a_->origin = std::make_unique<repl::ReplNode>(*a_->channel, 0, rc);
    rc.store_dir = (dir_ / "store1").string();
    rc.local_archive.clear();
    a_->replica = std::make_unique<repl::ReplNode>(*a_->channel, 1, rc);
  }
  a_->writer->attach(c);
  if (a_->origin) a_->origin->attach(c, *a_->writer);
}

// Stops the attachments. A killed writer (the process died) writes no
// further byte; either way staging is waited out, since unstaged frames
// still point into the container's working state.
void Runner::detach(Target& t, bool killed) {
  if (!a_) return;
  if (killed) {
    a_->writer->kill_after_bytes(0);
  } else if (a_->origin) {
    a_->origin->flush();
  }
  if (t.c) t.c->set_epoch_sink(nullptr);
  a_->writer->drain();
  a_->writer->set_file_op_hook({});
  a_.reset();
}

// Epochs [from, to]: replay, checkpoint, and drain the archive (every
// second epoch for the tiered writer, so group-commit batches span a sync
// boundary). `*last` tracks the newest commit the run has observed:
// checkpoint(e) guarantees only epoch e - window_, and the closing
// wait_committed() joins every open window.
void Runner::run_epochs(const GoldenModel& g, Target& t, uint64_t from,
                        uint64_t to, uint64_t* last) {
  const uint64_t drain_every = row_.attach == Attach::kTieredArchive ? 2 : 1;
  for (uint64_t e = from; e <= to; ++e) {
    apply_golden_epoch(g, t, e);
    t.checkpoint();
    if (a_ && e % drain_every == 0) a_->writer->drain();
    *last = e > window_ ? e - window_ : 0;
  }
  if (window_ > 0) {
    t.c->wait_committed();
    *last = to;
  }
}

// One unarmed live run over epochs 1..E with the row's attachment (for
// the recovery row: the run that writes the source archive).
// `device_tags` / `file_tags`, when set, record its device events / archive
// file ops.
void Runner::clean_run(std::vector<const char*>* device_tags,
                       std::vector<const char*>* file_tags) {
  const GoldenModel g = golden_model(cfg_, cfg_.epochs);
  CrashSimDevice dev(device_size());
  if (device_tags) dev.set_event_recorder(device_tags);
  Target t = open(dev);
  if (t.c) attach(*t.c);
  if (file_tags) {
    a_->writer->set_file_op_hook([file_tags](const char* site, uint64_t) {
      file_tags->push_back(site);
      return true;
    });
  }
  uint64_t last = 0;
  run_epochs(g, t, 1, cfg_.epochs, &last);
  detach(t, false);
  t.reset();
  dev.set_event_recorder(nullptr);
}

std::vector<const char*> Runner::record(Domain d) {
  std::vector<const char*> tags;
  if (d == Domain::kDevice || d == Domain::kArchiveFileOps) {
    clean_run(d == Domain::kDevice ? &tags : nullptr,
              d == Domain::kArchiveFileOps ? &tags : nullptr);
    return tags;
  }
  clean_run(nullptr, nullptr);
  if (d == Domain::kRestoreDevice) {
    CrashSimDevice dev(Container::required_device_size(opt_));
    dev.set_event_recorder(&tags);
    auto r = snapshot::restore(archive_, Container::kLatestEpoch, &dev, opt_);
    CRPM_CHECK(r.container != nullptr, "%s census: restore: %s", row_.name,
               r.error.c_str());
    r.container.reset();
    dev.set_event_recorder(nullptr);
    return tags;
  }
  if (d == Domain::kScrubSteps) {
    const std::string err = run_steps(Domain::kRestoreSteps);
    CRPM_CHECK(err.empty(), "%s census: %s", row_.name, err.c_str());
  }
  snapshot::set_restore_step_hook(
      [&tags](const char* name) { tags.push_back(name); });
  const std::string err = run_steps(d);
  snapshot::set_restore_step_hook(nullptr);
  CRPM_CHECK(err.empty(), "%s census: %s", row_.name, err.c_str());
  return tags;
}

RunOutcome Runner::inject(Domain d, uint64_t index) {
  switch (d) {
    case Domain::kDevice:
    case Domain::kArchiveFileOps:
      return inject_live(d, index);
    case Domain::kRestoreDevice:
      return inject_restore(index);
    default:
      return inject_steps(d, index);
  }
}

// Reach oracles for the attachments: every archived (and cold) or
// replicated epoch is golden and none lies beyond `reach`. `caught_up`
// also requires the archive's newest restorable epoch to be `reach` —
// after the forward-progress tail, a reattached writer must have resumed.
// A replica chain may legally stay behind (frames lost with a dead sender
// are only re-served by a future base frame), but never diverges.
bool Runner::attachments_match(const GoldenModel& g, uint64_t reach,
                               bool caught_up, std::string* why) {
  switch (row_.attach) {
    case Attach::kArchive:
    case Attach::kTieredArchive:
      if (caught_up) {
        uint64_t latest = 0;
        snapshot::ArchiveReader reader(archive_);
        if (!reader.ok() || !reader.latest_restorable(&latest) ||
            latest != reach) {
          *why = "archive did not catch up: newest restorable epoch " +
                 std::to_string(latest) + " after committing " +
                 std::to_string(reach);
          return false;
        }
      }
      return check_chain_prefix(archive_, g, reach, "archive", why) &&
             check_cold_tier(archive_, g, reach, why);
    case Attach::kReplicaPair:
      return check_chain_prefix(
          repl::ReplicaStore::peer_path((dir_ / "store1").string(), 0), g,
          reach, "replica chain", why);
    default:
      return true;
  }
}

// A live run crashed at device event `index`, or with its archive daemon
// killed at file op `index` (mid-write for writes — a torn frame — and
// just before for fsyncs; the container is untouched). Then: the
// recovered state and the attachments' files must be valid, and after a
// reattach the run must finish on the final golden image.
RunOutcome Runner::inject_live(Domain d, uint64_t index) {
  const uint64_t final_epoch =
      cfg_.epochs + (row_.attach == Attach::kNone ? 0 : 1);
  const GoldenModel g = golden_model(cfg_, final_epoch);
  CrashSimDevice dev(device_size());
  if (d == Domain::kDevice) dev.arm_crash_at_event(index);

  uint64_t last = 0;
  uint64_t file_ops = 0;
  bool device_crash = false;
  Target t;
  try {
    t = open(dev);
    if (t.c) attach(*t.c);
    if (d == Domain::kArchiveFileOps) {
      snapshot::ArchiveWriter* w = a_->writer.get();
      w->set_file_op_hook([&file_ops, index, w](const char*, uint64_t bytes) {
        const uint64_t k = file_ops++;
        if (k < index) return true;
        if (k > index || bytes == 0) return false;  // dead / pre-fsync
        w->kill_after_bytes(bytes / 2);  // tear this write mid-frame
        return true;
      });
    }
    run_epochs(g, t, 1, cfg_.epochs, &last);
  } catch (const SimulatedCrash&) {
    device_crash = true;
  }

  // Process death stops the archive mid-air; destroying the target then
  // discards any captured-but-uncommitted window (nothing may commit on
  // the dead process's behalf). A crash inside a checkpoint may have
  // committed — and the archive staged — up to max(window_, 1) epochs
  // past the last commit the run saw.
  detach(t, device_crash);
  RunOutcome out;
  out.crash_fired = d == Domain::kDevice ? device_crash : file_ops > index;
  const uint64_t reach =
      device_crash ? last + std::max<uint64_t>(window_, 1) : last;
  if (device_crash) {
    t.reset();
    Xoshiro256 rng = crash_rng(cfg_, index);
    dev.crash_and_restart(cfg_.policy, rng);
    t = open(dev);
  } else {
    // Crash-free: clean even with a planted fault armed, since the faults
    // only tear state that recovery reads.
    dev.disarm();
  }
  std::string why;
  if (!check_recovered(g, last, reach - last, t.committed_epoch(), t.data(),
                       t.get_root(0), &why) ||
      !attachments_match(g, reach, /*caught_up=*/false, &why)) {
    return violation(out, out.crash_fired ? why : "clean run: " + why);
  }

  // Recovery must compose with forward progress: reattach (the archive
  // reconciles — it truncates torn or staged-ahead frames — and a gap
  // restarts the chain with a base frame; the replica store adopts its
  // persisted peer files; the adaptive engine rebuilds its per-segment
  // strategies from nothing and re-walks the transitions), finish the run,
  // and land bit-identically on the final golden image.
  if (t.c) attach(*t.c);
  run_epochs(g, t, t.committed_epoch() + 1, final_epoch, &last);
  detach(t, false);
  if (t.committed_epoch() != final_epoch) {
    return violation(out, "post-recovery run ended at epoch " +
                              std::to_string(t.committed_epoch()));
  }
  if (!matches_golden(g, final_epoch, t.data(), t.get_root(0),
                      "post-recovery main region", &why) ||
      !attachments_match(g, final_epoch, /*caught_up=*/true, &why)) {
    return violation(out, why);
  }
  return out;
}

// A parallel restore crashed at device event `event`. Reattach triage on
// the torn target: the restore's single checkpoint is its commit point,
// so a nonzero committed epoch means the whole image must be there; epoch
// 0 means the target is recognizably not a restored container and gets
// discarded. A re-run on a pristine device must converge to golden.
RunOutcome Runner::inject_restore(uint64_t event) {
  clean_run(nullptr, nullptr);
  const GoldenModel g = golden_model(cfg_, cfg_.epochs);
  const uint64_t size = Container::required_device_size(opt_);
  CrashSimDevice dev(size);
  dev.arm_crash_at_event(event);
  RunOutcome out;
  std::string why;
  try {
    auto r = snapshot::restore(archive_, Container::kLatestEpoch, &dev, opt_);
    dev.disarm();
    if (r.container == nullptr) {
      return violation(out, "clean restore failed: " + r.error);
    }
    if (!matches_golden(g, cfg_.epochs, r.container->data(),
                        r.container->get_root(0), "restored container",
                        &why)) {
      return violation(out, "clean run: " + why);
    }
    return out;
  } catch (const SimulatedCrash&) {
    out.crash_fired = true;
  }
  Xoshiro256 rng = crash_rng(cfg_, event);
  dev.crash_and_restart(cfg_.policy, rng);
  {
    auto c = Container::open(&dev, opt_);
    if (c->committed_epoch() != 0 &&
        !matches_golden(g, cfg_.epochs, c->data(), c->get_root(0),
                        "triage-trusted restore device", &why)) {
      return violation(out, why);
    }
  }
  CrashSimDevice fresh(size);
  auto r = snapshot::restore(archive_, Container::kLatestEpoch, &fresh, opt_);
  if (r.container == nullptr) {
    return violation(out, "re-run restore failed: " + r.error);
  }
  if (!matches_golden(g, cfg_.epochs, r.container->data(),
                      r.container->get_root(0), "re-run restore", &why)) {
    return violation(out, why);
  }
  return out;
}

// A step domain's body, run with the restore step hook installed. Returns
// why it failed without crashing, or "".
std::string Runner::run_steps(Domain d) {
  if (d == Domain::kRestoreSteps) {
    auto r = snapshot::restore_file(archive_, Container::kLatestEpoch, ctr_,
                                    opt_);
    return r.container ? "" : "restore_file failed: " + r.error;
  }
  if (d == Domain::kLazySteps) {
    // Driven inline so the step hook's throw unwinds the driving thread (a
    // worker-pool throw would terminate).
    CrpmOptions serial = opt_;
    serial.restore_workers = 0;
    auto lz = snapshot::restore_lazy(archive_, Container::kLatestEpoch,
                                     serial);
    if (!lz->ok()) return "lazy restore failed: " + lz->error();
    lz->ensure_range(0, 1);  // first chunk through the demand path
    auto r = lz->finish_file(ctr_, serial);
    return r.container ? "" : "lazy finish failed: " + r.error;
  }
  scrub::ScrubOptions so;
  so.archive_path = archive_;
  so.container_path = ctr_;
  so.quarantine = true;
  scrub::ScrubReport rep = scrub::Scrubber(so).run_pass();
  return rep.damaged() ? "scrub reported damage: " + rep.findings.front().detail
                       : "";
}

// Post-crash file oracle: the triage a reattach runs must either reject
// the target (absent / unusable) or find the complete golden image — the
// rename is the commit point, so a file triage trusts is never
// half-restored — and a re-run restore_file must converge to golden.
bool Runner::file_recovery_ok(const GoldenModel& g, std::string* why) {
  if (StateStore::container_file_usable(ctr_)) {
    auto c = Container::open_file(ctr_, opt_);
    if (c->was_fresh()) {
      *why = "usable restore target reopened as fresh";
      return false;
    }
    if (!matches_golden(g, cfg_.epochs, c->data(), c->get_root(0),
                        "triage-trusted restore target", why)) {
      return false;
    }
  }
  auto r =
      snapshot::restore_file(archive_, Container::kLatestEpoch, ctr_, opt_);
  if (r.container == nullptr) {
    *why = "re-run restore_file failed: " + r.error;
    return false;
  }
  return matches_golden(g, cfg_.epochs, r.container->data(),
                        r.container->get_root(0), "re-run restore target",
                        why);
}

// A restore, lazy restore or scrub pass killed at its `step`-th step. The
// scrub domain audits a healthy restored directory, so its target is
// restored first; a killed pass must not poison the next one.
RunOutcome Runner::inject_steps(Domain d, uint64_t step) {
  clean_run(nullptr, nullptr);
  const GoldenModel g = golden_model(cfg_, cfg_.epochs);
  RunOutcome out;
  if (d == Domain::kScrubSteps) {
    const std::string err = run_steps(Domain::kRestoreSteps);
    if (!err.empty()) return violation(out, "scrub setup: " + err);
  }
  const char* who = d == Domain::kRestoreSteps ? "restore_file"
                    : d == Domain::kLazySteps  ? "lazy restore"
                                               : "scrub";
  const std::vector<uint8_t> archive_before = slurp(archive_);
  const std::vector<uint8_t> ctr_before =
      d == Domain::kScrubSteps ? slurp(ctr_) : std::vector<uint8_t>{};
  uint64_t seen = 0;
  snapshot::set_restore_step_hook([&seen, step](const char*) {
    if (seen++ == step) throw SimulatedCrash{};
  });
  std::string err;
  try {
    err = run_steps(d);
  } catch (const SimulatedCrash&) {
    out.crash_fired = true;
  }
  snapshot::set_restore_step_hook(nullptr);
  if (!err.empty()) return violation(out, err + " without crashing");

  std::string why;
  if (!unchanged(archive_, archive_before, who, &why)) {
    return violation(out, why);
  }
  if (d == Domain::kScrubSteps) {
    if (!unchanged(ctr_, ctr_before, who, &why)) return violation(out, why);
    if (fs::exists(ctr_ + ".quarantine") ||
        fs::exists(archive_ + ".quarantine")) {
      return violation(out, "scrub quarantined healthy data");
    }
    err = run_steps(Domain::kScrubSteps);
    if (!err.empty()) {
      return violation(out, "re-run after a killed pass: " + err);
    }
  }
  if (!file_recovery_ok(g, &why)) return violation(out, why);
  return out;
}

}  // namespace

EventCensus Scenario::enumerate(const MatrixConfig& cfg) const {
  EventCensus census;
  for (Domain d : row_.domains) {
    std::vector<const char*> tags = Runner(row_, cfg).record(d);
    census.tags.insert(census.tags.end(), tags.begin(), tags.end());
    census.domain_events.push_back(tags.size());
  }
  return census;
}

RunOutcome Scenario::run_crash_at(const MatrixConfig& cfg,
                                  const EventCensus& census,
                                  uint64_t event) const {
  CRPM_CHECK(census.domain_events.size() == row_.domains.size(),
             "census of another scenario passed to '%s'", row_.name);
  // Domain-major: an index past the census stays in the last domain,
  // where no injection fires.
  size_t d = 0;
  while (d + 1 < row_.domains.size() && event >= census.domain_events[d]) {
    event -= census.domain_events[d];
    ++d;
  }
  return Runner(row_, cfg).inject(row_.domains[d], event);
}

std::unique_ptr<Scenario> make_scenario(const std::string& name) {
  const ScenarioRow* row = find_row(name);
  return row != nullptr ? std::make_unique<Scenario>(*row) : nullptr;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const ScenarioRow& r : kRows) names.emplace_back(r.name);
  return names;
}

const PlantedFault* find_fault(const std::string& name) {
  for (const PlantedFault& f : kPlantedFaults) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

CrpmOptions scenario_options(const MatrixConfig& cfg) {
  const ScenarioRow* row = find_row(cfg.scenario);
  CRPM_CHECK(row != nullptr, "unknown scenario '%s'", cfg.scenario.c_str());
  // Small geometry: every persistence event of a multi-epoch run stays
  // enumerable in seconds, while CoW, eager CoW, wbinvd, parity detach and
  // backup pairing all still trigger (mirrors crash_injection_test).
  CrpmOptions o;
  o.segment_size = 1024;
  o.block_size = 128;
  o.main_region_size = 16 * 1024;
  o.eager_cow_segments = 4;
  o.wbinvd_threshold = 8 * 1024;
  row->options(cfg, &o);
  if (!cfg.fault.empty()) {
    const PlantedFault* f = find_fault(cfg.fault);
    CRPM_CHECK(f != nullptr, "unknown fault '%s'", cfg.fault.c_str());
    o.*(f->field) = true;
  }
  return o;
}

GoldenModel golden_model(const MatrixConfig& cfg, uint64_t max_epoch) {
  const CrpmOptions o = scenario_options(cfg);
  const Workload w = find_row(cfg.scenario)->workload;
  GoldenModel g;
  g.writes.resize(max_epoch + 1);
  g.at.resize(max_epoch + 1);
  g.at[0].assign(o.main_region_size, 0);
  for (uint64_t e = 1; e <= max_epoch; ++e) {
    g.writes[e] = epoch_writes(cfg, w, o, e);
    g.at[e] = g.at[e - 1];
    for (const auto& [off, v] : g.writes[e]) {
      std::memcpy(g.at[e].data() + off, &v, sizeof v);
    }
  }
  return g;
}

bool matches_golden(const GoldenModel& g, uint64_t epoch,
                    const uint8_t* image, uint64_t root, const char* what,
                    std::string* why) {
  if (epoch >= g.at.size()) {
    *why = std::string(what) + " at epoch " + std::to_string(epoch) +
           " beyond the run's " + std::to_string(g.at.size() - 1) + " epochs";
    return false;
  }
  const std::vector<uint8_t>& want = g.at[epoch];
  if (std::memcmp(image, want.data(), want.size()) != 0) {
    uint64_t off = 0;
    while (image[off] == want[off]) ++off;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s diverges from golden epoch %llu at byte %llu "
                  "(have 0x%02x want 0x%02x)",
                  what, (unsigned long long)epoch, (unsigned long long)off,
                  image[off], want[off]);
    *why = buf;
    return false;
  }
  if (root != epoch) {
    *why = std::string(what) + " root slot 0 is " + std::to_string(root) +
           " at golden epoch " + std::to_string(epoch);
    return false;
  }
  return true;
}

bool check_recovered(const GoldenModel& g, uint64_t last_committed,
                     uint64_t window, uint64_t epoch, const uint8_t* image,
                     uint64_t root, std::string* why) {
  if (epoch < last_committed || epoch > last_committed + window) {
    *why = "recovered epoch " + std::to_string(epoch) +
           " but last observed commit was " + std::to_string(last_committed) +
           " (window " + std::to_string(window) + ")";
    return false;
  }
  return matches_golden(g, epoch, image, root, "main region", why);
}

}  // namespace crpm::chaos
