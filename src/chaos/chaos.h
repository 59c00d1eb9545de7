// Crash-surface exploration harness (the crash matrix).
//
// Two deterministic passes over a scenario (one row of the scenario
// table in scenario.cpp, run by its shared runner):
//
//   pass 1 (count)   run the scenario once per injection domain with a
//                    recorder installed: every persistence event (clwb,
//                    sfence, NT-stored line, wbinvd; the archive writer's
//                    file writes/fsyncs; restore, lazy and scrub steps) is
//                    enumerated with the protocol-site tag it was emitted
//                    under (PersistSiteScope / ArchiveWriter::FileOpHook /
//                    the restore step hook). The domains are joined
//                    domain-major into one event axis.
//   pass 2 (inject)  re-run the scenario once per selected event index,
//                    crash at exactly that event, restart, and drive the
//                    shared oracles: the recovered epoch lies in the
//                    window the protocol allows, the main region is
//                    bit-identical to the golden model of the recovered
//                    epoch, every restorable archive epoch and cold base is
//                    bit-identical to its golden image (newest-intact
//                    semantics), replica chains are prefix-valid, and
//                    readers leave the files they read unchanged. The run
//                    then continues to completion and the final state must
//                    match the golden model again — recovery must compose
//                    with forward progress.
//
// Both passes are pure functions of (scenario, seed, epochs, ops): the
// same MatrixConfig enumerates the same census twice and a violation at
// event N reproduces from the single command printed by
// reproducer_command(). select_events() adds sharding (`--shard i/n`
// keeps indices with k % n == i) and seeded per-site stratified sampling
// so CI can split the matrix across jobs without losing site coverage.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "nvm/crash_sim.h"

namespace crpm::chaos {

struct MatrixConfig {
  std::string scenario = "core";
  uint64_t seed = 1;
  uint64_t epochs = 3;
  uint64_t ops_per_epoch = 48;
  CrashPolicy policy = CrashPolicy::kDropPending;
  // A kPlantedFaults name whose bug the scenario's options enable; empty
  // runs the correct protocol.
  std::string fault;
  // core-multiwindow geometry: in-flight capture windows and commit-shard
  // epoch domains (CrpmOptions::max_inflight_epochs / commit_shards).
  // Ignored by every other scenario.
  uint32_t mw_windows = 3;
  uint32_t mw_shards = 4;
  // Shard selection: keep event k iff k % shard_count == shard_index.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  // 0 = exhaustive. Otherwise a seeded sample of this many events, drawn
  // proportionally per site tag (every site keeps at least one event).
  uint64_t sample = 0;
  // Hard cap applied after sharding/sampling (0 = none); CI smoke budget.
  uint64_t max_events = 0;
};

// The planted ordering bugs the harness self-tests against: `--fault
// NAME` sets `field` in the scenario's options. Scenarios whose protocol
// has the broken step must catch it; the others never reach that step.
struct PlantedFault {
  const char* name;
  bool CrpmOptions::*field;
};
inline constexpr PlantedFault kPlantedFaults[] = {
    // The seg_state flip is persisted before the CoW data copy is fenced.
    {"flip-before-copy", &CrpmOptions::test_fault_flip_before_copy},
    // The async write-hook steal skips its flush and image snapshot
    // (core-async, core-multiwindow).
    {"skip-steal-copy", &CrpmOptions::test_fault_skip_steal_copy},
    // A mid-epoch LOG->COW promotion skips flushing the segment pre-image
    // payload (core-adaptive).
    {"adaptive-skip-transition-flush",
     &CrpmOptions::test_fault_adaptive_skip_transition_flush},
};

// The kPlantedFaults entry called `name`, or null.
const PlantedFault* find_fault(const std::string& name);

// Pass-1 result: the ordered site tag of every persistence event.
struct EventCensus {
  std::vector<const char*> tags;
  // Events per injection domain, in the scenario's domain order; they sum
  // to tags.size().
  std::vector<uint64_t> domain_events;
  uint64_t total() const { return tags.size(); }
  std::map<std::string, uint64_t> per_site() const;
};

// One injected run's verdict.
struct RunOutcome {
  bool crash_fired = false;  // the armed event was actually reached
  bool violation = false;
  std::string detail;
};

struct Violation {
  uint64_t event_index = 0;
  std::string site;
  std::string detail;
};

struct ScenarioRow;  // one row of the scenario table (scenario.cpp)

// A scenario: its table row driven by the shared runner. Deterministic:
// enumerate() twice with the same config yields identical tag sequences,
// and run_crash_at() with the same (config, event) the same outcome.
class Scenario {
 public:
  explicit Scenario(const ScenarioRow& row) : row_(row) {}
  EventCensus enumerate(const MatrixConfig& cfg) const;
  // `census` is enumerate(cfg): it places `event` in its domain.
  RunOutcome run_crash_at(const MatrixConfig& cfg, const EventCensus& census,
                          uint64_t event) const;

 private:
  const ScenarioRow& row_;
};

// Null when no row is called `name`.
std::unique_ptr<Scenario> make_scenario(const std::string& name);
std::vector<std::string> scenario_names();

// Shard filter, then seeded stratified sample, then max_events cap.
// Returned indices ascend.
std::vector<uint64_t> select_events(const EventCensus& census,
                                    const MatrixConfig& cfg);

struct MatrixResult {
  EventCensus census;
  uint64_t events_selected = 0;
  uint64_t events_tested = 0;
  uint64_t crashes_fired = 0;
  std::vector<Violation> violations;
  std::map<std::string, uint64_t> tested_per_site;
};

using ProgressFn = std::function<void(uint64_t done, uint64_t total)>;

// Pass 1 + pass 2 over the selected events.
MatrixResult run_matrix(const MatrixConfig& cfg, ProgressFn progress = {});

// Greedy reproducer minimization: halve epochs, then ops_per_epoch, as
// long as a full re-sweep of the smaller scenario still violates; the
// returned config + event_index is the minimal failing single run.
struct ShrinkResult {
  MatrixConfig config;
  uint64_t event_index = 0;
  std::string site;
  std::string detail;
  uint64_t sweeps = 0;  // full matrices run while shrinking
};
bool shrink(const MatrixConfig& cfg, const Violation& v, ShrinkResult* out);

// The single command line that reproduces a violation.
std::string reproducer_command(const MatrixConfig& cfg, uint64_t event);

// JSON coverage report: config, per-site census vs tested counts, and any
// violations (with their reproducers).
bool write_json_report(const std::string& path, const MatrixConfig& cfg,
                       const MatrixResult& result, std::string* err);

const char* policy_name(CrashPolicy p);
bool parse_policy(const std::string& s, CrashPolicy* p);

// --- golden model and oracles, shared with property tests -----------------
// The runner's own workload, golden model and oracles, usable outside the
// crash harness (tests/async_property_test drives random op/capture/commit
// interleavings against them). Epoch e's stores are a pure function of
// (cfg.seed, e) and the scenario's workload, so golden_model(cfg, N).at[e]
// is the committed image of epoch e for any target that replayed epochs
// 1..e.

// cfg.scenario's options: the table's small geometry (every event stays
// enumerable) plus the row's changes and cfg.fault.
CrpmOptions scenario_options(const MatrixConfig& cfg);

struct GoldenModel {
  // writes[e] = epoch e's stores as (offset, value), in the order made.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> writes;
  std::vector<std::vector<uint8_t>> at;  // at[e] = committed image of epoch e
};
GoldenModel golden_model(const MatrixConfig& cfg, uint64_t max_epoch);

// Replays epoch `epoch`'s stores into `t` (a Container, an engines::Engine
// or the runner's target): annotate + store each, then root slot 0 =
// epoch.
template <typename T>
void apply_golden_epoch(const GoldenModel& g, T& t, uint64_t epoch) {
  for (const auto& [off, v] : g.writes[epoch]) {
    t.annotate(t.data() + off, sizeof v);
    std::memcpy(t.data() + off, &v, sizeof v);
  }
  t.set_root(0, epoch);
}

// Image + root oracle: `image` is bit-identical to golden epoch `epoch`
// and `root` (slot 0) carries `epoch`. `what` names the image in `why`.
bool matches_golden(const GoldenModel& g, uint64_t epoch,
                    const uint8_t* image, uint64_t root, const char* what,
                    std::string* why);

// Epoch window + image + root oracle after a reopen: the recovered
// `epoch` lies in [last_committed, last_committed + window] (a crash inside
// a checkpoint may have committed up to `window` epochs the run never saw
// committed) and its main region matches golden.
bool check_recovered(const GoldenModel& g, uint64_t last_committed,
                     uint64_t window, uint64_t epoch, const uint8_t* image,
                     uint64_t root, std::string* why);

}  // namespace crpm::chaos
