// Matrix driver: event selection, pass-2 loop, shrinking, JSON report.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "chaos/chaos.h"
#include "util/logging.h"
#include "util/rng.h"

namespace crpm::chaos {

std::map<std::string, uint64_t> EventCensus::per_site() const {
  std::map<std::string, uint64_t> m;
  for (const char* t : tags) ++m[t != nullptr ? t : "untagged"];
  return m;
}

const char* policy_name(CrashPolicy p) {
  switch (p) {
    case CrashPolicy::kDropPending:
      return "drop";
    case CrashPolicy::kCommitPending:
      return "commit";
    case CrashPolicy::kRandomPending:
      return "random";
  }
  return "drop";
}

bool parse_policy(const std::string& s, CrashPolicy* p) {
  if (s == "drop") {
    *p = CrashPolicy::kDropPending;
  } else if (s == "commit") {
    *p = CrashPolicy::kCommitPending;
  } else if (s == "random") {
    *p = CrashPolicy::kRandomPending;
  } else {
    return false;
  }
  return true;
}

std::vector<uint64_t> select_events(const EventCensus& census,
                                    const MatrixConfig& cfg) {
  std::vector<uint64_t> picked;
  for (uint64_t k = 0; k < census.total(); ++k) {
    if (cfg.shard_count > 1 && k % cfg.shard_count != cfg.shard_index) {
      continue;
    }
    picked.push_back(k);
  }

  if (cfg.sample != 0 && cfg.sample < picked.size()) {
    // Stratified: group the shard's events by site, give each site a
    // proportional quota (at least 1 — rare sites like "ckpt.commit" are
    // exactly the ones worth hitting), draw that many with a seeded
    // partial Fisher-Yates so the pick is a pure function of the config.
    std::map<std::string, std::vector<uint64_t>> by_site;
    for (uint64_t k : picked) {
      const char* t = census.tags[k];
      by_site[t != nullptr ? t : "untagged"].push_back(k);
    }
    Xoshiro256 rng(cfg.seed ^ 0x5e1ec7edc0ffee11ULL);
    std::vector<uint64_t> sampled;
    for (auto& [site, events] : by_site) {
      uint64_t quota = std::max<uint64_t>(
          1, cfg.sample * events.size() / picked.size());
      quota = std::min<uint64_t>(quota, events.size());
      for (uint64_t i = 0; i < quota; ++i) {
        uint64_t j = i + rng.next_below(events.size() - i);
        std::swap(events[i], events[j]);
        sampled.push_back(events[i]);
      }
    }
    std::sort(sampled.begin(), sampled.end());
    picked = std::move(sampled);
  }

  if (cfg.max_events != 0 && picked.size() > cfg.max_events) {
    // Evenly-spaced stride keeps coverage spread over the whole run
    // instead of truncating to its prologue.
    std::vector<uint64_t> capped;
    capped.reserve(cfg.max_events);
    for (uint64_t i = 0; i < cfg.max_events; ++i) {
      capped.push_back(picked[i * picked.size() / cfg.max_events]);
    }
    picked = std::move(capped);
  }
  return picked;
}

MatrixResult run_matrix(const MatrixConfig& cfg, ProgressFn progress) {
  auto scenario = make_scenario(cfg.scenario);
  CRPM_CHECK(scenario != nullptr, "unknown scenario '%s'",
             cfg.scenario.c_str());
  MatrixResult r;
  r.census = scenario->enumerate(cfg);
  std::vector<uint64_t> events = select_events(r.census, cfg);
  r.events_selected = events.size();
  for (uint64_t k : events) {
    const char* tag = r.census.tags[k];
    const std::string site = tag != nullptr ? tag : "untagged";
    RunOutcome out = scenario->run_crash_at(cfg, r.census, k);
    ++r.events_tested;
    ++r.tested_per_site[site];
    if (out.crash_fired) ++r.crashes_fired;
    if (out.violation) r.violations.push_back({k, site, out.detail});
    if (progress) progress(r.events_tested, r.events_selected);
  }
  return r;
}

namespace {

// Full exhaustive sweep of `cfg`, stopping at the first violation.
bool sweep_finds_violation(const Scenario& scenario, const MatrixConfig& cfg,
                           Violation* v, uint64_t* sweeps) {
  ++*sweeps;
  EventCensus census = scenario.enumerate(cfg);
  for (uint64_t k = 0; k < census.total(); ++k) {
    RunOutcome out = scenario.run_crash_at(cfg, census, k);
    if (out.violation) {
      v->event_index = k;
      v->site = census.tags[k] != nullptr ? census.tags[k] : "untagged";
      v->detail = out.detail;
      return true;
    }
  }
  return false;
}

}  // namespace

bool shrink(const MatrixConfig& cfg, const Violation& v, ShrinkResult* out) {
  // Normalize away selection state: the reproducer must stand alone.
  MatrixConfig best = cfg;
  best.shard_index = 0;
  best.shard_count = 1;
  best.sample = 0;
  best.max_events = 0;
  Violation best_v = v;
  out->sweeps = 0;

  auto scenario = make_scenario(best.scenario);
  if (scenario == nullptr) return false;

  // Greedily halve each workload dimension while an exhaustive sweep of
  // the smaller scenario still finds a violation (its event index moves,
  // so each candidate is re-swept from scratch).
  for (;;) {
    MatrixConfig cand = best;
    cand.epochs = best.epochs / 2;
    if (cand.epochs == 0) break;
    Violation cv;
    if (!sweep_finds_violation(*scenario, cand, &cv, &out->sweeps)) break;
    best = cand;
    best_v = cv;
  }
  for (;;) {
    MatrixConfig cand = best;
    cand.ops_per_epoch = best.ops_per_epoch / 2;
    if (cand.ops_per_epoch == 0) break;
    Violation cv;
    if (!sweep_finds_violation(*scenario, cand, &cv, &out->sweeps)) break;
    best = cand;
    best_v = cv;
  }

  out->config = best;
  out->event_index = best_v.event_index;
  out->site = best_v.site;
  out->detail = best_v.detail;
  return true;
}

std::string reproducer_command(const MatrixConfig& cfg, uint64_t event) {
  std::string cmd = "crpm_crashmatrix --scenario " + cfg.scenario +
                    " --seed " + std::to_string(cfg.seed) + " --epochs " +
                    std::to_string(cfg.epochs) + " --ops " +
                    std::to_string(cfg.ops_per_epoch) + " --policy " +
                    policy_name(cfg.policy);
  if (!cfg.fault.empty()) cmd += " --fault " + cfg.fault;
  if (cfg.scenario == "core-multiwindow") {
    cmd += " --mw-windows " + std::to_string(cfg.mw_windows) +
           " --mw-shards " + std::to_string(cfg.mw_shards);
  }
  cmd += " --crash-at " + std::to_string(event);
  return cmd;
}

namespace {

void json_escape(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void kv(std::string* out, const char* key, const std::string& value,
        bool last = false) {
  *out += "    \"";
  *out += key;
  *out += "\": \"";
  json_escape(out, value);
  *out += last ? "\"\n" : "\",\n";
}

void kv(std::string* out, const char* key, uint64_t value,
        bool last = false) {
  *out += "    \"";
  *out += key;
  *out += "\": " + std::to_string(value) + (last ? "\n" : ",\n");
}

}  // namespace

bool write_json_report(const std::string& path, const MatrixConfig& cfg,
                       const MatrixResult& result, std::string* err) {
  std::string j = "{\n  \"config\": {\n";
  kv(&j, "scenario", cfg.scenario);
  kv(&j, "seed", cfg.seed);
  kv(&j, "epochs", cfg.epochs);
  kv(&j, "ops_per_epoch", cfg.ops_per_epoch);
  kv(&j, "policy", std::string(policy_name(cfg.policy)));
  kv(&j, "fault", cfg.fault);
  kv(&j, "mw_windows", cfg.mw_windows);
  kv(&j, "mw_shards", cfg.mw_shards);
  kv(&j, "shard_index", cfg.shard_index);
  kv(&j, "shard_count", cfg.shard_count);
  kv(&j, "sample", cfg.sample);
  kv(&j, "max_events", cfg.max_events, /*last=*/true);
  j += "  },\n";

  j += "  \"events_total\": " + std::to_string(result.census.total()) +
       ",\n";
  j += "  \"events_selected\": " + std::to_string(result.events_selected) +
       ",\n";
  j += "  \"events_tested\": " + std::to_string(result.events_tested) +
       ",\n";
  j += "  \"crashes_fired\": " + std::to_string(result.crashes_fired) +
       ",\n";

  auto census = result.census.per_site();
  j += "  \"sites\": {\n";
  size_t i = 0;
  for (const auto& [site, count] : census) {
    auto it = result.tested_per_site.find(site);
    uint64_t tested = it != result.tested_per_site.end() ? it->second : 0;
    j += "    \"";
    json_escape(&j, site);
    j += "\": {\"events\": " + std::to_string(count) +
         ", \"tested\": " + std::to_string(tested) + "}";
    j += (++i == census.size()) ? "\n" : ",\n";
  }
  j += "  },\n";

  j += "  \"violations\": [\n";
  for (size_t k = 0; k < result.violations.size(); ++k) {
    const Violation& v = result.violations[k];
    j += "    {\"event\": " + std::to_string(v.event_index) + ", \"site\": \"";
    json_escape(&j, v.site);
    j += "\", \"detail\": \"";
    json_escape(&j, v.detail);
    j += "\", \"reproducer\": \"";
    json_escape(&j, reproducer_command(cfg, v.event_index));
    j += "\"}";
    j += (k + 1 == result.violations.size()) ? "\n" : ",\n";
  }
  j += "  ]\n}\n";

  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    *err = "cannot open " + path;
    return false;
  }
  f << j;
  f.flush();
  if (!f) {
    *err = "write failed for " + path;
    return false;
  }
  return true;
}

}  // namespace crpm::chaos
