// crpm_crashmatrix: exhaustive crash-point matrix driver.
//
//   crpm_crashmatrix --scenario core                 full matrix
//   crpm_crashmatrix --scenario core --count         pass 1 census only
//   crpm_crashmatrix --scenario core --crash-at 117  one injected run
//   crpm_crashmatrix --shard 2/8 --sample 200        CI shard
//
// Exit status: 0 = all tested events recover cleanly, 1 = invariant
// violation (a minimal reproducer is printed unless --no-shrink),
// 64 = usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/chaos.h"

namespace {

using crpm::chaos::MatrixConfig;

void usage(FILE* out) {
  std::string scenarios, faults;
  for (const auto& n : crpm::chaos::scenario_names()) {
    scenarios += (scenarios.empty() ? "" : " | ") + n;
  }
  for (const auto& f : crpm::chaos::kPlantedFaults) {
    faults += (faults.empty() ? "" : " | ") + std::string(f.name);
  }
  std::fprintf(out,
               "usage: crpm_crashmatrix [options]\n"
               "  --scenario NAME   %s (default core)\n"
               "  --list            list scenarios and exit\n"
               "  --seed S          workload seed (default 1)\n"
               "  --epochs E        checkpoint epochs (default 3)\n"
               "  --ops N           writes per epoch (default 48)\n"
               "  --policy P        pending-line policy at the crash: drop |"
               " commit | random\n"
               "  --fault F         enable a planted bug: %s\n"
               "  --mw-windows K    core-multiwindow: in-flight capture "
               "windows (default 3)\n"
               "  --mw-shards S     core-multiwindow: commit-shard epoch "
               "domains (default 4)\n"
               "  --count           enumerate events only, print the census\n"
               "  --crash-at N      single injected run at event N\n"
               "  --shard I/N       test only events with index %% N == I\n"
               "  --sample K        stratified sample of K events per shard\n"
               "  --max-events K    hard cap after shard/sample (CI smoke)\n"
               "  --json PATH       write the coverage report to PATH\n"
               "  --no-shrink       print the raw reproducer, skip "
               "minimization\n",
               scenarios.c_str(), faults.c_str());
}

bool parse_u64(const char* s, uint64_t* v) {
  char* end = nullptr;
  *v = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  MatrixConfig cfg;
  bool count_only = false;
  bool single = false;
  bool no_shrink = false;
  uint64_t crash_at = 0;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(64);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else if (a == "--list") {
      for (const auto& n : crpm::chaos::scenario_names()) {
        std::printf("%s\n", n.c_str());
      }
      return 0;
    } else if (a == "--scenario") {
      cfg.scenario = need("--scenario");
    } else if (a == "--seed") {
      if (!parse_u64(need("--seed"), &cfg.seed)) return 64;
    } else if (a == "--epochs") {
      if (!parse_u64(need("--epochs"), &cfg.epochs)) return 64;
    } else if (a == "--ops") {
      if (!parse_u64(need("--ops"), &cfg.ops_per_epoch)) return 64;
    } else if (a == "--policy") {
      if (!crpm::chaos::parse_policy(need("--policy"), &cfg.policy)) {
        std::fprintf(stderr, "unknown policy (drop|commit|random)\n");
        return 64;
      }
    } else if (a == "--fault") {
      cfg.fault = need("--fault");
      if (crpm::chaos::find_fault(cfg.fault) == nullptr) {
        std::fprintf(stderr, "unknown fault '%s'\n", cfg.fault.c_str());
        return 64;
      }
    } else if (a == "--mw-windows") {
      uint64_t v = 0;
      if (!parse_u64(need("--mw-windows"), &v) || v == 0) return 64;
      cfg.mw_windows = static_cast<uint32_t>(v);
    } else if (a == "--mw-shards") {
      uint64_t v = 0;
      if (!parse_u64(need("--mw-shards"), &v) || v == 0) return 64;
      cfg.mw_shards = static_cast<uint32_t>(v);
    } else if (a == "--count") {
      count_only = true;
    } else if (a == "--crash-at") {
      if (!parse_u64(need("--crash-at"), &crash_at)) return 64;
      single = true;
    } else if (a == "--shard") {
      unsigned idx = 0;
      unsigned n = 0;
      if (std::sscanf(need("--shard"), "%u/%u", &idx, &n) != 2 || n == 0 ||
          idx >= n) {
        std::fprintf(stderr, "--shard wants I/N with I < N\n");
        return 64;
      }
      cfg.shard_index = idx;
      cfg.shard_count = n;
    } else if (a == "--sample") {
      if (!parse_u64(need("--sample"), &cfg.sample)) return 64;
    } else if (a == "--max-events") {
      if (!parse_u64(need("--max-events"), &cfg.max_events)) return 64;
    } else if (a == "--json") {
      json_path = need("--json");
    } else if (a == "--no-shrink") {
      no_shrink = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      usage(stderr);
      return 64;
    }
  }

  auto scenario = crpm::chaos::make_scenario(cfg.scenario);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                 cfg.scenario.c_str());
    return 64;
  }

  if (count_only) {
    crpm::chaos::EventCensus census = scenario->enumerate(cfg);
    std::printf("scenario %s: %llu persistence events\n",
                cfg.scenario.c_str(), (unsigned long long)census.total());
    for (const auto& [site, count] : census.per_site()) {
      std::printf("  %-18s %llu\n", site.c_str(),
                  (unsigned long long)count);
    }
    return 0;
  }

  if (single) {
    crpm::chaos::RunOutcome out =
        scenario->run_crash_at(cfg, scenario->enumerate(cfg), crash_at);
    std::printf("event %llu: crash %s, %s\n", (unsigned long long)crash_at,
                out.crash_fired ? "fired" : "did not fire",
                out.violation ? "VIOLATION" : "clean");
    if (out.violation) {
      std::printf("  %s\n", out.detail.c_str());
      return 1;
    }
    return 0;
  }

  crpm::chaos::MatrixResult result = crpm::chaos::run_matrix(
      cfg, [](uint64_t done, uint64_t total) {
        if (done % 64 == 0 || done == total) {
          std::fprintf(stderr, "\r  %llu/%llu", (unsigned long long)done,
                       (unsigned long long)total);
          if (done == total) std::fprintf(stderr, "\n");
        }
      });

  std::printf("scenario %s: %llu events, %llu tested, %llu crashes fired, "
              "%zu violations\n",
              cfg.scenario.c_str(),
              (unsigned long long)result.census.total(),
              (unsigned long long)result.events_tested,
              (unsigned long long)result.crashes_fired,
              result.violations.size());
  for (const auto& [site, tested] : result.tested_per_site) {
    std::printf("  %-18s %llu tested\n", site.c_str(),
                (unsigned long long)tested);
  }

  if (!json_path.empty()) {
    std::string err;
    if (!crpm::chaos::write_json_report(json_path, cfg, result, &err)) {
      std::fprintf(stderr, "json report: %s\n", err.c_str());
      return 64;
    }
  }

  if (result.violations.empty()) return 0;

  const crpm::chaos::Violation& v = result.violations.front();
  std::printf("\nVIOLATION at event %llu (site %s):\n  %s\n",
              (unsigned long long)v.event_index, v.site.c_str(),
              v.detail.c_str());
  if (no_shrink) {
    std::printf("reproducer: %s\n",
                crpm::chaos::reproducer_command(cfg, v.event_index).c_str());
    return 1;
  }
  crpm::chaos::ShrinkResult shrunk;
  if (crpm::chaos::shrink(cfg, v, &shrunk)) {
    std::printf("shrunk (%llu sweeps) to event %llu (site %s):\n  %s\n"
                "reproducer: %s\n",
                (unsigned long long)shrunk.sweeps,
                (unsigned long long)shrunk.event_index, shrunk.site.c_str(),
                shrunk.detail.c_str(),
                crpm::chaos::reproducer_command(shrunk.config,
                                                shrunk.event_index)
                    .c_str());
  } else {
    std::printf("reproducer: %s\n",
                crpm::chaos::reproducer_command(cfg, v.event_index).c_str());
  }
  return 1;
}
