// Section 5.5: recovery time. Kill and restart the LULESH stand-in
// (libcrpm-Buffered) and measure the time to restore the working state.
//
// Paper shape to reproduce: recovery time proportional to the program
// state size (288 ms at 90^3 vs 515 ms at 110^3), with 43-56% of it spent
// making the working state consistent with the checkpoint state (region
// sync) and the remainder copying the main region into DRAM.
// Two additional production-recovery sections (gated in CI against
// bench/baseline.json):
//   restore_vs_serial  thread-CPU speedup of the chunk apply at 4 workers
//                      over the serial apply (sum of serial apply CPU
//                      over the parallel critical path, the largest
//                      per-shard CPU), on an archive big enough that the
//                      apply dominates.
//   ttfq               time-to-first-query of a lazy restore (start() +
//                      one faulting read) over the wall time of the full
//                      blocking restore_file of the same archive.
// CRPM_REC_ONLY=1 runs just these sections (the CI bench stage's mode);
// CRPM_REC_MB / CRPM_REC_EPOCHS / CRPM_REC_DIRTY_KB pin the archive
// shape.
#include <algorithm>
#include <cstring>
#include <filesystem>

#include "apps/miniapp.h"
#include "bench_common.h"
#include "snapshot/lazy_restore.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace crpm;
using namespace crpm::bench;

namespace {

// Archives `epochs` epochs of scattered dirty runs over a `mb`-MiB region
// and returns the archive path. Small segments (256 KiB) keep the shard
// count well above the worker count so the speedup section measures the
// sharding, not a two-segment fluke.
std::string build_recovery_archive(const std::filesystem::path& dir,
                                   uint64_t mb, uint64_t epochs,
                                   uint64_t dirty_kb, CrpmOptions* opt_out) {
  CrpmOptions o;
  o.segment_size = 256 * 1024;
  o.block_size = 256;
  o.main_region_size = mb << 20;
  *opt_out = o;
  const std::string snap = (dir / "rec.crpmsnap").string();
  auto c = Container::open(
      std::make_unique<HeapNvmDevice>(Container::required_device_size(o)), o);
  snapshot::ArchiveWriter w(snap);
  w.attach(*c);
  Xoshiro256 rng(4242);
  for (uint64_t e = 1; e <= epochs; ++e) {
    uint64_t left = dirty_kb << 10;
    while (left > 0) {
      uint64_t len = std::min<uint64_t>(left, 4096 + rng.next_below(60000));
      uint64_t off = rng.next_below(o.main_region_size - len);
      c->annotate(c->data() + off, len);
      std::memset(c->data() + off, static_cast<int>(e + (off >> 12)),
                  len);
      left -= len;
    }
    c->set_root(0, e);
    c->checkpoint();
  }
  w.drain();
  c->set_epoch_sink(nullptr);
  return snap;
}

void run_restore_sections(JsonReport& json) {
  const uint64_t mb = env_u64("CRPM_REC_MB", 32);
  const uint64_t epochs = env_u64("CRPM_REC_EPOCHS", 6);
  const uint64_t dirty_kb = env_u64("CRPM_REC_DIRTY_KB", 4096);
  auto dir = std::filesystem::temp_directory_path() / "crpm_bench_rec_par";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CrpmOptions opt;
  const std::string snap =
      build_recovery_archive(dir, mb, epochs, dirty_kb, &opt);

  // Serial apply: the baseline both ratios are built on. Thread CPU from
  // RestorePerf makes the speedup meaningful on loaded shared runners.
  std::vector<uint8_t> image;
  std::array<uint64_t, kNumRoots> roots{};
  std::string err;
  snapshot::RestorePerf serial_perf;
  if (!snapshot::read_state(snap, epochs, &image, &roots, &err, 0,
                            &serial_perf)) {
    std::fprintf(stderr, "serial read_state: %s\n", err.c_str());
    return;
  }
  const double serial_ms = serial_perf.apply_ns_total / 1e6;

  std::printf("\nparallel restore apply vs serial (thread CPU, %lluMiB "
              "region, %llu epochs)\n",
              (unsigned long long)mb, (unsigned long long)epochs);
  TablePrinter t({"workers", "apply CPU(ms)", "critical(ms)", "speedup"});
  t.row().cell(uint64_t{1}).cell(serial_ms, 2).cell(serial_ms, 2).cell(1.0,
                                                                       2);
  for (uint32_t workers : {2u, 4u, 8u}) {
    snapshot::RestorePerf perf;
    std::vector<uint8_t> pimage;
    std::array<uint64_t, kNumRoots> proots{};
    if (!snapshot::read_state(snap, epochs, &pimage, &proots, &err, workers,
                              &perf)) {
      std::fprintf(stderr, "parallel read_state: %s\n", err.c_str());
      return;
    }
    const double crit_ms = perf.apply_ns_critical / 1e6;
    const double speedup = crit_ms > 0 ? serial_ms / crit_ms : 0.0;
    t.row()
        .cell(uint64_t{workers})
        .cell(perf.apply_ns_total / 1e6, 2)
        .cell(crit_ms, 2)
        .cell(speedup, 2);
    json.row()
        .col("kind", "restore_vs_serial")
        .col("workers", uint64_t{workers})
        .col("serial_apply_ms", serial_ms)
        .col("critical_ms", crit_ms)
        .col("speedup_vs_serial", speedup);
  }
  t.print();

  // Full blocking restore (what a non-lazy reattach pays) vs the lazy
  // time-to-first-query: start() + one faulting read.
  const std::string ctr = (dir / "restored.ctr").string();
  Stopwatch full_sw;
  auto rr = snapshot::restore_file(snap, epochs, ctr, opt);
  const double full_ms = full_sw.elapsed_sec() * 1e3;
  if (rr.container == nullptr) {
    std::fprintf(stderr, "restore_file: %s\n", rr.error.c_str());
    return;
  }
  rr.container.reset();

  Stopwatch lazy_sw;
  auto lz = snapshot::restore_lazy(snap, epochs, opt);
  if (!lz->ok()) {
    std::fprintf(stderr, "restore_lazy: %s\n", lz->error().c_str());
    return;
  }
  volatile uint8_t first = lz->data()[0];  // materializes chunk 0
  (void)first;
  const double ttfq_ms = lazy_sw.elapsed_sec() * 1e3;
  const double ratio = full_ms > 0 ? ttfq_ms / full_ms : 0.0;

  std::printf("\ntime to first query: lazy restore vs full restore\n");
  TablePrinter t2({"full restore(ms)", "lazy TTFQ(ms)", "ratio"});
  t2.row().cell(full_ms, 2).cell(ttfq_ms, 2).cell(ratio, 3);
  t2.print();
  json.row()
      .col("kind", "ttfq")
      .col("full_restore_ms", full_ms)
      .col("time_to_first_query_ms", ttfq_ms)
      .col("ttfq_vs_full", ratio);
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json(json_out_path(argc, argv), "bench_recovery");

  if (env_u64("CRPM_REC_ONLY", 0) != 0) {
    run_restore_sections(json);
    return json.write() ? 0 : 1;
  }

  BenchScale scale;
  scale.print("Section 5.5: LULESH recovery time vs problem size");
  json.meta("ranks", scale.ranks).meta("cost", scale.cost);

  TablePrinter t({"size", "state", "recovery(ms)", "region sync",
                  "DRAM load", "sync share"});
  for (int size : {16, 24, 32}) {
    auto dir = std::filesystem::temp_directory_path() / "crpm_bench_rec";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    MiniAppConfig cfg;
    cfg.size = size;
    cfg.iterations = 10;
    cfg.ckpt_every = 5;
    cfg.store.backend = CkptBackend::kCrpmBuffered;
    cfg.store.dir = dir.string();
    cfg.store.capacity_bytes = 0;  // size to the program state
    cfg.store.cost_model =
        scale.cost ? CostModel::realistic() : CostModel::disabled();

    // First run: reach a committed checkpoint, then "die" (objects are
    // dropped without a final checkpoint, like a kill).
    MiniAppResult first = run_lulesh_proxy(cfg);

    // Restart: the constructor performs recovery; run 0 more iterations.
    cfg.iterations = 10;  // already complete; measures pure recovery
    MiniAppResult second = run_lulesh_proxy(cfg);

    double sync_ms = second.recovery_sync_s * 1e3;
    double total_ms = second.recovery_s * 1e3;
    double load_ms = total_ms - sync_ms;
    char share[32];
    std::snprintf(share, sizeof(share), "%.0f%%",
                  total_ms > 0 ? 100.0 * sync_ms / total_ms : 0.0);
    char sz[32];
    std::snprintf(sz, sizeof(sz), "%d^3", size);
    t.row()
        .cell(sz)
        .cell(format_bytes(first.state_bytes))
        .cell(total_ms, 2)
        .cell(sync_ms, 2)
        .cell(load_ms, 2)
        .cell(share);
    json.row()
        .col("kind", "buffered")
        .col("size", uint64_t(size))
        .col("state_bytes", first.state_bytes)
        .col("recovery_ms", total_ms)
        .col("sync_ms", sync_ms)
        .col("dram_load_ms", load_ms);
    std::filesystem::remove_all(dir);
  }
  t.print();

  // libcrpm-Default: recovery is region sync only ("copies data in the
  // main region to DRAM ... is not used in libcrpm-Default", Section 5.5).
  std::printf("\nlibcrpm-Default container recovery (region sync only)\n");
  {
    TablePrinter t2({"container", "dirty segs at crash", "recovery(ms)"});
    for (uint64_t mb : {8, 32, 128}) {
      CrpmOptions o;
      o.main_region_size = mb << 20;
      o.eager_cow_segments = 0;
      HeapNvmDevice dev(Container::required_device_size(o));
      dev.set_cost_model(scale.cost ? CostModel::realistic()
                                    : CostModel::disabled());
      uint64_t touched = 0;
      {
        auto ctr = Container::open(&dev, o);
        // Two epochs so every touched segment is paired and mid-epoch
        // modified (worst case: every pairing needs a full-segment sync).
        for (int e = 0; e < 2; ++e) {
          for (uint64_t off = 0; off < o.main_region_size;
               off += o.segment_size) {
            ctr->annotate(ctr->data() + off, 8);
            ctr->data()[off] = uint8_t(e + 1);
          }
          ctr->checkpoint();
        }
        for (uint64_t off = 0; off < o.main_region_size;
             off += o.segment_size) {
          ctr->annotate(ctr->data() + off, 8);
          ctr->data()[off] = 9;  // uncommitted epoch, then "crash"
          ++touched;
        }
      }
      Stopwatch sw;
      auto ctr = Container::open(&dev, o);
      double ms = sw.elapsed_sec() * 1e3;
      t2.row()
          .cell(format_bytes(mb << 20))
          .cell(touched)
          .cell(ms, 2);
      json.row()
          .col("kind", "default")
          .col("main_region_mb", mb)
          .col("dirty_segments", touched)
          .col("recovery_ms", ms);
    }
    t2.print();
  }
  run_restore_sections(json);
  return json.write() ? 0 : 1;
}
