// crpm_bench: the repository benchmark program (benchmark/BENCHMARK.md).
//
// Runs one workload for a fixed time and writes every metric it measured,
// end-to-end and per-layer, as a JsonReport (bench/bench_common.h) whose
// rows are {"metric", "value", "unit"}. Each layer is measured from
// outside: crpm_bench times calls into the layers' public entry points
// (net::Client, net::KvService, Container::checkpoint and its commit
// callback, ArchiveWriter's frame observer, ReplNode::newest_acked,
// snapshot::read_state / build_container_file, LazyRestorer) and reads the
// counters the layers already publish (CrpmStats, PersistStats,
// ArchiveWriterStats, ReplNodeStats, ChannelStats, RestorePerf).
//
//   crpm_bench --workload <kv-durable|kv-read|epoch-replicated|recover>
//              --seed <n> --seconds <s> --json <out> --work <dir>
//              [--trace <chrome.json>] [--smoke]
//
// --trace runs the per-layer probes, records spans (name, start, end,
// parent, id) in memory and writes them as Chrome trace-event JSON at
// exit. End-to-end numbers come from the run without --trace; the
// difference between the two runs is the tracing overhead. --smoke shrinks
// every workload to a few seconds for the ctest smoke check.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "comm/channel.h"
#include "core/container.h"
#include "net/client.h"
#include "net/kv_service.h"
#include "net/server.h"
#include "nvm/device.h"
#include "repl/replicator.h"
#include "snapshot/archive.h"
#include "snapshot/lazy_restore.h"
#include "snapshot/restore.h"
#include "snapshot/writer.h"
#include "util/rng.h"
#include "util/zipfian.h"

using namespace crpm;
namespace fs = std::filesystem;

namespace {

// --- clocks and statistics ------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point g_origin = Clock::now();

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           g_origin)
          .count());
}

void sleep_until_ns(uint64_t t) {
  const uint64_t n = now_ns();
  if (t > n) std::this_thread::sleep_for(std::chrono::nanoseconds(t - n));
}

void sleep_us(uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// Load generators and pollers run with a 1 ns timer slack so a timed
// wakeup lands within microseconds of its schedule instead of the default
// 50 us late; latency is timed from the schedule, so oversleeping would be
// charged to the system under test. Set per thread: the service's own
// threads keep the default.
void precise_timers() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// CPU time of the calling thread. The benchmark's own threads (load
// generators, pollers, the app's compute) are subtracted from the process
// CPU, so cpu_us_per_op counts only what the system under test spends.
double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

double pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const size_t i = static_cast<size_t>(p * double(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(i), v.end());
  return v[i];
}

double median(const std::vector<double>& v) { return pct(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / double(v.size());
}

double per(double num, double den) { return den != 0 ? num / den : 0; }

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

double ms(uint64_t ns) { return double(ns) / 1e6; }
double us(uint64_t ns) { return double(ns) / 1e3; }

// --- tracing ----------------------------------------------------------------

// One lane per layer, rendered as one named thread in the trace viewer.
enum Lane : int {
  kClient,
  kNet,
  kService,
  kCore,
  kSnapshot,
  kRepl,
  kRestore,
  kLanes
};
const char* const kLaneNames[kLanes] = {"client", "net",  "service", "core",
                                        "snapshot", "repl", "restore"};

// In-memory span recorder. A span is [start, end) on one steady clock,
// the identifier it shares with the other spans of one operation (op
// sequence number, epoch or rep) and the span that caused it.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  // Returns the new span's handle for its children (0 when tracing is off
  // or the buffer is full).
  uint64_t span(const char* name, Lane lane, uint64_t start, uint64_t end,
                uint64_t id, uint64_t parent = 0) {
    if (!on_) return 0;
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() >= kMaxSpans) return 0;
    spans_.push_back({name, lane, start, end, id, parent});
    return spans_.size();
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (int l = 0; l < kLanes; ++l) {
      std::fprintf(f,
                   "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n",
                   l, kLaneNames[l]);
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const uint64_t end = std::max(s.end, s.start);
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"span\":%zu,\"parent\":%llu}}%s\n",
                   s.name, s.lane, us(s.start), us(end - s.start),
                   (unsigned long long)s.id, i + 1,
                   (unsigned long long)s.parent,
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    Lane lane;
    uint64_t start, end, id, parent;
  };
  static constexpr size_t kMaxSpans = 4u << 20;

  bool on_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// --- run parameters and result ----------------------------------------------

struct Args {
  std::string workload, json, work, trace;
  uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
};

// Sizes that --smoke shrinks; everything else is fixed per workload.
struct Scale {
  // Set-ups per run (setup_s is their median). The kv and epoch workloads
  // measure an equal share of the run on each set-up: on a shared host two
  // fresh services differ in speed by more than one service does over a
  // run, so every run averages several.
  int trials = 3;
  uint64_t keys = 1000000;    // kv keyspace
  uint64_t capacity = 256ull << 20;  // kvd --capacity-mb default
  double warmup_s = 1.0;      // kv: open-loop warm-up per trial, excluded
  uint64_t region = 64ull << 20;     // epoch-replicated container
  uint64_t dirty = 2ull << 20;       // bytes dirtied per epoch
  double interval_ms = 20;           // epoch-replicated compute interval
  uint64_t warm_epochs = 20;         // per trial, excluded
  uint64_t rec_keys = 250000;        // recover keyspace
  uint64_t rec_capacity = 64ull << 20;
  uint64_t rec_epochs = 200;         // zipf update epochs in the data dir
  uint64_t rec_updates = 500;        // updates per epoch
  uint64_t rec_samples = 1000;       // keys checked per rep

  static Scale smoke() {
    Scale s;
    s.trials = 1;
    s.keys = 20000;
    s.capacity = 64ull << 20;
    s.warmup_s = 0.2;
    s.region = 8ull << 20;
    s.dirty = 256ull << 10;
    s.interval_ms = 5;
    s.warm_epochs = 5;
    s.rec_keys = 20000;
    s.rec_capacity = 16ull << 20;
    s.rec_epochs = 10;
    s.rec_updates = 100;
    s.rec_samples = 200;
    return s;
  }
};

class Result {
 public:
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return violations_ == 0; }

  void put(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  // A wrong output: counts against `correct` and is reported on stderr
  // (the first few of each run only).
  void violation(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    if (violations_.fetch_add(1) >= 10) return;
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "VIOLATION: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
  }

  bool write(const Args& a) const {
    bench::JsonReport json(a.json, "crpm_bench");
    json.meta("workload", a.workload)
        .meta("seed", a.seed)
        .meta("seconds", a.seconds)
        .meta("smoke", a.smoke)
        .meta("attempted", attempted)
        .meta("failed", failed)
        .meta("correct", correct());
    TablePrinter t({"metric", "value", "unit"});
    for (const auto& m : metrics_) {
      json.row().col("metric", m.name).col("value", m.value).col("unit",
                                                                  m.unit);
      t.row().cell(m.name).cell(m.value, 4).cell(m.unit);
    }
    t.print();
    std::printf("attempted=%llu failed=%llu correct=%s\n",
                (unsigned long long)attempted, (unsigned long long)failed,
                correct() ? "true" : "false");
    return json.write();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::atomic<uint64_t> violations_{0};
};

// Every workload reports every metric; a layer a workload bypasses reads 0.
// These are the per-layer metrics in BENCHMARK.json order, so each workload
// first zero-fills them and then overwrites what it measured.
class Layers {
 public:
  void set(const char* name, double v) {
    for (auto& m : m_) {
      if (std::strcmp(m.name, name) == 0) {
        m.value = v;
        return;
      }
    }
    std::fprintf(stderr, "internal: unknown per-layer metric %s\n", name);
    std::abort();
  }
  void emit(Result& r) const {
    for (const auto& m : m_) r.put(m.name, m.value, m.unit);
  }

 private:
  struct M {
    const char* name;
    const char* unit;
    double value;
  };
  std::vector<M> m_ = {
      {"client.max_late_ms", "ms", 0},
      {"client.primary_p99_us", "us", 0},
      {"trace.primary_p50_us", "us", 0},
      {"trace.unaccounted_share", "ratio", 0},
      {"net.rtt_get_us", "us", 0},
      {"net.service_get_us", "us", 0},
      {"net.transport_get_us", "us", 0},
      {"net.rtt_put_us", "us", 0},
      {"net.service_put_us", "us", 0},
      {"net.durable_wait_us_p50", "us", 0},
      {"net.durable_wait_us_p99", "us", 0},
      {"core.captures_per_s", "1/s", 0},
      {"core.capture_us", "us", 0},
      {"core.capture_us_p99", "us", 0},
      {"core.commit_ms", "ms", 0},
      {"core.commit_lag_ms", "ms", 0},
      {"core.backpressure_ms_per_s", "ms/s", 0},
      {"core.steals_per_epoch", "count", 0},
      {"core.cow_per_epoch", "count", 0},
      {"core.flush_bytes_per_epoch", "B", 0},
      {"core.flush_crit_ms_per_epoch", "ms", 0},
      {"core.reopen_ms", "ms", 0},
      {"nvm.sfence_per_epoch", "count", 0},
      {"nvm.clwb_per_epoch", "count", 0},
      {"nvm.media_bytes_per_epoch", "B", 0},
      {"snapshot.stage_ms_per_epoch", "ms", 0},
      {"snapshot.queue_stall_ms_per_s", "ms/s", 0},
      {"snapshot.archive_ms", "ms", 0},
      {"snapshot.archive_lag_ms", "ms", 0},
      {"snapshot.scan_ms", "ms", 0},
      {"snapshot.lazy_first_get_ms", "ms", 0},
      {"snapshot.lazy_finish_ms", "ms", 0},
      {"snapshot.image_ms", "ms", 0},
      {"snapshot.apply_crit_ms", "ms", 0},
      {"snapshot.build_file_ms", "ms", 0},
      {"snapshot.attach_ms", "ms", 0},
      {"tier.bytes_per_epoch", "B", 0},
      {"tier.coded_ratio", "ratio", 0},
      {"tier.epochs_per_batch", "count", 0},
      {"tier.fsyncs_per_epoch", "count", 0},
      {"repl.ack_ms_p50", "ms", 0},
      {"repl.ack_ms_p99", "ms", 0},
      {"repl.wire_bytes_per_epoch", "B", 0},
      {"repl.retries_per_frame", "count", 0},
      {"repl.queue_stall_ms_per_s", "ms/s", 0},
      {"comm.msgs_per_epoch", "count", 0},
      {"scrub.cpu_ms_per_s", "ms/s", 0},
      {"scrub.bytes_per_s", "B/s", 0},
  };
};

// End-to-end metrics shared by all workloads; each workload documents what
// its primary and secondary operations are (BENCHMARK.md). The tail is p90:
// on a shared host p99 moves by several times from run to run, so it is
// reported per layer (client.primary_p99_us) without a bound.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> primary_us, secondary_us;
  double cpu_s = 0;
  uint64_t ops = 0;
  double stored_bytes = 0, user_bytes = 0;

  void emit(Result& r, Layers& L) const {
    L.set("client.primary_p99_us", pct(primary_us, 0.99));
    L.set("trace.primary_p50_us", median(primary_us));
    r.put("setup_s", median(setup_s), "s");
    r.put("primary_p50_us", median(primary_us), "us");
    r.put("primary_p90_us", pct(primary_us, 0.90), "us");
    r.put("secondary_p50_us", median(secondary_us), "us");
    r.put("cpu_us_per_op", per(cpu_s * 1e6, double(ops)), "us");
    r.put("storage_bytes_per_user_byte", per(stored_bytes, user_bytes),
          "B/B");
  }
};

// Counters the layers publish, sampled at the edges of a measured window.
struct Counters {
  CrpmStatsSnapshot crpm;
  PersistStatsSnapshot nvm;
  snapshot::ArchiveWriterStats arch{};

  static Counters of(Container& c, snapshot::ArchiveWriter* w) {
    Counters s;
    s.crpm = c.stats().snapshot();
    s.nvm = c.device()->stats().snapshot();
    if (w != nullptr) s.arch = w->writer_stats();
    return s;
  }
};

// What the per-layer metrics read from those counters, summed over one or
// more windows.
struct Window {
  double captures = 0, capture_ns = 0, backpressure_ns = 0, steals = 0,
         cows = 0, flush_bytes = 0, flush_crit_ns = 0, stage_ns = 0,
         stall_ns = 0, scrub_ns = 0, scrub_bytes = 0;
  double sfence = 0, clwb = 0, media_bytes = 0;
  double frames = 0, bytes = 0, raw_bytes = 0, batches = 0, fsyncs = 0;

  void add(const Counters& a, const Counters& b) {
    const CrpmStatsSnapshot d = b.crpm - a.crpm;
    const PersistStatsSnapshot n = b.nvm - a.nvm;
    captures += double(d.async_captures);
    capture_ns += double(d.async_capture_ns);
    backpressure_ns += double(d.async_backpressure_ns);
    steals += double(d.async_steal_copies);
    cows += double(d.cow_count);
    flush_bytes += double(d.async_flush_bytes);
    flush_crit_ns += double(d.async_flush_crit_ns);
    stage_ns += double(d.archive_capture_ns);
    stall_ns += double(d.archive_stall_ns);
    scrub_ns += double(d.scrub_ns);
    scrub_bytes += double(d.scrub_bytes_checked);
    sfence += double(n.sfence);
    clwb += double(n.clwb);
    media_bytes += double(n.media_write_bytes);
    frames += double(b.arch.epochs_appended - a.arch.epochs_appended);
    bytes += double(b.arch.bytes_appended - a.arch.bytes_appended);
    raw_bytes += double(b.arch.raw_bytes - a.arch.raw_bytes);
    batches += double(b.arch.batches - a.arch.batches);
    fsyncs += double(b.arch.fsyncs - a.arch.fsyncs);
  }

  // The core, nvm, snapshot-staging, tier and scrub metrics, per epoch
  // (one async capture is one epoch) or per second of the window.
  void report(double seconds, Layers& L) const {
    L.set("core.captures_per_s", per(captures, seconds));
    L.set("core.capture_us", per(capture_ns / 1e3, captures));
    L.set("core.backpressure_ms_per_s", per(backpressure_ns / 1e6, seconds));
    L.set("core.steals_per_epoch", per(steals, captures));
    L.set("core.cow_per_epoch", per(cows, captures));
    L.set("core.flush_bytes_per_epoch", per(flush_bytes, captures));
    L.set("core.flush_crit_ms_per_epoch", per(flush_crit_ns / 1e6, captures));
    L.set("nvm.sfence_per_epoch", per(sfence, captures));
    L.set("nvm.clwb_per_epoch", per(clwb, captures));
    L.set("nvm.media_bytes_per_epoch", per(media_bytes, captures));
    L.set("snapshot.stage_ms_per_epoch", per(stage_ns / 1e6, captures));
    L.set("snapshot.queue_stall_ms_per_s", per(stall_ns / 1e6, seconds));
    L.set("tier.bytes_per_epoch", per(bytes, frames));
    L.set("tier.coded_ratio", per(bytes, raw_bytes));
    L.set("tier.epochs_per_batch", per(frames, batches));
    L.set("tier.fsyncs_per_epoch", per(fsyncs, frames));
    L.set("scrub.cpu_ms_per_s", per(scrub_ns / 1e6, seconds));
    L.set("scrub.bytes_per_s", per(scrub_bytes, seconds));
  }
};

// StateStore's archive_tier settings: lzb codec, four-epoch group commit
// with a 100 ms flush deadline, threaded writeback, a 32-frame queue.
void archive_tier(CrpmOptions& opt, const std::string& path) {
  opt.archive_path = path;
  opt.archive_codec = "lzb";
  opt.archive_group_epochs = 4;
  opt.archive_writeback = "threads";
  opt.archive_flush_deadline_us = 100'000;
  opt.archive_queue_depth = 32;
}

// Epoch -> the first time an event was seen for it; any thread may note.
struct EpochTimes {
  std::mutex mu;
  std::unordered_map<uint64_t, uint64_t> at;
  void note(uint64_t epoch, uint64_t t) {
    std::lock_guard<std::mutex> lk(mu);
    at.emplace(epoch, t);
  }
  bool get(uint64_t epoch, uint64_t* t) {
    std::lock_guard<std::mutex> lk(mu);
    auto it = at.find(epoch);
    if (it == at.end()) return false;
    *t = it->second;
    return true;
  }
};

// --- kv-durable / kv-read ----------------------------------------------------

struct KvShape {
  double rate;       // reference rate, ops/s over all connections
  double get_share;  // remaining ops are PUTs
  bool durable;      // PUTs wait for the commit of their epoch
  bool zipf;         // scrambled zipf 0.99, else uniform
  uint32_t scrub_ms; // scrubber cadence, 0 = off
};

constexpr uint32_t kConns = 4;          // client connections = generator threads
constexpr uint32_t kServerWorkers = 2;  // epoll workers
constexpr uint64_t kUserBytesPerPut = 8 + 20;  // key + self-verifying value

// crpm_kvd serve --archive --archive-tier defaults.
net::KvService::Config kv_config(const std::string& dir, uint64_t capacity,
                                 uint32_t scrub_ms) {
  net::KvService::Config sc;
  sc.dir = dir;
  sc.capacity_bytes = capacity;
  sc.buckets = 65536;
  sc.interval_ms = 8;
  sc.async_workers = 1;
  sc.archive = true;
  sc.archive_tier = true;
  sc.scrub_interval_ms = scrub_ms;
  return sc;
}

// Fresh data dir, preload every key with stamp 0, commit, drain the archive.
std::unique_ptr<net::KvService> kv_preload(const net::KvService::Config& sc,
                                           uint64_t keys) {
  fs::remove_all(sc.dir);
  fs::create_directories(sc.dir);
  auto svc = std::make_unique<net::KvService>(sc);
  for (uint64_t k = 0; k < keys; ++k) svc->put(k, net::make_value(k, 0));
  svc->flush();
  if (auto* aw = svc->store().archive_writer()) aw->drain();
  return svc;
}

struct OpLog {
  std::vector<double> get_us, put_us;          // from the scheduled send
  std::vector<double> get_rtt_us, put_rtt_us;  // from the actual send
  uint64_t ops = 0, failed = 0, late_max_ns = 0;
  double cpu_s = 0;  // the generator threads' own CPU

  void append(const OpLog& o) {
    ::append(get_us, o.get_us);
    ::append(put_us, o.put_us);
    ::append(get_rtt_us, o.get_rtt_us);
    ::append(put_rtt_us, o.put_rtt_us);
    ops += o.ops;
    failed += o.failed;
    late_max_ns = std::max(late_max_ns, o.late_max_ns);
    cpu_s += o.cpu_s;
  }
};

class KvLoad {
 public:
  // Span ids are id_base | connection << 32 | op sequence number.
  KvLoad(const KvShape& shape, uint64_t keys, uint64_t seed, uint64_t id_base,
         uint16_t port, Tracer& tr, Result& res)
      : shape_(shape), keys_(keys), id_base_(id_base), port_(port), tr_(tr),
        res_(res), zipf_(keys, 0.99), acked_(keys, 0) {
    for (uint32_t c = 0; c < kConns; ++c) {
      conns_.push_back(std::make_unique<Conn>(seed * 7919 + c));
    }
  }

  // Newest stamp acknowledged per key (committed, for durable PUTs).
  const std::vector<uint64_t>& acked() const { return acked_; }

  // One open-loop phase at the reference rate; the schedule never resets,
  // so a stall is charged to every op queued behind it.
  OpLog run(double seconds) {
    std::vector<OpLog> logs(kConns);
    const uint64_t start = now_ns() + 1000000;
    const uint64_t end = start + uint64_t(seconds * 1e9);
    std::vector<std::thread> ts;
    for (uint32_t c = 0; c < kConns; ++c) {
      ts.emplace_back([&, c] { conn_loop(c, start, end, logs[c]); });
    }
    for (auto& t : ts) t.join();
    OpLog all;
    for (const auto& l : logs) all.append(l);
    return all;
  }

 private:
  struct Conn {
    explicit Conn(uint64_t seed) : rng(seed) {}
    net::Client cl;
    Xoshiro256 rng;
    uint64_t stamp = 0;  // per-connection, so a key's stamps only rise
    uint64_t seq = 0;
  };

  // Connection c owns the keys congruent to c, so one connection's acks
  // for a key are totally ordered and "newest acked" is well defined.
  uint64_t pick_key(Conn& cn, uint32_t c) {
    uint64_t k = shape_.zipf ? zipf_.next(cn.rng) : cn.rng.next_below(keys_);
    k = k - k % kConns + c;
    return k < keys_ ? k : k - kConns;
  }

  void conn_loop(uint32_t c, uint64_t start, uint64_t end, OpLog& log) {
    precise_timers();
    const double cpu0 = thread_cpu_seconds();
    conn_ops(c, start, end, log);
    log.cpu_s = thread_cpu_seconds() - cpu0;
  }

  void conn_ops(uint32_t c, uint64_t start, uint64_t end, OpLog& log) {
    Conn& cn = *conns_[c];
    if (!cn.cl.connected() && !cn.cl.connect("127.0.0.1", port_)) {
      ++log.failed;
      return;
    }
    const uint64_t interval = uint64_t(1e9 * kConns / shape_.rate);
    const size_t expect = size_t(double(end - start) / double(interval)) + 8;
    log.get_us.reserve(expect);
    log.put_us.reserve(expect);
    for (uint64_t sched = start + c * interval / kConns; sched < end;
         sched += interval) {
      sleep_until_ns(sched);
      const uint64_t t_send = now_ns();
      log.late_max_ns = std::max(log.late_max_ns, t_send - sched);
      const uint64_t key = pick_key(cn, c);
      const bool is_get = cn.rng.next_double() < shape_.get_share;
      bool sent, ok;  // the transport worked; the reply was also right
      if (is_get) {
        net::KvVal v;
        net::Status st = net::kServerError;
        sent = cn.cl.get(key, &v, &st);
        uint64_t stamp = 0;
        ok = sent && st == net::kOk && net::check_value(v, key, &stamp) &&
             stamp >= acked_[key];
        if (sent && !ok) {
          res_.violation("GET %llu: status %u, stamp %llu < acked %llu or "
                         "torn value",
                         (unsigned long long)key, unsigned(st),
                         (unsigned long long)stamp,
                         (unsigned long long)acked_[key]);
        }
      } else {
        const uint64_t stamp = ++cn.stamp;
        uint64_t tag = 0;
        sent = ok = cn.cl.put(key, net::make_value(key, stamp),
                              shape_.durable, &tag);
        if (ok) acked_[key] = stamp;
      }
      const uint64_t t_done = now_ns();
      ++log.ops;
      if (!ok) {
        ++log.failed;
        if (!sent) cn.cl.connect("127.0.0.1", port_, 1000);
        continue;
      }
      (is_get ? log.get_us : log.put_us).push_back(us(t_done - sched));
      if (tr_.on()) {
        (is_get ? log.get_rtt_us : log.put_rtt_us).push_back(
            us(t_done - t_send));
        const uint64_t id = id_base_ | (uint64_t(c) << 32) | ++cn.seq;
        const uint64_t root = tr_.span(is_get ? "client.get" : "client.put",
                                       kClient, sched, t_done, id);
        tr_.span("net.rtt", kNet, t_send, t_done, id, root);
      }
    }
  }

  KvShape shape_;
  uint64_t keys_;
  uint64_t id_base_;
  uint16_t port_;
  Tracer& tr_;
  Result& res_;
  ScrambledZipfianGenerator zipf_;
  // Element k is written only by the connection owning key k.
  std::vector<uint64_t> acked_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

// Traced-run probes beside the load: direct KvService calls on sampled keys
// (service time, and the durable wait without the network) and a poller
// that timestamps each commit as committed_epoch() moves.
class KvProbes {
 public:
  KvProbes(net::KvService& svc, const KvShape& shape, uint64_t keys,
           uint64_t seed, Tracer& tr, Result& res)
      : svc_(svc), shape_(shape), keys_(keys), rng_(seed ^ 0x5eed), tr_(tr),
        res_(res) {}

  void start() {
    sampler_ = std::thread([this] { sample_loop(); });
    poller_ = std::thread([this] { poll_loop(); });
  }
  void stop() {
    stop_.store(true);
    sampler_.join();
    poller_.join();
  }

  std::vector<double> service_get_us, service_put_us, durable_wait_us;
  EpochTimes committed;
  double cpu_s = 0;  // both probe threads' own CPU

 private:
  void sample_loop() {
    precise_timers();
    const double cpu0 = thread_cpu_seconds();
    sample_ops();
    add_cpu(thread_cpu_seconds() - cpu0);
  }

  void add_cpu(double s) {
    std::lock_guard<std::mutex> lk(cpu_mu_);
    cpu_s += s;
  }

  void sample_ops() {
    uint64_t stamp = 0, i = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      net::KvVal v;
      const uint64_t k = rng_.next_below(keys_);
      const uint64_t t0 = now_ns();
      const bool found = svc_.get(k, &v);
      const uint64_t t1 = now_ns();
      if (!found || !net::check_value(v, k, nullptr)) {
        res_.violation("direct get %llu returned no valid value",
                       (unsigned long long)k);
      }
      service_get_us.push_back(us(t1 - t0));
      tr_.span("service.get", kService, t0, t1, ++i);
      // Probe keys lie above the load's keyspace, so the probe never races
      // a connection's ordered writes.
      const uint64_t pk = keys_ + (i % 4096);
      const uint64_t t2 = now_ns();
      const uint64_t tag = svc_.put(pk, net::make_value(pk, ++stamp));
      const uint64_t t3 = now_ns();
      service_put_us.push_back(us(t3 - t2));
      const uint64_t s = tr_.span("service.put", kService, t2, t3, i);
      if (shape_.durable) {
        // Park like a server worker does: sleep between checks rather than
        // spin, so the probe does not take the CPU the commit needs.
        svc_.kick();
        while (svc_.committed_epoch() < tag && now_ns() - t3 < 5000000000ull) {
          sleep_us(5);
        }
        const uint64_t t4 = now_ns();
        durable_wait_us.push_back(us(t4 - t3));
        tr_.span("core.durable_wait", kCore, t3, t4, i, s);
      }
      sleep_us(2000);
    }
  }

  void poll_loop() {
    precise_timers();
    const double cpu0 = thread_cpu_seconds();
    uint64_t last = svc_.committed_epoch();
    while (!stop_.load(std::memory_order_relaxed)) {
      const uint64_t e = svc_.committed_epoch();
      const uint64_t t = now_ns();
      for (; last < e; ++last) committed.note(last + 1, t);
      sleep_us(20);
    }
    add_cpu(thread_cpu_seconds() - cpu0);
  }

  net::KvService& svc_;
  KvShape shape_;
  uint64_t keys_;
  Xoshiro256 rng_;
  Tracer& tr_;
  Result& res_;
  std::mutex cpu_mu_;
  std::atomic<bool> stop_{false};
  std::thread sampler_, poller_;
};

// What a kv run accumulates over its trials.
struct KvTotals {
  OpLog log;
  Window win;
  double seconds = 0, cpu_s = 0, stored_bytes = 0;
  std::vector<double> service_get_us, service_put_us, durable_wait_us,
      archive_ms;
};

// One trial: a fresh data dir, preloaded (timed as set-up) and served;
// warm-up; `seconds` measured; then a stop without a final flush, exactly
// like a crash, and for durable PUTs a reopen that checks every
// acknowledged write reads back untorn at its stamp or newer.
void kv_trial(const Args& a, const Scale& sc, const KvShape& shape, int trial,
              double seconds, EndToEnd& e2e, KvTotals& tot, Result& res,
              Tracer& tr) {
  const net::KvService::Config cfg =
      kv_config(a.work + "/kv", sc.capacity, shape.scrub_ms);
  const uint64_t t_setup = now_ns();
  auto svc = kv_preload(cfg, sc.keys);
  e2e.setup_s.push_back(double(now_ns() - t_setup) / 1e9);
  std::printf("trial %d: set-up %.2fs\n", trial, e2e.setup_s.back());

  net::ServerConfig nc;
  nc.workers = kServerWorkers;
  auto server = std::make_unique<net::Server>(*svc, nc);
  std::string err;
  if (!server->start(&err)) {
    res.violation("server did not start: %s", err.c_str());
    return;
  }
  const uint64_t seed = a.seed * 1000 + uint64_t(trial);
  KvLoad load(shape, sc.keys, seed, uint64_t(trial) << 40, server->port(),
              tr, res);
  load.run(sc.warmup_s);

  Container& ctr = *svc->store().container();
  snapshot::ArchiveWriter* aw = svc->store().archive_writer();
  EpochTimes archived;
  std::unique_ptr<KvProbes> probes;
  if (tr.on()) {
    aw->set_frame_observer(
        [&archived](uint64_t e, uint32_t, const uint8_t*, size_t) {
          archived.note(e, now_ns());
        });
    probes = std::make_unique<KvProbes>(*svc, shape, sc.keys, seed, tr, res);
    probes->start();
  }
  const Counters c0 = Counters::of(ctr, aw);
  const double cpu0 = cpu_seconds();
  const uint64_t t0 = now_ns();
  const OpLog log = load.run(seconds);
  tot.seconds += double(now_ns() - t0) / 1e9;
  const double cpu = cpu_seconds() - cpu0;
  if (probes) probes->stop();
  aw->drain();
  const Counters c1 = Counters::of(ctr, aw);
  aw->set_frame_observer({});
  tot.win.add(c0, c1);
  tot.log.append(log);
  tot.cpu_s += cpu - log.cpu_s - (probes ? probes->cpu_s : 0);
  tot.stored_bytes += double(c1.arch.bytes_appended - c0.arch.bytes_appended);
  if (probes) {
    append(tot.service_get_us, probes->service_get_us);
    append(tot.service_put_us, probes->service_put_us);
    append(tot.durable_wait_us, probes->durable_wait_us);
    // Commit to durable archive frame, per epoch. Captures and commits
    // take microseconds here, below what a poller resolves, so kv reports
    // them through core.capture_us and the durable wait instead.
    for (auto& [e, tc] : probes->committed.at) {
      uint64_t tarc = 0;
      if (!archived.get(e, &tarc)) continue;
      tot.archive_ms.push_back((double(tarc) - double(tc)) / 1e6);
      tr.span("snapshot.archive", kSnapshot, tc, tarc,
              (uint64_t(trial) << 40) | e);
    }
  }

  server->stop();
  server.reset();
  svc.reset();
  if (shape.durable) {
    net::KvService re(kv_config(cfg.dir, sc.capacity, 0));
    const auto& acked = load.acked();
    uint64_t checked = 0;
    for (uint64_t k = 0; k < acked.size(); ++k) {
      if (acked[k] == 0) continue;
      ++checked;
      net::KvVal v;
      uint64_t stamp = 0;
      if (!re.get(k, &v) || !net::check_value(v, k, &stamp) ||
          stamp < acked[k]) {
        res.violation("after reopen key %llu reads stamp %llu, acked %llu",
                      (unsigned long long)k, (unsigned long long)stamp,
                      (unsigned long long)acked[k]);
      }
    }
    std::printf("durability: %llu acknowledged keys verified after reopen\n",
                (unsigned long long)checked);
  }
  fs::remove_all(cfg.dir);
}

void run_kv(const Args& a, const Scale& sc, const KvShape& shape, Result& res,
            Tracer& tr) {
  EndToEnd e2e;
  KvTotals tot;
  for (int t = 0; t < sc.trials; ++t) {
    kv_trial(a, sc, shape, t, a.seconds / sc.trials, e2e, tot, res, tr);
  }
  std::printf("set-up: %llu keys preloaded, median %.2fs over %d set-ups\n",
              (unsigned long long)sc.keys, median(e2e.setup_s), sc.trials);
  const OpLog& log = tot.log;
  res.attempted = log.ops;
  res.failed = log.failed;
  e2e.primary_us = shape.durable ? log.put_us : log.get_us;
  e2e.secondary_us = shape.durable ? log.get_us : log.put_us;
  e2e.cpu_s = tot.cpu_s;
  e2e.ops = log.ops;
  e2e.stored_bytes = tot.stored_bytes;
  e2e.user_bytes = double(log.put_us.size() * kUserBytesPerPut);

  Layers L;
  tot.win.report(tot.seconds, L);
  L.set("client.max_late_ms", ms(log.late_max_ns));
  if (tr.on()) {
    const double rtt_get = median(log.get_rtt_us);
    const double rtt_put = median(log.put_rtt_us);
    const double svc_get = median(tot.service_get_us);
    const double svc_put = median(tot.service_put_us);
    const double transport = rtt_get - svc_get;
    const double wait = median(tot.durable_wait_us);
    L.set("net.rtt_get_us", rtt_get);
    L.set("net.service_get_us", svc_get);
    L.set("net.transport_get_us", transport);
    L.set("net.rtt_put_us", rtt_put);
    L.set("net.service_put_us", svc_put);
    L.set("net.durable_wait_us_p50", wait);
    L.set("net.durable_wait_us_p99", pct(tot.durable_wait_us, 0.99));
    // A PUT's round trip is the GET transport, the service call and (for
    // durable PUTs) the wait for the commit; what the three leave out.
    L.set("trace.unaccounted_share",
          per(std::abs(rtt_put - (transport + svc_put + wait)), rtt_put));
    L.set("snapshot.archive_ms", median(tot.archive_ms));
  }
  e2e.emit(res, L);
  L.emit(res);
}

// --- epoch-replicated ----------------------------------------------------------

// Container + tiered archive + rank 0 -> rank 1 replication over a clean
// in-process channel. The destructor drains commit, archive and
// replication, then releases the writer, the nodes, the channel and last
// the container.
struct EpochRig {
  std::unique_ptr<Channel> channel;
  std::unique_ptr<repl::ReplNode> n0, n1;
  std::unique_ptr<Container> c;
  std::unique_ptr<snapshot::ArchiveWriter> w;

  ~EpochRig() {
    if (c == nullptr) return;
    c->wait_committed();
    if (w) w->drain();
    if (n0) n0->flush();
    c->set_commit_callback(nullptr);
    c->set_epoch_sink(nullptr);
    w.reset();
    n0.reset();
    n1.reset();
    channel.reset();
    c.reset();
  }
};

// Seeded words, half of them zero: compressible, but not trivially.
void fill_words(Xoshiro256& rng, uint8_t* p, uint64_t len) {
  for (uint64_t off = 0; off + 8 <= len; off += 8) {
    uint64_t w = rng.next();
    if ((w & 1) == 0) w = 0;
    std::memcpy(p + off, &w, 8);
  }
}

// What an epoch-replicated run accumulates over its trials. Per epoch:
// capture (the checkpoint() call), then commit, archive and ack, each from
// the previous event, so the four sum to the durability lag.
struct EpochTotals {
  std::vector<double> capture_us, lag_us, commit_ms, commit_lag_ms,
      archive_ms, archive_lag_ms, ack_ms, late_ms;
  Window win;
  double seconds = 0, cpu_s = 0, stored_bytes = 0, user_bytes = 0;
  double epochs = 0, wire_bytes = 0, retries = 0, frames_acked = 0,
         repl_stall_ns = 0, msgs = 0;
};

// One trial: a fresh container, archive and replica pair holding the whole
// region committed, archived and replicated (timed as set-up); warm-up
// epochs; `seconds` of measured epochs; then the final epoch restored from
// the archive and from the replica and compared with the live region.
void epoch_trial(const Args& a, const Scale& sc, int trial, double seconds,
                 EndToEnd& e2e, EpochTotals& tot, Result& res, Tracer& tr) {
  const std::string dir = a.work + "/epochs";
  const uint64_t slices = sc.region / sc.dirty;
  const size_t max_epochs = 1 + slices + sc.warm_epochs +
                            size_t(seconds * 1000 / sc.interval_ms) + 64;
  EpochTimes committed, archived, acked;
  CrpmOptions opt;
  opt.main_region_size = sc.region;
  opt.async_checkpoint = true;
  opt.async_workers = 2;
  opt.max_inflight_epochs = 4;
  opt.commit_shards = 4;
  opt.eager_cow_segments = 0;
  archive_tier(opt, dir + "/epochs.snap");
  Xoshiro256 rng(a.seed * 1000 + uint64_t(trial));
  fs::remove_all(dir);
  fs::create_directories(dir);

  const uint64_t t_setup = now_ns();
  auto rig = std::make_unique<EpochRig>();
  auto dev =
      std::make_unique<HeapNvmDevice>(Container::required_device_size(opt));
  dev->set_cost_model(CostModel::realistic());
  rig->c = Container::open(std::move(dev), opt);
  rig->w = snapshot::ArchiveWriter::attach_if_configured(*rig->c);
  rig->channel = std::make_unique<Channel>(2);
  repl::ReplConfig rc;
  // As in bench_repl: a MiB frame plus the partner's fdatasync outlasts the
  // default 2 ms ack timeout, so every frame would be sent twice.
  rc.ack_timeout_us = 20 * 1000;
  rc.store_dir = dir + "/store0";
  rig->n0 = std::make_unique<repl::ReplNode>(*rig->channel, 0, rc);
  rc.store_dir = dir + "/store1";
  rig->n1 = std::make_unique<repl::ReplNode>(*rig->channel, 1, rc);
  rig->n0->attach(*rig->c, *rig->w);
  Container& c = *rig->c;
  repl::ReplNode& n0 = *rig->n0;
  // The initial state is written one epoch-sized slice per epoch: one
  // whole-region frame would stall replication (see BENCHMARK.md, known
  // issues).
  for (uint64_t off = 0; off < c.capacity(); off += sc.dirty) {
    c.annotate(c.data() + off, sc.dirty);
    fill_words(rng, c.data() + off, sc.dirty);
    c.checkpoint();
  }
  c.wait_committed();
  rig->w->drain();
  n0.flush();
  e2e.setup_s.push_back(double(now_ns() - t_setup) / 1e9);
  std::printf("trial %d: set-up %.2fs\n", trial, e2e.setup_s.back());

  c.set_commit_callback(
      [&committed](uint64_t e) { committed.note(e, now_ns()); });
  rig->w->set_frame_observer([&archived, &n0](uint64_t e, uint32_t kind,
                                              const uint8_t* f, size_t len) {
    archived.note(e, now_ns());
    n0.on_frame(e, kind, f, len);
  });
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> poller_cpu_ns{0};
  std::thread ack_poller([&] {
    precise_timers();
    uint64_t last = c.committed_epoch();
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t e = n0.newest_acked(1);
      const uint64_t t = now_ns();
      for (; last < e; ++last) acked.note(last + 1, t);
      poller_cpu_ns.store(uint64_t(thread_cpu_seconds() * 1e9),
                          std::memory_order_relaxed);
      sleep_us(50);
    }
  });

  // The app: dirty half the budget as 64 KiB runs and half as scattered
  // 256 B blocks, compute until the interval is up, then checkpoint.
  const uint64_t bs = c.geometry().block_size();
  const uint64_t run = 64 << 10;
  std::vector<uint64_t> t_call(max_epochs, 0), t_ret(max_epochs, 0);
  std::vector<double> late_ms;
  double app_cpu = 0;  // the app's own compute: dirtying the region
  uint64_t epoch = c.committed_epoch();
  const uint64_t interval = uint64_t(sc.interval_ms * 1e6);
  auto one_epoch = [&](uint64_t due) {
    const double cpu_in = thread_cpu_seconds();
    for (uint64_t d = 0; d < sc.dirty / 2; d += run) {
      uint8_t* p = c.data() + rng.next_below(c.capacity() / run) * run;
      c.annotate(p, run);
      fill_words(rng, p, run);
    }
    for (uint64_t d = 0; d < sc.dirty / 2; d += bs) {
      uint8_t* p = c.data() + rng.next_below(c.capacity() / bs) * bs;
      c.annotate(p, bs);
      fill_words(rng, p, bs);
    }
    app_cpu += thread_cpu_seconds() - cpu_in;
    sleep_until_ns(due);
    ++epoch;
    t_call[epoch] = now_ns();
    late_ms.push_back(ms(t_call[epoch] - due));
    c.checkpoint();
    t_ret[epoch] = now_ns();
    return t_ret[epoch] + interval;
  };
  uint64_t due = now_ns() + interval;
  for (uint64_t i = 0; i < sc.warm_epochs; ++i) due = one_epoch(due);
  late_ms.clear();
  app_cpu = 0;
  const uint64_t first = epoch + 1;
  const Counters k0 = Counters::of(c, rig->w.get());
  const repl::ReplNodeStats r0 = n0.stats();
  const ChannelStats ch0 = rig->channel->stats();
  const double cpu0 = cpu_seconds();
  const uint64_t poller0 = poller_cpu_ns.load(std::memory_order_relaxed);
  const uint64_t t0 = now_ns();
  const uint64_t end = t0 + uint64_t(seconds * 1e9);
  while (now_ns() < end && epoch + 2 < max_epochs) due = one_epoch(due);
  tot.seconds += double(now_ns() - t0) / 1e9;
  c.wait_committed();
  rig->w->drain();
  n0.flush();
  tot.cpu_s +=
      cpu_seconds() - cpu0 - app_cpu -
      double(poller_cpu_ns.load(std::memory_order_relaxed) - poller0) / 1e9;
  for (uint64_t spin = 0; n0.newest_acked(1) < epoch && spin < 100000; ++spin) {
    sleep_us(100);
  }
  sleep_us(500);  // the poller's last pass
  stop.store(true);
  ack_poller.join();
  const Counters k1 = Counters::of(c, rig->w.get());
  const repl::ReplNodeStats r1 = n0.stats();
  const ChannelStats ch1 = rig->channel->stats();

  for (uint64_t e = first; e <= epoch; ++e) {
    uint64_t tc = 0, ta = 0, tk = 0;
    if (!committed.get(e, &tc) || !archived.get(e, &ta) ||
        !acked.get(e, &tk)) {
      ++res.failed;
      continue;
    }
    tot.capture_us.push_back(us(t_ret[e] - t_call[e]));
    tot.lag_us.push_back(us(tk - t_call[e]));
    tot.commit_ms.push_back((double(tc) - double(t_ret[e])) / 1e6);
    tot.commit_lag_ms.push_back((double(tc) - double(t_call[e])) / 1e6);
    tot.archive_ms.push_back((double(ta) - double(tc)) / 1e6);
    tot.archive_lag_ms.push_back((double(ta) - double(t_call[e])) / 1e6);
    tot.ack_ms.push_back((double(tk) - double(ta)) / 1e6);
    const uint64_t id = (uint64_t(trial) << 40) | e;
    const uint64_t root = tr.span("epoch", kClient, t_call[e], tk, id);
    tr.span("core.capture", kCore, t_call[e], t_ret[e], id, root);
    tr.span("core.commit", kCore, t_ret[e], tc, id, root);
    tr.span("snapshot.archive", kSnapshot, tc, ta, id, root);
    tr.span("repl.ack", kRepl, ta, tk, id, root);
  }
  const double epochs = double(epoch + 1 - first);
  append(tot.late_ms, late_ms);
  tot.win.add(k0, k1);
  tot.epochs += epochs;
  tot.stored_bytes += double(k1.arch.bytes_appended - k0.arch.bytes_appended);
  tot.user_bytes += epochs * double(sc.dirty);
  tot.wire_bytes += double(r1.bytes_sent - r0.bytes_sent);
  tot.retries += double(r1.retries - r0.retries);
  tot.frames_acked += double(r1.frames_acked - r0.frames_acked);
  tot.repl_stall_ns += double(r1.queue_stall_ns - r0.queue_stall_ns);
  tot.msgs += double(ch1.sent - ch0.sent);

  // Both copies are checked together: each replays the whole chain.
  auto verify = [&](const std::string& path) {
    std::vector<uint8_t> img;
    std::string err;
    uint64_t newest = 0;
    snapshot::ArchiveReader reader(path);
    if (!reader.ok() || !reader.latest_restorable(&newest) ||
        newest != epoch) {
      res.violation("%s: newest restorable epoch %llu, committed %llu",
                    path.c_str(), (unsigned long long)newest,
                    (unsigned long long)epoch);
    } else if (!snapshot::read_state(path, epoch, &img, nullptr, &err, 2) ||
               img.size() != c.capacity() ||
               std::memcmp(img.data(), c.data(), img.size()) != 0) {
      res.violation("%s: epoch %llu does not restore to the live region %s",
                    path.c_str(), (unsigned long long)epoch, err.c_str());
    }
  };
  std::thread replica([&] { verify(rig->n1->store().peer_path(0)); });
  verify(rig->w->path());
  replica.join();
  std::printf("verified epoch %llu from the archive and the replica\n",
              (unsigned long long)epoch);
  rig->w->set_frame_observer({});
  rig.reset();
  fs::remove_all(dir);
}

void run_epochs(const Args& a, const Scale& sc, Result& res, Tracer& tr) {
  EndToEnd e2e;
  EpochTotals tot;
  for (int t = 0; t < sc.trials; ++t) {
    epoch_trial(a, sc, t, a.seconds / sc.trials, e2e, tot, res, tr);
  }
  std::printf("set-up: %llu MiB region committed, archived and replicated, "
              "median %.2fs over %d set-ups\n",
              (unsigned long long)(sc.region >> 20), median(e2e.setup_s),
              sc.trials);
  res.attempted = uint64_t(tot.epochs);
  e2e.primary_us = tot.lag_us;
  e2e.secondary_us = tot.capture_us;
  e2e.cpu_s = tot.cpu_s;
  e2e.ops = uint64_t(tot.epochs);
  e2e.stored_bytes = tot.stored_bytes;
  e2e.user_bytes = tot.user_bytes;

  Layers L;
  tot.win.report(tot.seconds, L);
  L.set("client.max_late_ms",
        tot.late_ms.empty()
            ? 0
            : *std::max_element(tot.late_ms.begin(), tot.late_ms.end()));
  // The lag against the capture as the library accounts it (CrpmStats),
  // plus commit, archive and ack timed from outside: what is left is time
  // in checkpoint() the library does not count as capture.
  const double lag_ms = mean(tot.lag_us) / 1e3;
  const double capture_ms = per(tot.win.capture_ns / 1e6, tot.win.captures);
  L.set("trace.unaccounted_share",
        per(std::abs(lag_ms - (capture_ms + mean(tot.commit_ms) +
                               mean(tot.archive_ms) + mean(tot.ack_ms))),
            lag_ms));
  L.set("core.capture_us_p99", pct(tot.capture_us, 0.99));
  L.set("core.commit_ms", median(tot.commit_ms));
  L.set("core.commit_lag_ms", median(tot.commit_lag_ms));
  L.set("snapshot.archive_ms", median(tot.archive_ms));
  L.set("snapshot.archive_lag_ms", median(tot.archive_lag_ms));
  L.set("repl.ack_ms_p50", median(tot.ack_ms));
  L.set("repl.ack_ms_p99", pct(tot.ack_ms, 0.99));
  L.set("repl.wire_bytes_per_epoch", per(tot.wire_bytes, tot.epochs));
  L.set("repl.retries_per_frame", per(tot.retries, tot.frames_acked));
  L.set("repl.queue_stall_ms_per_s",
        per(tot.repl_stall_ns / 1e6, tot.seconds));
  L.set("comm.msgs_per_epoch", per(tot.msgs, tot.epochs));
  e2e.emit(res, L);
  L.emit(res);
}

// --- recover -------------------------------------------------------------------

struct RecoverSource {
  std::string archive;
  std::vector<uint64_t> expected;  // final acked stamp per key
  std::vector<uint64_t> sample;    // keys checked after every restore
};

net::KvService::Config recover_config(const std::string& dir,
                                      const Scale& sc, bool lazy) {
  net::KvService::Config cfg = kv_config(dir, sc.rec_capacity, 0);
  cfg.lazy_restore = lazy;
  cfg.restore_workers = 4;
  return cfg;
}

// The container options StateStore derives from that service config.
CrpmOptions store_options(const net::KvService::Config& cfg) {
  CrpmOptions o;
  o.main_region_size = cfg.capacity_bytes;
  o.async_checkpoint = true;
  o.async_workers = cfg.async_workers;
  o.restore_workers = cfg.restore_workers;
  o.eager_cow_segments = 0;
  archive_tier(o, StateStore::archive_path(cfg.dir, 0));
  return o;
}

// A data dir that lived through a preload and `rec_epochs` zipf update
// epochs, each committed durably, then shut down cleanly.
RecoverSource build_recover_source(const std::string& dir, const Scale& sc,
                                   uint64_t seed) {
  RecoverSource src;
  src.expected.assign(sc.rec_keys, 0);
  Xoshiro256 rng(seed);
  ScrambledZipfianGenerator zipf(sc.rec_keys, 0.99);
  {
    auto svc = kv_preload(recover_config(dir, sc, false), sc.rec_keys);
    uint64_t stamp = 0;
    for (uint64_t e = 0; e < sc.rec_epochs; ++e) {
      for (uint64_t u = 0; u < sc.rec_updates; ++u) {
        const uint64_t k = zipf.next(rng);
        svc->put(k, net::make_value(k, ++stamp));
        src.expected[k] = stamp;
      }
      svc->flush();
    }
    svc->store().archive_writer()->drain();
  }
  src.archive = StateStore::archive_path(dir, 0);
  std::vector<uint64_t> updated;
  for (uint64_t k = 0; k < sc.rec_keys; ++k) {
    if (src.expected[k] != 0) updated.push_back(k);
  }
  for (uint64_t i = 0; i < sc.rec_samples; ++i) {
    src.sample.push_back(i % 2 == 0 && !updated.empty()
                             ? updated[rng.next_below(updated.size())]
                             : rng.next_below(sc.rec_keys));
  }
  return src;
}

// A fresh copy of the data dir after losing the container: only the
// archive survives.
void lose_container(const RecoverSource& src, const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy_file(src.archive, StateStore::archive_path(dir, 0));
}

// True if every sampled key reads back exactly its final acked value.
bool check_restored(net::KvService& svc, const RecoverSource& src,
                    const char* how, Result& res) {
  bool ok = true;
  for (uint64_t k : src.sample) {
    net::KvVal v;
    uint64_t stamp = 0;
    if (!svc.get(k, &v) || !net::check_value(v, k, &stamp) ||
        stamp != src.expected[k]) {
      ok = false;
      res.violation("%s restore: key %llu reads stamp %llu, acked %llu", how,
                    (unsigned long long)k, (unsigned long long)stamp,
                    (unsigned long long)src.expected[k]);
    }
  }
  return ok;
}

void run_recover(const Args& a, const Scale& sc, Result& res, Tracer& tr) {
  const std::string src_dir = a.work + "/recover-src";
  const std::string dir = a.work + "/recover";
  EndToEnd e2e;
  Layers L;
  RecoverSource src;
  for (int i = 0; i < sc.trials; ++i) {
    const uint64_t t0 = now_ns();
    src = build_recover_source(src_dir, sc, a.seed);
    e2e.setup_s.push_back(double(now_ns() - t0) / 1e9);
  }
  const uint64_t archive_bytes = fs::file_size(src.archive);
  std::printf("set-up: %llu keys, %llu update epochs, %.1f MiB archive, "
              "median %.2fs over %d set-ups\n",
              (unsigned long long)sc.rec_keys,
              (unsigned long long)sc.rec_epochs, double(archive_bytes) / 1048576,
              median(e2e.setup_s), sc.trials);

  std::vector<double> first_get_ms, finish_ms, scan_ms, image_ms, crit_ms,
      build_ms, reopen_ms, attach_ms, blocking_ms;
  Window win;
  double cpu = 0;  // restores only: not the archive copies or traced parts
  const uint64_t t_start = now_ns();
  const uint64_t end = t_start + uint64_t(a.seconds * 1e9);
  const uint64_t first_key = src.sample.front();
  uint64_t reps = 0, bad = 0;
  for (bool lazy = true;; lazy = !lazy) {
    if (reps >= 2 && now_ns() >= end) break;
    ++reps;
    lose_container(src, dir);
    const net::KvService::Config cfg = recover_config(dir, sc, lazy);
    if (tr.on() && lazy) {
      // The restore layer alone: LazyRestorer::start on the same archive.
      const uint64_t s0 = now_ns();
      auto lz = snapshot::restore_lazy(StateStore::archive_path(dir, 0),
                                       Container::kLatestEpoch,
                                       store_options(cfg));
      const uint64_t s1 = now_ns();
      if (!lz->ok()) res.violation("lazy restore: %s", lz->error().c_str());
      scan_ms.push_back(ms(s1 - s0));
      tr.span("snapshot.scan", kRestore, s0, s1, reps);
    }
    if (tr.on() && !lazy) {
      // The blocking restore's parts, called directly on a second copy in
      // the order StateStore runs them: rebuild the image, build the
      // container file, reopen it, attach the archive writer.
      net::KvService::Config pcfg = cfg;
      pcfg.dir = a.work + "/recover-parts";
      lose_container(src, pcfg.dir);
      const CrpmOptions o = store_options(pcfg);
      std::vector<uint8_t> img;
      std::array<uint64_t, kNumRoots> roots{};
      std::string err;
      snapshot::RestorePerf perf;
      const std::string ctr_path = StateStore::container_path(pcfg.dir, 0);
      const uint64_t p0 = now_ns();
      if (!snapshot::read_state(o.archive_path, Container::kLatestEpoch, &img,
                                &roots, &err, o.restore_workers, &perf)) {
        res.violation("read_state: %s", err.c_str());
      }
      const uint64_t p1 = now_ns();
      snapshot::build_container_file(img.data(), img.size(), roots, 0,
                                     ctr_path, o)
          .container.reset();
      const uint64_t p2 = now_ns();
      auto reopened = Container::open_file(ctr_path, o);
      const uint64_t p3 = now_ns();
      auto w = snapshot::ArchiveWriter::attach_if_configured(*reopened);
      const uint64_t p4 = now_ns();
      reopened->set_epoch_sink(nullptr);
      w.reset();
      reopened.reset();
      image_ms.push_back(ms(p1 - p0));
      crit_ms.push_back(ms(perf.apply_ns_critical));
      build_ms.push_back(ms(p2 - p1));
      reopen_ms.push_back(ms(p3 - p2));
      attach_ms.push_back(ms(p4 - p3));
      const uint64_t parent = tr.span("restore.parts", kRestore, p0, p4, reps);
      tr.span("snapshot.image", kSnapshot, p0, p1, reps, parent);
      tr.span("snapshot.build_file", kSnapshot, p1, p2, reps, parent);
      tr.span("core.reopen", kCore, p2, p3, reps, parent);
      tr.span("snapshot.attach", kSnapshot, p3, p4, reps, parent);
      fs::remove_all(pcfg.dir);
    }
    const double cpu0 = cpu_seconds();
    const uint64_t t0 = now_ns();
    auto svc = std::make_unique<net::KvService>(cfg);
    const uint64_t t1 = now_ns();
    net::KvVal v;
    svc->get(first_key, &v);
    const uint64_t t2 = now_ns();
    const uint64_t root = tr.span(lazy ? "restore.lazy" : "restore.blocking",
                                  kRestore, t0, t2, reps);
    tr.span("restore.open", kRestore, t0, t1, reps, root);
    tr.span("restore.first_get", kService, t1, t2, reps, root);
    if (lazy) {
      e2e.primary_us.push_back(us(t2 - t0));
      first_get_ms.push_back(ms(t2 - t1));
    } else {
      e2e.secondary_us.push_back(us(t2 - t0));
      blocking_ms.push_back(ms(t2 - t0));
    }
    if (!check_restored(*svc, src, lazy ? "lazy" : "blocking", res)) ++bad;
    svc->wait_ready();
    const uint64_t t3 = now_ns();
    if (lazy) {
      finish_ms.push_back(ms(t3 - t1));
      tr.span("restore.finish", kRestore, t1, t3, reps);
    }
    // The restored service takes a durable write, so the core, nvm and tier
    // counters see one post-restore epoch per rep.
    Container& c = *svc->store().container();
    const Counters k0 = Counters::of(c, svc->store().archive_writer());
    svc->put(first_key, net::make_value(first_key, src.expected[first_key]));
    svc->flush();
    svc->store().archive_writer()->drain();
    win.add(k0, Counters::of(c, svc->store().archive_writer()));
    svc.reset();
    cpu += cpu_seconds() - cpu0;
  }
  const double seconds = double(now_ns() - t_start) / 1e9;
  fs::remove_all(dir);
  fs::remove_all(src_dir);

  res.attempted = reps;
  res.failed = bad;
  e2e.cpu_s = cpu;
  e2e.ops = reps;
  e2e.stored_bytes = double(archive_bytes);
  e2e.user_bytes = double(sc.rec_keys * kUserBytesPerPut);

  win.report(seconds, L);
  const double parts = median(image_ms) + median(build_ms) +
                       median(reopen_ms) + median(attach_ms);
  if (tr.on()) {
    L.set("trace.unaccounted_share",
          per(std::abs(median(blocking_ms) - parts), median(blocking_ms)));
  }
  L.set("core.reopen_ms", median(reopen_ms));
  L.set("snapshot.scan_ms", median(scan_ms));
  L.set("snapshot.lazy_first_get_ms", median(first_get_ms));
  L.set("snapshot.lazy_finish_ms", median(finish_ms));
  L.set("snapshot.image_ms", median(image_ms));
  L.set("snapshot.apply_crit_ms", median(crit_ms));
  L.set("snapshot.build_file_ms", median(build_ms));
  L.set("snapshot.attach_ms", median(attach_ms));
  e2e.emit(res, L);
  L.emit(res);
}

// --- main ----------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: crpm_bench --workload <kv-durable|kv-read|"
               "epoch-replicated|recover> --seed <n> --seconds <s> "
               "--json <out> --work <dir> [--trace <chrome.json>] "
               "[--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (f == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (v == nullptr) return usage();
    ++i;
    if (f == "--workload") a.workload = v;
    else if (f == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (f == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (f == "--json") a.json = v;
    else if (f == "--work") a.work = v;
    else if (f == "--trace") a.trace = v;
    else return usage();
  }
  if (a.json.empty() || a.work.empty() || !(a.seconds > 0)) return usage();
  std::signal(SIGPIPE, SIG_IGN);
  fs::create_directories(a.work);
  const Scale sc = a.smoke ? Scale::smoke() : Scale();
  Tracer tr(!a.trace.empty());
  Result res;
  std::printf("== crpm_bench %s seed=%llu seconds=%.1f%s%s ==\n",
              a.workload.c_str(), (unsigned long long)a.seed, a.seconds,
              tr.on() ? " traced" : "", a.smoke ? " smoke" : "");
  if (a.workload == "kv-durable") {
    run_kv(a, sc, KvShape{8000, 0.5, true, true, 0}, res, tr);
  } else if (a.workload == "kv-read") {
    run_kv(a, sc, KvShape{16000, 0.95, false, false, 200}, res, tr);
  } else if (a.workload == "epoch-replicated") {
    run_epochs(a, sc, res, tr);
  } else if (a.workload == "recover") {
    run_recover(a, sc, res, tr);
  } else {
    return usage();
  }
  if (tr.on() && !tr.write(a.trace)) {
    std::fprintf(stderr, "cannot write %s\n", a.trace.c_str());
    return 1;
  }
  return res.write(a) ? 0 : 1;
}
