// Writeback for the archive batch ring.
//
// The archive writer submits one job per group-commit batch: a vector of
// frame buffers written contiguously at an explicit file offset, followed
// (optionally) by an fdatasync, both through util/durable_file. Jobs
// complete strictly in submission order as far as done()/wait() can tell —
// workers may finish out of order internally, but the completion watermark
// only advances contiguously, so the caller fires its frame observers and
// stats in epoch order and never ahead of durability.
//
// Two kinds:
//   * sync     0 workers: the job runs inline in submit(), so the ticket
//              is complete when submit() returns. The default.
//   * threads  kWorkers worker threads perform the pwritev + fdatasync; the
//              submitting (SCHED_IDLE) writer thread never blocks on device
//              latency until the ring fills.
//
// Single submitter: submit() must be called from one thread (the archive
// writer thread). done()/wait() are safe from any thread.
#pragma once

#include <sys/uio.h>

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace crpm::tier {

class Writeback {
 public:
  static constexpr uint32_t kWorkers = 2;

  // threaded=false is "sync", true is "threads".
  explicit Writeback(bool threaded);
  ~Writeback();  // drains every queued job

  Writeback(const Writeback&) = delete;
  Writeback& operator=(const Writeback&) = delete;

  const char* name() const { return threads_.empty() ? "sync" : "threads"; }

  // Writes `iov` at `offset` on `fd`, then fdatasyncs when `sync`. The
  // iovec base memory must stay valid until the returned ticket
  // completes. Tickets start at 1 and ascend by 1.
  uint64_t submit(int fd, uint64_t offset, std::vector<iovec> iov, bool sync);

  // True once every ticket <= `ticket` has completed.
  bool done(uint64_t ticket) const;

  // Blocks until done(ticket); false once any job so far failed (a write
  // or sync error). A failed job still completes its ticket.
  bool wait(uint64_t ticket);

  // Invoked (from a worker, or inline from submit) every time the
  // completion watermark advances; wake the writer's condition variable
  // here. Set before the first submit.
  void set_signal(std::function<void()> fn);

 private:
  struct Job {
    uint64_t ticket = 0;
    int fd = -1;
    uint64_t offset = 0;
    std::vector<iovec> iov;
    bool sync = false;
  };

  void run(Job& j);
  void worker();

  mutable std::mutex mu_;
  std::condition_variable cv_jobs_;  // workers: a job was queued / stop
  std::condition_variable cv_done_;  // wait(): the watermark advanced
  std::deque<Job> jobs_;
  std::set<uint64_t> finished_;  // completed tickets above the watermark
  uint64_t upto_ = 0;            // every ticket <= upto_ is complete
  uint64_t last_ = 0;            // submitter thread only
  bool failed_ = false;
  bool stop_ = false;
  std::function<void()> signal_;
  std::vector<std::thread> threads_;
};

}  // namespace crpm::tier
