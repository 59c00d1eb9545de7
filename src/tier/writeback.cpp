#include "tier/writeback.h"

#include "util/durable_file.h"

namespace crpm::tier {

Writeback::Writeback(bool threaded) {
  if (!threaded) return;
  for (uint32_t i = 0; i < kWorkers; ++i) {
    threads_.emplace_back([this] { worker(); });
  }
}

Writeback::~Writeback() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_jobs_.notify_all();
  for (auto& t : threads_) t.join();
}

uint64_t Writeback::submit(int fd, uint64_t offset, std::vector<iovec> iov,
                           bool sync) {
  Job j{++last_, fd, offset, std::move(iov), sync};
  if (threads_.empty()) {
    run(j);
    return j.ticket;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.push_back(std::move(j));
  }
  cv_jobs_.notify_one();
  return last_;
}

bool Writeback::done(uint64_t ticket) const {
  std::lock_guard<std::mutex> lk(mu_);
  return upto_ >= ticket;
}

bool Writeback::wait(uint64_t ticket) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return upto_ >= ticket; });
  return !failed_;
}

void Writeback::set_signal(std::function<void()> fn) {
  std::lock_guard<std::mutex> lk(mu_);
  signal_ = std::move(fn);
}

void Writeback::run(Job& j) {
  bool ok = durable_file::pwritev_all(j.fd, std::move(j.iov), j.offset);
  if (ok && j.sync) ok = durable_file::sync(j.fd);
  std::function<void()> sig;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!ok) failed_ = true;
    finished_.insert(j.ticket);
    while (finished_.erase(upto_ + 1) != 0) ++upto_;
    sig = signal_;
  }
  cv_done_.notify_all();
  if (sig) sig();
}

void Writeback::worker() {
  for (;;) {
    Job j;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_jobs_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
      // Drain every queued job even when stopping: tickets must complete
      // or waiters deadlock.
      if (jobs_.empty()) return;
      j = std::move(jobs_.front());
      jobs_.pop_front();
    }
    run(j);
  }
}

}  // namespace crpm::tier
