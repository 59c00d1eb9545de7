#include "util/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstring>
#include <mutex>

namespace crpm::durable_file {

namespace {

std::atomic<bool> g_hooked{false};
std::mutex g_hook_mu;
FaultHook g_hook;

// Consults the test fault hook; false (errno set) when it injects a
// failure into `op`.
bool proceed(Op op) {
  if (!g_hooked.load(std::memory_order_acquire)) return true;
  FaultHook hook;
  {
    std::lock_guard<std::mutex> lk(g_hook_mu);
    hook = g_hook;
  }
  const int err = hook ? hook(op) : 0;
  if (err == 0) return true;
  errno = err;
  return false;
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// Unlinks `tmp` and reports `what` failed; keeps errno.
bool fail(const std::string& tmp, const std::string& what, std::string* err) {
  const int e = errno;
  ::unlink(tmp.c_str());
  if (err != nullptr) *err = what + ": " + std::strerror(e);
  errno = e;
  return false;
}

// The publish tail shared by publish() and atomic_replace(): `fd` is open
// on the finished `tmp` and is closed here.
bool sync_close_rename(int fd, const std::string& tmp, const std::string& path,
                       std::string* err,
                       const std::function<void()>& before_rename) {
  const bool synced = sync(fd);
  const int e = errno;
  ::close(fd);
  if (!synced) {
    errno = e;
    return fail(tmp, "sync " + tmp, err);
  }
  if (before_rename) before_rename();
  if (!move_file(tmp, path)) {
    return fail(tmp, "rename " + tmp + " to " + path, err);
  }
  return true;
}

}  // namespace

bool write_all(int fd, const void* buf, size_t len) {
  if (!proceed(Op::kWrite)) return false;
  const auto* p = static_cast<const uint8_t*>(buf);
  while (len > 0) {
    ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool pwritev_all(int fd, std::vector<iovec> iov, uint64_t offset) {
  if (!proceed(Op::kWrite)) return false;
  size_t i = 0;
  while (i < iov.size()) {
    const int cnt = static_cast<int>(std::min<size_t>(iov.size() - i, IOV_MAX));
    ssize_t n = ::pwritev(fd, iov.data() + i, cnt, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    offset += static_cast<uint64_t>(n);
    auto left = static_cast<size_t>(n);
    while (i < iov.size() && left >= iov[i].iov_len) {
      left -= iov[i].iov_len;
      ++i;
    }
    if (i < iov.size() && left > 0) {
      iov[i].iov_base = static_cast<uint8_t*>(iov[i].iov_base) + left;
      iov[i].iov_len -= left;
    } else if (n == 0 && i < iov.size()) {
      errno = EIO;  // no progress on a non-empty iovec
      return false;
    }
  }
  return true;
}

bool read_at(int fd, void* buf, size_t len, uint64_t offset) {
  if (!proceed(Op::kRead)) return false;
  auto* p = static_cast<uint8_t*>(buf);
  while (len > 0) {
    ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      return false;
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool sync(int fd) { return proceed(Op::kSync) && ::fdatasync(fd) == 0; }

bool sync_dir(const std::string& dir) {
  if (!proceed(Op::kSyncDir)) return false;
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  const int e = errno;
  ::close(fd);
  errno = e;
  return ok;
}

int create(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags | O_CREAT, 0644);
  if (fd < 0) return -1;
  if (!sync_dir(parent_dir(path))) {
    const int e = errno;
    ::close(fd);
    errno = e;
    return -1;
  }
  return fd;
}

bool make_dirs(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) return sync_dir(parent_dir(dir));
  if (errno == EEXIST) return true;
  if (errno != ENOENT) return false;
  // A parent is missing: create it (durably) first, then retry.
  const std::string parent = parent_dir(dir);
  if (parent == dir || !make_dirs(parent)) return false;
  if (::mkdir(dir.c_str(), 0755) != 0) return errno == EEXIST;
  return sync_dir(parent);
}

bool move_file(const std::string& from, const std::string& to) {
  if (!proceed(Op::kRename) || ::rename(from.c_str(), to.c_str()) != 0) {
    return false;
  }
  return sync_dir(parent_dir(to));
}

bool publish(const std::string& tmp, const std::string& path,
             std::string* err, const std::function<void()>& before_rename) {
  int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0) return fail(tmp, "open " + tmp, err);
  return sync_close_rename(fd, tmp, path, err, before_rename);
}

bool atomic_replace(const std::string& path,
                    const std::function<bool(int fd)>& fill,
                    std::string* err) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail(tmp, "open " + tmp, err);
  if (!fill(fd)) {
    const int e = errno;
    ::close(fd);
    errno = e;
    return fail(tmp, "write " + tmp, err);
  }
  return sync_close_rename(fd, tmp, path, err, {});
}

void set_fault_hook(FaultHook hook) {
  std::lock_guard<std::mutex> lk(g_hook_mu);
  g_hook = std::move(hook);
  g_hooked.store(static_cast<bool>(g_hook), std::memory_order_release);
}

}  // namespace crpm::durable_file
