#include "tier/cold.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "util/durable_file.h"

namespace crpm::tier {

std::string ColdTier::base_name(uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "base-%016" PRIx64 ".crpmsnap", epoch);
  return buf;
}

bool ColdTier::store(uint64_t epoch, const void* header, size_t header_len,
                     const void* frame, size_t frame_len,
                     const WriteFn& write_fn, std::string* err) {
  if (!durable_file::make_dirs(dir_)) {
    if (err) *err = std::string("mkdir ") + dir_ + ": " + std::strerror(errno);
    return false;
  }
  return durable_file::atomic_replace(
      dir_ + "/" + base_name(epoch),
      [&](int fd) {
        return write_fn(fd, header, header_len) &&
               write_fn(fd, frame, frame_len);
      },
      err);
}

std::vector<ColdEntry> ColdTier::list(const std::string& dir) {
  std::vector<ColdEntry> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    uint64_t epoch = 0;
    int consumed = 0;
    if (std::sscanf(e->d_name, "base-%16" SCNx64 ".crpmsnap%n", &epoch,
                    &consumed) != 1 ||
        e->d_name[consumed] != '\0') {
      continue;  // tmp files, dot entries, strangers
    }
    ColdEntry entry;
    entry.epoch = epoch;
    entry.path = dir + "/" + e->d_name;
    struct stat st{};
    if (::stat(entry.path.c_str(), &st) == 0) {
      entry.bytes = static_cast<uint64_t>(st.st_size);
    }
    out.push_back(std::move(entry));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const ColdEntry& a, const ColdEntry& b) {
              return a.epoch < b.epoch;
            });
  return out;
}

}  // namespace crpm::tier
