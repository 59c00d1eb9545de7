// Durable files: the one module that turns file writes into bytes that
// survive a power loss. Every archive, cold-base, replica, restore and FTI
// file goes through it, so the ordering rules live here once:
//
//   * write-all: write_all / pwritev_all retry EINTR and short writes and
//     fail only on a real error (errno set).
//   * sync or fail: sync() is fdatasync. A false return is fatal for that
//     file — the kernel may already have dropped the unsynced pages, so a
//     caller never retries the sync and then trusts the bytes.
//   * publish: fdatasync the finished tmp file, rename it over the
//     target, fsync the parent directory. A failure before the rename
//     unlinks the tmp file and leaves the target's old bytes (or no
//     target); a failed directory sync after it leaves the new file in
//     place but still reports failure.
//   * create: a new file's directory entry is made durable by fsyncing the
//     parent directory; so is each new directory's (make_dirs).
//   * read-all: read_at retries EINTR and short reads; every archive,
//     cold-base and replica read goes through it, so the fault hook below
//     reaches reads too.
//
// Nothing else under src/ calls fsync, fdatasync or rename, nothing on the
// durable paths creates a directory any other way, and nothing under
// src/snapshot, src/repl or src/tier reads a file any other way
// (tests/check_durable_file.py enforces all three).
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace crpm::durable_file {

// Writes all `len` bytes at the fd's current offset.
bool write_all(int fd, const void* buf, size_t len);

// Writes every byte of `iov` starting at `offset` (any iovec count; the
// vector is consumed as the write advances).
bool pwritev_all(int fd, std::vector<iovec> iov, uint64_t offset);

// Reads exactly `len` bytes at `offset`. False (errno set; EIO when the
// file ends first) on any shortfall.
bool read_at(int fd, void* buf, size_t len, uint64_t offset);

// fdatasync(fd).
bool sync(int fd);

// fsyncs the directory `dir`.
bool sync_dir(const std::string& dir);

// Opens `path` with `flags | O_CREAT` (mode 0644), then fsyncs its parent
// directory. Returns the fd, or -1 (errno set; the fd is closed) when the
// open or the directory sync fails.
int create(const std::string& path, int flags);

// Creates directory `dir` and any missing parents (mode 0755), fsyncing
// the parent of each directory it creates. An existing entry counts as
// success. False (errno set) when a mkdir or a directory sync fails.
bool make_dirs(const std::string& dir);

// Renames `from` to `to` and fsyncs the parent directory of `to`. On
// failure `from` is left where it was (when the rename itself failed).
bool move_file(const std::string& from, const std::string& to);

// Publishes the finished file `tmp` as `path`: sync, rename, directory
// sync. `before_rename`, when set, runs between the sync and the rename
// (crash-simulation step hooks). On failure `err` says which step failed
// and no `tmp` is left behind.
bool publish(const std::string& tmp, const std::string& path,
             std::string* err = nullptr,
             const std::function<void()>& before_rename = {});

// Replaces `path` atomically: `fill(fd)` writes the new contents into a
// fresh `<path>.tmp`, which is then published. A false `fill` (or any I/O
// failure) unlinks the tmp file and leaves `path` untouched.
bool atomic_replace(const std::string& path,
                    const std::function<bool(int fd)>& fill,
                    std::string* err = nullptr);

// Test hook: consulted before every write, read, sync, rename and
// directory sync this module performs. Returning a non-zero errno makes
// that op fail with it (the op is not performed); 0 lets it run.
// Process-wide. Never set outside tests.
enum class Op { kWrite, kSync, kRename, kSyncDir, kRead };
using FaultHook = std::function<int(Op op)>;
void set_fault_hook(FaultHook hook);

}  // namespace crpm::durable_file
