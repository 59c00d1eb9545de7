// Restore-to-any-epoch: materialize an archived epoch into a fresh
// container device.
//
// The container itself retains at most one epoch of history on-device
// (Container::retains_previous_epoch()); the archive extends that to every
// epoch since the last compaction fold. restore() rebuilds the byte image
// of the requested epoch from the archive (base frame + delta chain),
// formats a fresh container on the supplied device, copies the image in as
// annotated working state, re-installs the epoch's committed roots, and
// commits it at the archived epoch number — yielding a container whose
// working state is bit-identical to the archived epoch's and whose next
// commit extends the archive's epoch sequence. "Format at epoch e" is one
// checkpoint of the image, state-identical filler checkpoints until the
// committed epoch has e's residue mod the metadata replica count, then
// Container::renumber_epoch(e).
//
// opt.restore_workers > 1 runs the archive scan's body checks, the chain
// loader's read + decode of each frame, and the record apply (segment-
// sharded with work stealing, per-shard CRC re-verification) on that many
// threads; the container format/checkpoint that follows stays
// deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/container.h"
#include "snapshot/archive.h"

namespace crpm::snapshot {

struct RestoreResult {
  std::unique_ptr<Container> container;  // null on failure
  uint64_t epoch = 0;                    // the epoch actually restored
  std::string error;                     // set when container is null
  std::vector<std::string> warnings;     // skipped corrupt epochs etc.
  RestorePerf perf;                      // thread-CPU apply accounting
};

// Restores `epoch` (or the newest restorable epoch, for
// Container::kLatestEpoch — falling back past corrupt tail epochs with a
// warning) from the archive at `archive_path` onto `dev`. The device must
// be pristine: restore formats a fresh container on it. `opt` must describe
// a geometry whose main region matches the archived region size; its
// thread_count and archive settings are ignored for the restored container.
RestoreResult restore(const std::string& archive_path, uint64_t epoch,
                      NvmDevice* dev, const CrpmOptions& opt);
RestoreResult restore(const std::string& archive_path, uint64_t epoch,
                      std::unique_ptr<NvmDevice> dev, const CrpmOptions& opt);

// Convenience: file-backed restored container at `container_path` (any
// existing file is replaced). The restore is crash-atomic with respect to
// `container_path`: the image is materialized into a side file
// (`<container_path>.restoring`) and published over the target
// (durable_file::publish: fdatasync, rename, directory fsync), so a crash
// mid-restore leaves either the old bytes or the fully restored container
// — never a half-formatted file a reattach would trust.
RestoreResult restore_file(const std::string& archive_path, uint64_t epoch,
                           const std::string& container_path,
                           const CrpmOptions& opt);

// Builds a crash-atomic container file at `container_path` from an
// in-memory image + roots (the tail of restore_file, shared with
// LazyRestorer::finish_file): format a fresh container on
// `<container_path>.restoring` at archived epoch `epoch` (0 commits the
// image as epoch 1), publish it into place the same way, and reopen.
RestoreResult build_container_file(const uint8_t* image, uint64_t size,
                                   const std::array<uint64_t, kNumRoots>& roots,
                                   uint64_t epoch,
                                   const std::string& container_path,
                                   const CrpmOptions& opt);

// Low-level: reconstruct only the byte image and roots of `epoch`.
bool read_state(const std::string& archive_path, uint64_t epoch,
                std::vector<uint8_t>* image,
                std::array<uint64_t, kNumRoots>* roots, std::string* err,
                uint32_t workers = 0, RestorePerf* perf = nullptr);

// Test hook: invoked at named points inside restore_file ("restore.image",
// "restore.container", "restore.tmp", "restore.synced", "restore.renamed")
// so the crash matrix can kill the restorer between its durability steps.
// The hook may throw to simulate the crash. Never set outside tests.
using RestoreStepHook = std::function<void(const char* step)>;
void set_restore_step_hook(RestoreStepHook hook);

namespace detail {
// Invokes the restore step hook (no-op when unset). Internal: lets the
// lazy restorer and scrubber report their steps through the same hook.
void restore_step(const char* name);
}  // namespace detail

}  // namespace crpm::snapshot
