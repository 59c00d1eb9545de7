#include "snapshot/restore.h"

#include <cstdio>
#include <cstring>

#include "snapshot/workers.h"
#include "tier/cold.h"
#include "util/durable_file.h"

namespace crpm::snapshot {

namespace {

RestoreStepHook g_step_hook;

void step(const char* name) {
  if (g_step_hook) g_step_hook(name);
}

// Restored containers are single-threaded and never re-archive the replay.
CrpmOptions restore_options(const CrpmOptions& opt) {
  CrpmOptions ropt = opt;
  ropt.thread_count = 1;
  ropt.archive_path.clear();
  return ropt;
}

bool region_matches(const CrpmOptions& ropt, uint64_t size, std::string* err) {
  if (Geometry(ropt).main_region_size() == size) return true;
  *err = "container options describe a " +
         std::to_string(Geometry(ropt).main_region_size()) +
         "-byte main region but the restored image holds " +
         std::to_string(size) + " bytes";
  return false;
}

// Formats the pristine container `c` from `image` + `roots` at the
// archived epoch `epoch`, so that it resumes the archive's epoch sequence
// and a reattached archive writer drops no archived frame:
//   1. the whole image is one annotated store, committed as epoch 1;
//   2. state-identical filler checkpoints (touching a root with its own
//      value defeats the empty-checkpoint skip) run until the committed
//      epoch has `epoch`'s residue mod the metadata replica count, which
//      selects the live roots/seg_state copy;
//   3. renumber_epoch relabels the commit as `epoch`.
// An epoch of 0 (unknown) leaves the image at epoch 1.
bool format_at_epoch(Container& c, const uint8_t* image, uint64_t size,
                     const std::array<uint64_t, kNumRoots>& roots,
                     uint64_t epoch, std::string* err) {
  if (!c.was_fresh()) {
    *err = "restore target device is not pristine";
    return false;
  }
  c.annotate(c.data(), size);
  std::memcpy(c.data(), image, size);
  for (uint32_t s = 0; s < kNumRoots; ++s) c.set_root(s, roots[s]);
  c.checkpoint();
  c.wait_committed();
  const uint64_t replicas = c.geometry().meta_replicas();
  while (epoch > c.committed_epoch() &&
         (epoch - c.committed_epoch()) % replicas != 0) {
    c.set_root(0, c.get_root(0));
    c.checkpoint();
    c.wait_committed();
  }
  if (epoch > c.committed_epoch()) c.renumber_epoch(epoch);
  return true;
}

// The one publish path of every restored container file: `tmp` holds a
// closed, committed container. Make it durable, move it to
// `container_path` (durable_file::publish), and reopen it there — a crash
// anywhere before the rename leaves `container_path` untouched, so a
// reattach never trusts a half-formatted restore target.
RestoreResult publish_container(RestoreResult r, const std::string& tmp,
                                const std::string& container_path,
                                const CrpmOptions& ropt) {
  step("restore.tmp");
  std::string err;
  if (!durable_file::publish(tmp, container_path, &err,
                             [] { step("restore.synced"); })) {
    r.error = "publishing restored container failed: " + err;
    return r;
  }
  step("restore.renamed");
  r.container = Container::open_file(container_path, ropt);
  if (r.container->was_fresh()) {
    r.container.reset();
    r.error = "restored container failed to reattach after rename";
  }
  return r;
}

// Cold-tier fallback: serve `epoch` (or the newest cold base when asked
// for kLatestEpoch) from `<archive>.cold/`. Each cold file is a standalone
// one-frame archive, so the regular reader handles it; only exact fold
// epochs are servable (a cold base carries no deltas to replay forward).
bool read_cold_state(const std::string& archive_path, uint64_t epoch,
                     uint64_t* chosen, std::vector<uint8_t>* image,
                     std::array<uint64_t, kNumRoots>* roots,
                     uint32_t workers, RestorePerf* perf) {
  auto entries = tier::ColdTier::list_for_archive(archive_path);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (epoch != Container::kLatestEpoch && it->epoch != epoch) continue;
    ArchiveReader cr(it->path, workers);
    std::string cerr;
    if (cr.ok() && cr.state_at(it->epoch, image, roots, &cerr, workers,
                               perf)) {
      *chosen = it->epoch;
      return true;
    }
  }
  return false;
}

// Reads `epoch` (or the newest restorable one, for kLatestEpoch) from the
// hot archive, falling back to the cold tier when the hot chain cannot
// serve it. `chosen` gets the epoch read; `warnings` collects the scan's
// notes. `err` is set only on failure.
bool load_state(const std::string& archive_path, uint64_t epoch,
                uint32_t workers, std::vector<uint8_t>* image,
                std::array<uint64_t, kNumRoots>* roots, uint64_t* chosen,
                std::vector<std::string>* warnings, RestorePerf* perf,
                std::string* err) {
  workers = pool_size(workers);
  std::string hot_error;
  {
    ArchiveReader reader(archive_path, workers);
    *warnings = reader.scan().warnings;
    uint64_t target = epoch;
    if (!reader.ok()) {
      hot_error = "not a valid snapshot archive: " + archive_path;
    } else if (target == Container::kLatestEpoch &&
               !reader.latest_restorable(&target)) {
      hot_error = "archive holds no restorable epoch";
    } else if (reader.state_at(target, image, roots, &hot_error, workers,
                               perf)) {
      const auto& epochs = reader.scan().epochs;
      if (epoch == Container::kLatestEpoch && epochs.back().epoch != target) {
        warnings->push_back("newest archived epoch " +
                            std::to_string(epochs.back().epoch) +
                            " is not restorable; falling back to epoch " +
                            std::to_string(target));
      }
      *chosen = target;
      return true;
    }
  }
  // The hot archive cannot serve this epoch (compaction folded it away, a
  // corrupt chain, or the file is gone) — try the cold tier.
  if (read_cold_state(archive_path, epoch, chosen, image, roots, workers,
                      perf)) {
    warnings->push_back("epoch " + std::to_string(*chosen) +
                        " served from the cold tier");
    return true;
  }
  if (err != nullptr) *err = hot_error;
  return false;
}

// Restores `epoch` onto the pristine `dev` at its archived epoch. The
// container in the result is the one that formatted `dev`.
RestoreResult restore_impl(const std::string& archive_path, uint64_t epoch,
                           NvmDevice* dev, const CrpmOptions& opt) {
  RestoreResult r;
  std::vector<uint8_t> image;
  std::array<uint64_t, kNumRoots> roots{};
  uint64_t target = 0;
  if (!load_state(archive_path, epoch, opt.restore_workers, &image, &roots,
                  &target, &r.warnings, &r.perf, &r.error)) {
    return r;
  }
  step("restore.image");

  const CrpmOptions ropt = restore_options(opt);
  if (!region_matches(ropt, image.size(), &r.error)) return r;
  std::unique_ptr<Container> c = Container::open(dev, ropt);
  if (!format_at_epoch(*c, image.data(), image.size(), roots, target,
                       &r.error)) {
    return r;
  }
  step("restore.container");

  r.container = std::move(c);
  r.epoch = target;
  return r;
}

}  // namespace

void set_restore_step_hook(RestoreStepHook hook) {
  g_step_hook = std::move(hook);
}

namespace detail {
void restore_step(const char* name) { step(name); }
}  // namespace detail

RestoreResult build_container_file(
    const uint8_t* image, uint64_t size,
    const std::array<uint64_t, kNumRoots>& roots, uint64_t epoch,
    const std::string& container_path, const CrpmOptions& opt) {
  RestoreResult r;
  r.epoch = epoch;
  const CrpmOptions ropt = restore_options(opt);
  if (!region_matches(ropt, size, &r.error)) return r;
  const std::string tmp = container_path + ".restoring";
  std::remove(tmp.c_str());
  {
    auto c = Container::open(
        std::make_unique<FileNvmDevice>(tmp,
                                        Container::required_device_size(ropt)),
        ropt);
    if (!format_at_epoch(*c, image, size, roots, epoch, &r.error)) {
      std::remove(tmp.c_str());
      return r;
    }
  }
  return publish_container(std::move(r), tmp, container_path, ropt);
}

// renumber_epoch moves the committed epoch, not an async pipeline's
// capture cursor, so an async restored container is handed back reopened.
RestoreResult restore(const std::string& archive_path, uint64_t epoch,
                      NvmDevice* dev, const CrpmOptions& opt) {
  RestoreResult r = restore_impl(archive_path, epoch, dev, opt);
  if (r.container != nullptr && opt.async_checkpoint) {
    r.container.reset();
    r.container = Container::open(dev, restore_options(opt));
  }
  return r;
}

RestoreResult restore(const std::string& archive_path, uint64_t epoch,
                      std::unique_ptr<NvmDevice> dev,
                      const CrpmOptions& opt) {
  RestoreResult r = restore_impl(archive_path, epoch, dev.get(), opt);
  if (r.container != nullptr) {
    r.container.reset();
    r.container = Container::open(std::move(dev), restore_options(opt));
  }
  return r;
}

RestoreResult restore_file(const std::string& archive_path, uint64_t epoch,
                           const std::string& container_path,
                           const CrpmOptions& opt) {
  const std::string tmp = container_path + ".restoring";
  std::remove(tmp.c_str());
  RestoreResult r;
  bool restored = false;
  {
    FileNvmDevice dev(tmp, Container::required_device_size(opt));
    r = restore_impl(archive_path, epoch, &dev, opt);
    restored = r.container != nullptr;
    r.container.reset();  // unmaps the side file before it is published
  }
  if (!restored) {
    std::remove(tmp.c_str());
    return r;
  }
  return publish_container(std::move(r), tmp, container_path,
                           restore_options(opt));
}

bool read_state(const std::string& archive_path, uint64_t epoch,
                std::vector<uint8_t>* image,
                std::array<uint64_t, kNumRoots>* roots, std::string* err,
                uint32_t workers, RestorePerf* perf) {
  uint64_t chosen = 0;
  std::vector<std::string> warnings;
  return load_state(archive_path, epoch, workers, image, roots, &chosen,
                    &warnings, perf, err);
}

}  // namespace crpm::snapshot
