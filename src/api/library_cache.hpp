// Shared characterized-library store for the api::Flow pipeline.
//
// Characterizing a library runs hundreds of transient simulations, so a
// batch of flow jobs must not redo it per job. The cache hands out one
// shared, immutable liberty::Library per technology; flows and gate
// netlists keep it alive through the shared_ptr (Gate holds raw LibCell
// pointers into the library, so the owner must outlive every netlist
// mapped against it).
//
// Sharing model (the run_batch workers depend on this):
//  * get() is safe to call from any number of threads. A cache miss is
//    characterized exactly ONCE per technology — concurrent callers block
//    on the in-flight build (std::call_once per tech slot) instead of
//    duplicating the work, and all receive the same handle.
//  * A cold build itself runs the fast characterization path: the adaptive
//    analytic-Jacobian transient engine, with the slew x load x arc grid
//    fanned out over util::parallel_map (CharacterizeOptions defaults:
//    num_threads = 0 = one worker per hardware thread). The resulting
//    library is bit-identical for any thread count, so cache hits are
//    indistinguishable from a serial build. Callers needing the seed
//    reference engine or a custom grid go through build() with explicit
//    liberty::CharacterizeOptions.
//  * The handed-out liberty::Library is deeply immutable, so any number
//    of flows may read it concurrently with no further locking.
//  * A failed characterization is cached too (the same options fail the
//    same way); clear() resets the cache if a retry is ever wanted.
//
// Disk tier: set_cache_dir() (or the CNFET_LIBRARY_CACHE_DIR environment
// variable) names a directory of versioned library artifacts,
// `<tech>-v<schema>.json` (api/serialize.hpp). With it set, a cache miss
// first tries the file — loading NLDM tables and rebuilding the cheap
// deterministic geometry is >=10x faster than re-running the transient
// characterization grid — and characterizes only when the file is absent
// or refused (schema-version or checksum mismatch), writing the artifact
// back afterwards. Every disk decision is recorded in diagnostics(): a
// refused file downgrades to a warning plus a fresh characterization,
// never a failure.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "layout/rules.hpp"
#include "liberty/library.hpp"
#include "util/result.hpp"

namespace cnfet::api {

using LibraryHandle = std::shared_ptr<const liberty::Library>;

class LibraryCache {
 public:
  /// A fresh cache (disk tier seeded from CNFET_LIBRARY_CACHE_DIR when the
  /// variable is set). Most callers want global() instead; standalone
  /// instances exist for tools and tests that need an isolated disk tier.
  LibraryCache();

  /// Process-wide cache shared by Flow, run_batch and the compile server.
  [[nodiscard]] static LibraryCache& global();

  /// The default-characterized library for a technology, building and
  /// memoizing it on first request. Thread-safe; concurrent misses on the
  /// same technology share one in-flight build. Characterization failures
  /// come back as a Diagnostic, never an exception.
  [[nodiscard]] util::Result<LibraryHandle> get(layout::Tech tech);

  /// Builds (uncached) with explicit characterization options, for callers
  /// that sweep non-default grids. Same non-throwing contract as get().
  [[nodiscard]] static util::Result<LibraryHandle> build(
      const liberty::CharacterizeOptions& options);

  /// Number of completed successful characterizations currently cached.
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Points the disk tier at `dir` ("" disables it). Only affects
  /// technologies not yet resolved in memory — clear() first to force the
  /// next get() through the disk. The process-wide cache starts from the
  /// CNFET_LIBRARY_CACHE_DIR environment variable when it is set.
  void set_cache_dir(std::string dir);
  [[nodiscard]] std::string cache_dir() const;

  /// The artifact path get() would use for `tech` under the current cache
  /// dir (empty when the disk tier is disabled).
  [[nodiscard]] std::string cache_path(layout::Tech tech) const;

  /// Disk-tier notices accumulated by get(): info on hits and stores,
  /// warnings on refused files that fell back to characterization.
  [[nodiscard]] util::Diagnostics diagnostics() const;

 private:
  /// One per-technology memo cell: call_once guards the build, `result`
  /// is written exactly once before any waiter reads it.
  struct Slot;

  mutable std::mutex mutex_;
  std::map<layout::Tech, std::shared_ptr<Slot>> by_tech_;
  std::string cache_dir_;        // guarded by mutex_
  util::Diagnostics disk_diags_; // guarded by mutex_
};

}  // namespace cnfet::api
