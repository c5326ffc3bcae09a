#include "api/library_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <utility>

#include "api/serialize.hpp"

namespace cnfet::api {

struct LibraryCache::Slot {
  std::once_flag once;
  std::optional<util::Result<LibraryHandle>> result;
  /// Release-store after `result` is written; size() acquire-loads it to
  /// observe the slot without entering the call_once.
  std::atomic<bool> done{false};
};

LibraryCache::LibraryCache() {
  if (const char* env = std::getenv("CNFET_LIBRARY_CACHE_DIR")) {
    cache_dir_ = env;
  }
}

LibraryCache& LibraryCache::global() {
  static LibraryCache cache;
  return cache;
}

void LibraryCache::set_cache_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_dir_ = std::move(dir);
}

std::string LibraryCache::cache_dir() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_dir_;
}

std::string LibraryCache::cache_path(layout::Tech tech) const {
  const std::string dir = cache_dir();
  if (dir.empty()) return {};
  // "CNFET65" -> "cnfet65-v2.json": the filename keys both the technology
  // and the artifact schema, so a schema bump naturally misses old files.
  std::string name = layout::to_string(tech);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return (std::filesystem::path(dir) /
          (name + "-v" + std::to_string(kSchemaVersion) + ".json"))
      .string();
}

util::Diagnostics LibraryCache::diagnostics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return disk_diags_;
}

util::Result<LibraryHandle> LibraryCache::get(layout::Tech tech) {
  // Two-phase memoization: the map lock only guards slot creation (cheap),
  // while the seconds-long characterization runs under the slot's
  // call_once — so concurrent misses on the SAME tech share one build and
  // different techs build in parallel.
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& entry = by_tech_[tech];
    if (!entry) entry = std::make_shared<Slot>();
    slot = entry;
  }
  std::call_once(slot->once, [&] {
    const std::string path = cache_path(tech);
    const auto note = [&](util::Severity severity, std::string message) {
      std::lock_guard<std::mutex> lock(mutex_);
      disk_diags_.add({severity, "library-cache", std::move(message)});
    };
    // Disk tier first: a valid artifact replaces the whole transient
    // characterization grid with a parse + deterministic geometry rebuild.
    if (!path.empty()) {
      std::error_code ec;
      if (std::filesystem::exists(path, ec)) {
        auto loaded = load_library(path);
        if (loaded.ok()) {
          note(util::Severity::kInfo,
               std::string("loaded ") + layout::to_string(tech) + " from " +
                   path);
          slot->result = std::move(loaded);
          slot->done.store(true, std::memory_order_release);
          return;
        }
        note(util::Severity::kWarning,
             "refusing " + path + ", falling back to characterization: " +
                 loaded.error().message);
      }
    }
    liberty::CharacterizeOptions options;
    options.layout_tech = tech;
    slot->result = build(options);
    if (!path.empty() && slot->result->ok()) {
      std::error_code ec;
      std::filesystem::create_directories(cache_dir(), ec);
      // Write-then-rename so concurrent processes (ctest runs many test
      // binaries against one cache dir) never observe a torn file — the
      // rename is atomic and the last writer wins with identical bytes.
      const std::string tmp =
          path + ".tmp." + std::to_string(::getpid());
      auto written = save_library(*slot->result->value(), tmp);
      if (written.ok()) {
        std::filesystem::rename(tmp, path, ec);
        if (ec) {
          written = util::Result<std::string>::failure(
              "serialize", "rename to " + path + " failed");
        }
      }
      if (!written.ok()) {
        // Never leave a partial .tmp file behind (disk-full, permissions,
        // failed rename) — orphans would accumulate across runs.
        std::filesystem::remove(tmp, ec);
      }
      if (written.ok()) {
        note(util::Severity::kInfo, std::string("stored ") +
                                        layout::to_string(tech) + " to " +
                                        path);
      } else {
        note(util::Severity::kWarning,
             "could not store " + path + ": " + written.error().message);
      }
    }
    slot->done.store(true, std::memory_order_release);
  });
  return *slot->result;
}

util::Result<LibraryHandle> LibraryCache::build(
    const liberty::CharacterizeOptions& options) {
  try {
    return LibraryHandle(std::make_shared<const liberty::Library>(
        liberty::build_library(options)));
  } catch (const std::exception& e) {
    return util::Result<LibraryHandle>::failure(
        "characterize", std::string("library characterization failed: ") +
                            e.what());
  }
}

std::size_t LibraryCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t built = 0;
  for (const auto& [tech, slot] : by_tech_) {
    if (slot->done.load(std::memory_order_acquire) && slot->result->ok()) {
      ++built;
    }
  }
  return built;
}

void LibraryCache::clear() {
  // Waiters still blocked in call_once keep their slot alive through the
  // shared_ptr; they complete against the detached slot while new get()
  // calls start fresh.
  std::lock_guard<std::mutex> lock(mutex_);
  by_tech_.clear();
}

}  // namespace cnfet::api
