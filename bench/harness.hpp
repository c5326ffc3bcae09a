// Shared plumbing for the perf benches: wall-clock timing and the merge
// of one section into BENCH_perf.json.
//
// Every bench owns one or more top-level keys of BENCH_perf.json and
// merges them with merge_section, which keeps every other key. The
// benches may therefore run in any order, and a bench that fails midway
// leaves the file as it was.
#pragma once

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.hpp"

namespace cnfet::bench {

inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Best-of-`reps` wall time of fn, in milliseconds.
template <typename Fn>
double best_ms(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double elapsed = ms_since(start);
    if (elapsed < best) best = elapsed;
  }
  return best;
}

/// Sets `key` of the JSON object stored at `path` to `value`. A missing
/// or unparseable file starts from an empty object. The result goes to a
/// temporary file that is renamed over `path`, so readers never see a
/// half-written file. Returns false, with a message on stderr, when the
/// file cannot be written.
inline bool merge_section(const std::string& path, const std::string& key,
                          util::json::Value value) {
  namespace json = util::json;
  json::Value root = json::Value::object();
  if (std::ifstream in(path); in) {
    std::ostringstream text;
    text << in.rdbuf();
    try {
      root = json::parse(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "existing %s is unparseable (%s); rewriting\n",
                   path.c_str(), e.what());
    }
    if (!root.is_object()) root = json::Value::object();
  }
  root.set(key, std::move(value));

  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::trunc);
    out << json::dump(root) << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", temp.c_str());
      return false;
    }
  }
  std::error_code error;
  std::filesystem::rename(temp, path, error);
  if (error) {
    std::fprintf(stderr, "cannot rename %s over %s: %s\n", temp.c_str(),
                 path.c_str(), error.message().c_str());
    return false;
  }
  std::printf("merged \"%s\" into %s\n", key.c_str(), path.c_str());
  return true;
}

}  // namespace cnfet::bench
