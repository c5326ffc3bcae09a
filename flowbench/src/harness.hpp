// Plumbing shared by the flowbench workloads: child processes with their
// rusage, order statistics, the pass/fail tally of the correctness gates,
// the metric report printed as the run's last stdout line, and the
// in-memory span recorder of the traced run.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace flowbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return seconds_since(start) * 1e3;
}

/// Arithmetic mean of `values`; 0 when empty.
[[nodiscard]] double mean(const std::vector<double>& values);
/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Flushes dirty pages to disk, so writeback of earlier output (a 35 MB
/// session, a previous run's files) does not land inside the next timed
/// operation.
void settle();

/// Whole file as bytes ("" when unreadable).
[[nodiscard]] std::string read_file(const std::string& path);

/// How one child process ended.
struct ProcResult {
  int exit_code = -1;  ///< -1 when it did not exit normally
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< the child's own ru_maxrss

  [[nodiscard]] bool ok() const { return exit_code == 0; }
};

/// A started child whose stdout and stderr append to a log file. The
/// destructor terminates and reaps a child nobody waited for, so no run
/// leaves a process behind on an error path.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// True once the child has exited (it stays unreaped for wait()).
  [[nodiscard]] bool exited() const;
  /// Blocks until the child exits; wall time counts from construction.
  ProcResult wait();

 private:
  pid_t pid_ = -1;
  Clock::time_point start_;
};

/// Runs a child to completion.
[[nodiscard]] ProcResult run_process(const std::vector<std::string>& argv,
                                     const std::string& log_path);

/// Operations attempted and failed, plus every correctness check: a failed
/// check counts as a failed operation.
class Tally {
 public:
  void op(bool ok, const std::string& what);
  void check(bool ok, const std::string& what);

  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
};

/// Named metrics with units, printed as the run's result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// One JSON object: correct, attempted, failed, metrics.
  [[nodiscard]] std::string result_line(const Tally& tally) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// In-memory span recorder: name, start, end and parent of every span,
/// written out once at the end of the run.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  /// Opens a span under the innermost open one; it closes with the Scope.
  [[nodiscard]] Scope span(const std::string& name);

  /// Summed duration of every span named `name`.
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// Summed self time (duration minus the spans directly under it).
  [[nodiscard]] double self_ms(const std::string& name) const;
  /// Chrome trace-event JSON of every span.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  void close(int index);
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace flowbench
