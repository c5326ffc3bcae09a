#include "harness.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "util/json.hpp"

namespace flowbench {

namespace json = cnfet::util::json;

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void settle() { sync(); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

Child::Child(const std::vector<std::string>& argv, const std::string& log_path)
    : start_(Clock::now()) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ == 0) {
    // Only async-signal-safe calls until exec. A child outlives no killed
    // benchmark: it gets SIGTERM when this process dies, or exits at once
    // when that already happened before prctl.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(127);
    const int in = open("/dev/null", O_RDONLY);
    const int out = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (in < 0 || out < 0 || dup2(in, 0) < 0 || dup2(out, 1) < 0 ||
        dup2(out, 2) < 0) {
      _exit(127);
    }
    execv(args[0], args.data());
    _exit(127);
  }
}

Child::~Child() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    (void)wait();
  }
}

bool Child::exited() const {
  if (pid_ <= 0) return true;
  siginfo_t info{};
  return waitid(P_PID, static_cast<id_t>(pid_), &info,
                WEXITED | WNOHANG | WNOWAIT) == 0 &&
         info.si_pid == pid_;
}

ProcResult Child::wait() {
  ProcResult result;
  if (pid_ <= 0) return result;
  int status = 0;
  rusage usage{};
  int reaped = 0;
  while ((reaped = wait4(pid_, &status, 0, &usage)) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (reaped < 0) return result;
  result.wall_s = seconds_since(start_);
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

ProcResult run_process(const std::vector<std::string>& argv,
                       const std::string& log_path) {
  Child child(argv, log_path);
  return child.wait();
}

void Tally::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "flowbench: operation failed: %s\n", what.c_str());
  }
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "flowbench: check failed: %s\n", what.c_str());
  }
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::result_line(const Tally& tally) const {
  // Values are printed with every significant digit, not through
  // util::json's compact number writer.
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted()
      << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    out << (i == 0 ? "" : ", ") << json::dump(json::Value(m.name))
        << ": {\"value\": " << (std::isfinite(m.value) ? m.value : 0.0)
        << ", \"unit\": " << json::dump(json::Value(m.unit)) << "}";
  }
  out << "}}";
  return out.str();
}

Tracer::Scope Tracer::span(const std::string& name) {
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(*this, index);
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes nest lexically, so the closing span is the innermost one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

double Tracer::total_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

double Tracer::self_ms(const std::string& name) const {
  std::map<int, std::int64_t> child_ns;
  for (const auto& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.name != name) continue;
    ns += s.end_ns - s.start_ns - child_ns[static_cast<int>(i)];
  }
  return static_cast<double>(ns) / 1e6;
}

void Tracer::write(const std::string& path) const {
  json::Value events = json::Value::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    json::Value e = json::Value::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("ts", static_cast<double>(s.start_ns) / 1e3);
    e.set("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    e.set("pid", 1);
    e.set("tid", 1);
    json::Value args = json::Value::object();
    args.set("id", i);
    args.set("parent", s.parent);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream(path, std::ios::trunc) << json::dump(doc, 1) << "\n";
}

}  // namespace flowbench
