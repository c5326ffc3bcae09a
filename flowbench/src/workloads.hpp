// The flowbench workloads and the pieces they share: the timed set-up
// (cold characterization plus daemon start), a handle on a running
// cnfetd, the correctness gates and the signoff replay of the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/flow.hpp"
#include "cnt/analyzer.hpp"
#include "gen/gen.hpp"
#include "harness.hpp"
#include "util/json.hpp"

namespace flowbench {

namespace json = cnfet::util::json;

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupReps = 9;
/// Client connections of serve_mix and pool workers of every cnfetd. Two
/// busy workers plus their clients leave headroom on a 4-core host, so
/// latencies measure the daemon rather than the scheduler.
inline constexpr int kThreads = 2;
/// The `cnfetc monte-carlo` probe every gen workload runs after each
/// compile. Few long calls rather than many short ones: millisecond
/// scheduling jitter on a shared host swung the p90 of 100 calls of 2,000
/// trials by ±30% from batch to batch. A couple of calls per compile
/// spread the samples over the whole run instead of one burst.
inline constexpr const char* kProbeCell = "AOI22";
inline constexpr int kProbeTrials = 20000;
inline constexpr int kProbeCalls = 2;
/// Trials of the indexed-vs-naive tracer equivalence check.
inline constexpr int kPrefixTrials = 500;
/// Seeded input vectors the gen oracle replays on the resumed netlist.
inline constexpr int kOracleVectors = 64;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string bin_dir;   ///< holds cnfetc and cnfetd
  std::string work_dir;  ///< scratch space for this run (emptied first)
};

/// Everything one run accumulates.
struct Context {
  Options options;
  std::string cnfetc;
  std::string cnfetd;
  std::string log;        ///< children's stdout/stderr
  std::string cache_dir;  ///< filled LibraryCache disk tier after set-up
  Tally tally;
  Report report;
  Tracer tracer;
  /// Per-layer counts and derived values of the traced run.
  std::map<std::string, double> counters;

  [[nodiscard]] std::string path(const std::string& name) const {
    return options.work_dir + "/" + name;
  }
};

/// A `cnfetc gen` workload, as the CLI flags and the in-process options
/// of the traced replay are both derived from it.
struct GenWorkload {
  std::string name;
  cnfet::gen::GenOptions gen;  ///< family and width
  bool optimize = false;
  bool route = false;
  bool resume = false;  ///< resume the saved session after the compile
};

[[nodiscard]] const GenWorkload* find_gen_workload(const std::string& name);

int run_gen(Context& ctx, const GenWorkload& workload);
int run_gen_traced(Context& ctx, const GenWorkload& workload);
int run_serve(Context& ctx);
int run_serve_traced(Context& ctx);

/// A cnfetd child on an ephemeral port with its own cache dir.
class Daemon {
 public:
  Daemon(const Context& ctx, const std::string& cache_dir, int index);

  /// Polls the port file, then pings until the daemon answers.
  [[nodiscard]] bool wait_ready(double timeout_s);
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }
  /// One request on a fresh connection; nullopt on transport failure.
  [[nodiscard]] std::optional<json::Value> call(const json::Value& request);
  /// Graceful shutdown request, then reaps the process.
  ProcResult stop();

 private:
  std::string port_file_;
  Child child_;
  std::string endpoint_;
};

/// Cold library characterization into an empty cache dir plus daemon
/// start until the first ping answers, kSetupReps times; returns the
/// median seconds. The last set-up's cache dir (now filled) becomes
/// ctx.cache_dir; its daemon is handed back through `keep` when given,
/// else stopped.
double timed_setup(Context& ctx, std::unique_ptr<Daemon>* keep);

/// In-process cold characterization of both technologies into an empty
/// cache dir under a "liberty.characterize" span; sets ctx.cache_dir.
void traced_characterize(Context& ctx);

/// Points the process-wide LibraryCache at ctx.cache_dir (never at the
/// user's CNFET_LIBRARY_CACHE_DIR).
void use_bench_cache(const Context& ctx);

/// Advances `flow` to Exported one stage at a time, each under the span
/// of the layer that stage calls; false when a stage fails.
bool run_stages_traced(Context& ctx, cnfet::api::Flow& flow);

/// GDS stream of an exported flow.
[[nodiscard]] std::string gds_bytes(const cnfet::api::Flow& flow);

/// Quality of result of one compiled design.
struct Quality {
  double worst_arrival_ps = 0.0;  ///< routed when routed, else post-opt
  double wirelength_lambda = 0.0; ///< routed wire when routed, else HPWL
};

/// What an end-to-end run measured, for report_end_to_end.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double session_bytes = 0.0;
  Quality quality;
  long operations = 0;  ///< CLI invocations or served requests answered
  double elapsed_s = 0.0;
  std::vector<double> compile_ms;
  std::vector<double> mc_ms;
};

/// Prints every end-to-end metric.
void report_end_to_end(Context& ctx, const EndToEnd& e);

/// The gates on a resumed session: the gen oracle over seeded sample
/// vectors, GDS bytes equal to `gds_on_disk`, and on routed designs
/// route::verify, zero wire DRC violations and routed >= ideal arrival.
Quality check_session(Context& ctx, const GenWorkload& workload,
                      const cnfet::api::Flow& resumed,
                      const std::string& gds_on_disk);

/// cnt::monte_carlo on a paper cell (one thread, indexed tracer) under a
/// "cnt.mc" span, counting trials and tubes.
[[nodiscard]] cnfet::cnt::MonteCarloResult traced_monte_carlo(
    Context& ctx, const std::string& cell, int trials, std::uint64_t seed);

/// Indexed tracer equals the naive reference on a kPrefixTrials prefix.
void check_tracer_prefix(Context& ctx, const std::string& cell,
                         std::uint64_t seed);

/// Re-runs Flow::sign_off's sub-steps on the flow's placed design under
/// spans (cell DRC, immunity, and when routed: route, verify, extract,
/// wired STA, wire DRC), accumulating counters and checking the replayed
/// routing against the flow's own.
void replay_signoff(Context& ctx, const cnfet::api::Flow& flow);

/// Prints every per-layer metric from the tracer and the counters.
void report_layers(Context& ctx);

/// Monte Carlo seed `index` of the run: below 2^53, so it survives the
/// JSON number on the wire exactly.
[[nodiscard]] std::uint64_t mc_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace flowbench
