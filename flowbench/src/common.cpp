#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include "api/serialize.hpp"
#include "cnt/analyzer.hpp"
#include "drc/drc.hpp"
#include "gds/gds.hpp"
#include "layout/cells.hpp"
#include "route/extract.hpp"
#include "route/router.hpp"
#include "serve/client.hpp"
#include "sta/timing_graph.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace flowbench {

namespace api = cnfet::api;
namespace fs = std::filesystem;
using cnfet::layout::Tech;

const GenWorkload* find_gen_workload(const std::string& name) {
  static const std::vector<GenWorkload> kWorkloads = [] {
    using cnfet::gen::Family;
    std::vector<GenWorkload> w(3);
    w[0].name = "rca_route";
    w[0].gen.family = Family::kRippleCarryAdder;
    w[0].gen.width = 256;
    w[0].route = true;
    w[0].resume = true;
    w[1].name = "cla_route";
    w[1].gen.family = Family::kCarryLookaheadAdder;
    w[1].gen.width = 32;
    w[1].route = true;
    w[2].name = "rca_opt";
    w[2].gen.family = Family::kRippleCarryAdder;
    w[2].gen.width = 64;
    w[2].optimize = true;
    return w;
  }();
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t mc_seed(std::uint64_t seed, std::uint64_t index) {
  return cnfet::util::derive_stream(seed, index) >> 11;
}

Daemon::Daemon(const Context& ctx, const std::string& cache_dir, int index)
    : port_file_(ctx.path("port" + std::to_string(index))),
      child_({ctx.cnfetd, "--cache-dir", cache_dir, "--port-file", port_file_,
              "--threads", std::to_string(kThreads)},
             ctx.log) {}

bool Daemon::wait_ready(double timeout_s) {
  const auto start = Clock::now();
  while (seconds_since(start) < timeout_s && !child_.exited()) {
    const std::string text = read_file(port_file_);
    if (!text.empty() && text.back() == '\n') {
      const std::string endpoint =
          "127.0.0.1:" + text.substr(0, text.size() - 1);
      auto client = cnfet::serve::Client::connect(endpoint);
      if (client.ok() && client.value().ping()) {
        endpoint_ = endpoint;
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

std::optional<json::Value> Daemon::call(const json::Value& request) {
  auto client = cnfet::serve::Client::connect(endpoint_);
  if (!client.ok()) return std::nullopt;
  auto response = client.value().call(request, 60000);
  if (!response.ok()) return std::nullopt;
  return std::move(response).value();
}

ProcResult Daemon::stop() {
  if (!endpoint_.empty()) {
    using cnfet::serve::RequestKind;
    (void)call(cnfet::serve::make_request(RequestKind::kShutdown));
  }
  return child_.wait();
}

namespace {

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

bool disk_tier_filled(const std::string& dir) {
  api::LibraryCache probe;
  probe.set_cache_dir(dir);
  return fs::exists(probe.cache_path(Tech::kCnfet65)) &&
         fs::exists(probe.cache_path(Tech::kCmos65));
}

}  // namespace

double timed_setup(Context& ctx, std::unique_ptr<Daemon>* keep) {
  std::vector<double> seconds;
  settle();
  for (int r = 0; r < kSetupReps; ++r) {
    const std::string dir = ctx.path("cache" + std::to_string(r));
    fresh_dir(dir);
    const auto start = Clock::now();
    auto daemon = std::make_unique<Daemon>(ctx, dir, r);
    const bool ready = daemon->wait_ready(120.0);
    seconds.push_back(seconds_since(start));
    ctx.tally.op(ready, "cnfetd start with an empty cache dir");
    ctx.tally.check(disk_tier_filled(dir),
                    "set-up filled the disk tier for both technologies");
    ctx.cache_dir = dir;
    if (keep != nullptr && r + 1 == kSetupReps) {
      *keep = std::move(daemon);
    } else {
      ctx.tally.op(daemon->stop().ok(), "cnfetd graceful stop");
    }
  }
  return median(seconds);
}

void traced_characterize(Context& ctx) {
  const std::string dir = ctx.path("cache_traced");
  fresh_dir(dir);
  api::LibraryCache cache;
  cache.set_cache_dir(dir);
  {
    auto span = ctx.tracer.span("liberty.characterize");
    for (const Tech tech : {Tech::kCnfet65, Tech::kCmos65}) {
      ctx.tally.op(cache.get(tech).ok(), "cold characterization");
    }
  }
  ctx.tally.check(disk_tier_filled(dir),
                  "characterization filled the disk tier");
  ctx.cache_dir = dir;
}

void use_bench_cache(const Context& ctx) {
  api::LibraryCache::global().set_cache_dir(ctx.cache_dir);
}

bool run_stages_traced(Context& ctx, api::Flow& flow) {
  // Indexed by the stage being left: Created maps, Mapped times, ...
  static constexpr const char* kSpans[] = {"flow.map",   "sta.time",
                                           "opt.optimize", "flow.place",
                                           "flow.signoff", "flow.export"};
  while (flow.stage() != api::Stage::kExported) {
    const int from = api::index_of_stage(flow.stage());
    auto span = ctx.tracer.span(kSpans[from]);
    if (!flow.run(static_cast<api::Stage>(from + 1)).ok()) return false;
  }
  return true;
}

std::string gds_bytes(const api::Flow& flow) {
  std::ostringstream out(std::ios::binary);
  cnfet::gds::write(flow.exported()->gds, out);
  return out.str();
}

Quality check_session(Context& ctx, const GenWorkload& workload,
                      const api::Flow& resumed,
                      const std::string& gds_on_disk) {
  Quality quality;
  const std::string& wl = workload.name;
  const auto netlist_result = resumed.netlist();
  if (!netlist_result.ok() || resumed.exported() == nullptr) {
    ctx.tally.check(false, wl + ": resumed session reached Exported");
    return quality;
  }
  const auto& netlist = *netlist_result.value();

  // The generator's oracle is big-integer arithmetic, independent of the
  // netlist construction and of every stage after it.
  const auto reference = cnfet::gen::generate(resumed.library(), workload.gen);
  bool same_interface =
      netlist.inputs().size() == reference.netlist.inputs().size() &&
      netlist.outputs().size() == reference.netlist.outputs().size();
  bool oracle_ok = same_interface;
  if (same_interface) {
    for (const auto& vec : cnfet::gen::sample_vectors(
             netlist.inputs().size(), kOracleVectors,
             mc_seed(ctx.options.seed, 0xA11CE))) {
      const auto values = netlist.simulate(vec);
      const auto expect = reference.oracle(vec);
      for (std::size_t po = 0; po < expect.size(); ++po) {
        const auto net = static_cast<std::size_t>(netlist.outputs()[po]);
        oracle_ok = oracle_ok && values[net] == expect[po];
      }
    }
  }
  ctx.tally.check(oracle_ok,
                  wl + ": resumed netlist matches the gen oracle on seeded "
                       "sample vectors");
  ctx.tally.check(!gds_on_disk.empty() && gds_bytes(resumed) == gds_on_disk,
                  wl + ": resumed session reproduces design.gds byte for byte");

  const auto m = resumed.metrics();
  if (workload.route) {
    const auto* routed = resumed.routed();
    if (routed == nullptr) {
      ctx.tally.check(false, wl + ": resumed session carries its routing");
      return quality;
    }
    const auto& rules =
        resumed.library().cells().front().built.layout.rules();
    const auto verify = cnfet::route::verify(
        netlist, resumed.placed()->placement, routed->routing, rules);
    ctx.tally.check(verify.ok() && routed->routing.complete(),
                    wl + ": route::verify finds no opens or shorts");
    ctx.tally.check(routed->wire_drc_violations == 0,
                    wl + ": zero wire DRC violations");
    ctx.tally.check(
        routed->routed_timing.worst_arrival >= routed->ideal_worst_arrival_s,
        wl + ": routed worst arrival is not faster than ideal");
    quality.worst_arrival_ps = m.routed_worst_arrival_s * 1e12;
    quality.wirelength_lambda = m.total_wirelength;
  } else {
    quality.worst_arrival_ps = m.worst_arrival_s * 1e12;
    quality.wirelength_lambda = m.hpwl_lambda;
  }
  return quality;
}

cnfet::cnt::MonteCarloResult traced_monte_carlo(Context& ctx,
                                                const std::string& cell,
                                                int trials,
                                                std::uint64_t seed) {
  const auto built =
      cnfet::layout::build_cell(cnfet::layout::find_cell_spec(cell));
  cnfet::cnt::MonteCarloResult mc;
  {
    auto span = ctx.tracer.span("cnt.mc");
    mc = cnfet::cnt::monte_carlo(built.layout, built.netlist, built.function,
                                 cnfet::cnt::TubeModel{}, trials, seed, 1);
  }
  ctx.counters["cnt.trials"] += mc.trials;
  ctx.counters["cnt.tubes_sampled"] += static_cast<double>(mc.tubes_sampled);
  return mc;
}

void check_tracer_prefix(Context& ctx, const std::string& cell,
                         std::uint64_t seed) {
  const auto built =
      cnfet::layout::build_cell(cnfet::layout::find_cell_spec(cell));
  const auto run = [&](cnfet::cnt::TracerKind kind) {
    return json::dump(api::to_json(
        cnfet::cnt::monte_carlo(built.layout, built.netlist, built.function,
                                cnfet::cnt::TubeModel{}, kPrefixTrials, seed,
                                1, kind)));
  };
  ctx.tally.check(run(cnfet::cnt::TracerKind::kIndexed) ==
                      run(cnfet::cnt::TracerKind::kNaive),
                  cell + ": indexed Monte Carlo equals the naive tracer on a " +
                      std::to_string(kPrefixTrials) + "-trial prefix");
}

void replay_signoff(Context& ctx, const api::Flow& flow) {
  auto replay = ctx.tracer.span("signoff.replay");
  const auto& netlist = *flow.netlist().value();
  const auto& options = flow.options();
  const auto& placement = flow.placed()->placement;
  const auto& rules = flow.library().cells().front().built.layout.rules();
  std::set<const cnfet::liberty::LibCell*> distinct;
  for (const auto& gate : netlist.gates()) distinct.insert(gate.cell);

  int cell_violations = 0;
  {
    auto span = ctx.tracer.span("drc.cell");
    for (const auto* cell : distinct) {
      cell_violations += static_cast<int>(
          cnfet::drc::check(cell->built.layout, options.drc).violations.size());
    }
  }
  ctx.tally.check(cell_violations == flow.signed_off()->total_drc_violations,
                  flow.name() + ": replayed cell DRC matches sign-off");
  if (options.tech == Tech::kCnfet65) {
    bool immune = true;
    auto span = ctx.tracer.span("cnt.immunity");
    for (const auto* cell : distinct) {
      immune = cnfet::cnt::check_exact(cell->built.layout, cell->built.netlist,
                                       cell->built.function)
                   .immune &&
               immune;
    }
    ctx.tally.check(immune == flow.signed_off()->all_immune,
                    flow.name() + ": replayed immunity matches sign-off");
  }
  if (!options.route) return;

  cnfet::route::RoutingResult routing;
  {
    auto span = ctx.tracer.span("route.route");
    routing =
        cnfet::route::route(netlist, placement, rules, options.route_opts);
  }
  cnfet::route::VerifyReport verify;
  {
    auto span = ctx.tracer.span("route.verify");
    verify = cnfet::route::verify(netlist, placement, routing, rules);
  }
  cnfet::route::Extraction extraction;
  {
    auto span = ctx.tracer.span("route.extract");
    extraction = cnfet::route::extract(netlist, routing, rules);
  }
  double routed_arrival = 0.0;
  {
    auto span = ctx.tracer.span("sta.wired");
    cnfet::sta::TimingGraph wired(netlist, options.sta, 0.0,
                                  extraction.to_wire_loads(netlist));
    routed_arrival = wired.to_sta_result().worst_arrival;
  }
  cnfet::drc::DrcReport wire_drc;
  {
    auto span = ctx.tracer.span("drc.wire");
    wire_drc = cnfet::drc::check_routes(routing, rules);
  }
  double shapes = 0.0;
  for (const auto& net : routing.nets) {
    shapes += static_cast<double>(net.wires.size() + 2 * net.vias.size());
  }
  ctx.counters["route.nets"] += static_cast<double>(routing.nets.size());
  ctx.counters["route.failed_nets"] += routing.failed_nets;
  ctx.counters["drc.wire_shapes"] += shapes;
  ctx.counters["drc.wire_violations"] +=
      static_cast<double>(wire_drc.violations.size());

  const auto* routed = flow.routed();
  ctx.tally.check(routed != nullptr && routing == routed->routing,
                  flow.name() + ": replayed routing equals the flow's");
  ctx.tally.check(verify.ok() && routing.complete(),
                  flow.name() + ": route::verify finds no opens or shorts");
  ctx.tally.check(wire_drc.clean(), flow.name() + ": zero wire DRC violations");
  ctx.tally.check(routed != nullptr &&
                      routed_arrival >= routed->ideal_worst_arrival_s,
                  flow.name() + ": routed worst arrival is not faster than "
                                "ideal");
}

void report_end_to_end(Context& ctx, const EndToEnd& e) {
  auto& r = ctx.report;
  r.add("setup_s", e.setup_s, "s");
  r.add("peak_rss_mb", e.peak_rss_mb, "MB");
  r.add("session_mb", e.session_bytes / 1e6, "MB");
  r.add("worst_arrival_ps", e.quality.worst_arrival_ps, "ps");
  r.add("wirelength_lambda", e.quality.wirelength_lambda, "lambda");
  r.add("success_rate",
        1.0 - static_cast<double>(ctx.tally.failed()) /
                  static_cast<double>(ctx.tally.attempted()),
        "ratio");
  // Only the slow-side percentile of each latency is a gated metric: a
  // busy neighbour on the host core slows this code by up to 2x for
  // minutes, and how much of a run it overlaps moves medians and means
  // far more than the p90. The medians, sample counts and throughput go
  // to stderr for the reader.
  r.add("compile_p90_ms", quantile(e.compile_ms, 0.9), "ms");
  r.add("mc_p90_ms", quantile(e.mc_ms, 0.9), "ms");
  std::fprintf(stderr,
               "flowbench: %zu compiles p50 %.3f ms p90 %.3f ms; %zu Monte "
               "Carlo runs p50 %.3f ms p90 %.3f ms; %.3f operations/s\n",
               e.compile_ms.size(), quantile(e.compile_ms, 0.5),
               quantile(e.compile_ms, 0.9), e.mc_ms.size(),
               quantile(e.mc_ms, 0.5), quantile(e.mc_ms, 0.9),
               static_cast<double>(e.operations) / e.elapsed_s);
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Times are the self time of the span named by the metric's stem; the
// rest come from Context::counters.
constexpr LayerMetric kLayerMetrics[] = {
    {"liberty.characterize_s", "s"},
    {"library_cache.load_ms", "ms"},
    {"gen.generate_ms", "ms"},
    {"gen.gates", "count"},
    {"flow.map_ms", "ms"},
    {"sta.time_ms", "ms"},
    {"opt.optimize_ms", "ms"},
    {"opt.gates_resized", "count"},
    {"opt.buffers_inserted", "count"},
    {"opt.gates_removed", "count"},
    {"flow.place_ms", "ms"},
    {"place.hpwl_lambda", "lambda"},
    {"flow.signoff_ms", "ms"},
    {"signoff.replay_share", "%"},
    {"drc.cell_ms", "ms"},
    {"cnt.immunity_ms", "ms"},
    {"route.route_ms", "ms"},
    {"route.nets", "count"},
    {"route.failed_nets", "count"},
    {"route.verify_ms", "ms"},
    {"route.extract_ms", "ms"},
    {"sta.wired_ms", "ms"},
    {"drc.wire_ms", "ms"},
    {"drc.wire_shapes", "count"},
    {"drc.wire_violations", "count"},
    {"flow.export_ms", "ms"},
    {"gds.write_ms", "ms"},
    {"gds.bytes", "bytes"},
    {"serialize.save_ms", "ms"},
    {"serialize.resume_ms", "ms"},
    {"serialize.session_bytes", "bytes"},
    {"cnt.mc_ms", "ms"},
    {"cnt.trials_per_s", "1/s"},
    {"cnt.tubes_sampled", "count"},
    {"serve.overhead_ms", "ms"},
    {"serve.rejected_overload", "count"},
    {"serve.requests_error", "count"},
    {"trace.compile_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void report_layers(Context& ctx) {
  // How much of the opaque sign-off stage its replayed sub-steps explain.
  const double signoff_ms = ctx.tracer.total_ms("flow.signoff");
  const double replayed_ms = ctx.tracer.total_ms("signoff.replay") -
                             ctx.tracer.self_ms("signoff.replay");
  ctx.counters["signoff.replay_share"] =
      signoff_ms > 0.0 ? 100.0 * replayed_ms / signoff_ms : 0.0;
  const double mc_ms = ctx.tracer.total_ms("cnt.mc");
  ctx.counters["cnt.trials_per_s"] =
      mc_ms > 0.0 ? ctx.counters["cnt.trials"] / (mc_ms / 1e3) : 0.0;
  for (const auto& metric : kLayerMetrics) {
    const std::string name = metric.name;
    double value = 0.0;
    if (const auto it = ctx.counters.find(name); it != ctx.counters.end()) {
      value = it->second;
    } else if (ends_with(name, "_ms")) {
      value = ctx.tracer.self_ms(name.substr(0, name.size() - 3));
    } else if (ends_with(name, "_s")) {
      value = ctx.tracer.self_ms(name.substr(0, name.size() - 2)) / 1e3;
    }
    ctx.report.add(name, value, metric.unit);
  }
}

}  // namespace flowbench
