// At-scale throughput bench over the src/gen/ netlist generators: runs
// generated designs from ~2k to 10k gates through the full pipeline and
// records gates/sec per stage, plus the 10k-gate incremental-vs-full
// timing ratio (the incremental graph's reason to exist at scale; gated
// at >= 10x by scripts/check_perf.py).
//
// Workloads:
//   * rca256  — 256-bit ripple-carry adder (2304 gates, 513 inputs: the
//     >64-input vector-simulate path)
//   * mul30   — 30x30 array multiplier (~10k gates, deep carry chains)
//   * rand10k — seeded 10k-gate random DAG (reconvergent, wide fanout)
//   * rand1k  — 1k-gate random DAG for the opt:: sizing/buffering pass
//   * rca64 via gen::to_expressions — the mapper DP at ~100k expr nodes
//
// Every design's reference netlist is checked against its independent
// oracle on sampled vectors, and the 10k flow must sign off DRC-clean;
// both booleans land in the "scale" section and are gated.
//
// Results merge into BENCH_perf.json as the "scale" section
// (bench::merge_section keeps every other section).
//
//   $ ./bench_scale           # a few seconds; updates ./BENCH_perf.json
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "api/flow.hpp"
#include "gen/gen.hpp"
#include "opt/opt.hpp"
#include "sta/timing_graph.hpp"
#include "util/json.hpp"

namespace {

using namespace cnfet;
namespace json = util::json;
using bench::best_ms;
using bench::ms_since;

double gates_per_sec(std::size_t gates, double ms) {
  return ms > 0.0 ? static_cast<double>(gates) / (ms / 1000.0) : 0.0;
}

/// Sampled-vector check of a reference netlist against its oracle.
bool oracle_matches(const gen::Generated& design, int vectors) {
  const auto& netlist = design.netlist;
  for (const auto& vec :
       gen::sample_vectors(netlist.inputs().size(), vectors, 17)) {
    const auto values = netlist.simulate(vec);
    std::size_t po = 0;
    for (const int net : netlist.outputs()) {
      const bool expect = design.oracle(vec)[po++];
      if (values[static_cast<std::size_t>(net)] != expect) return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const auto handle =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  const auto& library = *handle;

  // --- generate the workload family ---------------------------------------
  auto make = [&](gen::Family family, int size, std::uint64_t seed) {
    gen::GenOptions options;
    options.family = family;
    if (family == gen::Family::kRandomDag) {
      options.target_gates = size;
      options.num_inputs = 64;
    } else {
      options.width = size;
    }
    options.seed = seed;
    return gen::generate(library, options);
  };

  const auto gen_start = std::chrono::steady_clock::now();
  const auto rca = make(gen::Family::kRippleCarryAdder, 256, 1);
  const auto mul = make(gen::Family::kArrayMultiplier, 30, 1);
  const auto rand10k = make(gen::Family::kRandomDag, 10000, 1);
  const auto rand1k = make(gen::Family::kRandomDag, 1000, 1);
  const double gen_ms = ms_since(gen_start);

  const bool oracle_identical = oracle_matches(rca, 16) &&
                                oracle_matches(mul, 16) &&
                                oracle_matches(rand10k, 8);
  std::printf("generated rca256=%zu mul30=%zu rand10k=%zu rand1k=%zu gates "
              "in %.1f ms | oracle identical: %s\n",
              rca.netlist.gates().size(), mul.netlist.gates().size(),
              rand10k.netlist.gates().size(), rand1k.netlist.gates().size(),
              gen_ms, oracle_identical ? "yes" : "NO");

  // --- mapper DP at scale: rca64 as one expression forest ------------------
  const auto rca64 = make(gen::Family::kRippleCarryAdder, 64, 1);
  const auto specs = gen::to_expressions(rca64.netlist);
  std::size_t expr_nodes = 0;
  for (const auto& spec : specs) {
    expr_nodes += static_cast<std::size_t>(spec.expr.num_nodes());
  }
  std::vector<std::string> input_names;
  for (const int pi : rca64.netlist.inputs()) {
    input_names.push_back(rca64.netlist.net_name(pi));
  }
  std::size_t mapped_gates = 0;
  const double map_ms = best_ms(3, [&] {
    const auto mapped = flow::map_expressions(specs, input_names, library);
    mapped_gates = mapped.netlist.gates().size();
  });
  std::printf("map rca64: %zu expr nodes -> %zu gates in %.1f ms "
              "(%.0f nodes/sec)\n",
              expr_nodes, mapped_gates, map_ms,
              gates_per_sec(expr_nodes, map_ms));

  // --- per-stage wall time of the 10k-gate flow ----------------------------
  const std::size_t n10k = rand10k.netlist.gates().size();
  auto made = api::Flow::from_netlist(rand10k.netlist);
  if (!made.ok()) {
    std::fprintf(stderr, "from_netlist failed: %s\n",
                 made.error().message.c_str());
    return 1;
  }
  auto& flow = made.value();
  auto staged = [&](util::Result<api::Stage> (api::Flow::*step)(),
                    const char* name) {
    const auto start = std::chrono::steady_clock::now();
    const auto reached = (flow.*step)();
    const double ms = ms_since(start);
    if (!reached.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name,
                   reached.error().message.c_str());
      std::exit(1);
    }
    std::printf("stage %-10s %8.1f ms (%.0f gates/sec)\n", name, ms,
                gates_per_sec(n10k, ms));
    return ms;
  };
  const double sta_ms = staged(&api::Flow::time, "time");
  (void)staged(&api::Flow::optimize, "optimize");  // pass-through (off)
  const double place_ms = staged(&api::Flow::place, "place");
  const double signoff_ms = staged(&api::Flow::sign_off, "sign_off");
  const double export_ms = staged(&api::Flow::export_design, "export");
  const bool signoff_clean =
      flow.signed_off() != nullptr && flow.signed_off()->clean();
  std::printf("10k flow signoff clean: %s\n", signoff_clean ? "yes" : "NO");

  // --- opt:: passes at 1k gates (sharded sizing) ---------------------------
  const std::size_t n1k = rand1k.netlist.gates().size();
  opt::OptOptions oopt;
  oopt.num_threads = 0;  // one worker per hardware thread
  auto opt_netlist = rand1k.netlist;
  const auto opt_start = std::chrono::steady_clock::now();
  const auto stats = opt::optimize(opt_netlist, library, oopt);
  const double opt_ms = ms_since(opt_start);
  std::printf("optimize rand1k: %d edits in %.1f ms (%.0f gates/sec)\n",
              stats.edits(), opt_ms, gates_per_sec(n1k, opt_ms));

  // --- incremental vs full re-time at 10k gates ----------------------------
  flow::GateNetlist timed = rand10k.netlist;
  sta::TimingGraph graph(timed);
  (void)graph.worst_arrival();
  const int probe = static_cast<int>(timed.gates().size()) / 2;
  const auto drives = library.drives_of(liberty::Library::base_name(
      timed.gates()[static_cast<std::size_t>(probe)].cell->name));
  const double full_ms = best_ms(5, [&] {
    sta::TimingGraph rebuilt(timed);
    (void)rebuilt.worst_arrival();
  });
  std::size_t flip = 0;
  const double incremental_ms = best_ms(5, [&] {
    // Alternate the probe gate between two drives of its family; each rep
    // re-times only the affected cone.
    timed.resize_gate(probe, drives[flip++ % drives.size()].cell);
    graph.on_gate_replaced(probe);
    (void)graph.worst_arrival();
  });
  const double incremental_speedup =
      incremental_ms > 0.0 ? full_ms / incremental_ms : 0.0;
  const bool incremental_identical = graph.matches_full_rebuild();
  std::printf("timing 10k: full rebuild %.2f ms | incremental edit %.4f ms "
              "| speedup %.0fx | identical: %s\n",
              full_ms, incremental_ms, incremental_speedup,
              incremental_identical ? "yes" : "NO");

  // --- merge the "scale" section into BENCH_perf.json ----------------------
  json::Value scale = json::Value::object();
  scale.set("rca256_gates", static_cast<int>(rca.netlist.gates().size()));
  scale.set("mul30_gates", static_cast<int>(mul.netlist.gates().size()));
  scale.set("rand10k_gates", static_cast<int>(n10k));
  scale.set("generate_gates_per_sec",
            gates_per_sec(rca.netlist.gates().size() +
                              mul.netlist.gates().size() + n10k + n1k,
                          gen_ms));
  scale.set("map_expr_nodes", static_cast<int>(expr_nodes));
  scale.set("map_nodes_per_sec", gates_per_sec(expr_nodes, map_ms));
  scale.set("time_10k_gates_per_sec", gates_per_sec(n10k, sta_ms));
  scale.set("place_10k_gates_per_sec", gates_per_sec(n10k, place_ms));
  scale.set("signoff_10k_gates_per_sec", gates_per_sec(n10k, signoff_ms));
  scale.set("export_10k_gates_per_sec", gates_per_sec(n10k, export_ms));
  scale.set("opt_1k_gates_per_sec", gates_per_sec(n1k, opt_ms));
  scale.set("incremental_timing_speedup_10k", incremental_speedup);
  scale.set("incremental_identical", incremental_identical);
  scale.set("oracle_identical", oracle_identical);
  scale.set("signoff_clean", signoff_clean);
  if (!bench::merge_section("BENCH_perf.json", "scale",
                             std::move(scale))) {
    return 1;
  }

  if (!oracle_identical || !signoff_clean || !incremental_identical) {
    std::fprintf(stderr,
                 "scale bench equivalence failure (oracle %d, signoff %d, "
                 "incremental %d)\n",
                 oracle_identical ? 1 : 0, signoff_clean ? 1 : 0,
                 incremental_identical ? 1 : 0);
    return 1;
  }
  return 0;
}
