// Wire-aware signoff bench: the grid router + Elmore extraction at the
// paper's 13-gate full adder and at the 10k-gate at-scale tier.
//
// Workloads:
//   * fa13   — the buffered full adder (9 NANDs + two 2-inverter output
//     buffers = 13 gates): the paper-scale shape, timed over many reps
//   * rca10k — a 1112-bit ripple-carry adder (10008 gates, ~12k nets):
//     the structured at-scale shape (uniform-random DAGs have no
//     locality, so their bisection width outgrows any fixed-layer
//     fabric; routing targets structured designs, like real netlists)
//   * cla32  — a 32-bit carry-lookahead adder (800 gates): its lookahead
//     fanout spans far enough that joins escalate past the first search
//     window up to the full grid, which fa13 and rca10k never do
//
// Per workload: total wirelength, nets/sec through route()+extract(),
// and the routed-vs-ideal worst-arrival delta from re-timing with the
// extracted wire loads. Hard gates (scripts/check_perf.py --only route):
// 100% connectivity on every workload, the independent open/short oracle
// clean, the wire DRC deck clean, byte-determinism of a repeated route,
// and routed timing never more optimistic than the ideal-net reference.
// The nets/sec floor (min_nets_per_sec) covers fa13 and rca10k only;
// cla32 reports its rate ungated.
//
// Results merge into BENCH_perf.json as the "route" section
// (bench::merge_section keeps every other section).
//
//   $ ./bench_route           # a few seconds; updates ./BENCH_perf.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "harness.hpp"
#include "api/library_cache.hpp"
#include "drc/drc.hpp"
#include "gen/gen.hpp"
#include "route/extract.hpp"
#include "route/router.hpp"
#include "sta/timing_graph.hpp"
#include "util/json.hpp"

namespace {

using namespace cnfet;
namespace json = util::json;
using bench::best_ms;

struct Workload {
  const char* name;
  flow::GateNetlist netlist;
  int reps;
};

struct Measured {
  std::size_t gates = 0;
  int nets = 0;
  double wirelength_lambda = 0.0;
  double nets_per_sec = 0.0;
  double ideal_ps = 0.0;
  double routed_ps = 0.0;
  bool complete = false;
  bool verify_ok = false;
  bool drc_clean = false;
  bool deterministic = false;

  [[nodiscard]] double wire_delay_ps() const { return routed_ps - ideal_ps; }
};

Measured measure(Workload& w, const layout::DesignRules& rules) {
  Measured m;
  m.gates = w.netlist.gates().size();
  m.nets = w.netlist.num_nets();
  const auto placement = flow::place(w.netlist);

  const auto routing = route::route(w.netlist, placement, rules);
  m.complete = routing.complete();
  m.wirelength_lambda = routing.total_wirelength_lambda;
  m.verify_ok = route::verify(w.netlist, placement, routing, rules).ok();
  m.drc_clean = drc::check_routes(routing, rules).clean();
  m.deterministic = route::route(w.netlist, placement, rules) == routing;

  const auto extraction = route::extract(w.netlist, routing, rules);
  sta::TimingGraph ideal(w.netlist);
  sta::TimingGraph wired(w.netlist, {}, 0.0,
                         extraction.to_wire_loads(w.netlist));
  m.ideal_ps = ideal.worst_arrival() * 1e12;
  m.routed_ps = wired.worst_arrival() * 1e12;

  const double ms = best_ms(w.reps, [&] {
    const auto r = route::route(w.netlist, placement, rules);
    (void)route::extract(w.netlist, r, rules);
  });
  m.nets_per_sec = static_cast<double>(m.nets) / (ms / 1e3);
  return m;
}

json::Value to_json(const Measured& m) {
  json::Value v = json::Value::object();
  v.set("gates", static_cast<std::int64_t>(m.gates));
  v.set("nets", m.nets);
  v.set("wirelength_lambda", m.wirelength_lambda);
  v.set("nets_per_sec", m.nets_per_sec);
  v.set("ideal_worst_arrival_ps", m.ideal_ps);
  v.set("routed_worst_arrival_ps", m.routed_ps);
  v.set("wire_delay_ps", m.wire_delay_ps());
  return v;
}

}  // namespace

int main() {
  const auto handle =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  const auto& lib = *handle;
  const auto& rules = lib.cells().front().built.layout.rules();

  flow::FullAdderOptions fa_opts;
  fa_opts.sum_buffer_drive = 9.0;
  fa_opts.carry_buffer_drive = 7.0;
  Workload fa{"fa13", flow::build_full_adder(lib, fa_opts), 50};
  gen::GenOptions rca;
  rca.family = gen::Family::kRippleCarryAdder;
  rca.width = 1112;  // 9 gates per full-adder bit: 10008 gates
  Workload big{"rca10k", gen::generate(lib, rca).netlist, 3};
  gen::GenOptions cla;
  cla.family = gen::Family::kCarryLookaheadAdder;
  cla.width = 32;
  Workload lookahead{"cla32", gen::generate(lib, cla).netlist, 3};

  std::printf("%-7s | %7s %7s | %10s %12s | %8s %8s %8s\n", "design",
              "gates", "nets", "wl lambda", "nets/sec", "ideal", "routed",
              "+wire");
  constexpr int kLoads = 3;
  Measured results[kLoads];
  Workload* loads[kLoads] = {&fa, &big, &lookahead};
  bool connectivity = true, verify_ok = true, drc_clean = true;
  bool deterministic = true, never_faster = true;
  for (int i = 0; i < kLoads; ++i) {
    results[i] = measure(*loads[i], rules);
    const auto& m = results[i];
    std::printf(
        "%-7s | %7zu %7d | %10.0f %12.0f | %6.2fps %6.2fps %6.2fps%s\n",
        loads[i]->name, m.gates, m.nets, m.wirelength_lambda, m.nets_per_sec,
        m.ideal_ps, m.routed_ps, m.wire_delay_ps(),
        m.complete && m.verify_ok && m.drc_clean && m.deterministic
            ? ""
            : "  <-- GATE FAILURE");
    connectivity &= m.complete;
    verify_ok &= m.verify_ok;
    drc_clean &= m.drc_clean;
    deterministic &= m.deterministic;
    never_faster &= m.wire_delay_ps() >= 0.0;
  }
  const double min_nets_per_sec =
      std::min(results[0].nets_per_sec, results[1].nets_per_sec);

  // --- merge the "route" section into BENCH_perf.json -----------------------
  json::Value route = json::Value::object();
  route.set("fa13", to_json(results[0]));
  route.set("rca10k", to_json(results[1]));
  route.set("cla32", to_json(results[2]));
  route.set("connectivity_complete", connectivity);
  route.set("verify_ok", verify_ok);
  route.set("drc_clean", drc_clean);
  route.set("deterministic", deterministic);
  route.set("routed_never_faster", never_faster);
  route.set("min_nets_per_sec", min_nets_per_sec);
  if (!bench::merge_section("BENCH_perf.json", "route",
                             std::move(route))) {
    return 1;
  }

  if (!connectivity || !verify_ok || !drc_clean || !deterministic ||
      !never_faster) {
    std::fprintf(stderr,
                 "route bench hard failure (connectivity %d, verify %d, "
                 "drc %d, deterministic %d, never_faster %d)\n",
                 connectivity, verify_ok, drc_clean, deterministic,
                 never_faster);
    return 1;
  }
  return 0;
}
