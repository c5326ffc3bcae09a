// Timing-driven netlist optimization passes over the incremental
// sta::TimingGraph: greedy critical-path gate sizing across the library's
// drive families, output/fanout buffer insertion, and dead/duplicate-gate
// cleanup. Every pass mutates the flow::GateNetlist in place and keeps the
// shared graph consistent through its incremental edit notifications, so a
// sizing sweep pays one cone re-time per candidate instead of a full STA.
//
// The passes never change the netlist's function: optimize() snapshots the
// exhaustive truth table before running and re-checks it after (designs up
// to 16 inputs), and every accepted edit can be cross-checked against a
// full graph rebuild with OptOptions::verify_incremental.
#pragma once

#include "flow/gate_netlist.hpp"
#include "liberty/library.hpp"
#include "sta/timing_graph.hpp"
#include "util/error.hpp"

namespace cnfet::opt {

struct OptOptions {
  /// Timing conditions the passes optimize under (same struct sign-off
  /// STA uses, so "better" here is better at sign-off).
  sta::StaOptions sta;
  /// Stop improving once the worst arrival meets this (s); 0 = minimize.
  double target_delay = 0.0;
  /// Bound on total cell area, as a fraction of the starting area
  /// (0.25 = the optimized netlist may be up to 25% larger).
  double max_area_growth = 0.25;
  /// Sizing iterations: each round accepts at most one resize.
  int max_sizing_rounds = 64;
  /// Nets with at least this many sink pins are candidates for fanout
  /// buffer splitting; 0 disables splitting.
  int fanout_buffer_threshold = 4;
  /// Cross-check the graph against a full rebuild after every accepted
  /// edit (bit-for-bit; throws on divergence). For tests — quadratic.
  bool verify_incremental = false;
  /// Worker threads for the sizing pass's candidate sweep (0 = one per
  /// hardware thread). Any value produces bit-identical results: shards
  /// evaluate disjoint candidate ranges on private netlist/graph clones
  /// and the winner is chosen by (arrival, enumeration index).
  int num_threads = 1;
};

/// What the passes did, and the before/after headline numbers.
struct PassStats {
  int gates_resized = 0;
  int buffers_inserted = 0;  ///< gates added by buffer insertion
  int gates_removed = 0;     ///< dead/duplicate cleanup
  /// True when the exhaustive truth-table recheck ran (<= 16 inputs).
  /// Wider designs skip it; callers should surface that (api::Flow
  /// downgrades to a warning diagnostic, mirroring map()'s verify).
  bool function_verified = false;
  double delay_before = 0.0;  ///< s, worst arrival entering optimize()
  double delay_after = 0.0;   ///< s, worst arrival leaving optimize()
  double area_before = 0.0;   ///< lambda^2, total cell area
  double area_after = 0.0;    ///< lambda^2

  [[nodiscard]] int edits() const {
    return gates_resized + buffers_inserted + gates_removed;
  }
  [[nodiscard]] double area_growth() const {
    return area_before > 0.0 ? area_after / area_before - 1.0 : 0.0;
  }
};

/// Total cell area of a netlist (lambda^2, scheme-1 core areas).
[[nodiscard]] double total_area(const flow::GateNetlist& netlist);

/// Removes gates whose output drives nothing and merges duplicate gates
/// (same cell, same input nets) by rewiring sinks onto the first copy.
/// Purely structural — no graph needed; run it before building one.
void cleanup(flow::GateNetlist& netlist, PassStats* stats);

/// Greedy critical-path sizing: each round walks the critical path, tries
/// every other drive of each gate's family (library.drives_of) under the
/// area budget, and accepts the single resize that improves the worst
/// arrival most. Every candidate is evaluated by an incremental cone
/// re-time and reverted the same way.
void size_gates(flow::GateNetlist& netlist, sta::TimingGraph& graph,
                const liberty::Library& library, const OptOptions& options,
                double area_budget, PassStats* stats);

/// Buffer insertion: a polarity-preserving INV_2X -> INV_kX pair on each
/// primary output (k swept over the inverter drive family), and fanout
/// splitting of heavy nets (half the sinks move to a buffered copy).
/// Candidates are costed on a clone; accepted edits are applied to the
/// live netlist through the graph's incremental notifications.
void insert_buffers(flow::GateNetlist& netlist, sta::TimingGraph& graph,
                    const liberty::Library& library, const OptOptions& options,
                    double area_budget, PassStats* stats);

/// The whole pass pipeline: cleanup, sizing, buffering, sizing again
/// (buffers change loads), with the functional-equivalence recheck.
/// Throws util::Error if a pass ever changes the netlist's function —
/// the api:: boundary converts that into a Diagnostic. `final_timing`
/// (optional) receives the post-optimization sign-off snapshot straight
/// from the pass-shared graph, saving callers a from-scratch re-analysis.
[[nodiscard]] PassStats optimize(flow::GateNetlist& netlist,
                                 const liberty::Library& library,
                                 const OptOptions& options = {},
                                 sta::StaResult* final_timing = nullptr);

namespace detail {
/// The per-edit incremental==full cross-check shared by the passes.
inline void check_incremental(sta::TimingGraph& graph,
                              const OptOptions& options) {
  if (!options.verify_incremental) return;
  CNFET_REQUIRE_MSG(graph.matches_full_rebuild(),
                    "incremental re-time diverged from a full rebuild");
}
}  // namespace detail

}  // namespace cnfet::opt
