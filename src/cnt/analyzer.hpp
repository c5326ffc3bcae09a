// CNT mispositioning analysis: the machinery behind the paper's central
// claim ("100% functional immunity to mispositioned CNTs").
//
// Physical model. CNTs grow across the wafer; the active etch removes every
// tube not covered by a drawn strip, up to a registration tolerance
// (DesignRules::cnt_margin), so surviving tubes lie inside each strip's
// *band* (strip + margin). During doping the gate poly masks the channel, so
// a surviving tube becomes: doped wire segments (p+ in the PUN band, n+ in
// the PDN band) interrupted by a channel under every gate stripe it crosses.
// A tube touching two metal contacts therefore adds, between those nets,
// a series chain of parasitic FETs — or a hard short when no gate lies
// between. Etched slots cut tubes outright.
//
// Immunity is then a *functional* statement: superimposing every stray
// device a mispositioned tube can realize must leave the cell's evaluated
// function unchanged with no supply short. Two engines check it:
//
//  * check_exact — a proof over all straight tubes. Within one band, a gate
//    stripe spanning the full band cannot be bypassed, so any tube joining
//    two contacts carries at least the full-span gates between them; adding
//    the corresponding chains for every contact pair (plus hard shorts for
//    gate-free different-net pairs) over-approximates every tube set
//    (stray effects are monotone: more strays only add conduction). If the
//    augmented netlist still checks out, the layout is immune to ANY number
//    of straight mispositioned tubes.
//  * monte_carlo — samples bent, tilted, displaced tubes (beyond the
//    straight-tube proof) and reports functional yield. A trial never
//    copies the netlist: its effects become stray conduction edges,
//    relaxed over the cell's fixpoint, computed once per call
//    (netlist/conduction.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cnt/geometry_index.hpp"
#include "geom/vec.hpp"
#include "layout/cell_layout.hpp"
#include "netlist/cell_netlist.hpp"
#include "netlist/conduction.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace cnfet::cnt {

/// One parasitic channel along a stray tube.
struct StrayLink {
  int gate_input = 0;
  netlist::FetType type = netlist::FetType::kN;
};

/// The electrical effect of one stray tube piece joining two contacts:
/// a chain of parasitic FETs, or a hard short when the chain is empty.
struct StrayEffect {
  netlist::NetId a = 0;
  netlist::NetId b = 0;
  std::vector<StrayLink> chain;

  [[nodiscard]] bool is_short() const { return chain.empty(); }
};

/// Adds a stray effect onto a netlist copy (fresh internal nets per link).
/// This is the reference meaning of an effect; the analyses use
/// stray_edge instead.
void apply_effect(netlist::CellNetlist& cell, const StrayEffect& effect);

/// The effect as one conduction edge between its end nets, on in the rows
/// where every link of its chain conducts (every row for a hard short).
/// Exact for everything the functional check observes: the chain's inner
/// nets touch nothing but the chain, so a path through them must cross
/// all of it, and nothing is read at them.
[[nodiscard]] netlist::ConductionEdge stray_edge(
    const netlist::Conduction& conduction, const StrayEffect& effect);

/// Result of the straight-tube immunity proof.
struct ImmunityReport {
  bool immune = false;
  /// Functional check of the fully augmented netlist.
  netlist::FunctionalReport functional;
  /// Every stray-effect class the layout admits.
  std::vector<StrayEffect> effects;
  /// Different-net contact pairs with no protecting gate or etch: these are
  /// outright shorts (the Figure 2(b) failure).
  int short_pairs = 0;

  [[nodiscard]] std::string to_string(const netlist::CellNetlist& cell) const;
};

/// Straight-tube immunity proof for a cell layout against its function.
/// Builds a GeometryIndex internally; callers that analyze the same
/// geometry repeatedly should build the index once and use the overload
/// below — the band-disjointness proof then runs once per geometry
/// instead of once per call.
[[nodiscard]] ImmunityReport check_exact(const layout::CellLayout& layout,
                                         const netlist::CellNetlist& cell,
                                         const logic::TruthTable& function);

/// Straight-tube immunity proof over a prebuilt index. The bands were
/// proven pairwise disjoint at index construction, so this path carries
/// no per-call geometry validation.
[[nodiscard]] ImmunityReport check_exact(const GeometryIndex& index,
                                         const netlist::CellNetlist& cell,
                                         const logic::TruthTable& function);

/// Mispositioned-tube distribution for Monte Carlo.
struct TubeModel {
  double mean_length_lambda = 40.0;  ///< lognormal median tube length
  double length_sigma = 0.35;        ///< lognormal shape
  double angle_sigma_deg = 8.0;      ///< nominal misalignment spread
  double outlier_fraction = 0.03;    ///< tubes with uniform angle +-90 deg
  double bend_sigma_deg = 6.0;       ///< mid-tube kink spread (2 segments)
  int tubes_per_trial = 24;          ///< tubes landing on one cell instance
};

/// One mispositioned tube as monte_carlo draws it: a two-segment polyline
/// kinked at `center`, half of `len` on each side.
struct TubeDraw {
  geom::DVec2 center;
  double angle = 0.0;  ///< first segment's direction, radians
  double len = 0.0;    ///< tube length, millilambda
  double bend = 0.0;   ///< kink angle, radians

  /// Writes {start, center, end} into `out`.
  void polyline(std::vector<geom::DVec2>& out) const;

  /// True when no polyline point can touch a band of `index`: every
  /// point lies in the box center ± len/2, and that box misses the bands.
  /// Such a tube traces to no effects, so the indexed Monte Carlo path
  /// skips its trig and its trace.
  [[nodiscard]] bool cannot_reach_bands(const GeometryIndex& index) const;
};

/// Draws tubes of one TubeModel over one cell, with the model's derived
/// constants (center range, radian spreads, log median length) computed
/// once instead of per tube.
class TubeSampler {
 public:
  TubeSampler(const TubeModel& model, const geom::Rect& cell_box);

  /// Consumes one tube's draws from `rng`, in this order: center x,
  /// center y, the outlier coin, the angle, the length and the bend.
  [[nodiscard]] TubeDraw draw(util::Xoshiro256& rng) const;

 private:
  geom::DVec2 center_lo_;
  geom::DVec2 center_hi_;
  double outlier_fraction_;
  double angle_sigma_;
  double log_mean_length_;
  double length_sigma_;
  double bend_sigma_;
};

struct MonteCarloResult {
  /// Width of the per-trial histograms: bucket b counts trials that saw
  /// exactly b effects of that kind, with the last bucket saturating
  /// (>= kHistogramBuckets - 1 effects).
  static constexpr int kHistogramBuckets = 32;

  int trials = 0;
  int failing_trials = 0;
  std::int64_t tubes_sampled = 0;
  std::int64_t stray_shorts = 0;   ///< hard-short effects observed
  std::int64_t stray_chains = 0;   ///< gated chain effects observed
  /// Per-trial distribution of hard-short effect counts (size
  /// kHistogramBuckets, buckets sum to `trials`).
  std::vector<std::int64_t> shorts_histogram;
  /// Per-trial distribution of gated-chain effect counts.
  std::vector<std::int64_t> chains_histogram;
  [[nodiscard]] double yield() const {
    return trials == 0 ? 1.0
                       : 1.0 - static_cast<double>(failing_trials) / trials;
  }
};

/// Which tube tracer monte_carlo runs. The naive tracer is the all-pairs
/// reference implementation, kept compiled as the A/B baseline for the
/// indexed≡naive equivalence gates (tests, bench_mc, check_perf.py).
enum class TracerKind { kIndexed, kNaive };

/// Samples `trials` cell instances, each hit by tubes_per_trial mispositioned
/// tubes, and evaluates the augmented netlist functionally per instance.
/// The cell's conduction fixpoint is built once per call; a trial turns
/// its effects into stray edges and relaxes only those on top of it.
///
/// Reproducibility contract: trial `i` draws from its own RNG stream
/// `util::Xoshiro256(util::derive_stream(seed, i))` (counter-based seeding),
/// so the same (seed, trials, model) produces a bit-identical result for
/// ANY `num_threads` — trials shard across workers without sharing a
/// stream. `num_threads` 1 runs inline, 0 uses every hardware thread.
[[nodiscard]] MonteCarloResult monte_carlo(
    const layout::CellLayout& layout, const netlist::CellNetlist& cell,
    const logic::TruthTable& function, const TubeModel& model, int trials,
    std::uint64_t seed = 1, int num_threads = 1,
    TracerKind tracer = TracerKind::kIndexed);

/// Stray effects of one explicit tube polyline (exposed for tests and the
/// Figure-2 demonstration bench). This is the naive all-pairs reference
/// tracer; the GeometryIndex overload is the production path and is
/// gated bit-identical to it.
[[nodiscard]] std::vector<StrayEffect> trace_tube(
    const layout::CellGeometry& geometry,
    const std::vector<geom::DVec2>& polyline);

/// Explicitly-named alias of the naive reference tracer, for A/B gates.
[[nodiscard]] std::vector<StrayEffect> trace_tube_naive(
    const layout::CellGeometry& geometry,
    const std::vector<geom::DVec2>& polyline);

/// Index-accelerated tracer: identical effect list to the naive tracer
/// (same clip math on a conservative candidate superset, normalized
/// through the same total-order event sort), at a fraction of the cost.
[[nodiscard]] std::vector<StrayEffect> trace_tube(
    const GeometryIndex& index, const std::vector<geom::DVec2>& polyline);

/// Hot-loop variants with caller-owned storage: event/chain scratch lives
/// in `arena`, which is reset before any scratch is claimed (callers must
/// not hold arena data across calls), and effects are APPENDED to
/// `effects`. With warm buffers a trace allocates nothing unless it
/// records a chain-bearing effect — this is what monte_carlo runs per
/// tube, and what bench_mc times for the tracer-only A/B.
void trace_tube_into(const layout::CellGeometry& geometry,
                     const std::vector<geom::DVec2>& polyline,
                     util::Arena& arena, std::vector<StrayEffect>& effects);
void trace_tube_into(const GeometryIndex& index,
                     const std::vector<geom::DVec2>& polyline,
                     util::Arena& arena, std::vector<StrayEffect>& effects);

}  // namespace cnfet::cnt
