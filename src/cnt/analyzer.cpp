#include "cnt/analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <sstream>

#include "geom/segment.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/histogram.hpp"
#include "util/parallel.hpp"

namespace cnfet::cnt {

using geom::DVec2;
using geom::Rect;
using geom::Segment;
using layout::CellGeometry;
using netlist::CellNetlist;
using netlist::NetId;

void apply_effect(CellNetlist& cell, const StrayEffect& effect) {
  if (effect.a == effect.b && effect.is_short()) return;
  if (effect.is_short()) {
    cell.add_short({effect.a, effect.b});
    return;
  }
  NetId at = effect.a;
  for (std::size_t i = 0; i < effect.chain.size(); ++i) {
    const NetId next =
        (i + 1 == effect.chain.size())
            ? effect.b
            : cell.add_net("stray" + std::to_string(cell.num_nets()));
    cell.add_fet({effect.chain[i].type, effect.chain[i].gate_input, at, next,
                  1.0});
    at = next;
  }
}

netlist::ConductionEdge stray_edge(const netlist::Conduction& conduction,
                                   const StrayEffect& effect) {
  netlist::RowSet on = conduction.lanes();
  for (const auto& link : effect.chain) {
    on &= conduction.on_rows(link.type, link.gate_input);
  }
  return {effect.a, effect.b, on};
}

std::string ImmunityReport::to_string(const CellNetlist& cell) const {
  std::ostringstream out;
  out << (immune ? "IMMUNE" : "VULNERABLE") << ": " << effects.size()
      << " stray-effect classes, " << short_pairs << " hard shorts";
  if (!immune) {
    out << "; " << functional.to_string();
    for (const auto& e : effects) {
      if (e.is_short() && e.a != e.b) {
        out << "; short " << cell.net_name(e.a) << "-" << cell.net_name(e.b);
      }
    }
  }
  return out.str();
}

namespace {

bool spans_band_vertically(const Rect& shape, const Rect& band) {
  return shape.lo().y <= band.lo().y && shape.hi().y >= band.hi().y;
}

}  // namespace

ImmunityReport check_exact(const GeometryIndex& index, const CellNetlist& cell,
                           const logic::TruthTable& function) {
  // The bands were proven pairwise disjoint at index construction (tubes
  // cannot bridge two bands: the active etch cuts them in between), so no
  // per-call validation runs here.
  const CellGeometry& geo = index.geometry();

  ImmunityReport report;
  for (std::size_t bi = 0; bi < index.bands().size(); ++bi) {
    const auto& band = geo.bands[bi];
    // Contacts relevant to this band, in x order: prefiltered and
    // presorted by the index. The index bins by closed touch (what the
    // tracer needs); the proof ignores contacts that merely abut the
    // band edge, hence the overlap re-filter.
    std::vector<layout::ContactShape> contacts;
    for (const auto& c : index.bands()[bi].contacts) {
      if (c.rect.overlaps(band.rect)) contacts.push_back(c);
    }

    // Adjacent contact pairs suffice: effects are monotone and non-adjacent
    // chains are series compositions of adjacent ones (see header).
    for (std::size_t k = 0; k + 1 < contacts.size(); ++k) {
      const auto& left = contacts[k];
      const auto& right = contacts[k + 1];
      const auto x0 = left.rect.hi().x;
      const auto x1 = right.rect.lo().x;

      // A full-height etched slot between the contacts cuts every tube.
      bool severed = false;
      for (const auto& e : geo.etches) {
        if (e.lo().x >= x0 && e.hi().x <= x1 &&
            spans_band_vertically(e, band.rect)) {
          severed = true;
          break;
        }
      }
      if (severed) continue;

      // Unavoidable gates: stripes between the contacts spanning the band.
      StrayEffect effect;
      effect.a = left.net;
      effect.b = right.net;
      for (const auto& g : geo.gates) {
        if (g.rect.lo().x >= x0 && g.rect.hi().x <= x1 &&
            spans_band_vertically(g.rect, band.rect)) {
          effect.chain.push_back(StrayLink{g.input, band.doping});
        }
      }
      // Order along x so the chain reads left-to-right (cosmetic: series
      // conduction is order-independent).
      if (effect.a == effect.b && effect.is_short()) continue;
      if (effect.is_short() && effect.a != effect.b) ++report.short_pairs;
      report.effects.push_back(std::move(effect));
    }
  }

  const netlist::Conduction conduction(cell);
  std::vector<netlist::ConductionEdge> strays;
  for (const auto& e : report.effects) {
    strays.push_back(stray_edge(conduction, e));
  }
  netlist::Reach reach;
  report.functional = conduction.check(function, strays, reach);
  report.immune = report.functional.ok;
  return report;
}

ImmunityReport check_exact(const layout::CellLayout& layout,
                           const CellNetlist& cell,
                           const logic::TruthTable& function) {
  const GeometryIndex index(layout.geometry());
  return check_exact(index, cell, function);
}

namespace {

/// One ordered crossing event along a tube polyline.
struct Event {
  enum class Kind { kContact, kGate, kEtch, kGap };
  Kind kind = Kind::kGap;
  double t = 0.0;  ///< global parameter: segment index + local t
  NetId net = 0;
  int gate_input = 0;
};

/// Total order on events: parameter t, then kind/payload as tie-breaks.
/// Both tracers sort through THIS comparator, so ties between distinct
/// events resolve identically no matter which order the candidates were
/// enumerated in — that normalization is what makes the indexed event
/// list bit-identical to the naive one.
bool event_less(const Event& a, const Event& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
  if (a.net != b.net) return a.net < b.net;
  return a.gate_input < b.gate_input;
}

/// Midpoint parameter of the segment portion inside `r`, restricted to
/// the in-band interval [bt0, bt1]; nullopt when they do not meet. The
/// ONE place crossing math happens — both tracers call it with identical
/// arguments, which is the other half of the bit-identity argument.
std::optional<double> clip_mid(const Segment& seg, double bt0, double bt1,
                               const Rect& r) {
  const auto tt = seg.clip(r);
  if (!tt) return std::nullopt;
  const double lo = std::max(tt->first, bt0);
  const double hi = std::min(tt->second, bt1);
  if (lo > hi) return std::nullopt;
  return (lo + hi) / 2.0;
}

/// Walks one band's sorted events: contacts anchor chains; gates extend
/// the pending chain; etch slots and band exits break continuity.
/// Effects are APPENDED to `effects`.
void walk_events(const util::ArenaVector<Event>& events,
                 netlist::FetType doping, util::Arena& arena,
                 std::vector<StrayEffect>& effects) {
  bool have_anchor = false;
  NetId anchor = 0;
  util::ArenaVector<StrayLink> pending{util::ArenaAllocator<StrayLink>(arena)};
  for (const auto& ev : events) {
    switch (ev.kind) {
      case Event::Kind::kGap:
      case Event::Kind::kEtch:
        have_anchor = false;
        pending.clear();
        break;
      case Event::Kind::kGate:
        if (have_anchor) pending.push_back({ev.gate_input, doping});
        break;
      case Event::Kind::kContact:
        if (have_anchor && !(anchor == ev.net && pending.empty())) {
          StrayEffect effect;
          effect.a = anchor;
          effect.b = ev.net;
          effect.chain.assign(pending.begin(), pending.end());
          effects.push_back(std::move(effect));
        }
        have_anchor = true;
        anchor = ev.net;
        pending.clear();
        break;
    }
  }
}

}  // namespace

/// trace_tube with caller-owned storage: the per-band event list and the
/// pending chain live in `arena` (reset here, so the caller must not hold
/// arena data across calls) and effects are APPENDED to `effects`. Once
/// the arena blocks and the effects capacity are warm, tracing a tube
/// touches the heap only when an effect with a non-empty chain is
/// recorded — the Monte Carlo hot path (most tubes miss) allocates
/// nothing.
///
/// This is the naive all-pairs reference: every segment against every
/// band, contact, gate and etch rectangle.
void trace_tube_into(const CellGeometry& geometry,
                     const std::vector<DVec2>& polyline, util::Arena& arena,
                     std::vector<StrayEffect>& effects) {
  CNFET_REQUIRE(polyline.size() >= 2);
  arena.reset();

  for (const auto& band : geometry.bands) {
    util::ArenaVector<Event> events{util::ArenaAllocator<Event>(arena)};
    for (std::size_t s = 0; s + 1 < polyline.size(); ++s) {
      const Segment seg(polyline[s], polyline[s + 1]);
      const auto in_band = seg.clip(band.rect);
      if (!in_band) {
        events.push_back({Event::Kind::kGap, static_cast<double>(s), 0, 0});
        continue;
      }
      const auto [bt0, bt1] = *in_band;
      const double base = static_cast<double>(s);
      // Portions of this segment outside the band are etched away.
      if (bt0 > 0.0) events.push_back({Event::Kind::kGap, base + bt0 - 1e-9, 0, 0});
      if (bt1 < 1.0) events.push_back({Event::Kind::kGap, base + bt1 + 1e-9, 0, 0});

      for (const auto& c : geometry.contacts) {
        if (auto t = clip_mid(seg, bt0, bt1, c.rect)) {
          events.push_back({Event::Kind::kContact, base + *t, c.net, 0});
        }
      }
      for (const auto& g : geometry.gates) {
        if (auto t = clip_mid(seg, bt0, bt1, g.rect)) {
          events.push_back({Event::Kind::kGate, base + *t, 0, g.input});
        }
      }
      for (const auto& e : geometry.etches) {
        if (auto t = clip_mid(seg, bt0, bt1, e)) {
          events.push_back({Event::Kind::kEtch, base + *t, 0, 0});
        }
      }
    }
    std::sort(events.begin(), events.end(), event_less);
    walk_events(events, band.doping, arena, effects);
  }
}

/// Index-accelerated tracer. Emits the same events as the naive tracer —
/// the index only prunes shapes/bands the exact clip math provably cannot
/// hit (closed, padded interval tests), and the sort normalizes
/// enumeration order — so the appended effect list is bit-identical.
///
/// All query padding lives inside the index (folded into its stored
/// bounds at build time), so this hot path compares raw coordinates only.
void trace_tube_into(const GeometryIndex& index,
                     const std::vector<DVec2>& polyline, util::Arena& arena,
                     std::vector<StrayEffect>& effects) {
  CNFET_REQUIRE(polyline.size() >= 2);

  // Bounding box of the whole tube, tested against the (pre-padded)
  // all-bands box one axis at a time: bands are short and wide, so most
  // Monte Carlo tubes miss on y alone and retire before any x work.
  DVec2 lo = polyline[0];
  DVec2 hi = polyline[0];
  for (const auto& p : polyline) {
    lo.y = std::min(lo.y, p.y);
    hi.y = std::max(hi.y, p.y);
  }
  if (!index.may_touch_bands_y(lo.y, hi.y)) return;
  for (const auto& p : polyline) {
    lo.x = std::min(lo.x, p.x);
    hi.x = std::max(hi.x, p.x);
  }
  if (!index.may_touch_bands_x(lo.x, hi.x)) return;

  // Candidate bands from the y-bin. Iterating set bits low-to-high visits
  // candidates in original band order — part of the bit-identity
  // contract. A band skipped by the mask yields no segment clip in the
  // naive tracer, hence only gap events, hence no effects — dropping it
  // whole is effect-equivalent to the naive per-band walk.
  std::uint64_t mask = index.bands_in_y(lo.y, hi.y);
  const auto& bands = index.bands();
  bool arena_warm = false;
  for (; mask != 0; mask &= mask - 1) {
    const auto& band = bands[static_cast<std::size_t>(std::countr_zero(mask))];

    // Candidate-count pre-pass: each (segment, contact) candidate yields
    // at most one contact event, and walk_events only emits an effect on
    // the second or later contact event of a band (the first merely
    // anchors). So fewer than two contact candidates proves this band
    // appends no effects for this tube, and its whole event/sort/walk
    // machinery can be skipped with an identical result.
    int contact_candidates = 0;
    for (std::size_t s = 0; s + 1 < polyline.size() && contact_candidates < 2;
         ++s) {
      const DVec2& a = polyline[s];
      const DVec2& b = polyline[s + 1];
      const double sx_lo = std::min(a.x, b.x);
      const double sx_hi = std::max(a.x, b.x);
      if (sx_lo > band.q_hi_x || sx_hi < band.q_lo_x) continue;
      const double sy_lo = std::min(a.y, b.y);
      const double sy_hi = std::max(a.y, b.y);
      if (sy_lo > band.q_hi_y || sy_hi < band.q_lo_y) continue;
      contact_candidates += band.contacts_x.count_overlapping(
          std::max(sx_lo, band.lo_x), std::min(sx_hi, band.hi_x));
    }
    if (contact_candidates < 2) continue;

    // Arena scratch is only claimed once a band survives the pre-pass;
    // the (common) all-bands-skipped tube never touches it.
    if (!arena_warm) {
      arena.reset();
      arena_warm = true;
    }
    util::ArenaVector<Event> events{util::ArenaAllocator<Event>(arena)};
    for (std::size_t s = 0; s + 1 < polyline.size(); ++s) {
      const Segment seg(polyline[s], polyline[s + 1]);
      // Cheap reject: the naive tracer's `!in_band` branch emits exactly
      // this gap event, so skipping the Liang-Barsky clip is free.
      const double sx_lo = std::min(seg.a().x, seg.b().x);
      const double sx_hi = std::max(seg.a().x, seg.b().x);
      const double sy_lo = std::min(seg.a().y, seg.b().y);
      const double sy_hi = std::max(seg.a().y, seg.b().y);
      if (sx_lo > band.q_hi_x || sx_hi < band.q_lo_x ||
          sy_lo > band.q_hi_y || sy_hi < band.q_lo_y) {
        events.push_back({Event::Kind::kGap, static_cast<double>(s), 0, 0});
        continue;
      }
      const auto in_band = seg.clip(band.rect);
      if (!in_band) {
        events.push_back({Event::Kind::kGap, static_cast<double>(s), 0, 0});
        continue;
      }
      const auto [bt0, bt1] = *in_band;
      const double base = static_cast<double>(s);
      if (bt0 > 0.0) events.push_back({Event::Kind::kGap, base + bt0 - 1e-9, 0, 0});
      if (bt1 < 1.0) events.push_back({Event::Kind::kGap, base + bt1 + 1e-9, 0, 0});

      // Any crossing inside [bt0, bt1] lies in the band rect AND on the
      // segment, so its x sits inside both the segment's x-range and the
      // band's x-slab; the intersection of the two (padded inside the
      // interval index) bounds every shape the clip math can hit.
      const double span_lo = std::max(sx_lo, band.lo_x);
      const double span_hi = std::min(sx_hi, band.hi_x);
      band.contacts_x.for_each_overlapping(
          span_lo, span_hi, [&](std::size_t i) {
            const auto& c = band.contacts[i];
            if (auto t = clip_mid(seg, bt0, bt1, c.rect)) {
              events.push_back({Event::Kind::kContact, base + *t, c.net, 0});
            }
          });
      band.gates_x.for_each_overlapping(span_lo, span_hi, [&](std::size_t i) {
        const auto& g = band.gates[i];
        if (auto t = clip_mid(seg, bt0, bt1, g.rect)) {
          events.push_back({Event::Kind::kGate, base + *t, 0, g.input});
        }
      });
      band.etches_x.for_each_overlapping(span_lo, span_hi, [&](std::size_t i) {
        if (auto t = clip_mid(seg, bt0, bt1, band.etches[i])) {
          events.push_back({Event::Kind::kEtch, base + *t, 0, 0});
        }
      });
    }
    std::sort(events.begin(), events.end(), event_less);
    walk_events(events, band.doping, arena, effects);
  }
}

std::vector<StrayEffect> trace_tube(const CellGeometry& geometry,
                                    const std::vector<DVec2>& polyline) {
  std::vector<StrayEffect> effects;
  util::Arena arena;
  trace_tube_into(geometry, polyline, arena, effects);
  return effects;
}

std::vector<StrayEffect> trace_tube_naive(const CellGeometry& geometry,
                                          const std::vector<DVec2>& polyline) {
  return trace_tube(geometry, polyline);
}

std::vector<StrayEffect> trace_tube(const GeometryIndex& index,
                                    const std::vector<DVec2>& polyline) {
  std::vector<StrayEffect> effects;
  util::Arena arena;
  trace_tube_into(index, polyline, arena, effects);
  return effects;
}

namespace {

/// Per-worker Monte Carlo scratch (util::worker_scratch): the tube
/// polyline, effect and stray-edge buffers, the conduction scratch and
/// the tracer arena all persist across the worker's trials, so a warm
/// trial's only heap traffic is the rare effect chain. Nothing in it
/// outlives a trial, so concurrent monte_carlo calls can share a worker.
struct McScratch {
  std::vector<DVec2> polyline;
  std::vector<StrayEffect> effects;
  std::vector<netlist::ConductionEdge> strays;
  netlist::Reach reach;
  util::Arena arena;
};

constexpr double kPi = 3.14159265358979323846;

}  // namespace

TubeSampler::TubeSampler(const TubeModel& model, const Rect& cell_box)
    : outlier_fraction_(model.outlier_fraction),
      angle_sigma_(model.angle_sigma_deg * kPi / 180.0),
      log_mean_length_(std::log(model.mean_length_lambda)),
      length_sigma_(model.length_sigma),
      bend_sigma_(model.bend_sigma_deg * kPi / 180.0) {
  // Centers range anywhere a tube could still intersect the cell.
  const double margin = model.mean_length_lambda * geom::kLambda;
  center_lo_ = {static_cast<double>(cell_box.lo().x) - margin,
                static_cast<double>(cell_box.lo().y) - margin};
  center_hi_ = {static_cast<double>(cell_box.hi().x) + margin,
                static_cast<double>(cell_box.hi().y) + margin};
}

TubeDraw TubeSampler::draw(util::Xoshiro256& rng) const {
  TubeDraw tube;
  // The braced list fixes the draw order: x, then y.
  tube.center = DVec2{rng.uniform(center_lo_.x, center_hi_.x),
                      rng.uniform(center_lo_.y, center_hi_.y)};
  if (rng.uniform() < outlier_fraction_) {
    tube.angle = rng.uniform(-kPi / 2, kPi / 2);
  } else {
    tube.angle = rng.normal(0.0, angle_sigma_);
  }
  tube.len = std::exp(rng.normal(log_mean_length_, length_sigma_)) *
             geom::kLambda;
  tube.bend = rng.normal(0.0, bend_sigma_);
  return tube;
}

void TubeDraw::polyline(std::vector<DVec2>& out) const {
  // Two segments: half the tube on each side of the kink.
  const DVec2 dir1{std::cos(angle), std::sin(angle)};
  const DVec2 dir2{std::cos(angle + bend), std::sin(angle + bend)};
  out.assign({center - dir1 * (len / 2), center, center + dir2 * (len / 2)});
}

bool TubeDraw::cannot_reach_bands(const GeometryIndex& index) const {
  // Each point is center + d * (len / 2) with |d.x|, |d.y| <= 1, and IEEE
  // rounding is monotone, so every computed coordinate lies inside the
  // box computed here. A non-finite length or direction keeps the trace.
  if (!std::isfinite(len) || !std::isfinite(angle + bend)) return false;
  const double half = len / 2;
  return !index.may_touch_bands_y(center.y - half, center.y + half) ||
         !index.may_touch_bands_x(center.x - half, center.x + half);
}

MonteCarloResult monte_carlo(const layout::CellLayout& layout,
                             const CellNetlist& cell,
                             const logic::TruthTable& function,
                             const TubeModel& model, int trials,
                             std::uint64_t seed, int num_threads,
                             TracerKind tracer) {
  CNFET_REQUIRE(trials > 0 && model.tubes_per_trial > 0);
  CNFET_REQUIRE(function.num_inputs() == cell.num_inputs());
  // Built once and shared read-only by every worker; construction also
  // proves the bands disjoint, once, instead of per analysis call.
  const GeometryIndex index(layout.geometry());
  const CellGeometry& geo = index.geometry();
  const TubeSampler sampler(model, layout.bbox());
  // The cell's own conduction fixpoint, also built once: each trial only
  // relaxes its stray edges on top of it.
  const netlist::Conduction conduction(cell);

  // Trials are independent instances; each draws from its own
  // counter-seeded stream (see header) and folds integer tallies into the
  // shared counters. Integer addition commutes, so the totals — and hence
  // the whole MonteCarloResult, histograms included — are identical for
  // every thread count.
  std::atomic<int> failing_trials{0};
  std::atomic<std::int64_t> tubes_sampled{0};
  std::atomic<std::int64_t> stray_shorts{0};
  std::atomic<std::int64_t> stray_chains{0};
  util::AtomicHistogram shorts_histogram(MonteCarloResult::kHistogramBuckets);
  util::AtomicHistogram chains_histogram(MonteCarloResult::kHistogramBuckets);

  auto run_trial = [&](std::int64_t trial) {
    util::Xoshiro256 rng(
        util::derive_stream(seed, static_cast<std::uint64_t>(trial)));
    std::int64_t trial_shorts = 0;
    std::int64_t trial_chains = 0;
    McScratch& scratch = util::worker_scratch<McScratch>();
    scratch.strays.clear();
    bool any_effect = false;
    for (int tube = 0; tube < model.tubes_per_trial; ++tube) {
      // Every draw happens before the skip, so the stream is unchanged.
      const TubeDraw draw = sampler.draw(rng);
      scratch.effects.clear();
      if (tracer == TracerKind::kNaive) {
        draw.polyline(scratch.polyline);
        trace_tube_into(geo, scratch.polyline, scratch.arena,
                        scratch.effects);
      } else if (!draw.cannot_reach_bands(index)) {
        draw.polyline(scratch.polyline);
        trace_tube_into(index, scratch.polyline, scratch.arena,
                        scratch.effects);
      }
      for (const auto& effect : scratch.effects) {
        any_effect = true;
        if (effect.is_short()) {
          ++trial_shorts;
        } else {
          ++trial_chains;
        }
        scratch.strays.push_back(stray_edge(conduction, effect));
      }
    }
    tubes_sampled += model.tubes_per_trial;
    stray_shorts += trial_shorts;
    stray_chains += trial_chains;
    shorts_histogram.add(trial_shorts);
    chains_histogram.add(trial_chains);
    if (any_effect &&
        !conduction.check(function, scratch.strays, scratch.reach).ok) {
      ++failing_trials;
    }
  };

  // Trials are short (a handful of traces + one functional check), so a
  // coarse grain keeps the span-claiming traffic negligible.
  const auto ran =
      util::parallel_for(trials, run_trial, num_threads, /*grain=*/16);
  // Trials never throw on valid inputs; a captured failure here is a
  // contract violation, reported under the legacy throwing contract.
  if (!ran.ok()) throw util::Error(ran.error().to_string());

  MonteCarloResult result;
  result.trials = trials;
  result.failing_trials = failing_trials.load();
  result.tubes_sampled = tubes_sampled.load();
  result.stray_shorts = stray_shorts.load();
  result.stray_chains = stray_chains.load();
  result.shorts_histogram = shorts_histogram.counts();
  result.chains_histogram = chains_histogram.counts();
  return result;
}

}  // namespace cnfet::cnt
