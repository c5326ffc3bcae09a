// Read-only spatial index over a CellGeometry, built once and shared by
// every Monte Carlo worker.
//
// The naive tube tracer tests every polyline segment against every band,
// contact, gate and etch rectangle in the cell — an all-pairs scan whose
// cost grows with geometry size and dominates million-trial Monte Carlo
// runs. The index replaces those scans with three read-only structures:
//
//  * a bounding box over all bands, so a tube that cannot touch any band
//    is rejected with one box test before any segment math runs;
//  * a geom::IntervalIndex over the bands' y extents, answered as a
//    bitmask of band indices so candidates come back in the geometry's
//    original band order — traversal order is part of the tracer's
//    bit-identity contract;
//  * per band, a geom::IntervalIndex over the x extents of the contacts,
//    gates and etches that touch the band, instead of a linear scan.
//
// Candidate sets are strict supersets of the shapes that can produce a
// crossing (closed-rectangle touch tests, padded against floating-point
// rounding), so querying the index and then running the exact clip math
// yields the same events as the naive all-pairs scan — the indexed
// tracer in analyzer.cpp is gated bit-identical to the naive one.
//
// The conservative padding (kQueryPad) is folded into the stored bounds
// at build time, so the per-tube hot path compares raw coordinates
// against pre-padded doubles — no per-query widening arithmetic.
//
// Construction also hoists the O(bands^2) band-disjointness proof out of
// the per-call analysis path: the bands are validated pairwise disjoint
// exactly once per geometry, here, instead of on every check_exact call
// or Monte Carlo trial.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/rect.hpp"
#include "geom/rect_index.hpp"
#include "geom/vec.hpp"
#include "layout/cell_layout.hpp"
#include "netlist/cell_netlist.hpp"

namespace cnfet::cnt {

/// Conservative padding (in millilambda) applied to every stored query
/// bound. Candidate filters must never exclude a shape the exact clip
/// math would hit; coordinates are O(1e5) and Liang-Barsky rounding is
/// O(1e-10) absolute, so 1e-2 is orders of magnitude more slack than
/// needed while excluding nothing real (the closest distinct shapes sit
/// hundreds of millilambda apart).
inline constexpr double kQueryPad = 1e-2;

/// The per-CellGeometry index. Immutable after construction; safe to
/// share across threads without locking (all queries are const).
class GeometryIndex {
 public:
  /// At most this many bands per geometry: band y-bin queries answer with
  /// a 64-bit mask so the tracer can visit candidates in original band
  /// order without allocating. Real cells have two bands (PUN + PDN).
  static constexpr std::size_t kMaxBands = 64;

  struct BandIndex {
    geom::Rect rect;
    netlist::FetType doping = netlist::FetType::kN;
    // The band box as doubles: q_* are padded by kQueryPad (touch
    // tests), lo_x/hi_x are raw (x-span clamping; the pad for span
    // queries lives inside the *_x interval bounds).
    double lo_x = 0.0, hi_x = 0.0;
    double q_lo_x = 0.0, q_hi_x = 0.0, q_lo_y = 0.0, q_hi_y = 0.0;
    // The shapes touching the band, each list in a deterministic x order,
    // and their padded x extents: position i of a *_x hit is list[i].
    std::vector<layout::ContactShape> contacts;
    std::vector<layout::GateShape> gates;
    std::vector<geom::Rect> etches;
    geom::IntervalIndex contacts_x;
    geom::IntervalIndex gates_x;
    geom::IntervalIndex etches_x;
  };

  /// Builds the index and proves the bands pairwise disjoint (the
  /// immunity argument requires that tubes cannot bridge two bands);
  /// a violating geometry trips a contract check here, once, instead of
  /// on every analysis call.
  explicit GeometryIndex(layout::CellGeometry geometry);

  [[nodiscard]] const layout::CellGeometry& geometry() const {
    return geometry_;
  }
  [[nodiscard]] const std::vector<BandIndex>& bands() const { return bands_; }

  /// Cheap early-outs: false when the closed span cannot touch any
  /// band's padded rectangle, so the whole tube can be skipped. Split by
  /// axis so the tracer can reject on the y-extent (the common miss:
  /// bands are short and wide) before spending min/max work on x.
  [[nodiscard]] bool may_touch_bands_y(double y_lo, double y_hi) const {
    return has_bands_ && y_lo <= bands_hi_.y && y_hi >= bands_lo_.y;
  }
  [[nodiscard]] bool may_touch_bands_x(double x_lo, double x_hi) const {
    return has_bands_ && x_lo <= bands_hi_.x && x_hi >= bands_lo_.x;
  }

  /// Bitmask of band indices whose padded y-interval meets [y_lo, y_hi]
  /// (closed): bit i set means bands()[i] is a candidate, so walking the
  /// set bits low-to-high visits candidates in original band order.
  [[nodiscard]] std::uint64_t bands_in_y(double y_lo, double y_hi) const {
    std::uint64_t mask = 0;
    bands_y_.for_each_overlapping(
        y_lo, y_hi, [&](std::size_t i) { mask |= std::uint64_t{1} << i; });
    return mask;
  }

 private:
  layout::CellGeometry geometry_;
  std::vector<BandIndex> bands_;
  geom::IntervalIndex bands_y_;  ///< padded band y extents, by band index
  bool has_bands_ = false;
  geom::DVec2 bands_lo_{};  ///< padded bounding box over every band
  geom::DVec2 bands_hi_{};
};

}  // namespace cnfet::cnt
