// Read-only spatial queries over closed intervals and rectangles: the one
// "which shapes are near this shape" answer shared by CNT tube tracing
// (cnt::GeometryIndex), the routed wire deck (drc::check_routes) and the
// routing open/short oracle (route::verify).
//
//  * IntervalIndex — closed intervals sorted by lo with a running max of
//    hi. A stabbing query binary-searches the last lo <= q.hi and walks
//    backwards until the prefix max drops below q.lo. Hits report the
//    interval's build position, so callers keep their payload in their
//    own arrays.
//  * RectIndex — rectangles grouped into rows by their centre on the
//    cross axis (one row per routing track, for grid-drawn metal). Rows
//    are found through an IntervalIndex over their cross extents, shapes
//    within a row through an IntervalIndex along the axis, so a query
//    only walks the rows and the stretch of each row that it can touch.
//
// Both are immutable after construction, so concurrent const queries
// need no locking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.hpp"

namespace cnfet::geom {

class IntervalIndex {
 public:
  struct Interval {
    double lo = 0.0;
    double hi = 0.0;
  };

  IntervalIndex() = default;
  /// Position i of a query hit is intervals[i]. Ties on lo keep build
  /// order, so the index contents depend only on the input sequence.
  explicit IntervalIndex(const std::vector<Interval>& intervals);

  /// Calls fn(position) for every interval meeting [lo, hi] (closed), in
  /// unspecified order.
  template <typename Fn>
  void for_each_overlapping(double lo, double hi, Fn&& fn) const {
    for (std::size_t i = upper_bound_lo(hi); i-- > 0;) {
      if (prefix_max_hi_[i] < lo) break;
      if (hi_[i] >= lo) fn(static_cast<std::size_t>(position_[i]));
    }
  }

  /// Number of intervals for_each_overlapping would visit.
  [[nodiscard]] int count_overlapping(double lo, double hi) const {
    int count = 0;
    for_each_overlapping(lo, hi, [&](std::size_t) { ++count; });
    return count;
  }

 private:
  /// First sorted slot whose lo exceeds hi.
  [[nodiscard]] std::size_t upper_bound_lo(double hi) const {
    std::size_t lo = 0;
    std::size_t end = lo_.size();
    while (lo < end) {
      const std::size_t mid = (lo + end) / 2;
      if (lo_[mid] <= hi) {
        lo = mid + 1;
      } else {
        end = mid;
      }
    }
    return lo;
  }

  std::vector<double> lo_;             ///< sorted ascending
  std::vector<double> hi_;
  std::vector<double> prefix_max_hi_;  ///< max hi_ over slots [0, i]
  std::vector<std::uint32_t> position_;  ///< sorted slot -> build position
};

class RectIndex {
 public:
  /// The axis rows run along: kX groups shapes into horizontal rows by
  /// centre y (metal2), kY into vertical rows by centre x (metal3).
  enum class Axis { kX, kY };

  RectIndex(std::vector<Rect> rects, Axis along);

  [[nodiscard]] const std::vector<Rect>& rects() const { return rects_; }

  /// Calls fn(id) for every rects()[id] sharing at least a point with the
  /// closed box, in unspecified order.
  template <typename Fn>
  void for_each_touching(const Rect& box, Fn&& fn) const {
    const auto cross = span(box, !along_x_);
    const auto along = span(box, along_x_);
    row_index_.for_each_overlapping(cross.lo, cross.hi, [&](std::size_t r) {
      const Row& row = rows_[r];
      row.along.for_each_overlapping(along.lo, along.hi, [&](std::size_t k) {
        const std::uint32_t id = row.members[k];
        if (rects_[id].touches(box)) fn(static_cast<std::size_t>(id));
      });
    });
  }

  /// Calls fn(i, j) once for every unordered pair i < j whose rects come
  /// within `margin` of each other (rects()[i].expanded(margin) touches
  /// rects()[j]), i ascending, j in unspecified order.
  template <typename Fn>
  void for_each_touching_pair(Coord margin, Fn&& fn) const {
    for (std::size_t i = 0; i < rects_.size(); ++i) {
      for_each_touching(rects_[i].expanded(margin), [&](std::size_t j) {
        if (j > i) fn(i, j);
      });
    }
  }

 private:
  struct Row {
    IntervalIndex along;
    std::vector<std::uint32_t> members;  ///< row slot -> rect id
  };

  /// The rect's extent along x (x = true) or y.
  static IntervalIndex::Interval span(const Rect& r, bool x) {
    return x ? IntervalIndex::Interval{static_cast<double>(r.lo().x),
                                       static_cast<double>(r.hi().x)}
             : IntervalIndex::Interval{static_cast<double>(r.lo().y),
                                       static_cast<double>(r.hi().y)};
  }

  std::vector<Rect> rects_;
  bool along_x_;
  IntervalIndex row_index_;  ///< over each row's cross extent
  std::vector<Row> rows_;
};

}  // namespace cnfet::geom
