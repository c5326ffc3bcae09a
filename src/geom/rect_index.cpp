#include "geom/rect_index.hpp"

#include <algorithm>
#include <numeric>

namespace cnfet::geom {

IntervalIndex::IntervalIndex(const std::vector<Interval>& intervals) {
  position_.resize(intervals.size());
  std::iota(position_.begin(), position_.end(), std::uint32_t{0});
  std::stable_sort(position_.begin(), position_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return intervals[a].lo < intervals[b].lo;
                   });
  lo_.reserve(intervals.size());
  hi_.reserve(intervals.size());
  prefix_max_hi_.reserve(intervals.size());
  double running_max = -1e300;
  for (const auto p : position_) {
    lo_.push_back(intervals[p].lo);
    hi_.push_back(intervals[p].hi);
    running_max = std::max(running_max, intervals[p].hi);
    prefix_max_hi_.push_back(running_max);
  }
}

RectIndex::RectIndex(std::vector<Rect> rects, Axis along)
    : rects_(std::move(rects)), along_x_(along == Axis::kX) {
  // Twice the centre on the cross axis, kept integral so equal centres
  // group exactly.
  const auto centre2 = [&](std::uint32_t id) {
    const Rect& r = rects_[id];
    return along_x_ ? r.lo().y + r.hi().y : r.lo().x + r.hi().x;
  };
  std::vector<std::uint32_t> order(rects_.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return centre2(a) < centre2(b);
                   });

  std::vector<IntervalIndex::Interval> row_extents;
  std::vector<IntervalIndex::Interval> along_extents;
  for (std::size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    Row row;
    IntervalIndex::Interval extent{1e300, -1e300};
    along_extents.clear();
    for (end = begin;
         end < order.size() && centre2(order[end]) == centre2(order[begin]);
         ++end) {
      const Rect& r = rects_[order[end]];
      row.members.push_back(order[end]);
      along_extents.push_back(span(r, along_x_));
      extent.lo = std::min(extent.lo, span(r, !along_x_).lo);
      extent.hi = std::max(extent.hi, span(r, !along_x_).hi);
    }
    row.along = IntervalIndex(along_extents);
    rows_.push_back(std::move(row));
    row_extents.push_back(extent);
  }
  row_index_ = IntervalIndex(row_extents);
}

}  // namespace cnfet::geom
