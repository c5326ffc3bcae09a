#include "cnt/geometry_index.hpp"

#include <algorithm>
#include <tuple>

#include "util/error.hpp"

namespace cnfet::cnt {

namespace {

const geom::Rect& rect_of(const layout::ContactShape& c) { return c.rect; }
const geom::Rect& rect_of(const layout::GateShape& g) { return g.rect; }
const geom::Rect& rect_of(const geom::Rect& r) { return r; }
int payload_of(const layout::ContactShape& c) { return c.net; }
int payload_of(const layout::GateShape& g) { return g.input; }
int payload_of(const geom::Rect&) { return 0; }

/// Sorts `shapes` into a deterministic total order led by lo.x (geometry
/// construction order must never leak into index contents) and indexes
/// their x extents, padded by kQueryPad so queries compare raw doubles.
template <typename Shape>
geom::IntervalIndex index_x(std::vector<Shape>& shapes) {
  const auto key = [](const Shape& s) {
    const geom::Rect& r = rect_of(s);
    return std::make_tuple(r.lo().x, r.lo().y, r.hi().x, r.hi().y,
                           payload_of(s));
  };
  std::sort(shapes.begin(), shapes.end(),
            [&](const Shape& a, const Shape& b) { return key(a) < key(b); });
  std::vector<geom::IntervalIndex::Interval> xs;
  xs.reserve(shapes.size());
  for (const auto& s : shapes) {
    xs.push_back({static_cast<double>(rect_of(s).lo().x) - kQueryPad,
                  static_cast<double>(rect_of(s).hi().x) + kQueryPad});
  }
  return geom::IntervalIndex(xs);
}

}  // namespace

GeometryIndex::GeometryIndex(layout::CellGeometry geometry)
    : geometry_(std::move(geometry)) {
  CNFET_REQUIRE_MSG(geometry_.bands.size() <= kMaxBands,
                    "GeometryIndex supports at most 64 CNT bands");

  // The immunity proof requires pairwise disjoint bands (tubes cannot
  // bridge two bands: the active etch cuts them in between). Hoisted
  // here from the per-call analysis path: one proof per geometry.
  for (std::size_t i = 0; i < geometry_.bands.size(); ++i) {
    for (std::size_t j = i + 1; j < geometry_.bands.size(); ++j) {
      CNFET_REQUIRE_MSG(
          !geometry_.bands[i].rect.overlaps(geometry_.bands[j].rect),
          "CNT bands must be disjoint for the immunity proof");
    }
  }

  bands_.reserve(geometry_.bands.size());
  for (const auto& band : geometry_.bands) {
    BandIndex index;
    index.rect = band.rect;
    index.doping = band.doping;
    index.lo_x = static_cast<double>(band.rect.lo().x);
    index.hi_x = static_cast<double>(band.rect.hi().x);
    index.q_lo_x = index.lo_x - kQueryPad;
    index.q_hi_x = index.hi_x + kQueryPad;
    index.q_lo_y = static_cast<double>(band.rect.lo().y) - kQueryPad;
    index.q_hi_y = static_cast<double>(band.rect.hi().y) + kQueryPad;
    // Bin every shape that touches the band (closed-rectangle test): a
    // shape producing a crossing inside the band shares at least a point
    // with it, so this candidate set is conservative and exact.
    for (const auto& c : geometry_.contacts) {
      if (c.rect.touches(band.rect)) index.contacts.push_back(c);
    }
    for (const auto& g : geometry_.gates) {
      if (g.rect.touches(band.rect)) index.gates.push_back(g);
    }
    for (const auto& e : geometry_.etches) {
      if (e.touches(band.rect)) index.etches.push_back(e);
    }
    index.contacts_x = index_x(index.contacts);
    index.gates_x = index_x(index.gates);
    index.etches_x = index_x(index.etches);
    bands_.push_back(std::move(index));
  }

  // Band y extents (pre-padded) and the padded all-bands bounding box.
  std::vector<geom::IntervalIndex::Interval> ys;
  ys.reserve(bands_.size());
  for (const auto& band : bands_) ys.push_back({band.q_lo_y, band.q_hi_y});
  bands_y_ = geom::IntervalIndex(ys);
  has_bands_ = !bands_.empty();
  if (has_bands_) {
    bands_lo_ = {1e300, 1e300};
    bands_hi_ = {-1e300, -1e300};
    for (const auto& band : bands_) {
      bands_lo_.x = std::min(bands_lo_.x, band.q_lo_x);
      bands_lo_.y = std::min(bands_lo_.y, band.q_lo_y);
      bands_hi_.x = std::max(bands_hi_.x, band.q_hi_x);
      bands_hi_.y = std::max(bands_hi_.y, band.q_hi_y);
    }
  }
}

}  // namespace cnfet::cnt
