// Brute-force equivalence tests for the shared spatial index
// (geom::IntervalIndex, geom::RectIndex): every query must visit exactly
// the entries an all-pairs scan accepts, each once. Fuzzed inputs stress
// the cases the prefix-max walk and the row grouping are sensitive to:
// heavily overlapping intervals, many long wires on one track, rows
// along both axes, degenerate (point) boxes and queries with a margin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/rect_index.hpp"
#include "util/rng.hpp"

namespace cnfet {
namespace {

using geom::IntervalIndex;
using geom::Rect;
using geom::RectIndex;

geom::Coord coord(util::Xoshiro256& rng, geom::Coord lo, geom::Coord hi) {
  return lo + static_cast<geom::Coord>(rng.below(
                  static_cast<std::uint64_t>(hi - lo + 1)));
}

std::vector<std::size_t> sorted(std::vector<std::size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(IntervalIndex, QueriesMatchBruteForce) {
  util::Xoshiro256 rng(11);
  for (int round = 0; round < 200; ++round) {
    std::vector<IntervalIndex::Interval> intervals;
    const int n = static_cast<int>(rng.below(40));
    // Alternate narrow intervals with a few long ones that keep the prefix
    // max high (the early-exit must not skip anything they shadow).
    for (int i = 0; i < n; ++i) {
      const double lo = rng.uniform(-5000.0, 40000.0);
      const double len = rng.uniform() < 0.15 ? rng.uniform(0.0, 40000.0)
                                              : rng.uniform(0.0, 2000.0);
      intervals.push_back({lo, lo + len});
    }
    const IntervalIndex index(intervals);
    for (int q = 0; q < 30; ++q) {
      const double a = rng.uniform(-8000.0, 45000.0);
      const double b = q % 5 == 0 ? a : rng.uniform(-8000.0, 45000.0);
      const double lo = std::min(a, b);
      const double hi = std::max(a, b);
      std::vector<std::size_t> brute;
      for (std::size_t i = 0; i < intervals.size(); ++i) {
        if (intervals[i].lo <= hi && intervals[i].hi >= lo) brute.push_back(i);
      }
      std::vector<std::size_t> visited;
      index.for_each_overlapping(lo, hi,
                                 [&](std::size_t i) { visited.push_back(i); });
      EXPECT_EQ(sorted(visited), brute);
      EXPECT_EQ(index.count_overlapping(lo, hi),
                static_cast<int>(brute.size()));
    }
  }
}

TEST(IntervalIndex, ClosedAtBothEnds) {
  const IntervalIndex index({{0.0, 10.0}, {20.0, 30.0}});
  EXPECT_EQ(index.count_overlapping(10.0, 20.0), 2);
  EXPECT_EQ(index.count_overlapping(10.5, 19.5), 0);
  EXPECT_EQ(index.count_overlapping(30.0, 30.0), 1);
  EXPECT_EQ(IntervalIndex().count_overlapping(-1e9, 1e9), 0);
}

/// Grid-drawn metal plus noise: long and short wires sharing tracks along
/// `along`, point-like vias on track crossings, and free-floating rects.
std::vector<Rect> fuzz_rects(util::Xoshiro256& rng, RectIndex::Axis along) {
  const bool x = along == RectIndex::Axis::kX;
  const geom::Coord pitch = 4000;
  const geom::Coord half = 1000;
  std::vector<Rect> rects;
  const int tracks = 1 + static_cast<int>(rng.below(5));
  const int per_track = static_cast<int>(rng.below(60));
  for (int t = 0; t < tracks; ++t) {
    const geom::Coord c = t * pitch;
    for (int k = 0; k < per_track; ++k) {
      const geom::Coord a = coord(rng, 0, 30) * pitch;
      // Mostly long wires: many of them overlap along the shared track.
      const geom::Coord len =
          coord(rng, 0, rng.uniform() < 0.5 ? 30 : 3) * pitch;
      const geom::Coord b = a + len + half;
      rects.push_back(x ? Rect({a - half, c - half}, {b, c + half})
                        : Rect({c - half, a - half}, {c + half, b}));
    }
  }
  const int vias = static_cast<int>(rng.below(20));
  for (int v = 0; v < vias; ++v) {
    const geom::Vec2 at{coord(rng, 0, 30) * pitch, coord(rng, 0, 5) * pitch};
    rects.push_back(
        Rect({at.x - 1500, at.y - 1500}, {at.x + 1500, at.y + 1500}));
  }
  const int loose = static_cast<int>(rng.below(15));
  for (int f = 0; f < loose; ++f) {
    const geom::Vec2 lo{coord(rng, -5000, 120000), coord(rng, -5000, 120000)};
    rects.push_back(
        Rect(lo, {lo.x + coord(rng, 0, 20000), lo.y + coord(rng, 0, 20000)}));
  }
  return rects;
}

TEST(RectIndex, TouchingMatchesBruteForceOnBothAxes) {
  util::Xoshiro256 rng(23);
  for (const auto along : {RectIndex::Axis::kX, RectIndex::Axis::kY}) {
    for (int round = 0; round < 120; ++round) {
      const auto rects = fuzz_rects(rng, along);
      const RectIndex index(rects, along);
      ASSERT_EQ(index.rects(), rects);
      for (int q = 0; q < 40; ++q) {
        const geom::Vec2 lo{coord(rng, -8000, 125000),
                            coord(rng, -8000, 125000)};
        // Every fifth query is a point (the oracle's terminal probe).
        const geom::Coord w = q % 5 == 0 ? 0 : coord(rng, 0, 30000);
        const geom::Coord h = q % 5 == 0 ? 0 : coord(rng, 0, 30000);
        const Rect box(lo, {lo.x + w, lo.y + h});
        std::vector<std::size_t> brute;
        for (std::size_t i = 0; i < rects.size(); ++i) {
          if (rects[i].touches(box)) brute.push_back(i);
        }
        std::vector<std::size_t> visited;
        index.for_each_touching(box,
                                [&](std::size_t i) { visited.push_back(i); });
        EXPECT_EQ(sorted(visited), brute);
      }
    }
  }
}

TEST(RectIndex, TouchingPairsWithMarginMatchBruteForce) {
  util::Xoshiro256 rng(31);
  for (const auto along : {RectIndex::Axis::kX, RectIndex::Axis::kY}) {
    for (int round = 0; round < 60; ++round) {
      const auto rects = fuzz_rects(rng, along);
      const RectIndex index(rects, along);
      for (const geom::Coord margin : {0, 1, 2000, 3000}) {
        std::vector<std::pair<std::size_t, std::size_t>> brute;
        for (std::size_t i = 0; i < rects.size(); ++i) {
          for (std::size_t j = i + 1; j < rects.size(); ++j) {
            if (rects[i].expanded(margin).touches(rects[j])) {
              brute.emplace_back(i, j);
            }
          }
        }
        std::vector<std::pair<std::size_t, std::size_t>> visited;
        std::size_t last_i = 0;
        index.for_each_touching_pair(
            margin, [&](std::size_t i, std::size_t j) {
              EXPECT_LT(i, j);
              EXPECT_GE(i, last_i);  // i ascending
              last_i = i;
              visited.emplace_back(i, j);
            });
        std::sort(visited.begin(), visited.end());
        EXPECT_EQ(visited, brute) << "margin " << margin;
      }
    }
  }
}

}  // namespace
}  // namespace cnfet
