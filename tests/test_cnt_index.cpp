// Property tests for the spatially indexed CNT tracer (cnt::GeometryIndex):
//
//  * indexed ≡ naive — the indexed tracer must emit an effect list
//    IDENTICAL to the naive all-pairs reference, over fuzzed random
//    geometries (stacked bands, shapes in/straddling/far from bands) and
//    random polylines, and over every standard-family cell with random
//    tubes. This is the contract that lets monte_carlo swap tracers
//    without changing a single result bit.
//  * serial ≡ threaded — monte_carlo's full result, including the
//    per-trial histograms, is bit-identical at 1, 2 and 8 threads
//    (counter-seeded trial streams + commuting integer tallies).
//  * index structure — the band y mask agrees with brute force on fuzzed
//    geometries (the interval queries underneath are geom::IntervalIndex,
//    tested against brute force in test_geom_index).
//  * histogram invariants — bucket sums equal the trial count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cnt/analyzer.hpp"
#include "cnt/geometry_index.hpp"
#include "layout/cells.hpp"
#include "util/rng.hpp"

namespace cnfet {
namespace {

bool effects_equal(const std::vector<cnt::StrayEffect>& a,
                   const std::vector<cnt::StrayEffect>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b) return false;
    if (a[i].chain.size() != b[i].chain.size()) return false;
    for (std::size_t j = 0; j < a[i].chain.size(); ++j) {
      if (a[i].chain[j].gate_input != b[i].chain[j].gate_input ||
          a[i].chain[j].type != b[i].chain[j].type) {
        return false;
      }
    }
  }
  return true;
}

geom::Coord coord(util::Xoshiro256& rng, geom::Coord lo, geom::Coord hi) {
  return lo + static_cast<geom::Coord>(rng.uniform() *
                                       static_cast<double>(hi - lo));
}

/// Random geometry: 1-6 vertically stacked disjoint bands, each with
/// shapes fully inside, straddling the band edge, and far away (the far
/// ones exercise the index's binning filter: they must not change the
/// traced effects).
layout::CellGeometry fuzz_geometry(util::Xoshiro256& rng) {
  layout::CellGeometry geo;
  const int num_bands = 1 + static_cast<int>(rng.uniform() * 6);
  const geom::Coord width = 4000 + coord(rng, 0, 30000);
  geom::Coord y = coord(rng, -5000, 5000);
  for (int b = 0; b < num_bands; ++b) {
    y += coord(rng, 200, 900);  // gap keeps bands pairwise disjoint
    const geom::Coord h = coord(rng, 400, 1500);
    geo.bands.push_back({geom::Rect({0, y}, {width, y + h}),
                         rng.uniform() < 0.5 ? netlist::FetType::kN
                                             : netlist::FetType::kP});
    const int shapes = static_cast<int>(rng.uniform() * 10);
    for (int s = 0; s < shapes; ++s) {
      const geom::Coord x0 = coord(rng, -2000, width + 2000);
      const geom::Coord w = coord(rng, 100, 1200);
      // dy slides the shape from inside the band to fully outside it.
      const geom::Coord dy = coord(rng, -h - 800, h + 800);
      const geom::Rect rect({x0, y + dy}, {x0 + w, y + dy + h + 200});
      const double kind = rng.uniform();
      if (kind < 0.5) {
        geo.contacts.push_back(
            {static_cast<netlist::NetId>(1 + s % 5), rect});
      } else if (kind < 0.85) {
        geo.gates.push_back({s % 4, rect});
      } else {
        geo.etches.push_back(rect);
      }
    }
    y += h;
  }
  return geo;
}

std::vector<geom::DVec2> fuzz_polyline(util::Xoshiro256& rng,
                                       const layout::CellGeometry& geo) {
  geom::Coord y_lo = 0, y_hi = 0;
  geom::Coord x_hi = 4000;
  if (!geo.bands.empty()) {
    y_lo = geo.bands.front().rect.lo().y;
    y_hi = geo.bands.back().rect.hi().y;
    x_hi = geo.bands.front().rect.hi().x;
  }
  const int points = 2 + static_cast<int>(rng.uniform() * 3);
  std::vector<geom::DVec2> poly;
  for (int p = 0; p < points; ++p) {
    poly.push_back(
        {rng.uniform(-4000.0, static_cast<double>(x_hi) + 4000.0),
         rng.uniform(static_cast<double>(y_lo) - 4000.0,
                     static_cast<double>(y_hi) + 4000.0)});
  }
  return poly;
}

TEST(CntIndex, IndexedTracerMatchesNaiveOnFuzzedGeometries) {
  util::Xoshiro256 rng(0xC0FFEE);
  for (int round = 0; round < 150; ++round) {
    const auto geo = fuzz_geometry(rng);
    const cnt::GeometryIndex index(geo);
    for (int tube = 0; tube < 40; ++tube) {
      const auto poly = fuzz_polyline(rng, geo);
      const auto naive = cnt::trace_tube_naive(geo, poly);
      const auto indexed = cnt::trace_tube(index, poly);
      ASSERT_TRUE(effects_equal(naive, indexed))
          << "round " << round << " tube " << tube << ": naive "
          << naive.size() << " effects, indexed " << indexed.size();
    }
  }
}

TEST(CntIndex, IndexedTracerMatchesNaiveOnStandardCells) {
  util::Xoshiro256 rng(42);
  for (const auto& spec : layout::standard_cell_family()) {
    const auto built = layout::build_cell(spec);
    const auto geo = built.layout.geometry();
    const cnt::GeometryIndex index(geo);
    const auto box = built.layout.bbox();
    for (int tube = 0; tube < 300; ++tube) {
      std::vector<geom::DVec2> poly;
      const int points = 2 + static_cast<int>(rng.uniform() * 3);
      for (int p = 0; p < points; ++p) {
        poly.push_back({rng.uniform(static_cast<double>(box.lo().x) - 3000,
                                    static_cast<double>(box.hi().x) + 3000),
                        rng.uniform(static_cast<double>(box.lo().y) - 3000,
                                    static_cast<double>(box.hi().y) + 3000)});
      }
      const auto naive = cnt::trace_tube_naive(geo, poly);
      const auto indexed = cnt::trace_tube(index, poly);
      ASSERT_TRUE(effects_equal(naive, indexed)) << spec.name;
    }
  }
}

// The indexed Monte Carlo path skips a tube whose reach box misses every
// band. That is only sound if the naive tracer finds nothing on it either:
// check it for tubes drawn exactly as monte_carlo draws them, on every cell
// geometry, under the default and a wild model.
TEST(CntIndex, ReachBoxSkipIsConservative) {
  cnt::TubeModel wild;
  wild.angle_sigma_deg = 30.0;
  wild.outlier_fraction = 0.25;
  wild.bend_sigma_deg = 25.0;
  wild.length_sigma = 0.8;
  util::Xoshiro256 rng(11);
  std::vector<geom::DVec2> poly;
  std::int64_t skipped = 0, traced_with_effects = 0;
  for (const auto& spec : layout::standard_cell_family()) {
    for (const auto style :
         {layout::LayoutStyle::kNaiveVulnerable,
          layout::LayoutStyle::kEtchedIsolatedBranches,
          layout::LayoutStyle::kEtchedIsolatedFets,
          layout::LayoutStyle::kCompactEuler}) {
      for (const auto scheme :
           {layout::CellScheme::kScheme1, layout::CellScheme::kScheme2}) {
        layout::CellBuildOptions options;
        options.style = style;
        options.scheme = scheme;
        const auto built = layout::build_cell(spec, options);
        const auto geo = built.layout.geometry();
        const cnt::GeometryIndex index(geo);
        for (const cnt::TubeModel& model : {cnt::TubeModel{}, wild}) {
          const cnt::TubeSampler sampler(model, built.layout.bbox());
          for (int tube = 0; tube < 400; ++tube) {
            const cnt::TubeDraw draw = sampler.draw(rng);
            draw.polyline(poly);
            const auto naive = cnt::trace_tube_naive(geo, poly);
            if (draw.cannot_reach_bands(index)) {
              ++skipped;
              ASSERT_TRUE(naive.empty())
                  << spec.name << " " << layout::to_string(style);
            } else if (!naive.empty()) {
              ++traced_with_effects;
            }
          }
        }
      }
    }
  }
  // Both sides of the skip must be exercised.
  EXPECT_GT(skipped, 10000);
  EXPECT_GT(traced_with_effects, 1000);
}

TEST(CntIndex, BandMaskMatchesBruteForce) {
  util::Xoshiro256 rng(7);
  for (int round = 0; round < 200; ++round) {
    const auto geo = fuzz_geometry(rng);
    const cnt::GeometryIndex index(geo);
    for (int q = 0; q < 50; ++q) {
      const double a = rng.uniform(-10000.0, 30000.0);
      const double b = rng.uniform(-10000.0, 30000.0);
      const double y_lo = std::min(a, b);
      const double y_hi = std::max(a, b);
      const std::uint64_t mask = index.bands_in_y(y_lo, y_hi);
      for (std::size_t i = 0; i < geo.bands.size(); ++i) {
        const auto& rect = geo.bands[i].rect;
        const bool expect =
            static_cast<double>(rect.lo().y) - cnt::kQueryPad <= y_hi &&
            static_cast<double>(rect.hi().y) + cnt::kQueryPad >= y_lo;
        EXPECT_EQ((mask >> i) & 1, expect ? 1u : 0u) << "band " << i;
      }
    }
  }
}

bool results_identical(const cnt::MonteCarloResult& a,
                       const cnt::MonteCarloResult& b) {
  return a.trials == b.trials && a.failing_trials == b.failing_trials &&
         a.tubes_sampled == b.tubes_sampled &&
         a.stray_shorts == b.stray_shorts &&
         a.stray_chains == b.stray_chains &&
         a.shorts_histogram == b.shorts_histogram &&
         a.chains_histogram == b.chains_histogram;
}

TEST(CntIndex, MonteCarloIndexedMatchesNaive) {
  const auto built = layout::build_cell(layout::find_cell_spec("NAND2"));
  const auto indexed =
      cnt::monte_carlo(built.layout, built.netlist, built.function,
                       cnt::TubeModel{}, 3000, 99, 1,
                       cnt::TracerKind::kIndexed);
  const auto naive =
      cnt::monte_carlo(built.layout, built.netlist, built.function,
                       cnt::TubeModel{}, 3000, 99, 1, cnt::TracerKind::kNaive);
  EXPECT_TRUE(results_identical(indexed, naive));
}

TEST(CntIndex, MonteCarloThreadCountInvariant) {
  const auto built = layout::build_cell(layout::find_cell_spec("AOI21"));
  const auto serial =
      cnt::monte_carlo(built.layout, built.netlist, built.function,
                       cnt::TubeModel{}, 4000, 5, 1);
  for (int threads : {2, 8}) {
    const auto parallel =
        cnt::monte_carlo(built.layout, built.netlist, built.function,
                         cnt::TubeModel{}, 4000, 5, threads);
    EXPECT_TRUE(results_identical(serial, parallel))
        << threads << " threads";
  }
}

TEST(CntIndex, HistogramsPartitionTrials) {
  const auto built = layout::build_cell(layout::find_cell_spec("NAND3"));
  const auto result =
      cnt::monte_carlo(built.layout, built.netlist, built.function,
                       cnt::TubeModel{}, 2500, 3, 1);
  ASSERT_EQ(result.shorts_histogram.size(),
            static_cast<std::size_t>(cnt::MonteCarloResult::kHistogramBuckets));
  ASSERT_EQ(result.chains_histogram.size(),
            static_cast<std::size_t>(cnt::MonteCarloResult::kHistogramBuckets));
  std::int64_t shorts_sum = 0, chains_sum = 0;
  for (const auto b : result.shorts_histogram) shorts_sum += b;
  for (const auto b : result.chains_histogram) chains_sum += b;
  EXPECT_EQ(shorts_sum, result.trials);
  EXPECT_EQ(chains_sum, result.trials);
}

}  // namespace
}  // namespace cnfet
