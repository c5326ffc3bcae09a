// Unit tests for transistor netlists and the switch-level evaluator.
#include <gtest/gtest.h>

#include <queue>
#include <string>
#include <vector>

#include "logic/expr.hpp"
#include "netlist/cell_netlist.hpp"
#include "netlist/conduction.hpp"
#include "util/rng.hpp"

namespace cnfet::netlist {
namespace {

using logic::parse_expr;
using logic::TruthTable;

TruthTable inverted(const logic::Expr& pdn, int n) { return ~pdn.truth(n); }

TEST(SwitchLevel, InverterEvaluates) {
  const auto cell = build_static_cell(parse_expr("A"));
  EXPECT_EQ(cell.evaluate(0), Level::kHigh);
  EXPECT_EQ(cell.evaluate(1), Level::kLow);
  EXPECT_FALSE(cell.has_supply_short(0));
  EXPECT_FALSE(cell.has_supply_short(1));
}

TEST(SwitchLevel, CellFamilyMatchesComplementOfPdn) {
  for (const char* pdn : {"A", "A*B", "A+B", "A*B*C", "A+B+C", "ABC+D",
                          "(A+B)*C", "A*B+C", "(A+B)*(C+D)", "A*B+C*D",
                          "ABCD", "(A+B+C)*D"}) {
    const auto expr = parse_expr(pdn);
    const auto cell = build_static_cell(expr);
    const auto report = cell.check_function(inverted(expr, expr.num_vars()));
    EXPECT_TRUE(report.ok) << pdn << ": " << report.to_string();
  }
}

TEST(SwitchLevel, SeriesUpsizingFollowsStackDepth) {
  // NAND3 pull-down: three series n-FETs, each 3x the base width; pull-up
  // p-FETs stay at base width.
  SizingRule sizing;
  sizing.wn_base = 4.0;
  sizing.wp_base = 4.0;
  const auto cell = build_static_cell(parse_expr("A*B*C"), sizing);
  for (const auto& f : cell.plane_fets(FetType::kN)) {
    EXPECT_DOUBLE_EQ(f.width_lambda, 12.0);
  }
  for (const auto& f : cell.plane_fets(FetType::kP)) {
    EXPECT_DOUBLE_EQ(f.width_lambda, 4.0);
  }
}

TEST(SwitchLevel, Aoi31MixedStackSizing) {
  // PDN of AOI31 = ABC + D: the ABC chain is 3 deep, D is 1 deep.
  const auto cell = build_static_cell(parse_expr("ABC+D"));
  int deep = 0, shallow = 0;
  for (const auto& f : cell.plane_fets(FetType::kN)) {
    if (f.width_lambda == 12.0) ++deep;
    if (f.width_lambda == 4.0) ++shallow;
  }
  EXPECT_EQ(deep, 3);
  EXPECT_EQ(shallow, 1);
  // PUN of AOI31 = (A+B+C)*D: everything is in a 2-deep series path.
  for (const auto& f : cell.plane_fets(FetType::kP)) {
    EXPECT_DOUBLE_EQ(f.width_lambda, 8.0);
  }
}

TEST(SwitchLevel, StrayShortCreatesSupplyFight) {
  // Shorting VDD to OUT in a NAND2 makes input row 3 (both high) a fight.
  auto cell = build_static_cell(parse_expr("A*B"));
  cell.add_short({CellNetlist::kVdd, CellNetlist::kOut});
  EXPECT_EQ(cell.evaluate(3), Level::kFight);
  EXPECT_TRUE(cell.has_supply_short(3));
  // Rows where the PDN is off are still (weakly) correct.
  EXPECT_EQ(cell.evaluate(0), Level::kHigh);
  const auto report = cell.check_function(~parse_expr("A*B").truth(2));
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.failing_row, 3u);
  EXPECT_TRUE(report.supply_short);
}

TEST(SwitchLevel, StraySeriesChainThatIsRedundantIsHarmless) {
  // A stray chain VDD -pA- x -pB- OUT duplicates the intended NAND2 pull-up
  // path through redundant devices; function must be unchanged.
  auto cell = build_static_cell(parse_expr("A*B"));
  const auto x = cell.add_net("stray0");
  cell.add_fet({FetType::kP, 0, CellNetlist::kVdd, x, 4.0});
  cell.add_fet({FetType::kP, 1, x, CellNetlist::kOut, 4.0});
  EXPECT_TRUE(cell.check_function(~parse_expr("A*B").truth(2)).ok);
}

TEST(SwitchLevel, MixedDopingStrayChainNeverConducts) {
  // A tube crossing from the p+ region into the n+ region picks up a
  // p-channel and an n-channel in series under the same gate: pA AND nA is
  // never on, so even a VDD..GND stray chain is harmless.
  auto cell = build_static_cell(parse_expr("A"));
  const auto x = cell.add_net("stray0");
  cell.add_fet({FetType::kP, 0, CellNetlist::kVdd, x, 4.0});
  cell.add_fet({FetType::kN, 0, x, CellNetlist::kGnd, 4.0});
  EXPECT_TRUE(cell.check_function(~parse_expr("A").truth(1)).ok);
  EXPECT_FALSE(cell.has_supply_short(0));
  EXPECT_FALSE(cell.has_supply_short(1));
}

TEST(SwitchLevel, FloatDetection) {
  // A pull-down-only "cell" floats when its network is off.
  CellNetlist cell(1);
  cell.add_fet({FetType::kN, 0, CellNetlist::kOut, CellNetlist::kGnd, 4.0});
  EXPECT_EQ(cell.evaluate(0), Level::kFloat);
  EXPECT_EQ(cell.evaluate(1), Level::kLow);
}

TEST(SwitchLevel, InternalNetNamesAreStable) {
  const auto cell = build_static_cell(parse_expr("A*B*C"));
  // GND, VDD, OUT plus two internal nets in the series pull-down chain
  // (the parallel pull-up needs none).
  EXPECT_EQ(cell.num_nets(), 3 + 2);
  EXPECT_EQ(cell.net_name(0), "GND");
  EXPECT_EQ(cell.net_name(1), "VDD");
  EXPECT_EQ(cell.net_name(2), "OUT");
}

TEST(SwitchLevel, RejectsMalformedFets) {
  CellNetlist cell(1);
  EXPECT_THROW(cell.add_fet({FetType::kN, 5, 0, 1, 4.0}),
               util::ContractViolation);
  EXPECT_THROW(cell.add_fet({FetType::kN, 0, 0, 99, 4.0}),
               util::ContractViolation);
  EXPECT_THROW(cell.add_fet({FetType::kN, 0, 0, 1, -1.0}),
               util::ContractViolation);
}

// --- fuzzed oracle for the bit-parallel conduction kernel -------------------
//
// The reference below floods one input row at a time with a BFS over the ON
// devices, straight from the definitions, and shares no code with the
// kernel. The kernel must agree with it on every FunctionalReport field,
// every net's level and every supply-short verdict.

struct RefReach {
  std::vector<bool> vdd;
  std::vector<bool> gnd;
};

RefReach reference_reach(const CellNetlist& cell, std::uint64_t row) {
  const auto nets = static_cast<std::size_t>(cell.num_nets());
  std::vector<std::vector<NetId>> adjacency(nets);
  const auto connect = [&](NetId a, NetId b) {
    adjacency[static_cast<std::size_t>(a)].push_back(b);
    adjacency[static_cast<std::size_t>(b)].push_back(a);
  };
  for (const auto& f : cell.fets()) {
    const bool gate_high = (row >> f.gate_input) & 1;
    if (gate_high == (f.type == FetType::kN)) connect(f.a, f.b);
  }
  for (const auto& s : cell.shorts()) connect(s.a, s.b);
  const auto flood = [&](NetId seed) {
    std::vector<bool> seen(nets, false);
    std::queue<NetId> queue;
    queue.push(seed);
    seen[static_cast<std::size_t>(seed)] = true;
    while (!queue.empty()) {
      const NetId n = queue.front();
      queue.pop();
      for (const NetId next : adjacency[static_cast<std::size_t>(n)]) {
        if (!seen[static_cast<std::size_t>(next)]) {
          seen[static_cast<std::size_t>(next)] = true;
          queue.push(next);
        }
      }
    }
    return seen;
  };
  return {flood(CellNetlist::kVdd), flood(CellNetlist::kGnd)};
}

Level reference_level(const RefReach& reach, NetId net) {
  const bool high = reach.vdd[static_cast<std::size_t>(net)];
  const bool low = reach.gnd[static_cast<std::size_t>(net)];
  if (high && low) return Level::kFight;
  if (high) return Level::kHigh;
  if (low) return Level::kLow;
  return Level::kFloat;
}

FunctionalReport reference_check(const CellNetlist& cell,
                                 const TruthTable& expected) {
  FunctionalReport report;
  for (std::uint64_t row = 0; row < expected.num_rows(); ++row) {
    const RefReach reach = reference_reach(cell, row);
    const Level level = reference_level(reach, CellNetlist::kOut);
    const bool supply_short = reach.gnd[CellNetlist::kVdd];
    const bool want_high = expected.eval(row);
    if (supply_short || level != (want_high ? Level::kHigh : Level::kLow)) {
      report.ok = false;
      report.failing_row = row;
      report.observed = level;
      report.expected_high = want_high;
      report.supply_short = supply_short;
      return report;
    }
  }
  return report;
}

void expect_same_report(const FunctionalReport& got,
                        const FunctionalReport& want, const std::string& ctx) {
  EXPECT_EQ(got.ok, want.ok) << ctx;
  EXPECT_EQ(got.failing_row, want.failing_row) << ctx;
  EXPECT_EQ(got.observed, want.observed) << ctx;
  EXPECT_EQ(got.expected_high, want.expected_high) << ctx;
  EXPECT_EQ(got.supply_short, want.supply_short) << ctx;
}

NetId random_net(util::Xoshiro256& rng, const CellNetlist& cell) {
  return static_cast<NetId>(
      rng.below(static_cast<std::uint64_t>(cell.num_nets())));
}

Fet random_fet(util::Xoshiro256& rng, const CellNetlist& cell) {
  Fet f;
  f.type = rng.below(2) == 0 ? FetType::kN : FetType::kP;
  f.gate_input = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(cell.num_inputs())));
  f.a = random_net(rng, cell);
  f.b = random_net(rng, cell);
  return f;
}

/// Random netlist: half the time a static cell over every input (so clean
/// rows and passing checks are common), then extra internal nets (some
/// left floating), FETs between any nets including the rails, and a few
/// hard shorts, sometimes VDD-GND.
CellNetlist fuzz_netlist(util::Xoshiro256& rng, int inputs) {
  CellNetlist cell(inputs);
  bool static_cell = false;
  if (inputs > 0 && rng.below(2) == 0) {
    std::string pdn = "A";
    for (int i = 1; i < inputs; ++i) {
      pdn += rng.below(2) == 0 ? "*" : "+";
      pdn += static_cast<char>('A' + i);
    }
    cell = build_static_cell(parse_expr(pdn));
    static_cell = true;
  }
  for (auto k = rng.below(4); k > 0; --k) {
    cell.add_net("x" + std::to_string(cell.num_nets()));
  }
  if (inputs > 0) {
    for (auto k = rng.below(static_cell ? 3 : 14); k > 0; --k) {
      cell.add_fet(random_fet(rng, cell));
    }
  }
  for (auto k = rng.below(static_cell ? 2 : 3); k > 0; --k) {
    cell.add_short({random_net(rng, cell), random_net(rng, cell)});
  }
  if (rng.below(8) == 0) {
    cell.add_short({CellNetlist::kVdd, CellNetlist::kGnd});
  }
  return cell;
}

/// Mostly the netlist's own clean rows, so failures land on every row
/// and some checks pass; otherwise a random table.
TruthTable fuzz_expected(util::Xoshiro256& rng, const CellNetlist& cell) {
  const int n = cell.num_inputs();
  TruthTable expected(n, rng());
  if (rng.below(4) == 0) return expected;
  for (std::uint64_t row = 0; row < expected.num_rows(); ++row) {
    const Level level =
        reference_level(reference_reach(cell, row), CellNetlist::kOut);
    if (level == Level::kHigh || level == Level::kLow) {
      expected.set(row, level == Level::kHigh);
    }
  }
  return expected;
}

TEST(ConductionKernel, CheckFunctionMatchesPerRowReference) {
  util::Xoshiro256 rng(2024);
  int failing = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const int inputs = static_cast<int>(rng.below(7));
    const CellNetlist cell = fuzz_netlist(rng, inputs);
    const TruthTable expected = fuzz_expected(rng, cell);
    const auto want = reference_check(cell, expected);
    failing += want.ok ? 0 : 1;
    expect_same_report(cell.check_function(expected), want,
                       "iteration " + std::to_string(iter));
  }
  // The fuzz must exercise both verdicts.
  EXPECT_GT(failing, 300);
  EXPECT_GT(3000 - failing, 300);
}

TEST(ConductionKernel, EvaluateAndSupplyShortMatchReferenceUpToTwelveInputs) {
  util::Xoshiro256 rng(77);
  for (int iter = 0; iter < 1500; ++iter) {
    const int inputs =
        static_cast<int>(rng.below(CellNetlist::kMaxInputs + 1));
    const CellNetlist cell = fuzz_netlist(rng, inputs);
    for (int k = 0; k < 4; ++k) {
      const std::uint64_t row = rng.below(1ull << inputs);
      const RefReach reach = reference_reach(cell, row);
      EXPECT_EQ(cell.has_supply_short(row),
                static_cast<bool>(reach.gnd[CellNetlist::kVdd]))
          << iter << " row " << row;
      for (NetId net = 0; net < cell.num_nets(); ++net) {
        EXPECT_EQ(cell.evaluate(row, net), reference_level(reach, net))
            << iter << " row " << row << " net " << net;
      }
    }
  }
}

TEST(ConductionKernel, ExtraEdgesRelaxToTheAugmentedNetlistsFixpoint) {
  // Edges relaxed on top of the base fixpoint must give exactly the check
  // of a netlist that carries the same devices from the start.
  util::Xoshiro256 rng(5);
  Reach reach;
  for (int iter = 0; iter < 2000; ++iter) {
    const int inputs = 1 + static_cast<int>(rng.below(6));
    const CellNetlist base = fuzz_netlist(rng, inputs);
    const Conduction conduction(base);
    CellNetlist augmented = base;
    std::vector<ConductionEdge> extra;
    for (auto k = rng.below(6); k > 0; --k) {
      if (rng.below(4) == 0) {
        const RailShort s{random_net(rng, base), random_net(rng, base)};
        augmented.add_short(s);
        extra.push_back({s.a, s.b, conduction.lanes()});
      } else {
        const Fet f = random_fet(rng, base);
        augmented.add_fet(f);
        extra.push_back({f.a, f.b, conduction.on_rows(f.type, f.gate_input)});
      }
    }
    const TruthTable expected = fuzz_expected(rng, base);
    expect_same_report(conduction.check(expected, extra, reach),
                       reference_check(augmented, expected),
                       "iteration " + std::to_string(iter));
  }
}

}  // namespace
}  // namespace cnfet::netlist
