// Wire-aware signoff tests: the grid router's determinism and the
// open/short oracle, Elmore extraction against hand-computed goldens,
// wire-loaded incremental timing vs full rebuild, and routed-GDS DRC
// cleanliness per family cell. The Route10k suite is the 10k-gate stress
// tier, registered as its own ctest entry under the `scale` label so
// sanitizer runs can exclude it (-LE scale).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/flow.hpp"
#include "api/serialize.hpp"
#include "drc/drc.hpp"
#include "gds/gds.hpp"
#include "gen/gen.hpp"
#include "layout/cells.hpp"
#include "route/extract.hpp"
#include "route/router.hpp"
#include "sta/timing_graph.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cnfet {
namespace {

const liberty::Library& cnfet_library() {
  static const auto library =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  return *library;
}

const layout::DesignRules& cnfet_rules() {
  return cnfet_library().cells().front().built.layout.rules();
}

gen::Generated random_dag(int gates, int num_inputs, std::uint64_t seed) {
  gen::GenOptions options;
  options.family = gen::Family::kRandomDag;
  options.target_gates = gates;
  options.num_inputs = num_inputs;
  options.seed = seed;
  return gen::generate(cnfet_library(), options);
}

std::string routing_bytes(const route::RoutingResult& routing) {
  return util::json::dump(api::to_json(routing));
}

/// Runs a flow with routing enabled up to sign-off and returns it.
api::Flow routed_flow_from_netlist(flow::GateNetlist netlist,
                                   layout::CellScheme scheme =
                                       layout::CellScheme::kScheme1) {
  api::FlowOptions options;
  options.route = true;
  options.place.scheme = scheme;
  auto made = api::Flow::from_netlist(std::move(netlist), options);
  EXPECT_TRUE(made.ok()) << made.error().message;
  auto reached = made.value().run(api::Stage::kSignedOff);
  EXPECT_TRUE(reached.ok()) << reached.error().message;
  return std::move(made.value());
}

// --- RouteTier: fast routing, extraction and DRC cases -------------------

TEST(RouteTier, RoutingIsByteDeterministic) {
  auto design = random_dag(120, 10, 11);
  const auto placement = flow::place(design.netlist);
  const auto& rules = cnfet_rules();
  const auto first = route::route(design.netlist, placement, rules);
  const auto second = route::route(design.netlist, placement, rules);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(routing_bytes(first), routing_bytes(second));
  EXPECT_TRUE(first.complete());
  EXPECT_GT(first.total_wirelength_lambda, 0.0);
}

TEST(RouteTier, OracleAcceptsFuzzedPlacementsOnBothSchemes) {
  const auto& rules = cnfet_rules();
  for (const auto scheme :
       {layout::CellScheme::kScheme1, layout::CellScheme::kScheme2}) {
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
      auto design = random_dag(60 + 30 * static_cast<int>(seed), 8, seed);
      flow::PlaceOptions popt;
      popt.scheme = scheme;
      const auto placement = flow::place(design.netlist, popt);
      const auto routing = route::route(design.netlist, placement, rules);
      EXPECT_TRUE(routing.complete())
          << "scheme " << static_cast<int>(scheme) << " seed " << seed
          << ": " << routing.failed_nets << " failed nets";
      const auto report =
          route::verify(design.netlist, placement, routing, rules);
      EXPECT_TRUE(report.ok())
          << "scheme " << static_cast<int>(scheme) << " seed " << seed
          << ": open=" << report.open_nets
          << " shorts=" << report.shorted_net_pairs
          << " stray=" << report.stray_terminals;
      EXPECT_EQ(report.nets_checked,
                static_cast<int>(routing.nets.size()));
    }
  }
}

// Pins the router's exact output. The search must return the same
// lexicographically smallest shortest path the reference FIFO BFS returned,
// so these digests were recorded from that BFS and any change in tie-breaking,
// window escalation or rip-up shows up here. The designs cover full-grid
// searches (CLA), rip-up (random_dag(300, 12, 9) rips twice, one fuzzed
// placement ten times) and both placement schemes.
TEST(RouteTier, RoutingMatchesParentDigests) {
  const auto& rules = cnfet_rules();
  const auto digest = [&](const gen::Generated& design,
                          const flow::PlaceOptions& popt = {}) {
    const auto placement = flow::place(design.netlist, popt);
    return util::json::fnv1a64_hex(
        routing_bytes(route::route(design.netlist, placement, rules)));
  };
  const auto generated = [](gen::Family family, int width) {
    gen::GenOptions options;
    options.family = family;
    options.width = width;
    return gen::generate(cnfet_library(), options);
  };
  EXPECT_EQ(digest(generated(gen::Family::kCarryLookaheadAdder, 32)),
            "3fb6427b44c25e7f");
  EXPECT_EQ(digest(generated(gen::Family::kArrayMultiplier, 8)),
            "3c86095e20a788f8");
  EXPECT_EQ(digest(random_dag(120, 10, 11)), "cc5667ec182101a7");
  EXPECT_EQ(digest(random_dag(300, 12, 9)), "382e2e2d4b81fe85");

  // The placements of OracleAcceptsFuzzedPlacementsOnBothSchemes.
  const char* const fuzzed[2][4] = {
      {"5981140faf68e982", "ad69b1ca51d742f4", "d2c7094da668bce3",
       "f520d8b9989f751b"},
      {"0df66dd156815b93", "d5e1b62c9adfe957", "8bfd8b074aae4bdc",
       "3b8b88a0ca0f5199"}};
  for (const auto scheme :
       {layout::CellScheme::kScheme1, layout::CellScheme::kScheme2}) {
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
      flow::PlaceOptions popt;
      popt.scheme = scheme;
      EXPECT_EQ(
          digest(random_dag(60 + 30 * static_cast<int>(seed), 8, seed), popt),
          fuzzed[scheme == layout::CellScheme::kScheme1 ? 0 : 1][seed - 1])
          << "scheme " << static_cast<int>(scheme) << " seed " << seed;
    }
  }
}

// The oracle is only trustworthy if it actually rejects broken routings.
TEST(RouteTier, OracleFlagsInjectedOpensAndShorts) {
  auto design = random_dag(80, 8, 7);
  const auto placement = flow::place(design.netlist);
  const auto& rules = cnfet_rules();
  const auto routing = route::route(design.netlist, placement, rules);
  ASSERT_TRUE(route::verify(design.netlist, placement, routing, rules).ok());

  // Open: delete all metal from the largest multi-terminal net.
  auto opened = routing;
  for (auto& rn : opened.nets) {
    if (!rn.wires.empty()) {
      rn.wires.clear();
      rn.vias.clear();
      break;
    }
  }
  EXPECT_GT(route::verify(design.netlist, placement, opened, rules).open_nets,
            0);

  // Short: graft one net's first wire onto a different net.
  auto shorted = routing;
  const route::Wire* stolen = nullptr;
  for (const auto& rn : shorted.nets) {
    if (!rn.wires.empty()) {
      stolen = &rn.wires.front();
      break;
    }
  }
  ASSERT_NE(stolen, nullptr);
  for (auto& rn : shorted.nets) {
    if (rn.wires.empty() || &rn.wires.front() == stolen) continue;
    rn.wires.push_back(*stolen);
    break;
  }
  EXPECT_GT(route::verify(design.netlist, placement, shorted, rules)
                .shorted_net_pairs,
            0);

  // Short away from a wire's centre: a foreign via landing on a long
  // metal3 wire at a node off the wire's centre row, where no metal2
  // shape can join the two nets. The via touches the wire only on metal3.
  const geom::Coord pitch = rules.db(rules.route_pitch);
  const auto touches_metal2 = [&](const geom::Rect& r) {
    for (const auto& rn : routing.nets) {
      for (const auto& w : rn.wires) {
        if (w.layer == 0 && w.rect().touches(r)) return true;
      }
      for (const auto& v : rn.vias) {
        if (v.rect().touches(r)) return true;
      }
    }
    return false;
  };
  std::size_t owner = 0;
  const route::Wire* long_wire = nullptr;
  for (std::size_t k = 0; k < routing.nets.size() && !long_wire; ++k) {
    for (const auto& w : routing.nets[k].wires) {
      if (w.layer == 1 && w.b.y - w.a.y >= 4 * pitch) {
        owner = k;
        long_wire = &w;
        break;
      }
    }
  }
  ASSERT_NE(long_wire, nullptr);
  auto via_shorted = routing;
  bool injected = false;
  const geom::Coord centre_row = long_wire->rect().center().y / pitch;
  for (geom::Coord y = long_wire->a.y; y <= long_wire->b.y; y += pitch) {
    const route::Via via{{long_wire->a.x, y}, rules.db(rules.via_size)};
    if (y / pitch == centre_row || touches_metal2(via.rect())) continue;
    via_shorted.nets[owner == 0 ? 1 : 0].vias.push_back(via);
    injected = true;
    break;
  }
  ASSERT_TRUE(injected);
  EXPECT_GT(route::verify(design.netlist, placement, via_shorted, rules)
                .shorted_net_pairs,
            0);
  EXPECT_FALSE(drc::check_routes(via_shorted, rules).clean());
}

TEST(RouteTier, ElmoreMatchesHandComputedStraightWire) {
  const auto& lib = cnfet_library();
  const auto* inv = &lib.find("INV_1X");
  flow::GateNetlist netlist;
  const int a = netlist.add_net("A");
  netlist.mark_input(a);
  const int n1 = netlist.add_net("n1");
  const int n2 = netlist.add_net("n2");
  netlist.add_gate(flow::Gate{inv, {a}, n1, "u1"});
  netlist.add_gate(flow::Gate{inv, {n1}, n2, "u2"});
  netlist.mark_output(n2);

  const layout::DesignRules rules;
  const geom::Coord p = rules.db(rules.route_pitch);
  const geom::Coord w = rules.db(rules.wire_width);

  // One horizontal wire of two pitch steps; root at one end, sink at the
  // other. The RC ladder is root --R-- mid --R-- sink with step cap split
  // half per endpoint: C(root) = c/2, C(mid) = c, C(sink) = c/2.
  // Elmore(sink) = R*(3c/2) + R*(c/2) = 2*R*c.
  route::RoutingResult routing;
  routing.pitch = p;
  route::RoutedNet rn;
  rn.net = n1;
  rn.terminals = {{0, 0}, {2 * p, 0}};
  rn.wires = {route::Wire{0, {0, 0}, {2 * p, 0}, w}};
  rn.length_lambda = 2 * rules.route_pitch;
  routing.nets.push_back(rn);
  routing.total_wirelength_lambda = rn.length_lambda;

  const auto extraction = route::extract(netlist, routing, rules);
  ASSERT_EQ(extraction.nets.size(), 1U);
  const auto& ext = extraction.nets.front();
  const double step_res = rules.wire_sheet_res * rules.route_pitch /
                          rules.wire_width;
  const double step_cap = rules.wire_cap_per_lambda * rules.route_pitch;
  EXPECT_DOUBLE_EQ(ext.wire_cap_f,
                   2 * rules.route_pitch * rules.wire_cap_per_lambda);
  ASSERT_EQ(ext.sink_elmore_s.size(), 1U);
  EXPECT_DOUBLE_EQ(ext.sink_elmore_s.front(), 2.0 * step_res * step_cap);

  // And the WireLoads repackaging lands on (gate 1, pin 0) and net n1.
  const auto loads = extraction.to_wire_loads(netlist);
  EXPECT_TRUE(loads.enabled);
  EXPECT_DOUBLE_EQ(loads.net_cap_of(n1), ext.wire_cap_f);
  EXPECT_DOUBLE_EQ(loads.pin_delay_of(1, 0), ext.sink_elmore_s.front());
  EXPECT_DOUBLE_EQ(loads.net_cap_of(a), 0.0);
  EXPECT_DOUBLE_EQ(loads.pin_delay_of(99, 0), 0.0);  // out of range: zero
}

TEST(RouteTier, ElmoreMatchesHandComputedViaCorner) {
  const auto& lib = cnfet_library();
  const auto* inv = &lib.find("INV_1X");
  flow::GateNetlist netlist;
  const int a = netlist.add_net("A");
  netlist.mark_input(a);
  const int n1 = netlist.add_net("n1");
  const int n2 = netlist.add_net("n2");
  netlist.add_gate(flow::Gate{inv, {a}, n1, "u1"});
  netlist.add_gate(flow::Gate{inv, {n1}, n2, "u2"});
  netlist.mark_output(n2);

  const layout::DesignRules rules;
  const geom::Coord p = rules.db(rules.route_pitch);
  const geom::Coord w = rules.db(rules.wire_width);
  const geom::Coord vs = rules.db(rules.via_size);

  // An L: one metal2 step east, via up, one metal3 step north, via back
  // down to the layer-0 sink node — exactly the shape the router emits for
  // a diagonal two-terminal net. Caps: root c/2, corner c/2 (layer 0) and
  // c/2 (layer 1), sink c/2 on layer 1, 0 on layer 0.
  // Elmore(sink) = R*(3c/2) + Rvia*c + R*(c/2) + Rvia*0 = 2*R*c + Rvia*c.
  route::RoutingResult routing;
  routing.pitch = p;
  route::RoutedNet rn;
  rn.net = n1;
  rn.terminals = {{0, 0}, {p, p}};
  rn.wires = {route::Wire{0, {0, 0}, {p, 0}, w},
              route::Wire{1, {p, 0}, {p, p}, w}};
  rn.vias = {route::Via{{p, 0}, vs}, route::Via{{p, p}, vs}};
  rn.length_lambda = 2 * rules.route_pitch;
  routing.nets.push_back(rn);

  const auto extraction = route::extract(netlist, routing, rules);
  ASSERT_EQ(extraction.nets.size(), 1U);
  const double step_res = rules.wire_sheet_res * rules.route_pitch /
                          rules.wire_width;
  const double step_cap = rules.wire_cap_per_lambda * rules.route_pitch;
  ASSERT_EQ(extraction.nets.front().sink_elmore_s.size(), 1U);
  EXPECT_DOUBLE_EQ(extraction.nets.front().sink_elmore_s.front(),
                   2.0 * step_res * step_cap + rules.via_res * step_cap);
}

/// All-pairs reference for drc::check_routes, written straight from the
/// deck and the violation order documented in drc.hpp: min width in
/// routing order, then every distinct-net shape pair per layer.
drc::DrcReport all_pairs_wire_drc(const route::RoutingResult& routing,
                                  const layout::DesignRules& rules) {
  drc::DrcReport report;
  const geom::Coord min_width = rules.db(rules.wire_width);
  const geom::Coord spacing = rules.db(rules.wire_spacing);
  struct Shape {
    int net;
    geom::Rect rect;
    bool via;
  };
  std::vector<Shape> layers[2];
  for (const auto& rn : routing.nets) {
    for (const auto& w : rn.wires) {
      if (w.width < min_width) {
        report.violations.push_back(
            {drc::RuleId::kWireMinWidth,
             "net " + std::to_string(rn.net) + " wire below minimum width",
             w.rect()});
      }
      layers[w.layer].push_back({rn.net, w.rect(), false});
    }
    for (const auto& v : rn.vias) {
      for (auto& layer : layers) layer.push_back({rn.net, v.rect(), true});
    }
  }
  const char* names[2] = {"metal2", "metal3"};
  for (int l = 0; l < 2; ++l) {
    const auto& shapes = layers[l];
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      for (std::size_t j = i + 1; j < shapes.size(); ++j) {
        const auto& a = shapes[i];
        const auto& b = shapes[j];
        if (a.net == b.net) continue;
        const std::string nets =
            "nets " + std::to_string(a.net) + " and " + std::to_string(b.net);
        if (a.rect.touches(b.rect)) {
          report.violations.push_back({drc::RuleId::kWireShort,
                                       nets + " touch on " + names[l],
                                       a.rect});
        } else if (!a.via && !b.via &&
                   a.rect.expanded(spacing).overlaps(b.rect)) {
          report.violations.push_back(
              {drc::RuleId::kWireSpacing,
               nets + " below wire spacing on " + names[l], a.rect});
        }
      }
    }
  }
  return report;
}

/// Grafts copies of one net's wires and vias onto other nets at offsets
/// that land on, beside or just clear of the original, so both layers
/// see shorts, spacing errors and via-on-via pairs; a few wires also
/// shrink below the minimum width.
route::RoutingResult inject_wire_errors(route::RoutingResult routing,
                                        util::Xoshiro256& rng) {
  const geom::Coord offsets[] = {0, 500, 1000, 2000, 2999, 3000, 4000, 6000};
  const auto offset = [&] {
    const geom::Coord d = offsets[rng.below(std::size(offsets))];
    return rng.below(2) == 0 ? d : -d;
  };
  const auto n = routing.nets.size();
  const int injections = 1 + static_cast<int>(rng.below(12));
  for (int k = 0; k < injections; ++k) {
    const auto& from = routing.nets[rng.below(n)];
    auto& to = routing.nets[rng.below(n)];
    if (&from == &to) continue;
    const auto kind = rng.below(4);
    if (kind < 2 && !from.wires.empty()) {
      route::Wire w = from.wires[rng.below(from.wires.size())];
      const geom::Vec2 shift{offset(), offset()};
      w.a = w.a + shift;
      w.b = w.b + shift;
      if (rng.below(8) == 0) w.width /= 2;
      to.wires.push_back(w);
    } else if (!from.vias.empty()) {
      route::Via v = from.vias[rng.below(from.vias.size())];
      if (kind == 3) v.at = v.at + geom::Vec2{offset(), offset()};
      to.vias.push_back(v);  // kind 2: via on via
    }
  }
  return routing;
}

std::map<drc::RuleId, int> rule_counts(const drc::DrcReport& report) {
  std::map<drc::RuleId, int> counts;
  for (const auto& v : report.violations) ++counts[v.rule];
  return counts;
}

TEST(RouteTier, WireDrcMatchesAllPairsReferenceOnFuzzedRoutings) {
  const auto& rules = cnfet_rules();
  util::Xoshiro256 rng(2024);
  std::map<drc::RuleId, int> seen;
  std::map<std::string, int> seen_layers;
  for (const std::uint64_t seed : {3, 7, 12}) {
    auto design = random_dag(80, 8, seed);
    const auto placement = flow::place(design.netlist);
    const auto clean = route::route(design.netlist, placement, rules);
    EXPECT_TRUE(drc::check_routes(clean, rules).clean());
    EXPECT_TRUE(all_pairs_wire_drc(clean, rules).clean());
    for (int round = 0; round < 12; ++round) {
      const auto routing = inject_wire_errors(clean, rng);
      const auto got = drc::check_routes(routing, rules);
      const auto want = all_pairs_wire_drc(routing, rules);
      ASSERT_EQ(rule_counts(got), rule_counts(want))
          << "seed " << seed << " round " << round;
      ASSERT_EQ(got.violations.size(), want.violations.size());
      for (std::size_t i = 0; i < got.violations.size(); ++i) {
        EXPECT_EQ(got.violations[i].rule, want.violations[i].rule);
        EXPECT_EQ(got.violations[i].detail, want.violations[i].detail);
        EXPECT_EQ(got.violations[i].where, want.violations[i].where);
      }
      for (const auto& [rule, count] : rule_counts(want)) seen[rule] += count;
      for (const auto& v : want.violations) {
        ++seen_layers[v.detail.substr(v.detail.size() - 6)];
      }
    }
  }
  // The fuzz must actually exercise every wire rule.
  EXPECT_GT(seen[drc::RuleId::kWireShort], 0);
  EXPECT_GT(seen[drc::RuleId::kWireSpacing], 0);
  EXPECT_GT(seen[drc::RuleId::kWireMinWidth], 0);
  EXPECT_GT(seen_layers["metal2"], 0);
  EXPECT_GT(seen_layers["metal3"], 0);
}

TEST(RouteTier, FamilyCellsRouteDrcCleanAndNeverBeatIdeal) {
  for (const auto& spec : layout::standard_cell_family()) {
    api::FlowOptions options;
    options.route = true;
    auto made = api::Flow::from_cell(spec.name, options);
    ASSERT_TRUE(made.ok()) << spec.name << ": " << made.error().message;
    auto& flow = made.value();
    const auto reached = flow.run();
    ASSERT_TRUE(reached.ok()) << spec.name << ": " << reached.error().message;

    ASSERT_NE(flow.routed(), nullptr) << spec.name;
    const auto& routed = *flow.routed();
    EXPECT_TRUE(routed.routing.complete()) << spec.name;
    EXPECT_EQ(routed.wire_drc_violations, 0) << spec.name;

    // Re-run the wire DRC deck directly: the routed metal is clean.
    const auto report = drc::check_routes(routed.routing, cnfet_rules());
    EXPECT_TRUE(report.clean()) << spec.name;

    // The wire model only adds: routed timing never beats the ideal-net
    // reference.
    EXPECT_GE(routed.routed_timing.worst_arrival,
              routed.ideal_worst_arrival_s)
        << spec.name;
    const auto metrics = flow.metrics();
    EXPECT_TRUE(metrics.routed) << spec.name;
    EXPECT_GE(metrics.routed_worst_arrival_s, metrics.worst_arrival_s)
        << spec.name;
    EXPECT_GE(metrics.wire_delay_ps, 0.0) << spec.name;

    // The routed GDS carries the new layers. One-gate designs (INV and the
    // cells that map to a single gate) own every net at a single placed
    // terminal — primary I/O has no placed sink — so they legitimately
    // route zero wire; every multi-gate design must draw metal.
    ASSERT_NE(flow.exported(), nullptr) << spec.name;
    const layout::LayerMap layers;
    int metal2 = 0, metal3 = 0, via23 = 0;
    for (const auto& s : flow.exported()->gds.structures) {
      for (const auto& b : s.boundaries) {
        metal2 += b.layer == layers.metal2;
        metal3 += b.layer == layers.metal3;
        via23 += b.layer == layers.via23;
      }
    }
    if (metrics.gates > 1) {
      EXPECT_GT(metrics.total_wirelength, 0.0) << spec.name;
      EXPECT_GT(metal2, 0) << spec.name;
    } else {
      EXPECT_EQ(metal2 + metal3 + via23, 0) << spec.name;
    }
    // A design can route on metal2 alone; metal3 and vias appear together
    // when they appear at all.
    EXPECT_EQ(metal3 > 0, via23 > 0) << spec.name;
  }
}

TEST(RouteTier, WireLoadedIncrementalRetimeMatchesFullRebuild) {
  const auto& lib = cnfet_library();
  auto design = random_dag(300, 12, 9);
  const auto placement = flow::place(design.netlist);
  const auto& rules = cnfet_rules();
  const auto routing = route::route(design.netlist, placement, rules);
  ASSERT_TRUE(routing.complete());
  const auto extraction = route::extract(design.netlist, routing, rules);

  sta::TimingGraph ideal(design.netlist);
  sta::TimingGraph wired(design.netlist, {}, 0.0,
                         extraction.to_wire_loads(design.netlist));
  EXPECT_GE(wired.worst_arrival(), ideal.worst_arrival());

  int edits = 0;
  for (int gate = 10; gate < 300 && edits < 16; gate += 17) {
    const auto& current = *design.netlist.gates()[gate].cell;
    for (const auto& option :
         lib.drives_of(liberty::Library::base_name(current.name))) {
      if (option.cell == &current) continue;
      design.netlist.resize_gate(gate, option.cell);
      wired.on_gate_replaced(gate);
      ++edits;
      break;
    }
    (void)wired.worst_arrival();
  }
  ASSERT_GT(edits, 0);
  EXPECT_TRUE(wired.matches_full_rebuild());
  EXPECT_GT(wired.stats().incremental_retimes, 0U);
}

TEST(RouteTier, RoutingResultSerializesRoundTrip) {
  auto design = random_dag(90, 8, 13);
  const auto placement = flow::place(design.netlist);
  const auto routing = route::route(design.netlist, placement, cnfet_rules());
  const auto round =
      api::routing_result_from_json(api::to_json(routing));
  EXPECT_TRUE(round == routing);
  EXPECT_EQ(routing_bytes(round), routing_bytes(routing));
}

TEST(RouteTier, RoutedSessionResumesByteIdentically) {
  auto design = random_dag(70, 8, 17);
  auto flow = routed_flow_from_netlist(std::move(design.netlist));
  ASSERT_TRUE(flow.export_design().ok());

  const auto saved = flow.session_json();
  ASSERT_TRUE(saved.ok()) << saved.error().message;
  const auto first = util::json::dump(saved.value());

  auto resumed = api::Flow::resume_json(saved.value(), "<test>");
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  const auto again = resumed.value().session_json();
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(first, util::json::dump(again.value()));

  // The regenerated export carries the identical routed GDS.
  ASSERT_NE(resumed.value().exported(), nullptr);
  std::ostringstream local, back;
  gds::write(flow.exported()->gds, local);
  gds::write(resumed.value().exported()->gds, back);
  EXPECT_EQ(local.str(), back.str());

  const auto m1 = flow.metrics(), m2 = resumed.value().metrics();
  EXPECT_TRUE(m2.routed);
  EXPECT_EQ(m1.total_wirelength, m2.total_wirelength);
  EXPECT_EQ(m1.wire_cap_ff, m2.wire_cap_ff);
  EXPECT_EQ(m1.wire_delay_ps, m2.wire_delay_ps);
  EXPECT_EQ(m1.routed_worst_arrival_s, m2.routed_worst_arrival_s);
}

// --- Route10k: the 10k-gate stress tier (ctest label `scale`) ------------

// Uniform-random DAGs have no locality: their bisection width grows with
// the gate count, so no fixed-layer fabric routes them at scale (the fuzz
// tier above covers them at the sizes where they are routable). The 10k
// tier therefore routes a structured netlist, like real designs are.
TEST(Route10k, TenThousandGatesRouteCompleteCleanAndDeterministic) {
  gen::GenOptions gopt;
  gopt.family = gen::Family::kRippleCarryAdder;
  gopt.width = 1112;  // 9 gates per full-adder bit: just over 10k gates
  auto design = gen::generate(cnfet_library(), gopt);
  ASSERT_GE(design.netlist.gates().size(), 10000U);
  const auto placement = flow::place(design.netlist);
  const auto& rules = cnfet_rules();

  const auto routing = route::route(design.netlist, placement, rules);
  EXPECT_TRUE(routing.complete())
      << routing.failed_nets << " of " << routing.nets.size()
      << " nets failed";
  EXPECT_GT(routing.total_wirelength_lambda, 0.0);

  const auto report = route::verify(design.netlist, placement, routing, rules);
  EXPECT_TRUE(report.ok())
      << "open=" << report.open_nets
      << " shorts=" << report.shorted_net_pairs
      << " stray=" << report.stray_terminals;

  EXPECT_TRUE(drc::check_routes(routing, rules).clean());

  const auto second = route::route(design.netlist, placement, rules);
  EXPECT_TRUE(second == routing);
}

}  // namespace
}  // namespace cnfet
