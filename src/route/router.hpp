// Deterministic two-layer grid router over a placement.
//
// The routing fabric is a uniform grid of tracks at DesignRules::route_pitch
// on two metal layers above the cells: layer 0 (metal2) carries horizontal
// segments, layer 1 (metal3) vertical ones, joined by vias at grid nodes.
// With wire_width + wire_spacing = route_pitch, wires on adjacent tracks
// clear the spacing rule by construction; the DRC wire deck (drc::
// check_routes) verifies it anyway.
//
// Each net is routed as a Steiner-ish tree: terminals (the driver's output
// location and every sink's input-pin location, snapped to grid nodes) are
// joined one at a time to the net's growing tree. Search windows escalate
// from the terminal bounding box plus a halo to 4x that halo and then the
// full grid, so connectivity only fails when the fabric is physically
// exhausted; a net walled in even then rips up its blockers and retries.
//
// Everything is deterministic, and the tie-break is a contract:
//   * nets route shortest-first by terminal half-perimeter, ties in
//     ascending net id (results are still reported in net-id order);
//   * terminals join in driver-then-canonical-fanout order;
//   * each join takes the lexicographically smallest shortest path from
//     the tree to the terminal, keyed by (the seed's position among the
//     in-window tree nodes, then the sequence of neighbour slots). The
//     slot order is +x, -x, via on metal2 and +y, -y, via on metal3.
// That is the path a FIFO breadth-first search from the tree returns; the
// router finds it with a goal-directed search instead of flooding the
// window. The same placement always produces byte-identical
// RoutingResults.
#pragma once

#include <vector>

#include "flow/gate_netlist.hpp"
#include "flow/placer.hpp"
#include "geom/rect.hpp"
#include "layout/rules.hpp"

namespace cnfet::route {

/// One straight routed segment: an axis-aligned centerline between two grid
/// node centers, drawn `width` wide. layer 0 = metal2 (horizontal), layer 1
/// = metal3 (vertical).
struct Wire {
  int layer = 0;
  geom::Vec2 a;  ///< centerline start (database units), a <= b
  geom::Vec2 b;  ///< centerline end
  geom::Coord width = 0;

  /// The drawn metal rectangle.
  [[nodiscard]] geom::Rect rect() const {
    const geom::Coord h = width / 2;
    return geom::Rect({a.x - h, a.y - h}, {b.x + h, b.y + h});
  }
  bool operator==(const Wire&) const = default;
};

/// A metal2-metal3 layer change at a grid node.
struct Via {
  geom::Vec2 at;      ///< node center (database units)
  geom::Coord size = 0;  ///< drawn via edge

  [[nodiscard]] geom::Rect rect() const {
    const geom::Coord h = size / 2;
    return geom::Rect({at.x - h, at.y - h}, {at.x + h, at.y + h});
  }
  bool operator==(const Via&) const = default;
};

/// The routed tree of one net. `terminals[0]` is the root (the driver's
/// snapped node; for primary-input nets, the first sink); terminals[1..]
/// hold one entry per netlist.fanout(net) pair, in that canonical order —
/// the extractor keys its per-sink Elmore delays off this alignment.
struct RoutedNet {
  int net = -1;
  std::vector<geom::Vec2> terminals;
  std::vector<Wire> wires;
  std::vector<Via> vias;
  double length_lambda = 0.0;  ///< total centerline wirelength
  bool operator==(const RoutedNet&) const = default;
};

struct RoutingResult {
  std::vector<RoutedNet> nets;  ///< ascending net id; only nets with >= 2
                                ///  terminal nodes carry wires
  geom::Coord pitch = 0;        ///< grid pitch, database units
  geom::Rect grid_bbox;         ///< extent of the routing grid
  double total_wirelength_lambda = 0.0;
  int failed_nets = 0;          ///< nets the escalated search still lost

  [[nodiscard]] bool complete() const { return failed_nets == 0; }
  bool operator==(const RoutingResult&) const = default;
};

struct RouteOptions {
  /// Extra grid cells of search window around a net's terminal bbox before
  /// escalation retries at 4x and then the full grid.
  int window_halo_cells = 8;
};

/// Routes every net of the placed netlist. The placement must cover every
/// gate of the netlist (flow::place guarantees this); `rules` supplies the
/// pitch and wire/via dimensions.
[[nodiscard]] RoutingResult route(const flow::GateNetlist& netlist,
                                  const flow::PlacementResult& placement,
                                  const layout::DesignRules& rules,
                                  const RouteOptions& options = {});

/// Independent open/short oracle over a RoutingResult — used by the tests
/// and the bench's connectivity gate, sharing no state with the router:
/// connectivity is re-derived by union-find over the drawn shapes
/// (same-layer shapes connect where they touch; a via joins the layers
/// where it lands), and each terminal must be covered by the net's metal.
struct VerifyReport {
  int nets_checked = 0;
  int open_nets = 0;        ///< nets whose shapes+terminals are disconnected
  int first_open_net = -1;  ///< the lowest open net id, -1 when none
  int shorted_net_pairs = 0;  ///< distinct net pairs with touching metal
  int stray_terminals = 0;  ///< terminals farther than a pitch from any pin

  [[nodiscard]] bool ok() const {
    return open_nets == 0 && shorted_net_pairs == 0 && stray_terminals == 0;
  }
};

[[nodiscard]] VerifyReport verify(const flow::GateNetlist& netlist,
                                  const flow::PlacementResult& placement,
                                  const RoutingResult& routing,
                                  const layout::DesignRules& rules);

}  // namespace cnfet::route
