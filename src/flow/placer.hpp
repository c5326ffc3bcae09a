// Standard-cell placement for the two CNFET layout schemes (and the CMOS
// baseline).
//
// Scheme 1 standardizes every cell to the tallest library-cell height and
// fills uniform rows — exactly what conventional place & route expects, and
// exactly where the paper observes wasted area (an INV4X occupying INV9X
// height). Scheme 2 keeps natural cell heights and shelf-packs them,
// recovering that waste; the paper reports ~1.4x vs ~1.6x area gain over
// CMOS for the full adder. HPWL and the area-utilization factor quantify
// the trade the paper's Section V discusses.
#pragma once

#include <vector>

#include "flow/gate_netlist.hpp"
#include "geom/rect.hpp"
#include "layout/cell_layout.hpp"

namespace cnfet::flow {

struct PlacedInstance {
  const Gate* gate = nullptr;
  geom::Vec2 origin;        ///< lower-left, database units
  geom::Coord width = 0;    ///< standardized footprint
  geom::Coord height = 0;
};

struct PlacementResult {
  layout::CellScheme scheme = layout::CellScheme::kScheme1;
  std::vector<PlacedInstance> instances;
  geom::Rect bbox;
  /// Sum of natural (unstandardized) cell core areas.
  double natural_area_lambda2 = 0.0;
  /// bbox area.
  double placed_area_lambda2 = 0.0;
  /// natural / placed: the paper's area-utilization factor.
  [[nodiscard]] double utilization() const {
    return placed_area_lambda2 > 0 ? natural_area_lambda2 / placed_area_lambda2
                                   : 0.0;
  }
  /// Half-perimeter wirelength over all multi-pin nets, in lambda.
  double hpwl_lambda = 0.0;
};

struct PlaceOptions {
  layout::CellScheme scheme = layout::CellScheme::kScheme1;
};

/// Places every gate of the netlist; deterministic (netlist order within
/// rows/shelves, shelves sorted by height).
[[nodiscard]] PlacementResult place(const GateNetlist& netlist,
                                    const PlaceOptions& options = {});

}  // namespace cnfet::flow
