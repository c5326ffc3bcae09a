// Plane-sequence generators: the three layout techniques the paper compares.
//
//  * kNaiveVulnerable     — the direct layout of Figure 2(b): parallel
//    branches tiled along the strip with no etched region between them and
//    no gate overhang; mispositioned CNTs can short adjacent contacts.
//  * kEtchedIsolatedBranches — the prior technique of Patil et al. [6]
//    (Figure 2(c)/3(a)): every series branch is an isolated segment
//    terminated by its own contacts, with a minimum etched region between
//    segments. Functionally immune, but pays contacts + etch area and
//    needs vertical gating (via-on-gate) for inner gates.
//  * kEtchedIsolatedFets  — a stricter variant of [6] that isolates every
//    transistor (used as an ablation upper bound on the old technique).
//  * kCompactEuler        — this paper's contribution (Figure 3(b)/4): one
//    diffusion strip per plane ordered by a common-gate-order Euler trail,
//    duplicating metal contacts instead of etching.
#pragma once

#include "euler/plane_graph.hpp"
#include "layout/strip.hpp"
#include "netlist/cell_netlist.hpp"

namespace cnfet::layout {

enum class LayoutStyle {
  kNaiveVulnerable,
  kEtchedIsolatedBranches,
  kEtchedIsolatedFets,
  kCompactEuler,
};

[[nodiscard]] const char* to_string(LayoutStyle style);

/// Both plane sequences plus bookkeeping the area/DRC analyses need.
struct PlanePlan {
  PlaneSeq pun;
  PlaneSeq pdn;
  LayoutStyle style = LayoutStyle::kCompactEuler;
  /// Euler-trail breaks across both planes (each inserted an etch slot).
  int trail_breaks = 0;
  /// Contacts beyond one per distinct strip position (the paper's
  /// "redundant metal contacts").
  int redundant_contacts = 0;
  /// True when the k-th gate of the PUN and PDN carry the same input, so
  /// plain vertical poly connects them (no via-on-gate needed).
  bool gates_aligned = false;
};

/// Plans both planes of `cell` in the given style. The PUN is the P plane
/// (VDD side), the PDN the N plane.
[[nodiscard]] PlanePlan plan_planes(const netlist::CellNetlist& cell,
                                    LayoutStyle style);

}  // namespace cnfet::layout
