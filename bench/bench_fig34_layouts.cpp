// E3 — Figures 3 and 4: construction walk-through of the NAND3 and AOI31
// layouts under both techniques, with strip sequences, ASCII art, areas,
// and the DRC/vertical-gating audit the paper's Section III discusses.
#include <cstdio>

#include "drc/drc.hpp"
#include "layout/cells.hpp"
#include "layout/strip.hpp"
#include "util/table.hpp"

int main() {
  using cnfet::layout::LayoutStyle;
  using namespace cnfet;
  const auto cell = [](const char* name, LayoutStyle style) {
    return layout::build_cell(layout::find_cell_spec(name), {.style = style});
  };

  std::printf("== E3 / Figures 3-4: layout construction ==\n\n");
  for (const char* name : {"NAND3", "AOI31"}) {
    for (const auto style : {LayoutStyle::kEtchedIsolatedBranches,
                             LayoutStyle::kCompactEuler}) {
      const auto built = cell(name, style);
      std::printf("%s  [%s]\n", name, layout::to_string(style));
      std::printf("  PUN: %s\n",
                  layout::to_string(built.plan.pun, built.netlist).c_str());
      std::printf("  PDN: %s\n",
                  layout::to_string(built.plan.pdn, built.netlist).c_str());
      std::printf("  PUN active %.0f l^2 | core %.0f l^2 | etch %d | "
                  "redundant contacts %d | via-on-gate %d\n",
                  built.layout.pun().active_area_lambda2(),
                  built.layout.core_area_lambda2(),
                  built.layout.etch_slot_count(),
                  built.plan.redundant_contacts,
                  built.layout.via_on_gate_count());
      const auto report = drc::check(built.layout);
      std::printf("  DRC (conventional litho, no vertical gating): %s\n\n",
                  report.clean() ? "clean" : report.to_string().c_str());
    }
    const auto compact = cell(name, LayoutStyle::kCompactEuler);
    std::printf("%s\n", compact.layout.ascii().c_str());
  }

  // Figure 3 headline: NAND3 PUN at 4 lambda, new vs old.
  const auto old_cell = cell("NAND3", LayoutStyle::kEtchedIsolatedBranches);
  const auto new_cell = cell("NAND3", LayoutStyle::kCompactEuler);
  const double a_old = old_cell.layout.pun().active_area_lambda2();
  const double a_new = new_cell.layout.pun().active_area_lambda2();
  std::printf(
      "NAND3 PUN at 4l: old %.0f l^2 -> new %.0f l^2, %.2f%% smaller "
      "(paper: 16.67%% under its area accounting)\n",
      a_old, a_new, 100.0 * (a_old - a_new) / a_old);
  return 0;
}
