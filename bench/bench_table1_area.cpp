// E1 — Table 1: area difference between the new compact (Euler) layout and
// the prior etched-region technique [6], per cell type and transistor size.
//
// Prints three blocks: the paper's reported numbers, our geometric
// measurements (whole-cell core area; the difference is concentrated in the
// parallel plane, as the paper notes), and the supporting per-cell
// structure audit (etch slots, redundant contacts, vertical-gating vias,
// immunity, DRC).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/batch.hpp"
#include "layout/cells.hpp"
#include "util/table.hpp"

namespace {

using cnfet::layout::LayoutStyle;
using cnfet::util::fmt_fixed;
using cnfet::util::fmt_percent;
using cnfet::util::TextTable;

const std::vector<double> kWidths = {3, 4, 6, 10};

// Paper Table 1 (percent area difference, new vs old).
const std::map<std::string, std::vector<double>> kPaper = {
    {"INV", {0, 0, 0, 0}},
    {"NAND2/NOR2", {17.18, 14.52, 11.67, 9.25}},
    {"NAND3/NOR3", {19.64, 16.67, 13.45, 10.71}},
    {"AOI22/OAI22", {32.2, 27.7, 22.5, 14.9}},
    {"AOI21/OAI21", {44.3, 40.6, 36.4, 32.5}},
};

cnfet::layout::BuiltCell build(const std::string& name, LayoutStyle style,
                               double width) {
  cnfet::layout::CellBuildOptions options;
  options.style = style;
  options.base_width_lambda = width;
  return cnfet::layout::build_cell(cnfet::layout::find_cell_spec(name),
                                   options);
}

}  // namespace

int main() {
  std::printf("== E1 / Table 1: compact-Euler vs etched-region [6] ==\n\n");

  std::printf("Paper-reported area difference:\n");
  {
    TextTable t({"Cell type", "3l", "4l", "6l", "10l"});
    for (const auto& [name, row] : kPaper) {
      t.add_row({name, fmt_fixed(row[0], 2) + "%", fmt_fixed(row[1], 2) + "%",
                 fmt_fixed(row[2], 2) + "%", fmt_fixed(row[3], 2) + "%"});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  std::printf("Measured (this kit, cell core area = strips + routing gap):\n");
  TextTable measured({"Cell", "3l", "4l", "6l", "10l", "old etch slots",
                      "new redundant contacts"});
  for (const auto& name : cnfet::layout::table1_cells()) {
    std::vector<std::string> row{name};
    int etches = 0, redundant = 0;
    for (const double w : kWidths) {
      const auto old_cell =
          build(name, LayoutStyle::kEtchedIsolatedBranches, w);
      const auto new_cell = build(name, LayoutStyle::kCompactEuler, w);
      const double a_old = old_cell.layout.core_area_lambda2();
      const double a_new = new_cell.layout.core_area_lambda2();
      row.push_back(fmt_percent((a_old - a_new) / a_old, 2));
      etches = old_cell.layout.etch_slot_count();
      redundant = new_cell.plan.redundant_contacts;
    }
    row.push_back(std::to_string(etches));
    row.push_back(std::to_string(redundant));
    measured.add_row(std::move(row));
  }
  std::printf("%s\n", measured.to_string().c_str());

  std::printf("Structure audit at 4l (both techniques):\n");
  TextTable audit({"Cell", "style", "active area (l^2)", "core area (l^2)",
                   "etch", "red.contacts", "via-on-gate", "immune", "DRC"});
  const auto sweep = cnfet::api::table1_sweep(cnfet::layout::Tech::kCnfet65);
  for (const auto& s : sweep) {
    if (s.width_lambda != 4.0) continue;
    audit.add_row({s.cell, cnfet::layout::to_string(s.style),
                   fmt_fixed(s.active_area_lambda2, 0),
                   fmt_fixed(s.core_area_lambda2, 0),
                   std::to_string(s.etch_slots),
                   std::to_string(s.redundant_contacts),
                   std::to_string(s.via_on_gate), s.immune ? "yes" : "NO",
                   s.drc_clean ? "clean" : "VIOLATIONS"});
  }
  std::printf("%s\n", audit.to_string().c_str());

  std::printf(
      "Shape check: INV identical under both techniques; every multi-branch\n"
      "cell is strictly smaller with the compact technique; both remain\n"
      "100%% immune. Our strip-geometry deltas are width-independent by\n"
      "construction (see EXPERIMENTS.md for the reconstruction analysis of\n"
      "the paper's width-dependent percentages).\n");
  return 0;
}
