// The standard cell family of the design kit: the cells of Table 1 plus the
// generalized AOI31 example of Figure 4, with one-call construction from a
// pull-down expression to a finished layout.
#pragma once

#include <string>
#include <vector>

#include "layout/cell_layout.hpp"
#include "logic/expr.hpp"

namespace cnfet::layout {

struct CellSpec {
  std::string name;
  std::string pdn_expr;  ///< pull-down function text, e.g. "A*B" for NAND2
};

/// The cells the paper evaluates (Table 1) plus AOI31 (Figure 4) and the
/// four-input NAND/NOR used by the flow's library.
[[nodiscard]] const std::vector<CellSpec>& standard_cell_family();

/// Names of the nine cells the paper's Table 1 evaluates, in table order
/// (INV ... OAI21): the family minus AOI31 and the four-input NAND/NOR.
[[nodiscard]] const std::vector<std::string>& table1_cells();

/// Looks up a family member by name (throws util::Error when unknown).
[[nodiscard]] const CellSpec& find_cell_spec(const std::string& name);

/// Everything about one constructed cell.
struct BuiltCell {
  CellSpec spec;
  logic::Expr pdn_expr{logic::Expr::var(0)};
  logic::TruthTable function;  ///< OUT = NOT pdn_expr
  netlist::CellNetlist netlist{0};
  PlanePlan plan;
  CellLayout layout;
};

/// Options for cell construction.
struct CellBuildOptions {
  Tech tech = Tech::kCnfet65;
  LayoutStyle style = LayoutStyle::kCompactEuler;
  CellScheme scheme = CellScheme::kScheme1;
  /// Unit transistor width in lambda; the paper sweeps 3/4/6/10.
  double base_width_lambda = 4.0;
  /// Drive strength multiplier (INV4X -> 4).
  double drive = 1.0;
  /// Fold devices wider than this into parallel fingers (1e9 = never).
  double max_finger_width_lambda = 1e9;
};

/// Builds netlist, plane plan and layout for a cell spec. The functional
/// contract (layout realizes NOT pdn_expr) is checked on construction.
[[nodiscard]] BuiltCell build_cell(const CellSpec& spec,
                                   const CellBuildOptions& options = {});

}  // namespace cnfet::layout
