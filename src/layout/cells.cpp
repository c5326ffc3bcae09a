#include "layout/cells.hpp"

#include "util/error.hpp"

namespace cnfet::layout {

const std::vector<CellSpec>& standard_cell_family() {
  static const std::vector<CellSpec> family = {
      {"INV", "A"},
      {"NAND2", "A*B"},
      {"NAND3", "A*B*C"},
      {"NAND4", "A*B*C*D"},
      {"NOR2", "A+B"},
      {"NOR3", "A+B+C"},
      {"NOR4", "A+B+C+D"},
      {"AOI21", "A*B+C"},
      {"AOI22", "A*B+C*D"},
      {"OAI21", "(A+B)*C"},
      {"OAI22", "(A+B)*(C+D)"},
      {"AOI31", "A*B*C+D"},
  };
  return family;
}

const std::vector<std::string>& table1_cells() {
  static const std::vector<std::string> cells = {
      "INV", "NAND2", "NOR2", "NAND3", "NOR3", "AOI22", "OAI22", "AOI21",
      "OAI21"};
  return cells;
}

const CellSpec& find_cell_spec(const std::string& name) {
  for (const auto& spec : standard_cell_family()) {
    if (spec.name == name) return spec;
  }
  throw util::Error("unknown standard cell: " + name);
}

BuiltCell build_cell(const CellSpec& spec, const CellBuildOptions& options) {
  CNFET_REQUIRE(options.base_width_lambda > 0 && options.drive > 0);

  const auto pdn_expr = logic::parse_expr(spec.pdn_expr);
  netlist::SizingRule sizing;
  sizing.wn_base = options.base_width_lambda * options.drive;
  sizing.wp_base =
      options.base_width_lambda * options.drive * pn_width_ratio(options.tech);
  sizing.max_finger_width_lambda = options.max_finger_width_lambda;
  auto cell = netlist::build_static_cell(pdn_expr, sizing);

  const auto function = ~pdn_expr.truth(pdn_expr.num_vars());
  const auto base_report = cell.check_function(function);
  CNFET_REQUIRE_MSG(base_report.ok, "cell netlist is not functional: " +
                                        base_report.to_string());

  const auto plan = plan_planes(cell, options.style);
  const DesignRules rules = options.tech == Tech::kCnfet65
                                ? DesignRules::cnfet65()
                                : DesignRules::cmos65();
  CellLayout layout(spec.name, cell, plan, rules, options.scheme);

  BuiltCell built{spec, pdn_expr, function, std::move(cell), plan,
                  std::move(layout)};
  return built;
}

}  // namespace cnfet::layout
