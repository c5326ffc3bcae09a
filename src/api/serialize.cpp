#include "api/serialize.hpp"

#include <cctype>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "layout/cells.hpp"
#include "logic/expr.hpp"

namespace cnfet::api {

namespace json = util::json;

namespace {

// --- enum <-> string ------------------------------------------------------
// Every inverse scans the enumerators against the canonical to_string, so
// the JSON vocabulary can never drift from the printed one.

template <typename Enum, typename ToString>
Enum enum_from_string(const std::string& name,
                      std::initializer_list<Enum> values, ToString to_str,
                      const char* what) {
  for (const Enum value : values) {
    if (name == to_str(value)) return value;
  }
  throw util::Error(std::string("unknown ") + what + ": \"" + name + "\"");
}

layout::CellScheme scheme_from_string(const std::string& name) {
  return enum_from_string(
      name, {layout::CellScheme::kScheme1, layout::CellScheme::kScheme2},
      [](layout::CellScheme s) { return layout::to_string(s); },
      "cell scheme");
}

layout::LayoutStyle style_from_string(const std::string& name) {
  return enum_from_string(
      name,
      {layout::LayoutStyle::kNaiveVulnerable,
       layout::LayoutStyle::kEtchedIsolatedBranches,
       layout::LayoutStyle::kEtchedIsolatedFets,
       layout::LayoutStyle::kCompactEuler},
      [](layout::LayoutStyle s) { return layout::to_string(s); },
      "layout style");
}

util::Severity severity_from_string(const std::string& name) {
  return enum_from_string(
      name,
      {util::Severity::kInfo, util::Severity::kWarning, util::Severity::kError},
      [](util::Severity s) { return util::to_string(s); }, "severity");
}

const char* map_cost_to_string(flow::MapCost cost) {
  return cost == flow::MapCost::kGateCount ? "gate_count" : "delay";
}

flow::MapCost map_cost_from_string(const std::string& name) {
  return enum_from_string(
      name, {flow::MapCost::kGateCount, flow::MapCost::kDelay},
      map_cost_to_string, "map cost");
}

Stage stage_from_string_or_throw(const std::string& name) {
  auto stage = stage_from_string(name);
  if (!stage.ok()) throw util::Error(stage.error().message);
  return stage.value();
}

// --- small array helpers --------------------------------------------------

json::Value doubles_to_json(const std::vector<double>& values) {
  json::Value arr = json::Value::array();
  for (const double v : values) arr.push_back(v);
  return arr;
}

std::vector<double> doubles_from_json(const json::Value& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const auto& item : v.items()) out.push_back(item.as_double());
  return out;
}

json::Value ints_to_json(const std::vector<int>& values) {
  json::Value arr = json::Value::array();
  for (const int v : values) arr.push_back(v);
  return arr;
}

std::vector<int> ints_from_json(const json::Value& v) {
  std::vector<int> out;
  out.reserve(v.size());
  for (const auto& item : v.items()) out.push_back(item.as_int());
  return out;
}

json::Value int64s_to_json(const std::vector<std::int64_t>& values) {
  json::Value arr = json::Value::array();
  for (const std::int64_t v : values) arr.push_back(v);
  return arr;
}

std::vector<std::int64_t> int64s_from_json(const json::Value& v) {
  std::vector<std::int64_t> out;
  out.reserve(v.size());
  for (const auto& item : v.items()) out.push_back(item.as_int64());
  return out;
}

json::Value strings_to_json(const std::vector<std::string>& values) {
  json::Value arr = json::Value::array();
  for (const auto& v : values) arr.push_back(v);
  return arr;
}

std::vector<std::string> strings_from_json(const json::Value& v) {
  std::vector<std::string> out;
  out.reserve(v.size());
  for (const auto& item : v.items()) out.push_back(item.as_string());
  return out;
}

// --- logic::Expr (structural — Expr::to_string() names variables A.. by
// index while parse_expr numbers them by first appearance, so text would
// not round-trip expressions whose variables appear out of index order) ---

json::Value expr_to_json(const logic::Expr& expr) {
  switch (expr.kind()) {
    case logic::Expr::Kind::kVar: {
      json::Value v = json::Value::object();
      v.set("var", expr.var_index());
      return v;
    }
    case logic::Expr::Kind::kAnd:
    case logic::Expr::Kind::kOr: {
      json::Value children = json::Value::array();
      for (const auto& child : expr.children()) {
        children.push_back(expr_to_json(child));
      }
      json::Value v = json::Value::object();
      v.set(expr.kind() == logic::Expr::Kind::kAnd ? "and" : "or",
            std::move(children));
      return v;
    }
    case logic::Expr::Kind::kNot: {
      json::Value v = json::Value::object();
      v.set("not", expr_to_json(expr.children().front()));
      return v;
    }
  }
  throw util::Error("unreachable expr kind");
}

logic::Expr expr_from_json(const json::Value& v) {
  if (const auto* var = v.find("var")) return logic::Expr::var(var->as_int());
  if (const auto* inner = v.find("not")) {
    return logic::Expr::make_not(expr_from_json(*inner));
  }
  const bool is_and = v.find("and") != nullptr;
  const json::Value& children = v.at(is_and ? "and" : "or");
  std::vector<logic::Expr> terms;
  terms.reserve(children.size());
  for (const auto& child : children.items()) {
    terms.push_back(expr_from_json(child));
  }
  return is_and ? logic::Expr::make_and(std::move(terms))
                : logic::Expr::make_or(std::move(terms));
}

json::Value output_spec_to_json(const flow::OutputSpec& spec) {
  json::Value v = json::Value::object();
  v.set("name", spec.name);
  v.set("expr", expr_to_json(spec.expr));
  v.set("inverted", spec.inverted);
  return v;
}

flow::OutputSpec output_spec_from_json(const json::Value& v) {
  flow::OutputSpec spec;
  spec.name = v.get_string("name");
  spec.expr = expr_from_json(v.at("expr"));
  spec.inverted = v.get_bool("inverted");
  return spec;
}

// --- engine option structs ------------------------------------------------

json::Value design_rules_to_json(const layout::DesignRules& r) {
  json::Value v = json::Value::object();
  v.set("gate_len", r.gate_len);
  v.set("contact_len", r.contact_len);
  v.set("gate_contact_space", r.gate_contact_space);
  v.set("gate_gate_space", r.gate_gate_space);
  v.set("etch_len", r.etch_len);
  v.set("contact_contact_space", r.contact_contact_space);
  v.set("via_size", r.via_size);
  v.set("gate_overhang", r.gate_overhang);
  v.set("cnt_margin", r.cnt_margin);
  v.set("pin_width", r.pin_width);
  v.set("pun_pdn_gap", r.pun_pdn_gap);
  v.set("strip_lane", r.strip_lane);
  v.set("cell_margin", r.cell_margin);
  v.set("wire_width", r.wire_width);
  v.set("wire_spacing", r.wire_spacing);
  v.set("route_pitch", r.route_pitch);
  v.set("wire_sheet_res", r.wire_sheet_res);
  v.set("wire_cap_per_lambda", r.wire_cap_per_lambda);
  v.set("via_res", r.via_res);
  v.set("tech", layout::to_string(r.tech));
  return v;
}

layout::DesignRules design_rules_from_json(const json::Value& v) {
  layout::DesignRules r;
  r.gate_len = v.get_double("gate_len");
  r.contact_len = v.get_double("contact_len");
  r.gate_contact_space = v.get_double("gate_contact_space");
  r.gate_gate_space = v.get_double("gate_gate_space");
  r.etch_len = v.get_double("etch_len");
  r.contact_contact_space = v.get_double("contact_contact_space");
  r.via_size = v.get_double("via_size");
  r.gate_overhang = v.get_double("gate_overhang");
  r.cnt_margin = v.get_double("cnt_margin");
  r.pin_width = v.get_double("pin_width");
  r.pun_pdn_gap = v.get_double("pun_pdn_gap");
  r.strip_lane = v.get_double("strip_lane");
  r.cell_margin = v.get_double("cell_margin");
  r.wire_width = v.get_double("wire_width");
  r.wire_spacing = v.get_double("wire_spacing");
  r.route_pitch = v.get_double("route_pitch");
  r.wire_sheet_res = v.get_double("wire_sheet_res");
  r.wire_cap_per_lambda = v.get_double("wire_cap_per_lambda");
  r.via_res = v.get_double("via_res");
  auto tech = tech_from_string(v.get_string("tech"));
  if (!tech.ok()) throw util::Error(tech.error().message);
  r.tech = tech.value();
  return r;
}

json::Value nldm_to_json(const liberty::NldmTable& table) {
  json::Value v = json::Value::object();
  v.set("slews", doubles_to_json(table.slews()));
  v.set("loads", doubles_to_json(table.loads()));
  json::Value values = json::Value::array();
  for (std::size_t si = 0; si < table.slews().size(); ++si) {
    for (std::size_t li = 0; li < table.loads().size(); ++li) {
      values.push_back(table.at(si, li));
    }
  }
  v.set("values", std::move(values));
  return v;
}

/// An NLDM axis must be non-empty, finite and strictly ascending: the
/// lookup kernel brackets keys by binary search on it.
std::vector<double> grid_from_json(const json::Value& v, const char* axis) {
  auto grid = doubles_from_json(v);
  if (grid.empty()) {
    throw util::Error(std::string("NLDM ") + axis + " grid is empty");
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!std::isfinite(grid[i]) || (i > 0 && !(grid[i - 1] < grid[i]))) {
      throw util::Error(std::string("NLDM ") + axis +
                        " grid is not finite and strictly ascending at " +
                        std::to_string(i));
    }
  }
  return grid;
}

liberty::NldmTable nldm_from_json(const json::Value& v) {
  liberty::NldmTable table(grid_from_json(v.at("slews"), "slew"),
                           grid_from_json(v.at("loads"), "load"));
  const auto& values = v.at("values");
  const std::size_t n_slews = table.slews().size();
  const std::size_t n_loads = table.loads().size();
  if (values.size() != n_slews * n_loads) {
    throw util::Error("NLDM value count " + std::to_string(values.size()) +
                      " does not match the " + std::to_string(n_slews) + "x" +
                      std::to_string(n_loads) + " grid");
  }
  std::size_t j = 0;
  for (std::size_t si = 0; si < n_slews; ++si) {
    for (std::size_t li = 0; li < n_loads; ++li) {
      table.set(si, li, values.at(j++).as_double());
    }
  }
  return table;
}

/// Refuses a cell that breaks the evaluation kernel's preconditions (see
/// liberty::LibCell): one pin cap per input, arcs in the canonical
/// input-major (falling, rising) layout, and one grid shared by every
/// table.
void check_cell_layout(const liberty::LibCell& cell) {
  const auto pins = static_cast<std::size_t>(cell.built.netlist.num_inputs());
  const std::string where = "cell " + cell.name + ": ";
  if (cell.input_cap.size() != pins) {
    throw util::Error(where + std::to_string(cell.input_cap.size()) +
                      " input caps for " + std::to_string(pins) + " pins");
  }
  if (cell.arcs.size() != 2 * pins) {
    throw util::Error(where + std::to_string(cell.arcs.size()) +
                      " timing arcs for " + std::to_string(pins) +
                      " pins (expected one per pin and direction)");
  }
  const auto& grid = cell.arcs.front().delay;
  for (std::size_t k = 0; k < cell.arcs.size(); ++k) {
    const auto& arc = cell.arcs[k];
    const auto direction = [](bool rising) {
      return rising ? std::string("rising") : std::string("falling");
    };
    if (arc.input != static_cast<int>(k / 2) ||
        arc.out_rising != (k % 2 == 1)) {
      throw util::Error(where + "arc " + std::to_string(k) + " is (input " +
                        std::to_string(arc.input) + ", " +
                        direction(arc.out_rising) +
                        ") where the canonical layout has (input " +
                        std::to_string(k / 2) + ", " + direction(k % 2 == 1) +
                        ")");
    }
    for (const auto* table : {&arc.delay, &arc.out_slew, &arc.energy}) {
      if (table->slews() != grid.slews() || table->loads() != grid.loads()) {
        throw util::Error(where + "arc " + std::to_string(k) +
                          " does not share the cell's slew x load grid");
      }
    }
  }
}

}  // namespace

util::Result<layout::Tech> tech_from_string(const std::string& name) {
  std::string upper = name;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  for (const layout::Tech tech :
       {layout::Tech::kCnfet65, layout::Tech::kCmos65}) {
    if (upper == layout::to_string(tech)) return tech;
  }
  return util::Result<layout::Tech>::failure(
      "tech", "unknown technology: \"" + name +
                  "\" (expected CNFET65 or CMOS65)");
}

// --- liberty::Library ------------------------------------------------------

json::Value to_json(const liberty::Library& library) {
  json::Value v = json::Value::object();
  // One geometry context for the whole library (characterization builds
  // every cell under the same options), read back from the first cell.
  if (library.cells().empty()) {
    throw util::Error("refusing to serialize an empty library");
  }
  const auto& first = library.cells().front().built;
  v.set("tech", layout::to_string(first.layout.rules().tech));
  v.set("style", layout::to_string(first.layout.style()));
  v.set("scheme", layout::to_string(first.layout.scheme()));
  json::Value cells = json::Value::array();
  for (const auto& cell : library.cells()) {
    json::Value c = json::Value::object();
    c.set("name", cell.name);
    c.set("spec", cell.built.spec.name);
    c.set("drive", cell.drive);
    c.set("area_lambda2", cell.area_lambda2);
    c.set("input_cap", doubles_to_json(cell.input_cap));
    json::Value arcs = json::Value::array();
    for (const auto& arc : cell.arcs) {
      json::Value a = json::Value::object();
      a.set("input", arc.input);
      a.set("out_rising", arc.out_rising);
      a.set("delay", nldm_to_json(arc.delay));
      a.set("out_slew", nldm_to_json(arc.out_slew));
      a.set("energy", nldm_to_json(arc.energy));
      arcs.push_back(std::move(a));
    }
    c.set("arcs", std::move(arcs));
    cells.push_back(std::move(c));
  }
  v.set("cells", std::move(cells));
  return v;
}

liberty::Library library_from_json(const json::Value& v) {
  liberty::CharacterizeOptions copts;
  auto tech = tech_from_string(v.get_string("tech"));
  if (!tech.ok()) throw util::Error(tech.error().message);
  copts.layout_tech = tech.value();
  copts.style = style_from_string(v.get_string("style"));
  copts.scheme = scheme_from_string(v.get_string("scheme"));
  liberty::Library library;
  for (const auto& c : v.at("cells").items()) {
    const auto& spec = layout::find_cell_spec(c.get_string("spec"));
    const double drive = c.get_double("drive");
    liberty::LibCell cell{
        c.get_string("name"),
        layout::build_cell(spec, liberty::cell_build_options(drive, copts)),
        drive,
        doubles_from_json(c.at("input_cap")),
        c.get_double("area_lambda2"),
        {}};
    for (const auto& a : c.at("arcs").items()) {
      liberty::TimingArc arc;
      arc.input = a.get_int("input");
      arc.out_rising = a.get_bool("out_rising");
      arc.delay = nldm_from_json(a.at("delay"));
      arc.out_slew = nldm_from_json(a.at("out_slew"));
      arc.energy = nldm_from_json(a.at("energy"));
      cell.arcs.push_back(std::move(arc));
    }
    check_cell_layout(cell);
    library.add(std::move(cell));
  }
  return library;
}

// --- gen::GenOptions --------------------------------------------------------

json::Value to_json(const gen::GenOptions& options) {
  json::Value v = json::Value::object();
  v.set("family", gen::to_string(options.family));
  v.set("width", options.width);
  v.set("target_gates", options.target_gates);
  v.set("num_inputs", options.num_inputs);
  // Decimal string: the seed is a full uint64, JSON integers are signed.
  v.set("seed", std::to_string(options.seed));
  v.set("drive", options.drive);
  return v;
}

gen::GenOptions gen_options_from_json(const json::Value& v) {
  gen::GenOptions options;
  auto family = gen::family_from_string(v.get_string("family"));
  if (!family.ok()) throw util::Error(family.error().message);
  options.family = family.value();
  options.width = v.get_int("width");
  options.target_gates = v.get_int("target_gates");
  options.num_inputs = v.get_int("num_inputs");
  const auto seed = v.get_string("seed");
  try {
    std::size_t used = 0;
    options.seed = std::stoull(seed, &used);
    if (used != seed.size()) throw std::invalid_argument(seed);
  } catch (const std::exception&) {
    throw util::Error("gen options: seed is not a uint64: \"" + seed + "\"");
  }
  options.drive = v.get_double("drive");
  return options;
}

// --- flow::GateNetlist ------------------------------------------------------

json::Value to_json(const flow::GateNetlist& netlist) {
  json::Value v = json::Value::object();
  json::Value nets = json::Value::array();
  for (int n = 0; n < netlist.num_nets(); ++n) {
    nets.push_back(netlist.net_name(n));
  }
  v.set("nets", std::move(nets));
  v.set("inputs", ints_to_json(netlist.inputs()));
  v.set("outputs", ints_to_json(netlist.outputs()));
  json::Value gates = json::Value::array();
  for (const auto& gate : netlist.gates()) {
    json::Value g = json::Value::object();
    g.set("cell", gate.cell->name);
    g.set("name", gate.name);
    g.set("inputs", ints_to_json(gate.inputs));
    g.set("output", gate.output);
    gates.push_back(std::move(g));
  }
  v.set("gates", std::move(gates));
  return v;
}

flow::GateNetlist gate_netlist_from_json(const json::Value& v,
                                         const liberty::Library& library) {
  flow::GateNetlist netlist;
  for (const auto& name : v.at("nets").items()) {
    (void)netlist.add_net(name.as_string());
  }
  for (const int net : ints_from_json(v.at("inputs"))) {
    netlist.mark_input(net);
  }
  for (const int net : ints_from_json(v.at("outputs"))) {
    netlist.mark_output(net);
  }
  for (const auto& g : v.at("gates").items()) {
    flow::Gate gate;
    gate.cell = &library.find(g.get_string("cell"));
    gate.name = g.get_string("name");
    gate.inputs = ints_from_json(g.at("inputs"));
    gate.output = g.get_int("output");
    netlist.add_gate(std::move(gate));
  }
  return netlist;
}

// --- flow::PlacementResult --------------------------------------------------

json::Value to_json(const flow::PlacementResult& placement,
                    const flow::GateNetlist& netlist) {
  json::Value v = json::Value::object();
  v.set("scheme", layout::to_string(placement.scheme));
  json::Value instances = json::Value::array();
  const flow::Gate* base = netlist.gates().data();
  for (const auto& inst : placement.instances) {
    const auto index = inst.gate - base;
    if (index < 0 ||
        index >= static_cast<std::ptrdiff_t>(netlist.gates().size())) {
      throw util::Error("placement instance references a foreign netlist");
    }
    json::Value i = json::Value::object();
    i.set("gate", static_cast<std::int64_t>(index));
    i.set("x", inst.origin.x);
    i.set("y", inst.origin.y);
    i.set("width", inst.width);
    i.set("height", inst.height);
    instances.push_back(std::move(i));
  }
  v.set("instances", std::move(instances));
  json::Value bbox = json::Value::object();
  bbox.set("lo_x", placement.bbox.lo().x);
  bbox.set("lo_y", placement.bbox.lo().y);
  bbox.set("hi_x", placement.bbox.hi().x);
  bbox.set("hi_y", placement.bbox.hi().y);
  v.set("bbox", std::move(bbox));
  v.set("natural_area_lambda2", placement.natural_area_lambda2);
  v.set("placed_area_lambda2", placement.placed_area_lambda2);
  v.set("hpwl_lambda", placement.hpwl_lambda);
  return v;
}

flow::PlacementResult placement_from_json(const json::Value& v,
                                          const flow::GateNetlist& netlist) {
  flow::PlacementResult placement;
  placement.scheme = scheme_from_string(v.get_string("scheme"));
  for (const auto& i : v.at("instances").items()) {
    const std::int64_t index = i.get_int64("gate");
    if (index < 0 ||
        index >= static_cast<std::int64_t>(netlist.gates().size())) {
      throw util::Error("placement gate index " + std::to_string(index) +
                        " out of range");
    }
    flow::PlacedInstance inst;
    inst.gate = &netlist.gates()[static_cast<std::size_t>(index)];
    inst.origin = {i.get_int64("x"), i.get_int64("y")};
    inst.width = i.get_int64("width");
    inst.height = i.get_int64("height");
    placement.instances.push_back(inst);
  }
  const auto& bbox = v.at("bbox");
  placement.bbox = geom::Rect({bbox.get_int64("lo_x"), bbox.get_int64("lo_y")},
                              {bbox.get_int64("hi_x"), bbox.get_int64("hi_y")});
  placement.natural_area_lambda2 = v.get_double("natural_area_lambda2");
  placement.placed_area_lambda2 = v.get_double("placed_area_lambda2");
  placement.hpwl_lambda = v.get_double("hpwl_lambda");
  return placement;
}

// --- route::RoutingResult ---------------------------------------------------
// Wires and vias are flat int64 rows ([layer, ax, ay, bx, by, width] /
// [x, y, size]) rather than keyed objects: a 10k-gate design carries tens
// of thousands of segments, and repeating keys would dominate the file.

json::Value to_json(const route::RoutingResult& routing) {
  json::Value v = json::Value::object();
  json::Value nets = json::Value::array();
  for (const auto& rn : routing.nets) {
    json::Value n = json::Value::object();
    n.set("net", rn.net);
    json::Value terminals = json::Value::array();
    for (const auto& t : rn.terminals) {
      json::Value row = json::Value::array();
      row.push_back(json::Value(t.x));
      row.push_back(json::Value(t.y));
      terminals.push_back(std::move(row));
    }
    n.set("terminals", std::move(terminals));
    json::Value wires = json::Value::array();
    for (const auto& w : rn.wires) {
      json::Value row = json::Value::array();
      row.push_back(json::Value(static_cast<std::int64_t>(w.layer)));
      row.push_back(json::Value(w.a.x));
      row.push_back(json::Value(w.a.y));
      row.push_back(json::Value(w.b.x));
      row.push_back(json::Value(w.b.y));
      row.push_back(json::Value(w.width));
      wires.push_back(std::move(row));
    }
    n.set("wires", std::move(wires));
    json::Value vias = json::Value::array();
    for (const auto& via : rn.vias) {
      json::Value row = json::Value::array();
      row.push_back(json::Value(via.at.x));
      row.push_back(json::Value(via.at.y));
      row.push_back(json::Value(via.size));
      vias.push_back(std::move(row));
    }
    n.set("vias", std::move(vias));
    n.set("length_lambda", rn.length_lambda);
    nets.push_back(std::move(n));
  }
  v.set("nets", std::move(nets));
  v.set("pitch", routing.pitch);
  json::Value bbox = json::Value::object();
  bbox.set("lo_x", routing.grid_bbox.lo().x);
  bbox.set("lo_y", routing.grid_bbox.lo().y);
  bbox.set("hi_x", routing.grid_bbox.hi().x);
  bbox.set("hi_y", routing.grid_bbox.hi().y);
  v.set("grid_bbox", std::move(bbox));
  v.set("total_wirelength_lambda", routing.total_wirelength_lambda);
  v.set("failed_nets", routing.failed_nets);
  return v;
}

route::RoutingResult routing_result_from_json(const json::Value& v) {
  route::RoutingResult routing;
  for (const auto& n : v.at("nets").items()) {
    route::RoutedNet rn;
    rn.net = n.get_int("net");
    for (const auto& row : n.at("terminals").items()) {
      rn.terminals.push_back({row.at(0).as_int64(), row.at(1).as_int64()});
    }
    for (const auto& row : n.at("wires").items()) {
      route::Wire w;
      w.layer = row.at(0).as_int();
      w.a = {row.at(1).as_int64(), row.at(2).as_int64()};
      w.b = {row.at(3).as_int64(), row.at(4).as_int64()};
      w.width = row.at(5).as_int64();
      rn.wires.push_back(w);
    }
    for (const auto& row : n.at("vias").items()) {
      route::Via via;
      via.at = {row.at(0).as_int64(), row.at(1).as_int64()};
      via.size = row.at(2).as_int64();
      rn.vias.push_back(via);
    }
    rn.length_lambda = n.get_double("length_lambda");
    routing.nets.push_back(std::move(rn));
  }
  routing.pitch = v.get_int64("pitch");
  const auto& bbox = v.at("grid_bbox");
  routing.grid_bbox =
      geom::Rect({bbox.get_int64("lo_x"), bbox.get_int64("lo_y")},
                 {bbox.get_int64("hi_x"), bbox.get_int64("hi_y")});
  routing.total_wirelength_lambda = v.get_double("total_wirelength_lambda");
  routing.failed_nets = v.get_int("failed_nets");
  return routing;
}

// --- FlowOptions ------------------------------------------------------------

json::Value to_json(const FlowOptions& options) {
  json::Value v = json::Value::object();
  // options.library is deliberately not serialized: the handle is resolved
  // from LibraryCache::global() on resume, and characterization is
  // deterministic, so the reconstruction is exact.
  v.set("tech", layout::to_string(options.tech));
  v.set("drive", options.drive);
  v.set("output_drive", options.output_drive);
  v.set("verify", options.verify);
  v.set("map_cost", map_cost_to_string(options.map_cost));
  v.set("optimize", options.optimize);
  v.set("target_delay", options.target_delay);
  v.set("max_area_growth", options.max_area_growth);
  json::Value sta = json::Value::object();
  sta.set("input_slew", options.sta.input_slew);
  sta.set("wire_cap_per_fanout", options.sta.wire_cap_per_fanout);
  sta.set("output_load", options.sta.output_load);
  v.set("sta", std::move(sta));
  json::Value place = json::Value::object();
  place.set("scheme", layout::to_string(options.place.scheme));
  v.set("place", std::move(place));
  json::Value drc = json::Value::object();
  drc.set("allow_vertical_gating", options.drc.allow_vertical_gating);
  if (options.drc.deck.has_value()) {
    drc.set("deck", design_rules_to_json(*options.drc.deck));
  }
  v.set("drc", std::move(drc));
  v.set("route", options.route);
  json::Value route = json::Value::object();
  route.set("window_halo_cells", options.route_opts.window_halo_cells);
  v.set("route_opts", std::move(route));
  v.set("top_name", options.top_name);
  return v;
}

FlowOptions flow_options_from_json(const json::Value& v) {
  FlowOptions options;
  auto tech = tech_from_string(v.get_string("tech"));
  if (!tech.ok()) throw util::Error(tech.error().message);
  options.tech = tech.value();
  options.drive = v.get_double("drive");
  options.output_drive = v.get_double("output_drive");
  options.verify = v.get_bool("verify");
  options.map_cost = map_cost_from_string(v.get_string("map_cost"));
  options.optimize = v.get_bool("optimize");
  options.target_delay = v.get_double("target_delay");
  options.max_area_growth = v.get_double("max_area_growth");
  const auto& sta = v.at("sta");
  options.sta.input_slew = sta.get_double("input_slew");
  options.sta.wire_cap_per_fanout = sta.get_double("wire_cap_per_fanout");
  options.sta.output_load = sta.get_double("output_load");
  const auto& place = v.at("place");
  options.place.scheme = scheme_from_string(place.get_string("scheme"));
  const auto& drc = v.at("drc");
  options.drc.allow_vertical_gating = drc.get_bool("allow_vertical_gating");
  if (const auto* deck = drc.find("deck")) {
    options.drc.deck = design_rules_from_json(*deck);
  }
  options.route = v.get_bool("route");
  options.route_opts.window_halo_cells =
      v.at("route_opts").get_int("window_halo_cells");
  options.top_name = v.get_string("top_name");
  return options;
}

// --- FlowMetrics ------------------------------------------------------------

json::Value to_json(const FlowMetrics& m) {
  json::Value v = json::Value::object();
  v.set("name", m.name);
  v.set("tech", layout::to_string(m.tech));
  v.set("stage", to_string(m.stage));
  v.set("gates", m.gates);
  v.set("nand2", m.nand2);
  v.set("nor2", m.nor2);
  v.set("inv", m.inv);
  v.set("verified", m.verified);
  v.set("worst_arrival_s", m.worst_arrival_s);
  v.set("energy_per_cycle_j", m.energy_per_cycle_j);
  v.set("edp_js", m.edp_js);
  v.set("optimized", m.optimized);
  v.set("pre_opt_worst_arrival_s", m.pre_opt_worst_arrival_s);
  v.set("gates_resized", m.gates_resized);
  v.set("buffers_inserted", m.buffers_inserted);
  v.set("gates_removed", m.gates_removed);
  v.set("opt_area_growth", m.opt_area_growth);
  v.set("placed_area_lambda2", m.placed_area_lambda2);
  v.set("utilization", m.utilization);
  v.set("hpwl_lambda", m.hpwl_lambda);
  v.set("cells_signed_off", m.cells_signed_off);
  v.set("drc_violations", m.drc_violations);
  v.set("all_immune", m.all_immune);
  v.set("routed", m.routed);
  v.set("total_wirelength", m.total_wirelength);
  v.set("wire_cap_ff", m.wire_cap_ff);
  v.set("wire_delay_ps", m.wire_delay_ps);
  v.set("routed_worst_arrival_s", m.routed_worst_arrival_s);
  v.set("wire_drc_violations", m.wire_drc_violations);
  v.set("gds_structures", m.gds_structures);
  return v;
}

FlowMetrics flow_metrics_from_json(const json::Value& v) {
  FlowMetrics m;
  m.name = v.get_string("name");
  auto tech = tech_from_string(v.get_string("tech"));
  if (!tech.ok()) throw util::Error(tech.error().message);
  m.tech = tech.value();
  m.stage = stage_from_string_or_throw(v.get_string("stage"));
  m.gates = v.get_int("gates");
  m.nand2 = v.get_int("nand2");
  m.nor2 = v.get_int("nor2");
  m.inv = v.get_int("inv");
  m.verified = v.get_bool("verified");
  m.worst_arrival_s = v.get_double("worst_arrival_s");
  m.energy_per_cycle_j = v.get_double("energy_per_cycle_j");
  m.edp_js = v.get_double("edp_js");
  m.optimized = v.get_bool("optimized");
  m.pre_opt_worst_arrival_s = v.get_double("pre_opt_worst_arrival_s");
  m.gates_resized = v.get_int("gates_resized");
  m.buffers_inserted = v.get_int("buffers_inserted");
  m.gates_removed = v.get_int("gates_removed");
  m.opt_area_growth = v.get_double("opt_area_growth");
  m.placed_area_lambda2 = v.get_double("placed_area_lambda2");
  m.utilization = v.get_double("utilization");
  m.hpwl_lambda = v.get_double("hpwl_lambda");
  m.cells_signed_off = v.get_int("cells_signed_off");
  m.drc_violations = v.get_int("drc_violations");
  m.all_immune = v.get_bool("all_immune");
  m.routed = v.get_bool("routed");
  m.total_wirelength = v.get_double("total_wirelength");
  m.wire_cap_ff = v.get_double("wire_cap_ff");
  m.wire_delay_ps = v.get_double("wire_delay_ps");
  m.routed_worst_arrival_s = v.get_double("routed_worst_arrival_s");
  m.wire_drc_violations = v.get_int("wire_drc_violations");
  m.gds_structures = static_cast<std::size_t>(v.get_int64("gds_structures"));
  return m;
}

// --- util::Diagnostics ------------------------------------------------------

json::Value to_json(const util::Diagnostics& diagnostics) {
  json::Value arr = json::Value::array();
  for (const auto& d : diagnostics.items()) {
    json::Value v = json::Value::object();
    v.set("severity", util::to_string(d.severity));
    v.set("stage", d.stage);
    v.set("message", d.message);
    arr.push_back(std::move(v));
  }
  return arr;
}

util::Diagnostics diagnostics_from_json(const json::Value& v) {
  util::Diagnostics diags;
  for (const auto& item : v.items()) {
    diags.add({severity_from_string(item.get_string("severity")),
               item.get_string("stage"), item.get_string("message")});
  }
  return diags;
}

// --- sta::StaResult ---------------------------------------------------------

json::Value to_json(const sta::StaResult& result) {
  json::Value v = json::Value::object();
  v.set("worst_arrival", result.worst_arrival);
  v.set("critical_output", result.critical_output);
  v.set("critical_path", strings_to_json(result.critical_path));
  v.set("energy_per_cycle", result.energy_per_cycle);
  v.set("arrival", doubles_to_json(result.arrival));
  v.set("slew", doubles_to_json(result.slew));
  return v;
}

sta::StaResult sta_result_from_json(const json::Value& v) {
  sta::StaResult result;
  result.worst_arrival = v.get_double("worst_arrival");
  result.critical_output = v.get_int("critical_output");
  result.critical_path = strings_from_json(v.at("critical_path"));
  result.energy_per_cycle = v.get_double("energy_per_cycle");
  result.arrival = doubles_from_json(v.at("arrival"));
  result.slew = doubles_from_json(v.at("slew"));
  return result;
}

// --- cnt::MonteCarloResult --------------------------------------------------

json::Value to_json(const cnt::MonteCarloResult& result) {
  json::Value v = json::Value::object();
  v.set("trials", result.trials);
  v.set("failing_trials", result.failing_trials);
  v.set("tubes_sampled", result.tubes_sampled);
  v.set("stray_shorts", result.stray_shorts);
  v.set("stray_chains", result.stray_chains);
  v.set("shorts_histogram", int64s_to_json(result.shorts_histogram));
  v.set("chains_histogram", int64s_to_json(result.chains_histogram));
  return v;
}

cnt::MonteCarloResult monte_carlo_result_from_json(const json::Value& v) {
  cnt::MonteCarloResult result;
  result.trials = v.get_int("trials");
  result.failing_trials = v.get_int("failing_trials");
  result.tubes_sampled = v.get_int64("tubes_sampled");
  result.stray_shorts = v.get_int64("stray_shorts");
  result.stray_chains = v.get_int64("stray_chains");
  result.shorts_histogram = int64s_from_json(v.at("shorts_histogram"));
  result.chains_histogram = int64s_from_json(v.at("chains_histogram"));
  return result;
}

// --- JobOutcome / FlowReport ------------------------------------------------

json::Value to_json(const JobOutcome& outcome) {
  json::Value v = json::Value::object();
  v.set("name", outcome.name);
  v.set("ok", outcome.ok);
  v.set("skipped", outcome.skipped);
  v.set("reached", to_string(outcome.reached));
  v.set("metrics", to_json(outcome.metrics));
  v.set("diagnostics", to_json(outcome.diagnostics));
  return v;
}

JobOutcome job_outcome_from_json(const json::Value& v) {
  JobOutcome outcome;
  outcome.name = v.get_string("name");
  outcome.ok = v.get_bool("ok");
  outcome.skipped = v.get_bool("skipped");
  outcome.reached = stage_from_string_or_throw(v.get_string("reached"));
  outcome.metrics = flow_metrics_from_json(v.at("metrics"));
  outcome.diagnostics = diagnostics_from_json(v.at("diagnostics"));
  return outcome;
}

json::Value to_json(const FlowReport& report) {
  json::Value v = json::Value::object();
  json::Value jobs = json::Value::array();
  for (const auto& job : report.jobs) jobs.push_back(to_json(job));
  v.set("jobs", std::move(jobs));
  v.set("total_gates", report.total_gates);
  v.set("total_area_lambda2", report.total_area_lambda2);
  v.set("total_energy_per_cycle_j", report.total_energy_per_cycle_j);
  v.set("worst_arrival_s", report.worst_arrival_s);
  v.set("total_drc_violations", report.total_drc_violations);
  v.set("all_immune", report.all_immune);
  return v;
}

FlowReport flow_report_from_json(const json::Value& v) {
  FlowReport report;
  for (const auto& job : v.at("jobs").items()) {
    report.jobs.push_back(job_outcome_from_json(job));
  }
  report.total_gates = v.get_int("total_gates");
  report.total_area_lambda2 = v.get_double("total_area_lambda2");
  report.total_energy_per_cycle_j = v.get_double("total_energy_per_cycle_j");
  report.worst_arrival_s = v.get_double("worst_arrival_s");
  report.total_drc_violations = v.get_int("total_drc_violations");
  report.all_immune = v.get_bool("all_immune");
  return report;
}

// --- FlowJob ----------------------------------------------------------------

json::Value to_json(const FlowJob& job) {
  json::Value v = json::Value::object();
  v.set("name", job.name);
  v.set("cell", job.cell);
  json::Value outputs = json::Value::array();
  for (const auto& spec : job.outputs) {
    outputs.push_back(output_spec_to_json(spec));
  }
  v.set("outputs", std::move(outputs));
  v.set("inputs", strings_to_json(job.inputs));
  v.set("options", to_json(job.options));
  v.set("target", to_string(job.target));
  return v;
}

FlowJob flow_job_from_json(const json::Value& v) {
  FlowJob job;
  job.name = v.get_string("name");
  job.cell = v.get_string("cell");
  for (const auto& spec : v.at("outputs").items()) {
    job.outputs.push_back(output_spec_from_json(spec));
  }
  job.inputs = strings_from_json(v.at("inputs"));
  job.options = flow_options_from_json(v.at("options"));
  job.target = stage_from_string_or_throw(v.get_string("target"));
  return job;
}

// --- the versioned file envelope --------------------------------------------

util::Result<std::string> write_artifact(const json::Value& payload,
                                         const std::string& kind,
                                         const std::string& path) {
  try {
    // The payload is dumped once: the checksum covers exactly the text
    // the file carries.
    const std::string body = json::dump(payload);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::Result<std::string>::failure("serialize",
                                                "cannot open " + path);
    }
    out << "{\"schema_version\":" << kSchemaVersion
        << ",\"kind\":" << json::dump(kind) << ",\"checksum\":\""
        << json::fnv1a64_hex(body) << "\",\"payload\":" << body << "}\n";
    out.flush();
    if (!out.good()) {
      return util::Result<std::string>::failure("serialize",
                                                "short write to " + path);
    }
    return path;
  } catch (const std::exception& e) {
    return util::Result<std::string>::failure("serialize", e.what());
  }
}

util::Result<util::json::Value> read_artifact(const std::string& path,
                                              const std::string& kind) {
  using R = util::Result<util::json::Value>;
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) return R::failure("serialize", "cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    json::Value envelope = json::parse(buffer.str());
    const int version = envelope.get_int("schema_version");
    if (version != kSchemaVersion) {
      return R::failure(
          "serialize",
          path + " has schema_version " + std::to_string(version) +
              ", this build reads only version " +
              std::to_string(kSchemaVersion) +
              (version > kSchemaVersion ? " (file written by a newer build)"
                                        : ""));
    }
    const std::string& file_kind = envelope.get_string("kind");
    if (file_kind != kind) {
      return R::failure("serialize", path + " holds a \"" + file_kind +
                                         "\" artifact, expected \"" + kind +
                                         "\"");
    }
    json::Value payload = envelope.take("payload");
    const std::string checksum = json::fnv1a64_hex(json::dump(payload));
    if (checksum != envelope.get_string("checksum")) {
      return R::failure("serialize",
                        path + " checksum mismatch (file corrupt or edited: "
                               "expected " +
                            envelope.get_string("checksum") + ", computed " +
                            checksum + ")");
    }
    return payload;
  } catch (const std::exception& e) {
    return R::failure("serialize", path + ": " + e.what());
  }
}

// --- whole-file conveniences ------------------------------------------------

util::Result<std::string> save_library(const liberty::Library& library,
                                       const std::string& path) {
  try {
    return write_artifact(to_json(library), "library", path);
  } catch (const std::exception& e) {
    return util::Result<std::string>::failure("serialize", e.what());
  }
}

util::Result<LibraryHandle> load_library(const std::string& path) {
  auto payload = read_artifact(path, "library");
  if (!payload.ok()) return payload.error();
  try {
    return LibraryHandle(std::make_shared<const liberty::Library>(
        library_from_json(payload.value())));
  } catch (const std::exception& e) {
    return util::Result<LibraryHandle>::failure("serialize",
                                                path + ": " + e.what());
  }
}

util::Result<std::string> save_jobs(const std::vector<FlowJob>& jobs,
                                    const std::string& path) {
  try {
    json::Value payload = json::Value::object();
    json::Value arr = json::Value::array();
    for (const auto& job : jobs) arr.push_back(to_json(job));
    payload.set("jobs", std::move(arr));
    return write_artifact(payload, "jobs", path);
  } catch (const std::exception& e) {
    return util::Result<std::string>::failure("serialize", e.what());
  }
}

util::Result<std::vector<FlowJob>> load_jobs(const std::string& path) {
  auto payload = read_artifact(path, "jobs");
  if (!payload.ok()) return payload.error();
  try {
    std::vector<FlowJob> jobs;
    for (const auto& job : payload.value().at("jobs").items()) {
      jobs.push_back(flow_job_from_json(job));
    }
    return jobs;
  } catch (const std::exception& e) {
    return util::Result<std::vector<FlowJob>>::failure("serialize",
                                                       path + ": " + e.what());
  }
}

util::Result<std::string> save_report(const FlowReport& report,
                                      const std::string& path) {
  try {
    return write_artifact(to_json(report), "report", path);
  } catch (const std::exception& e) {
    return util::Result<std::string>::failure("serialize", e.what());
  }
}

util::Result<FlowReport> load_report(const std::string& path) {
  auto payload = read_artifact(path, "report");
  if (!payload.ok()) return payload.error();
  try {
    return flow_report_from_json(payload.value());
  } catch (const std::exception& e) {
    return util::Result<FlowReport>::failure("serialize",
                                             path + ": " + e.what());
  }
}

// --- Flow::save / Flow::resume ----------------------------------------------
// Member functions of api::Flow live here so the session format stays next
// to the other converters; flow.hpp declares them.

util::Result<std::string> Flow::save(const std::string& dir) const {
  auto payload = session_json();
  if (!payload.ok()) return payload.error();
  try {
    std::filesystem::create_directories(dir);
    return write_artifact(payload.value(), "flow",
                          (std::filesystem::path(dir) / "flow.json").string());
  } catch (const std::exception& e) {
    return util::Result<std::string>::failure("serialize", e.what());
  }
}

util::Result<util::json::Value> Flow::session_json() const {
  try {
    json::Value payload = json::Value::object();
    payload.set("name", name_);
    payload.set("stage", to_string(stage_));
    payload.set("options", to_json(options_));
    // Fingerprint of the characterized library the session is bound to.
    // resume() re-resolves through LibraryCache::global() and refuses a
    // mismatch: a session built against a custom FlowOptions::library
    // (non-default grid, style, scheme) must not silently rebind its
    // gates to cells with different NLDM tables.
    payload.set("library_checksum",
                json::fnv1a64_hex(json::dump(to_json(*library_))));
    json::Value outputs = json::Value::array();
    for (const auto& spec : spec_outputs_) {
      outputs.push_back(output_spec_to_json(spec));
    }
    payload.set("spec_outputs", std::move(outputs));
    payload.set("spec_inputs", strings_to_json(spec_inputs_));
    payload.set("diagnostics", to_json(diags_));
    if (mapped_) {
      json::Value m = json::Value::object();
      m.set("netlist", to_json(mapped_->map.netlist));
      m.set("nand_count", mapped_->map.nand_count);
      m.set("nor_count", mapped_->map.nor_count);
      m.set("inv_count", mapped_->map.inv_count);
      m.set("num_inputs", mapped_->num_inputs);
      m.set("verified", mapped_->verified);
      payload.set("mapped", std::move(m));
    }
    if (timed_) {
      json::Value t = json::Value::object();
      t.set("timing", to_json(timed_->timing));
      payload.set("timed", std::move(t));
    }
    if (optimized_) {
      json::Value o = json::Value::object();
      o.set("enabled", optimized_->enabled);
      json::Value s = json::Value::object();
      s.set("gates_resized", optimized_->stats.gates_resized);
      s.set("buffers_inserted", optimized_->stats.buffers_inserted);
      s.set("gates_removed", optimized_->stats.gates_removed);
      s.set("function_verified", optimized_->stats.function_verified);
      s.set("delay_before", optimized_->stats.delay_before);
      s.set("delay_after", optimized_->stats.delay_after);
      s.set("area_before", optimized_->stats.area_before);
      s.set("area_after", optimized_->stats.area_after);
      o.set("stats", std::move(s));
      // Disabled, the stage's timing is a copy of the Timed artifact's.
      if (optimized_->enabled) o.set("timing", to_json(optimized_->timing));
      payload.set("optimized", std::move(o));
    }
    if (placed_) {
      json::Value p = json::Value::object();
      p.set("placement", to_json(placed_->placement, mapped_->map.netlist));
      payload.set("placed", std::move(p));
    }
    // Sign-off results are not stored: resume_json() re-derives them, and
    // everything the routing implies, with the stage's own code.
    if (routed_) {
      json::Value r = json::Value::object();
      r.set("routing", to_json(routed_->routing));
      payload.set("routed", std::move(r));
    }
    // The Exported artifact is not stored: it is a pure function of the
    // saved placement and top name, and resume() regenerates the identical
    // GDS stream from them (proven by the round-trip golden test).
    return payload;
  } catch (const std::exception& e) {
    return util::Result<util::json::Value>::failure("serialize", e.what());
  }
}

util::Result<Flow> Flow::resume(const std::string& dir) {
  const std::string path = (std::filesystem::path(dir) / "flow.json").string();
  auto payload_result = read_artifact(path, "flow");
  if (!payload_result.ok()) return payload_result.error();
  return resume_json(payload_result.value(), path);
}

util::Result<Flow> Flow::resume_json(const json::Value& payload,
                                     const std::string& path) {
  try {
    FlowOptions options = flow_options_from_json(payload.at("options"));
    auto library = LibraryCache::global().get(options.tech);
    if (!library.ok()) return library.error();
    const std::string library_checksum =
        json::fnv1a64_hex(json::dump(to_json(*library.value())));
    if (library_checksum != payload.get_string("library_checksum")) {
      return util::Result<Flow>::failure(
          "serialize",
          path + ": the session was saved against a different characterized "
                 "library than LibraryCache::global() provides for " +
              layout::to_string(options.tech) +
              " (saved " + payload.get_string("library_checksum") +
              ", cache " + library_checksum +
              "); sessions built with a custom FlowOptions::library cannot "
              "be resumed from the default cache");
    }
    options.library = library.value();
    Flow flow(payload.get_string("name"), std::move(options),
              library.value());
    flow.stage_ = stage_from_string_or_throw(payload.get_string("stage"));
    for (const auto& spec : payload.at("spec_outputs").items()) {
      flow.spec_outputs_.push_back(output_spec_from_json(spec));
    }
    flow.spec_inputs_ = strings_from_json(payload.at("spec_inputs"));
    flow.diags_ = diagnostics_from_json(payload.at("diagnostics"));
    if (const auto* m = payload.find("mapped")) {
      MappedArtifact mapped;
      mapped.map.netlist =
          gate_netlist_from_json(m->at("netlist"), *flow.library_);
      mapped.map.nand_count = m->get_int("nand_count");
      mapped.map.nor_count = m->get_int("nor_count");
      mapped.map.inv_count = m->get_int("inv_count");
      mapped.num_inputs = m->get_int("num_inputs");
      mapped.verified = m->get_bool("verified");
      flow.mapped_ = std::move(mapped);
    }
    if (const auto* t = payload.find("timed")) {
      TimedArtifact timed;
      timed.timing = sta_result_from_json(t->at("timing"));
      flow.timed_ = std::move(timed);
    }
    if (const auto* o = payload.find("optimized")) {
      OptimizedArtifact optimized;
      optimized.enabled = o->get_bool("enabled");
      const auto& s = o->at("stats");
      optimized.stats.gates_resized = s.get_int("gates_resized");
      optimized.stats.buffers_inserted = s.get_int("buffers_inserted");
      optimized.stats.gates_removed = s.get_int("gates_removed");
      optimized.stats.function_verified = s.get_bool("function_verified");
      optimized.stats.delay_before = s.get_double("delay_before");
      optimized.stats.delay_after = s.get_double("delay_after");
      optimized.stats.area_before = s.get_double("area_before");
      optimized.stats.area_after = s.get_double("area_after");
      if (optimized.enabled) {
        optimized.timing = sta_result_from_json(o->at("timing"));
      }
      flow.optimized_ = std::move(optimized);
    }
    if (const auto* p = payload.find("placed")) {
      if (!flow.mapped_) {
        throw util::Error("placed artifact without a mapped netlist");
      }
      PlacedArtifact placed;
      placed.placement =
          placement_from_json(p->at("placement"), flow.mapped_->map.netlist);
      flow.placed_ = std::move(placed);
    }
    // Cheap shape invariants: a resumed flow must have exactly the
    // artifacts its stage implies, or later advances would dereference
    // absent optionals.
    const int stage_index = index_of_stage(flow.stage_);
    const bool signed_off = stage_index >= index_of_stage(Stage::kSignedOff);
    const auto* routed = payload.find("routed");
    if ((stage_index >= index_of_stage(Stage::kMapped)) != !!flow.mapped_ ||
        (stage_index >= index_of_stage(Stage::kTimed)) != !!flow.timed_ ||
        (stage_index >= index_of_stage(Stage::kOptimized)) !=
            !!flow.optimized_ ||
        (stage_index >= index_of_stage(Stage::kPlaced)) != !!flow.placed_ ||
        (flow.options_.route && signed_off) != (routed != nullptr)) {
      throw util::Error("artifacts do not match the saved stage " +
                        std::string(to_string(flow.stage_)));
    }
    // A disabled Optimized stage's timing is the Timed artifact's.
    if (flow.optimized_ && !flow.optimized_->enabled) {
      flow.optimized_->timing = flow.timed_->timing;
    }
    if (signed_off) {
      // The saved diagnostics already hold the messages sign-off wrote.
      util::Diagnostics rederived;
      flow.signoff_ = flow.check_cells(rederived);
      if (routed != nullptr) {
        // The saved routing is outside input: refuse it unless it is
        // complete and passes the open/short oracle (which also throws on
        // a net id the netlist does not have).
        auto routing = routing_result_from_json(routed->at("routing"));
        const auto& netlist = flow.mapped_->map.netlist;
        const auto report = route::verify(netlist, flow.placed_->placement,
                                          routing, flow.design_rules());
        if (!routing.complete() || !report.ok()) {
          throw util::Error(
              "saved routing fails route::verify: " +
              std::to_string(routing.failed_nets) + " failed net(s), " +
              std::to_string(report.open_nets) + " open net(s)" +
              (report.open_nets > 0
                   ? " (first: " + netlist.net_name(report.first_open_net) +
                         ")"
                   : "") +
              ", " + std::to_string(report.shorted_net_pairs) +
              " shorted net pair(s), " +
              std::to_string(report.stray_terminals) + " stray terminal(s)");
        }
        flow.routed_ = flow.derive_routed(std::move(routing), rederived);
      }
    }
    if (flow.stage_ == Stage::kExported) flow.exported_ = flow.build_exported();
    return flow;
  } catch (const std::exception& e) {
    return util::Result<Flow>::failure("serialize", path + ": " + e.what());
  }
}

}  // namespace cnfet::api
