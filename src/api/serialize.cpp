#include "api/serialize.hpp"

#include <cctype>
#include <cmath>
#include <concepts>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "layout/cells.hpp"
#include "logic/expr.hpp"

namespace cnfet::api {

namespace json = util::json;

namespace {

// --- leaves: encode(x) -> json::Value and decode(v, x) ----------------------

json::Value encode(double x) { return x; }
json::Value encode(int x) { return x; }
json::Value encode(std::int64_t x) { return x; }
json::Value encode(std::size_t x) { return x; }
json::Value encode(bool x) { return x; }
json::Value encode(const std::string& x) { return x; }
json::Value encode(const char*) = delete;  // would convert to encode(bool)

void decode(const json::Value& v, double& x) { x = v.as_double(); }
void decode(const json::Value& v, int& x) { x = v.as_int(); }
void decode(const json::Value& v, std::int64_t& x) { x = v.as_int64(); }
void decode(const json::Value& v, bool& x) { x = v.as_bool(); }
void decode(const json::Value& v, std::string& x) { x = v.as_string(); }

/// A count refuses a negative value rather than wrapping it to ~1.8e19.
void decode(const json::Value& v, std::size_t& x) {
  const std::int64_t i = v.as_int64();
  if (i < 0) {
    throw util::Error("json: count " + std::to_string(i) + " is negative");
  }
  x = static_cast<std::size_t>(i);
}

// Enums travel as their canonical printed name: the to_string beside each
// enum, found by argument-dependent lookup. The inverses scan the
// enumerators against encode(), so the JSON vocabulary can never drift
// from the printed one.

template <typename Enum>
  requires std::is_enum_v<Enum>
json::Value encode(Enum x) { return to_string(x); }
json::Value encode(flow::MapCost x) {
  return x == flow::MapCost::kGateCount ? "gate_count" : "delay";
}

template <typename Enum>
void decode_enum(const json::Value& v, Enum& x,
                 std::initializer_list<Enum> values, const char* what) {
  const std::string& name = v.as_string();
  for (const Enum value : values) {
    if (name == encode(value).as_string()) {
      x = value;
      return;
    }
  }
  throw util::Error(std::string("unknown ") + what + ": \"" + name + "\"");
}

template <typename T>
T value_or_throw(util::Result<T> result) {
  if (!result.ok()) throw util::Error(result.error().message);
  return std::move(result).value();
}

void decode(const json::Value& v, layout::Tech& x) {
  x = value_or_throw(tech_from_string(v.as_string()));
}
void decode(const json::Value& v, Stage& x) {
  x = value_or_throw(stage_from_string(v.as_string()));
}
void decode(const json::Value& v, gen::Family& x) {
  x = value_or_throw(gen::family_from_string(v.as_string()));
}
void decode(const json::Value& v, layout::CellScheme& x) {
  decode_enum(v, x,
              {layout::CellScheme::kScheme1, layout::CellScheme::kScheme2},
              "cell scheme");
}
void decode(const json::Value& v, layout::LayoutStyle& x) {
  decode_enum(v, x,
              {layout::LayoutStyle::kNaiveVulnerable,
               layout::LayoutStyle::kEtchedIsolatedBranches,
               layout::LayoutStyle::kEtchedIsolatedFets,
               layout::LayoutStyle::kCompactEuler},
              "layout style");
}
void decode(const json::Value& v, flow::MapCost& x) {
  decode_enum(v, x, {flow::MapCost::kGateCount, flow::MapCost::kDelay},
              "map cost");
}
void decode(const json::Value& v, util::Severity& x) {
  decode_enum(
      v, x,
      {util::Severity::kInfo, util::Severity::kWarning, util::Severity::kError},
      "severity");
}

/// A full uint64 (the generator seed) travels as a decimal string: JSON
/// integers are signed and pass through doubles.
template <typename U>
struct Decimal {
  U& value;
};

json::Value encode(const Decimal<const std::uint64_t>& x) {
  return std::to_string(x.value);
}
void decode(const json::Value& v, const Decimal<std::uint64_t>& x) {
  const std::string& text = v.as_string();
  try {
    std::size_t used = 0;
    x.value = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    throw util::Error("gen options: seed is not a uint64: \"" + text + "\"");
  }
}

json::Value encode(const geom::Rect& r) {
  json::Value v = json::Value::object();
  v.set("lo_x", r.lo().x);
  v.set("lo_y", r.lo().y);
  v.set("hi_x", r.hi().x);
  v.set("hi_y", r.hi().y);
  return v;
}
void decode(const json::Value& v, geom::Rect& r) {
  r = geom::Rect({v.get_int64("lo_x"), v.get_int64("lo_y")},
                 {v.get_int64("hi_x"), v.get_int64("hi_y")});
}

// Routing terminals, wires and vias are flat int64 rows ([x, y] /
// [layer, ax, ay, bx, by, width] / [x, y, size]) rather than keyed objects:
// a 10k-gate design carries tens of thousands of segments, and repeating
// keys would dominate the file.

json::Value row(std::initializer_list<std::int64_t> values) {
  json::Value arr = json::Value::array();
  for (const std::int64_t v : values) arr.push_back(v);
  return arr;
}

json::Value encode(const geom::Vec2& p) { return row({p.x, p.y}); }
void decode(const json::Value& v, geom::Vec2& p) {
  p = {v.at(0).as_int64(), v.at(1).as_int64()};
}
json::Value encode(const route::Wire& w) {
  return row({w.layer, w.a.x, w.a.y, w.b.x, w.b.y, w.width});
}
void decode(const json::Value& v, route::Wire& w) {
  w.layer = v.at(0).as_int();
  w.a = {v.at(1).as_int64(), v.at(2).as_int64()};
  w.b = {v.at(3).as_int64(), v.at(4).as_int64()};
  w.width = v.at(5).as_int64();
}
json::Value encode(const route::Via& via) {
  return row({via.at.x, via.at.y, via.size});
}
void decode(const json::Value& v, route::Via& via) {
  via.at = {v.at(0).as_int64(), v.at(1).as_int64()};
  via.size = v.at(2).as_int64();
}

/// A library cell's spec travels by name; its geometry is rebuilt.
json::Value encode(const layout::CellSpec& spec) { return spec.name; }
void decode(const json::Value& v, layout::CellSpec& spec) {
  spec = layout::find_cell_spec(v.as_string());
}

// logic::Expr is structural: Expr::to_string() names variables A.. by index
// while parse_expr numbers them by first appearance, so text would not
// round-trip expressions whose variables appear out of index order.

json::Value encode(const logic::Expr& expr) {
  json::Value v = json::Value::object();
  switch (expr.kind()) {
    case logic::Expr::Kind::kVar:
      v.set("var", expr.var_index());
      return v;
    case logic::Expr::Kind::kAnd:
    case logic::Expr::Kind::kOr: {
      json::Value children = json::Value::array();
      for (const auto& child : expr.children()) {
        children.push_back(encode(child));
      }
      v.set(expr.kind() == logic::Expr::Kind::kAnd ? "and" : "or",
            std::move(children));
      return v;
    }
    case logic::Expr::Kind::kNot:
      v.set("not", encode(expr.children().front()));
      return v;
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
void decode(const json::Value& v, logic::Expr& x) { x = expr_from_json(v); }

// --- one field list per type ------------------------------------------------
// fields(io, x) names each member once, in file order. The Writer runs the
// list to build an object and the Reader runs the same list to fill one,
// so no field can be written and not read, or the reverse.

template <typename T, typename U>
concept Like = std::same_as<std::remove_const_t<T>, U>;

template <typename Io>
void fields(Io& io, Like<layout::DesignRules> auto& r) {
  io("gate_len", r.gate_len);
  io("contact_len", r.contact_len);
  io("gate_contact_space", r.gate_contact_space);
  io("gate_gate_space", r.gate_gate_space);
  io("etch_len", r.etch_len);
  io("contact_contact_space", r.contact_contact_space);
  io("via_size", r.via_size);
  io("gate_overhang", r.gate_overhang);
  io("cnt_margin", r.cnt_margin);
  io("pin_width", r.pin_width);
  io("pun_pdn_gap", r.pun_pdn_gap);
  io("strip_lane", r.strip_lane);
  io("cell_margin", r.cell_margin);
  io("wire_width", r.wire_width);
  io("wire_spacing", r.wire_spacing);
  io("route_pitch", r.route_pitch);
  io("wire_sheet_res", r.wire_sheet_res);
  io("wire_cap_per_lambda", r.wire_cap_per_lambda);
  io("via_res", r.via_res);
  io("tech", r.tech);
}

/// A library file's header: the geometry context every cell is built
/// under (characterization uses one for the whole library).
template <typename Io>
void fields(Io& io, Like<liberty::CharacterizeOptions> auto& o) {
  io("tech", o.layout_tech);
  io("style", o.style);
  io("scheme", o.scheme);
}

template <typename Io>
void fields(Io& io, Like<liberty::LibCell> auto& c) {
  io("name", c.name);
  io("spec", c.built.spec);
  io("drive", c.drive);
  io("area_lambda2", c.area_lambda2);
  io("input_cap", c.input_cap);
  io("arcs", c.arcs);
}

template <typename Io>
void fields(Io& io, Like<liberty::TimingArc> auto& a) {
  io("input", a.input);
  io("out_rising", a.out_rising);
  io("delay", a.delay);
  io("out_slew", a.out_slew);
  io("energy", a.energy);
}

template <typename Io>
void fields(Io& io, Like<gen::GenOptions> auto& o) {
  io("family", o.family);
  io("width", o.width);
  io("target_gates", o.target_gates);
  io("num_inputs", o.num_inputs);
  io("seed", Decimal{o.seed});
  io("drive", o.drive);
}

template <typename Io>
void fields(Io& io, Like<flow::Gate> auto& g) {
  io("cell", g.cell);
  io("name", g.name);
  io("inputs", g.inputs);
  io("output", g.output);
}

template <typename Io>
void fields(Io& io, Like<flow::PlacedInstance> auto& i) {
  io("gate", i.gate);
  io("x", i.origin.x);
  io("y", i.origin.y);
  io("width", i.width);
  io("height", i.height);
}

template <typename Io>
void fields(Io& io, Like<flow::PlacementResult> auto& p) {
  io("scheme", p.scheme);
  io("instances", p.instances);
  io("bbox", p.bbox);
  io("natural_area_lambda2", p.natural_area_lambda2);
  io("placed_area_lambda2", p.placed_area_lambda2);
  io("hpwl_lambda", p.hpwl_lambda);
}

template <typename Io>
void fields(Io& io, Like<route::RoutedNet> auto& n) {
  io("net", n.net);
  io("terminals", n.terminals);
  io("wires", n.wires);
  io("vias", n.vias);
  io("length_lambda", n.length_lambda);
}

template <typename Io>
void fields(Io& io, Like<route::RoutingResult> auto& r) {
  io("nets", r.nets);
  io("pitch", r.pitch);
  io("grid_bbox", r.grid_bbox);
  io("total_wirelength_lambda", r.total_wirelength_lambda);
  io("failed_nets", r.failed_nets);
}

template <typename Io>
void fields(Io& io, Like<flow::OutputSpec> auto& s) {
  io("name", s.name);
  io("expr", s.expr);
  io("inverted", s.inverted);
}

template <typename Io>
void fields(Io& io, Like<sta::StaOptions> auto& o) {
  io("input_slew", o.input_slew);
  io("wire_cap_per_fanout", o.wire_cap_per_fanout);
  io("output_load", o.output_load);
}

template <typename Io>
void fields(Io& io, Like<flow::PlaceOptions> auto& o) {
  io("scheme", o.scheme);
}

template <typename Io>
void fields(Io& io, Like<drc::DrcOptions> auto& o) {
  io("allow_vertical_gating", o.allow_vertical_gating);
  io("deck", o.deck);
}

template <typename Io>
void fields(Io& io, Like<route::RouteOptions> auto& o) {
  io("window_halo_cells", o.window_halo_cells);
}

template <typename Io>
void fields(Io& io, Like<FlowOptions> auto& o) {
  // o.library is deliberately not serialized: the handle is resolved from
  // LibraryCache::global() on resume, and characterization is
  // deterministic, so the reconstruction is exact.
  io("tech", o.tech);
  io("drive", o.drive);
  io("output_drive", o.output_drive);
  io("verify", o.verify);
  io("map_cost", o.map_cost);
  io("optimize", o.optimize);
  io("target_delay", o.target_delay);
  io("max_area_growth", o.max_area_growth);
  io("sta", o.sta);
  io("place", o.place);
  io("drc", o.drc);
  io("route", o.route);
  io("route_opts", o.route_opts);
  io("top_name", o.top_name);
}

template <typename Io>
void fields(Io& io, Like<FlowMetrics> auto& m) {
  io("name", m.name);
  io("tech", m.tech);
  io("stage", m.stage);
  io("gates", m.gates);
  io("nand2", m.nand2);
  io("nor2", m.nor2);
  io("inv", m.inv);
  io("verified", m.verified);
  io("worst_arrival_s", m.worst_arrival_s);
  io("energy_per_cycle_j", m.energy_per_cycle_j);
  io("edp_js", m.edp_js);
  io("optimized", m.optimized);
  io("pre_opt_worst_arrival_s", m.pre_opt_worst_arrival_s);
  io("gates_resized", m.gates_resized);
  io("buffers_inserted", m.buffers_inserted);
  io("gates_removed", m.gates_removed);
  io("opt_area_growth", m.opt_area_growth);
  io("placed_area_lambda2", m.placed_area_lambda2);
  io("utilization", m.utilization);
  io("hpwl_lambda", m.hpwl_lambda);
  io("cells_signed_off", m.cells_signed_off);
  io("drc_violations", m.drc_violations);
  io("all_immune", m.all_immune);
  io("routed", m.routed);
  io("total_wirelength", m.total_wirelength);
  io("wire_cap_ff", m.wire_cap_ff);
  io("wire_delay_ps", m.wire_delay_ps);
  io("routed_worst_arrival_s", m.routed_worst_arrival_s);
  io("wire_drc_violations", m.wire_drc_violations);
  io("gds_structures", m.gds_structures);
}

template <typename Io>
void fields(Io& io, Like<util::Diagnostic> auto& d) {
  io("severity", d.severity);
  io("stage", d.stage);
  io("message", d.message);
}

template <typename Io>
void fields(Io& io, Like<sta::StaResult> auto& r) {
  io("worst_arrival", r.worst_arrival);
  io("critical_output", r.critical_output);
  io("critical_path", r.critical_path);
  io("energy_per_cycle", r.energy_per_cycle);
  io("arrival", r.arrival);
  io("slew", r.slew);
}

template <typename Io>
void fields(Io& io, Like<cnt::MonteCarloResult> auto& r) {
  io("trials", r.trials);
  io("failing_trials", r.failing_trials);
  io("tubes_sampled", r.tubes_sampled);
  io("stray_shorts", r.stray_shorts);
  io("stray_chains", r.stray_chains);
  io("shorts_histogram", r.shorts_histogram);
  io("chains_histogram", r.chains_histogram);
}

template <typename Io>
void fields(Io& io, Like<JobOutcome> auto& o) {
  io("name", o.name);
  io("ok", o.ok);
  io("skipped", o.skipped);
  io("reached", o.reached);
  io("metrics", o.metrics);
  io("diagnostics", o.diagnostics);
}

template <typename Io>
void fields(Io& io, Like<FlowReport> auto& r) {
  io("jobs", r.jobs);
  io("total_gates", r.total_gates);
  io("total_area_lambda2", r.total_area_lambda2);
  io("total_energy_per_cycle_j", r.total_energy_per_cycle_j);
  io("worst_arrival_s", r.worst_arrival_s);
  io("total_drc_violations", r.total_drc_violations);
  io("all_immune", r.all_immune);
}

template <typename Io>
void fields(Io& io, Like<FlowJob> auto& j) {
  io("name", j.name);
  io("cell", j.cell);
  io("outputs", j.outputs);
  io("inputs", j.inputs);
  io("options", j.options);
  io("target", j.target);
}

// The session's stage artifacts store decisions only: sign-off results,
// the routing's derived members and the Exported GDS are re-derived on
// resume.

template <typename Io>
void fields(Io& io, Like<MappedArtifact> auto& m) {
  io("netlist", m.map.netlist);
  io("nand_count", m.map.nand_count);
  io("nor_count", m.map.nor_count);
  io("inv_count", m.map.inv_count);
  io("num_inputs", m.num_inputs);
  io("verified", m.verified);
}

template <typename Io>
void fields(Io& io, Like<TimedArtifact> auto& t) {
  io("timing", t.timing);
}

template <typename Io>
void fields(Io& io, Like<opt::PassStats> auto& s) {
  io("gates_resized", s.gates_resized);
  io("buffers_inserted", s.buffers_inserted);
  io("gates_removed", s.gates_removed);
  io("function_verified", s.function_verified);
  io("delay_before", s.delay_before);
  io("delay_after", s.delay_after);
  io("area_before", s.area_before);
  io("area_after", s.area_after);
}

template <typename Io>
void fields(Io& io, Like<OptimizedArtifact> auto& o) {
  io("enabled", o.enabled);
  io("stats", o.stats);
  // Disabled, the stage's timing is a copy of the Timed artifact's and is
  // not stored. `enabled` comes first, so the reader already holds it.
  if (o.enabled) io("timing", o.timing);
}

template <typename Io>
void fields(Io& io, Like<PlacedArtifact> auto& p) {
  io("placement", p.placement);
}

template <typename Io>
void fields(Io& io, Like<RoutedArtifact> auto& r) {
  io("routing", r.routing);
}

// --- the two directions -----------------------------------------------------
// Structs with a field list, vectors and optionals recurse through the io;
// everything else is a leaf above. A member overload handles what needs
// the io's context: a placed gate is an index into the netlist, and a
// gate's cell is a name in the library.

template <typename T>
constexpr bool kIsOptional = false;
template <typename T>
constexpr bool kIsOptional<std::optional<T>> = true;

struct Writer {
  const flow::GateNetlist* netlist = nullptr;
  json::Value object = json::Value::object();

  template <typename T>
  void operator()(const char* key, const T& x) {
    if constexpr (kIsOptional<T>) {
      if (x) object.set(key, put(*x));  // absent: no key at all
    } else {
      object.set(key, put(x));
    }
  }

  template <typename T>
  json::Value put(const T& x) const {
    if constexpr (requires(Writer& w) { fields(w, x); }) {
      Writer w{netlist};
      fields(w, x);
      return std::move(w.object);
    } else {
      return encode(x);
    }
  }
  template <typename T>
  json::Value put(const std::vector<T>& xs) const {
    json::Value arr = json::Value::array();
    for (const auto& x : xs) arr.push_back(put(x));
    return arr;
  }
  json::Value put(const util::Diagnostics& d) const { return put(d.items()); }
  json::Value put(const liberty::LibCell* cell) const { return cell->name; }
  json::Value put(const flow::Gate* gate) const;
  json::Value put(const flow::GateNetlist& n) const;
  json::Value put(const liberty::NldmTable& table) const;
};

struct Reader {
  const json::Value& object;
  const liberty::Library* library = nullptr;
  const flow::GateNetlist* netlist = nullptr;

  template <typename T>
  void operator()(const char* key, T&& x) const {
    if constexpr (kIsOptional<std::remove_cvref_t<T>>) {
      if (const json::Value* v = object.find(key)) get(*v, x.emplace());
    } else {
      get(object.at(key), x);
    }
  }

  template <typename T>
  void get(const json::Value& v, T& x) const {
    if constexpr (requires(Reader& r) { fields(r, x); }) {
      Reader r{v, library, netlist};
      fields(r, x);
    } else {
      decode(v, x);
    }
  }
  template <typename T>
  void get(const json::Value& v, std::vector<T>& xs) const {
    xs.clear();
    xs.reserve(v.size());
    for (const auto& item : v.items()) get(item, xs.emplace_back());
  }
  void get(const json::Value& v, util::Diagnostics& d) const {
    std::vector<util::Diagnostic> items;
    get(v, items);
    for (auto& item : items) d.add(std::move(item));
  }
  void get(const json::Value& v, const liberty::LibCell*& cell) const {
    cell = &library->find(v.as_string());
  }
  void get(const json::Value& v, const flow::Gate*& gate) const;
  void get(const json::Value& v, flow::GateNetlist& n) const;
  void get(const json::Value& v, liberty::NldmTable& table) const;
};

template <typename T>
T read(const json::Value& v, const liberty::Library* library = nullptr,
       const flow::GateNetlist* netlist = nullptr) {
  T x;
  Reader{v, library, netlist}.get(v, x);
  return x;
}

json::Value Writer::put(const flow::Gate* gate) const {
  const flow::Gate* begin = netlist->gates().data();
  // std::less orders pointers into unrelated arrays without undefined
  // behaviour, so a gate of another netlist is refused, not subtracted.
  const std::less<const flow::Gate*> before;
  if (before(gate, begin) || !before(gate, begin + netlist->gates().size())) {
    throw util::Error("placement instance references a foreign netlist");
  }
  return static_cast<std::int64_t>(gate - begin);
}

void Reader::get(const json::Value& v, const flow::Gate*& gate) const {
  if (netlist == nullptr) {
    throw util::Error("placed artifact without a mapped netlist");
  }
  const std::int64_t index = v.as_int64();
  if (index < 0 ||
      index >= static_cast<std::int64_t>(netlist->gates().size())) {
    throw util::Error("placement gate index " + std::to_string(index) +
                      " out of range");
  }
  gate = &netlist->gates()[static_cast<std::size_t>(index)];
}

// A gate netlist is built through its own API (nets, ports, gates), which
// keeps its connectivity caches consistent.

json::Value Writer::put(const flow::GateNetlist& n) const {
  std::vector<std::string> nets;
  nets.reserve(static_cast<std::size_t>(n.num_nets()));
  for (int net = 0; net < n.num_nets(); ++net) nets.push_back(n.net_name(net));
  Writer w;
  w("nets", nets);
  w("inputs", n.inputs());
  w("outputs", n.outputs());
  w("gates", n.gates());
  return std::move(w.object);
}

void Reader::get(const json::Value& v, flow::GateNetlist& n) const {
  std::vector<std::string> nets;
  std::vector<int> inputs;
  std::vector<int> outputs;
  std::vector<flow::Gate> gates;
  const Reader r{v, library, netlist};
  r("nets", nets);
  r("inputs", inputs);
  r("outputs", outputs);
  r("gates", gates);
  flow::GateNetlist built;
  for (const auto& name : nets) (void)built.add_net(name);
  for (const int net : inputs) built.mark_input(net);
  for (const int net : outputs) built.mark_output(net);
  for (auto& gate : gates) built.add_gate(std::move(gate));
  n = std::move(built);
}

// An NLDM table is a slew x load grid plus its values, row-major. Each
// axis must be non-empty, finite and strictly ascending: the lookup kernel
// brackets keys by binary search on it.

json::Value Writer::put(const liberty::NldmTable& table) const {
  std::vector<double> values;
  values.reserve(table.slews().size() * table.loads().size());
  for (std::size_t si = 0; si < table.slews().size(); ++si) {
    for (std::size_t li = 0; li < table.loads().size(); ++li) {
      values.push_back(table.at(si, li));
    }
  }
  Writer w;
  w("slews", table.slews());
  w("loads", table.loads());
  w("values", values);
  return std::move(w.object);
}

void check_grid(const std::vector<double>& grid, const char* axis) {
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
}

void Reader::get(const json::Value& v, liberty::NldmTable& table) const {
  std::vector<double> slews;
  std::vector<double> loads;
  const Reader r{v};
  r("slews", slews);
  r("loads", loads);
  check_grid(slews, "slew");
  check_grid(loads, "load");
  const auto& values = v.at("values");
  const std::size_t n_slews = slews.size();
  const std::size_t n_loads = loads.size();
  if (values.size() != n_slews * n_loads) {
    throw util::Error("NLDM value count " + std::to_string(values.size()) +
                      " does not match the " + std::to_string(n_slews) + "x" +
                      std::to_string(n_loads) + " grid");
  }
  table = liberty::NldmTable(std::move(slews), std::move(loads));
  std::size_t j = 0;
  for (std::size_t si = 0; si < n_slews; ++si) {
    for (std::size_t li = 0; li < n_loads; ++li) {
      table.set(si, li, values.at(j++).as_double());
    }
  }
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

/// Runs `body`, turning a thrown exception into an error Diagnostic
/// prefixed with `where`: the api:: boundary reports failures as Results.
template <typename T, typename Body>
util::Result<T> guarded(const std::string& where, Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    return util::Result<T>::failure("serialize", where + e.what());
  }
}

/// read_artifact, then `convert` on the payload, under guarded().
template <typename T, typename Convert>
util::Result<T> load_artifact(const std::string& path, const std::string& kind,
                              Convert convert) {
  auto payload = read_artifact(path, kind);
  if (!payload.ok()) return payload.error();
  return guarded<T>(path + ": ", [&] { return convert(payload.value()); });
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

// --- value-level converters -------------------------------------------------

json::Value to_json(const liberty::Library& library) {
  if (library.cells().empty()) {
    throw util::Error("refusing to serialize an empty library");
  }
  // The header is read back from the first cell: characterization builds
  // every cell under the same options.
  const auto& first = library.cells().front().built.layout;
  liberty::CharacterizeOptions copts;
  copts.layout_tech = first.rules().tech;
  copts.style = first.style();
  copts.scheme = first.scheme();
  Writer w;
  fields(w, copts);
  w("cells", library.cells());
  return std::move(w.object);
}

liberty::Library library_from_json(const json::Value& v) {
  const auto copts = read<liberty::CharacterizeOptions>(v);
  liberty::Library library;
  for (const auto& c : v.at("cells").items()) {
    // The geometry is not stored: it is rebuilt from the spec and drive,
    // then the field list fills in the characterized numbers.
    liberty::LibCell cell{
        {},
        layout::build_cell(
            layout::find_cell_spec(c.get_string("spec")),
            liberty::cell_build_options(c.get_double("drive"), copts)),
        {}, {}, {}, {}};
    Reader{c}.get(c, cell);
    check_cell_layout(cell);
    library.add(std::move(cell));
  }
  return library;
}

json::Value to_json(const gen::GenOptions& x) { return Writer{}.put(x); }
gen::GenOptions gen_options_from_json(const json::Value& v) {
  return read<gen::GenOptions>(v);
}

json::Value to_json(const flow::GateNetlist& x) { return Writer{}.put(x); }
flow::GateNetlist gate_netlist_from_json(const json::Value& v,
                                         const liberty::Library& library) {
  return read<flow::GateNetlist>(v, &library);
}

json::Value to_json(const flow::PlacementResult& placement,
                    const flow::GateNetlist& netlist) {
  return Writer{&netlist}.put(placement);
}
flow::PlacementResult placement_from_json(const json::Value& v,
                                          const flow::GateNetlist& netlist) {
  return read<flow::PlacementResult>(v, nullptr, &netlist);
}

json::Value to_json(const route::RoutingResult& x) { return Writer{}.put(x); }
route::RoutingResult routing_result_from_json(const json::Value& v) {
  return read<route::RoutingResult>(v);
}

json::Value to_json(const FlowOptions& x) { return Writer{}.put(x); }
FlowOptions flow_options_from_json(const json::Value& v) {
  return read<FlowOptions>(v);
}

json::Value to_json(const FlowMetrics& x) { return Writer{}.put(x); }
FlowMetrics flow_metrics_from_json(const json::Value& v) {
  return read<FlowMetrics>(v);
}

json::Value to_json(const util::Diagnostics& x) { return Writer{}.put(x); }
util::Diagnostics diagnostics_from_json(const json::Value& v) {
  return read<util::Diagnostics>(v);
}

json::Value to_json(const sta::StaResult& x) { return Writer{}.put(x); }
sta::StaResult sta_result_from_json(const json::Value& v) {
  return read<sta::StaResult>(v);
}

json::Value to_json(const cnt::MonteCarloResult& x) { return Writer{}.put(x); }
cnt::MonteCarloResult monte_carlo_result_from_json(const json::Value& v) {
  return read<cnt::MonteCarloResult>(v);
}

json::Value to_json(const JobOutcome& x) { return Writer{}.put(x); }
JobOutcome job_outcome_from_json(const json::Value& v) {
  return read<JobOutcome>(v);
}

json::Value to_json(const FlowReport& x) { return Writer{}.put(x); }
FlowReport flow_report_from_json(const json::Value& v) {
  return read<FlowReport>(v);
}

json::Value to_json(const FlowJob& x) { return Writer{}.put(x); }
FlowJob flow_job_from_json(const json::Value& v) { return read<FlowJob>(v); }

// --- the versioned file envelope --------------------------------------------

util::Result<std::string> write_artifact(const json::Value& payload,
                                         const std::string& kind,
                                         const std::string& path) {
  return guarded<std::string>("", [&]() -> util::Result<std::string> {
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
  });
}

util::Result<util::json::Value> read_artifact(const std::string& path,
                                              const std::string& kind) {
  using R = util::Result<util::json::Value>;
  return guarded<json::Value>(path + ": ", [&]() -> R {
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
  });
}

// --- whole-file conveniences ------------------------------------------------

util::Result<std::string> save_library(const liberty::Library& library,
                                       const std::string& path) {
  return guarded<std::string>(
      "", [&] { return write_artifact(to_json(library), "library", path); });
}

util::Result<LibraryHandle> load_library(const std::string& path) {
  return load_artifact<LibraryHandle>(path, "library", [](const auto& v) {
    return LibraryHandle(
        std::make_shared<const liberty::Library>(library_from_json(v)));
  });
}

util::Result<std::string> save_jobs(const std::vector<FlowJob>& jobs,
                                    const std::string& path) {
  return guarded<std::string>("", [&] {
    Writer w;
    w("jobs", jobs);
    return write_artifact(w.object, "jobs", path);
  });
}

util::Result<std::vector<FlowJob>> load_jobs(const std::string& path) {
  return load_artifact<std::vector<FlowJob>>(path, "jobs", [](const auto& v) {
    std::vector<FlowJob> jobs;
    Reader{v}("jobs", jobs);
    return jobs;
  });
}

util::Result<std::string> save_report(const FlowReport& report,
                                      const std::string& path) {
  return guarded<std::string>(
      "", [&] { return write_artifact(to_json(report), "report", path); });
}

util::Result<FlowReport> load_report(const std::string& path) {
  return load_artifact<FlowReport>(path, "report", flow_report_from_json);
}

// --- Flow::save / Flow::resume ----------------------------------------------
// Member functions of api::Flow live here so the session format stays next
// to the other converters; flow.hpp declares them. The session is written
// by hand: its library fingerprint is computed, and resume checks the
// saved artifacts against the saved stage.

util::Result<std::string> Flow::save(const std::string& dir) const {
  auto payload = session_json();
  if (!payload.ok()) return payload.error();
  return guarded<std::string>("", [&] {
    std::filesystem::create_directories(dir);
    return write_artifact(payload.value(), "flow",
                          (std::filesystem::path(dir) / "flow.json").string());
  });
}

util::Result<util::json::Value> Flow::session_json() const {
  return guarded<json::Value>("", [&] {
    Writer w{mapped_ ? &mapped_->map.netlist : nullptr};
    w("name", name_);
    w("stage", stage_);
    w("options", options_);
    // Fingerprint of the characterized library the session is bound to.
    // resume() re-resolves through LibraryCache::global() and refuses a
    // mismatch: a session built against a custom FlowOptions::library
    // (non-default grid, style, scheme) must not silently rebind its
    // gates to cells with different NLDM tables.
    w("library_checksum", json::fnv1a64_hex(json::dump(to_json(*library_))));
    w("spec_outputs", spec_outputs_);
    w("spec_inputs", spec_inputs_);
    w("diagnostics", diags_);
    w("mapped", mapped_);
    w("timed", timed_);
    w("optimized", optimized_);
    w("placed", placed_);
    w("routed", routed_);
    return std::move(w.object);
  });
}

util::Result<Flow> Flow::resume(const std::string& dir) {
  const std::string path = (std::filesystem::path(dir) / "flow.json").string();
  auto payload_result = read_artifact(path, "flow");
  if (!payload_result.ok()) return payload_result.error();
  return resume_json(payload_result.value(), path);
}

util::Result<Flow> Flow::resume_json(const json::Value& payload,
                                     const std::string& path) {
  return guarded<Flow>(path + ": ", [&]() -> util::Result<Flow> {
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
    Reader r{payload, flow.library_.get()};
    r("stage", flow.stage_);
    r("spec_outputs", flow.spec_outputs_);
    r("spec_inputs", flow.spec_inputs_);
    r("diagnostics", flow.diags_);
    r("mapped", flow.mapped_);
    r("timed", flow.timed_);
    r("optimized", flow.optimized_);
    // A placement names its gates by index into the mapped netlist.
    if (flow.mapped_) r.netlist = &flow.mapped_->map.netlist;
    r("placed", flow.placed_);
    std::optional<RoutedArtifact> routed;
    r("routed", routed);
    // Cheap shape invariants: a resumed flow must have exactly the
    // artifacts its stage implies, or later advances would dereference
    // absent optionals.
    const int stage_index = index_of_stage(flow.stage_);
    const bool signed_off = stage_index >= index_of_stage(Stage::kSignedOff);
    if ((stage_index >= index_of_stage(Stage::kMapped)) != !!flow.mapped_ ||
        (stage_index >= index_of_stage(Stage::kTimed)) != !!flow.timed_ ||
        (stage_index >= index_of_stage(Stage::kOptimized)) !=
            !!flow.optimized_ ||
        (stage_index >= index_of_stage(Stage::kPlaced)) != !!flow.placed_ ||
        (flow.options_.route && signed_off) != routed.has_value()) {
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
      if (routed) {
        // The saved routing is outside input: refuse it unless it is
        // complete and passes the open/short oracle (which also throws on
        // a net id the netlist does not have).
        auto& routing = routed->routing;
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
  });
}

}  // namespace cnfet::api
