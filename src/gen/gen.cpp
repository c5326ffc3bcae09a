#include "gen/gen.hpp"

#include "util/error.hpp"
#include "util/rng.hpp"

namespace cnfet::gen {

const char* to_string(Family family) {
  switch (family) {
    case Family::kRippleCarryAdder:
      return "rca";
    case Family::kCarryLookaheadAdder:
      return "cla";
    case Family::kArrayMultiplier:
      return "mul";
    case Family::kRandomDag:
      return "rand";
  }
  throw util::Error("unreachable generator family");
}

util::Result<Family> family_from_string(const std::string& text) {
  if (text == "rca") return Family::kRippleCarryAdder;
  if (text == "cla") return Family::kCarryLookaheadAdder;
  if (text == "mul") return Family::kArrayMultiplier;
  if (text == "rand") return Family::kRandomDag;
  return util::Result<Family>::failure(
      "gen", "unknown generator family '" + text +
                 "' (expected rca, cla, mul or rand)");
}

namespace {

/// Refuses options above kMaxGates before anything is allocated.
void check_bound(const GenOptions& options, std::int64_t gates) {
  if (gates > kMaxGates || options.num_inputs > kMaxGates) {
    throw util::Error(std::string(to_string(options.family)) +
                      " options ask for " + std::to_string(gates) +
                      " gates over " + std::to_string(options.num_inputs) +
                      " inputs, above the generator bound of " +
                      std::to_string(kMaxGates));
  }
}

}  // namespace

Generated generate(const liberty::Library& library, const GenOptions& options) {
  // Gate counts: 9 per rca bit, 25 per cla bit (exact for whole 4-bit
  // blocks, an upper bound otherwise) and about 11 w^2 for mul.
  const std::int64_t width = options.width;
  switch (options.family) {
    case Family::kRippleCarryAdder:
      check_bound(options, 9 * width);
      return detail::generate_rca(library, options);
    case Family::kCarryLookaheadAdder:
      check_bound(options, 25 * width);
      return detail::generate_cla(library, options);
    case Family::kArrayMultiplier:
      check_bound(options, 11 * width * width);
      return detail::generate_multiplier(library, options);
    case Family::kRandomDag:
      check_bound(options, options.target_gates);
      return detail::generate_random_dag(library, options);
  }
  throw util::Error("unreachable generator family");
}

std::vector<std::vector<bool>> sample_vectors(std::size_t num_inputs,
                                              int count, std::uint64_t seed) {
  CNFET_REQUIRE(count >= 0);
  std::vector<std::vector<bool>> vectors;
  vectors.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    // One derived stream per vector: vector i never depends on count or
    // on how many vectors were drawn before it.
    util::Xoshiro256 rng(
        util::derive_stream(seed, static_cast<std::uint64_t>(i)));
    std::vector<bool> row(num_inputs, false);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < num_inputs; ++j) {
      if (j % 64 == 0) word = rng();
      row[j] = (word >> (j % 64)) & 1u;
    }
    vectors.push_back(std::move(row));
  }
  return vectors;
}

namespace {

/// Recursive driver expansion with a created-node budget. `net_expr` is
/// rebuilt per visit on purpose: Expr has no sharing, so a memo would not
/// reduce the node count, only the traversal — and the budget is there to
/// stop exactly the cases where the count explodes.
logic::Expr expr_of_net(const flow::GateNetlist& netlist, int net,
                        const std::vector<int>& input_index, int max_nodes,
                        int* used) {
  if (*used > max_nodes) {
    throw util::Error(
        "to_expressions: expression size exceeded " +
        std::to_string(max_nodes) +
        " nodes (reconvergent netlist — use Flow::from_netlist instead)");
  }
  const int pi = input_index[static_cast<std::size_t>(net)];
  if (pi >= 0) {
    ++*used;
    return logic::Expr::var(pi);
  }
  const flow::Gate* driver = netlist.driver(net);
  if (driver == nullptr) {
    throw util::Error("to_expressions: net '" + netlist.net_name(net) +
                      "' is neither a primary input nor driven");
  }
  const auto base = liberty::Library::base_name(driver->cell->name);
  auto child = [&](std::size_t pin) {
    return expr_of_net(netlist, driver->inputs[pin], input_index, max_nodes,
                       used);
  };
  if (base == "INV") {
    ++*used;
    return logic::Expr::make_not(child(0));
  }
  if (base == "NAND2") {
    *used += 2;
    std::vector<logic::Expr> terms;
    terms.push_back(child(0));
    terms.push_back(child(1));
    return logic::Expr::make_not(logic::Expr::make_and(std::move(terms)));
  }
  if (base == "NOR2") {
    *used += 2;
    std::vector<logic::Expr> terms;
    terms.push_back(child(0));
    terms.push_back(child(1));
    return logic::Expr::make_not(logic::Expr::make_or(std::move(terms)));
  }
  throw util::Error("to_expressions: unsupported cell '" +
                    driver->cell->name + "' (INV/NAND2/NOR2 only)");
}

}  // namespace

std::vector<flow::OutputSpec> to_expressions(const flow::GateNetlist& netlist,
                                             int max_nodes) {
  std::vector<int> input_index(static_cast<std::size_t>(netlist.num_nets()),
                               -1);
  for (std::size_t i = 0; i < netlist.inputs().size(); ++i) {
    input_index[static_cast<std::size_t>(netlist.inputs()[i])] =
        static_cast<int>(i);
  }
  int used = 0;
  std::vector<flow::OutputSpec> specs;
  specs.reserve(netlist.outputs().size());
  for (const int po : netlist.outputs()) {
    flow::OutputSpec spec;
    spec.name = netlist.net_name(po);
    spec.expr = expr_of_net(netlist, po, input_index, max_nodes, &used);
    spec.inverted = false;
    specs.push_back(std::move(spec));
  }
  return specs;
}

namespace detail {

Builder::Builder(const liberty::Library& library, double drive)
    : inv_(&library.find("INV" + flow::drive_suffix(drive))),
      nand_(&library.find("NAND2" + flow::drive_suffix(drive))),
      nor_(&library.find("NOR2" + flow::drive_suffix(drive))) {}

int Builder::input(const std::string& name) {
  const int net = netlist_.add_net(name);
  netlist_.mark_input(net);
  return net;
}

int Builder::emit(const liberty::LibCell* cell, std::vector<int> ins) {
  const std::string id = "t" + std::to_string(serial_++);
  const int out = netlist_.add_net(id);
  netlist_.add_gate(flow::Gate{cell, std::move(ins), out, id});
  return out;
}

int Builder::inv(int a) { return emit(inv_, {a}); }
int Builder::nand2(int a, int b) { return emit(nand_, {a, b}); }
int Builder::nor2(int a, int b) { return emit(nor_, {a, b}); }

int Builder::xor2(int a, int b) {
  const int t = nand2(a, b);
  return nand2(nand2(a, t), nand2(b, t));
}

std::pair<int, int> Builder::full_add(int a, int b, int cin) {
  // Same 9-NAND topology as flow::build_full_adder.
  const int n1 = nand2(a, b);
  const int n2 = nand2(a, n1);
  const int n3 = nand2(b, n1);
  const int axb = nand2(n2, n3);
  const int n5 = nand2(axb, cin);
  const int n6 = nand2(axb, n5);
  const int n7 = nand2(cin, n5);
  const int sum = nand2(n6, n7);
  const int carry = nand2(n1, n5);
  return {sum, carry};
}

std::pair<int, int> Builder::half_add(int a, int b) {
  return {xor2(a, b), and2(a, b)};
}

std::vector<bool> add_bits(const std::vector<bool>& a,
                           const std::vector<bool>& b, bool carry_in) {
  CNFET_REQUIRE(a.size() == b.size());
  std::vector<bool> out(a.size() + 1, false);
  bool carry = carry_in;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int s = (a[i] ? 1 : 0) + (b[i] ? 1 : 0) + (carry ? 1 : 0);
    out[i] = s & 1;
    carry = s >= 2;
  }
  out[a.size()] = carry;
  return out;
}

std::vector<bool> multiply_bits(const std::vector<bool>& a,
                                const std::vector<bool>& b) {
  std::vector<bool> out(a.size() + b.size(), false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i]) continue;
    bool carry = false;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const int s = (out[i + j] ? 1 : 0) + (b[j] ? 1 : 0) + (carry ? 1 : 0);
      out[i + j] = s & 1;
      carry = s >= 2;
    }
    for (std::size_t k = i + b.size(); carry && k < out.size(); ++k) {
      const int s = (out[k] ? 1 : 0) + 1;
      out[k] = s & 1;
      carry = s >= 2;
    }
  }
  return out;
}

}  // namespace detail

}  // namespace cnfet::gen
