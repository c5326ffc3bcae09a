#include "netlist/conduction.hpp"

#include <bit>

namespace cnfet::netlist {

namespace {

/// Rows of a 6-input truth table in which input i is high.
constexpr RowSet kInputHigh[logic::TruthTable::kMaxInputs] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

Level level_at(RowSet vdd, RowSet gnd, std::uint64_t row) {
  const bool high = (vdd >> row) & 1;
  const bool low = (gnd >> row) & 1;
  if (high && low) return Level::kFight;
  if (high) return Level::kHigh;
  if (low) return Level::kLow;
  return Level::kFloat;
}

}  // namespace

Conduction::Conduction(const CellNetlist& cell)
    : num_inputs_(cell.num_inputs()), all_rows_(true) {
  CNFET_REQUIRE(logic::TruthTable::valid_arity(num_inputs_));
  lanes_ = logic::TruthTable::constant(true, num_inputs_).bits();
  for (int i = 0; i < num_inputs_; ++i) {
    high_[static_cast<std::size_t>(i)] = kInputHigh[i] & lanes_;
  }
  build(cell);
}

Conduction::Conduction(const CellNetlist& cell, std::uint64_t input_row)
    : num_inputs_(cell.num_inputs()), lanes_(1) {
  CNFET_REQUIRE(num_inputs_ == 0 || input_row < (1ull << num_inputs_));
  for (int i = 0; i < num_inputs_; ++i) {
    high_[static_cast<std::size_t>(i)] = (input_row >> i) & 1;
  }
  build(cell);
}

void Conduction::build(const CellNetlist& cell) {
  num_nets_ = cell.num_nets();
  const auto net_count = static_cast<std::size_t>(num_nets_);
  // One half-edge per endpoint of every FET channel and hard short; a FET
  // that is off in every lane can never conduct, so it is left out.
  std::vector<ConductionEdge> edges;
  edges.reserve(cell.fets().size() + cell.shorts().size());
  for (const auto& f : cell.fets()) {
    const RowSet on = on_rows(f.type, f.gate_input);
    if (on != 0) edges.push_back({f.a, f.b, on});
  }
  for (const auto& s : cell.shorts()) edges.push_back({s.a, s.b, lanes_});

  offsets_.assign(net_count + 1, 0);
  for (const auto& e : edges) {
    ++offsets_[static_cast<std::size_t>(e.a) + 1];
    ++offsets_[static_cast<std::size_t>(e.b) + 1];
  }
  for (std::size_t n = 0; n < net_count; ++n) offsets_[n + 1] += offsets_[n];
  half_edges_.resize(static_cast<std::size_t>(offsets_[net_count]));
  std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& e : edges) {
    half_edges_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.a)]++)] = {e.b, e.on};
    half_edges_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.b)]++)] = {e.a, e.on};
  }

  base_.vdd.assign(net_count, 0);
  base_.gnd.assign(net_count, 0);
  base_.vdd[CellNetlist::kVdd] = lanes_;
  base_.gnd[CellNetlist::kGnd] = lanes_;
  base_.work = {CellNetlist::kVdd, CellNetlist::kGnd};
  propagate({}, base_);
}

void Conduction::propagate(std::span<const ConductionEdge> extra,
                           Reach& reach) const {
  RowSet* const vdd = reach.vdd.data();
  RowSet* const gnd = reach.gnd.data();
  std::vector<NetId>& work = reach.work;
  // Makes both ends agree across one edge; an end that grows is queued,
  // since its other edges may now carry more. Every edge is satisfied
  // unless one of its ends is queued, so an empty queue is the fixpoint.
  const auto join = [&](NetId a, NetId b, RowSet on) {
    const RowSet v = (vdd[a] | vdd[b]) & on;
    const RowSet g = (gnd[a] | gnd[b]) & on;
    if (((v & ~vdd[a]) | (g & ~gnd[a])) != 0) {
      vdd[a] |= v;
      gnd[a] |= g;
      work.push_back(a);
    }
    if (((v & ~vdd[b]) | (g & ~gnd[b])) != 0) {
      vdd[b] |= v;
      gnd[b] |= g;
      work.push_back(b);
    }
  };
  for (const auto& e : extra) join(e.a, e.b, e.on);
  while (!work.empty()) {
    const NetId n = work.back();
    work.pop_back();
    const int end = offsets_[static_cast<std::size_t>(n) + 1];
    for (int i = offsets_[static_cast<std::size_t>(n)]; i < end; ++i) {
      const HalfEdge& h = half_edges_[static_cast<std::size_t>(i)];
      join(n, h.to, h.on);
    }
    // A trial adds a handful of edges, so a scan beats an adjacency list.
    for (const auto& e : extra) {
      if (e.a == n || e.b == n) join(e.a, e.b, e.on);
    }
  }
}

FunctionalReport Conduction::check(const logic::TruthTable& expected,
                                   std::span<const ConductionEdge> extra,
                                   Reach& reach) const {
  CNFET_REQUIRE(all_rows_ && expected.num_inputs() == num_inputs_);
  const Reach* fixpoint = &base_;
  if (!extra.empty()) {
    for (const auto& e : extra) {
      CNFET_REQUIRE(e.a >= 0 && e.a < num_nets_ && e.b >= 0 &&
                    e.b < num_nets_);
    }
    reach.vdd.assign(base_.vdd.begin(), base_.vdd.end());
    reach.gnd.assign(base_.gnd.begin(), base_.gnd.end());
    reach.work.clear();
    propagate(extra, reach);
    fixpoint = &reach;
  }
  const RowSet out_vdd = fixpoint->vdd[CellNetlist::kOut];
  const RowSet out_gnd = fixpoint->gnd[CellNetlist::kOut];
  const RowSet shorted = fixpoint->gnd[CellNetlist::kVdd];
  const RowSet want_high = expected.bits();
  const RowSet high = out_vdd & ~out_gnd;
  const RowSet low = out_gnd & ~out_vdd;
  const RowSet good = ~shorted & ((want_high & high) | (~want_high & low));
  const RowSet bad = lanes_ & ~good;

  FunctionalReport report;
  if (bad == 0) return report;
  const auto row = static_cast<std::uint64_t>(std::countr_zero(bad));
  report.ok = false;
  report.failing_row = row;
  report.observed = level_at(out_vdd, out_gnd, row);
  report.expected_high = (want_high >> row) & 1;
  report.supply_short = (shorted >> row) & 1;
  return report;
}

Level Conduction::level(NetId net) const {
  CNFET_REQUIRE(net >= 0 && net < num_nets_);
  return level_at(base_.vdd[static_cast<std::size_t>(net)],
                  base_.gnd[static_cast<std::size_t>(net)], 0);
}

}  // namespace cnfet::netlist
