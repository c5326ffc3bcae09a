// Bit-parallel switch-level conduction: the one evaluator behind
// CellNetlist::evaluate, has_supply_short and check_function, and behind
// every Monte Carlo trial.
//
// Lane r of a RowSet stands for input row r. logic::TruthTable caps at 6
// inputs, so one uint64 holds every row of a cell's truth table, and a
// FET of polarity P on input i conducts in a fixed row set (the rows with
// bit i low). Reachability from VDD and from GND is then a least fixpoint
// over RowSets: a net is reached in row r when a neighbour across an edge
// that is on in row r is. Relaxing every edge until nothing grows floods
// all rows at once, with no per-row queue.
//
// The base netlist's fixpoint is computed once, at construction. Extra
// edges (a trial's stray devices) are relaxed starting from it, which
// is exact: adding edges only adds conduction, so the base fixpoint lies
// below the augmented one, and the least fixpoint reached from any point
// below it is the augmented fixpoint itself. Only the nets the extra
// edges touch, and whatever they newly reach, are visited.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "logic/truth_table.hpp"
#include "netlist/cell_netlist.hpp"
#include "util/error.hpp"

namespace cnfet::netlist {

/// A set of input rows: bit (lane) r stands for one input vector.
using RowSet = std::uint64_t;

/// An undirected conduction edge between two nets, on in the rows of `on`.
struct ConductionEdge {
  NetId a = 0;
  NetId b = 0;
  RowSet on = 0;
};

/// Per net, the rows in which it is reached from VDD and from GND, plus
/// the relaxation worklist. Reusable: keep one per worker and the hot
/// path allocates nothing once the vectors are warm.
struct Reach {
  std::vector<RowSet> vdd;
  std::vector<RowSet> gnd;
  std::vector<NetId> work;
};

class Conduction {
 public:
  /// Every truth-table row at once: lane r is input row r (requires
  /// cell.num_inputs() <= logic::TruthTable::kMaxInputs).
  explicit Conduction(const CellNetlist& cell);
  /// One input row, in lane 0 (any input count a CellNetlist allows).
  Conduction(const CellNetlist& cell, std::uint64_t input_row);

  [[nodiscard]] RowSet lanes() const { return lanes_; }

  /// Rows in which a FET of `type` gated by `gate_input` conducts.
  [[nodiscard]] RowSet on_rows(FetType type, int gate_input) const {
    CNFET_REQUIRE(gate_input >= 0 && gate_input < num_inputs_);
    const RowSet high = high_[static_cast<std::size_t>(gate_input)];
    return type == FetType::kN ? high : lanes_ & ~high;
  }

  /// The fixpoint of the base netlist alone.
  [[nodiscard]] const Reach& base() const { return base_; }

  /// Level of `net` in lane 0 of the base netlist: the row of the
  /// one-row constructor, or row 0 of the every-row one.
  [[nodiscard]] Level level(NetId net) const;

  /// Exhaustive check of OUT against `expected` over the base netlist
  /// plus `extra` (edges between existing nets): every row must see a
  /// clean High/Low matching the table and no supply short. The report
  /// names the first failing row, as a row-by-row scan would. `reach`
  /// receives the fixpoint with `extra`, relaxed from the base one.
  /// Requires the every-row constructor.
  [[nodiscard]] FunctionalReport check(const logic::TruthTable& expected,
                                       std::span<const ConductionEdge> extra,
                                       Reach& reach) const;

 private:
  struct HalfEdge {
    NetId to = 0;
    RowSet on = 0;
  };

  /// Builds the CSR and the base fixpoint once lanes_ and high_ are set.
  void build(const CellNetlist& cell);
  void propagate(std::span<const ConductionEdge> extra, Reach& reach) const;

  int num_inputs_ = 0;
  int num_nets_ = 0;
  bool all_rows_ = false;
  RowSet lanes_ = 0;
  /// Rows in which input i is high.
  std::array<RowSet, CellNetlist::kMaxInputs> high_{};
  /// CSR over the base netlist's edges: net n's half-edges are
  /// half_edges_[offsets_[n] .. offsets_[n + 1]).
  std::vector<int> offsets_;
  std::vector<HalfEdge> half_edges_;
  Reach base_;
};

}  // namespace cnfet::netlist
