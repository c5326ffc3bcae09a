// Cell characterization and the liberty-style timing library.
//
// Each library cell is characterized the way commercial flows do it: the
// actual transistor netlist is instantiated in the transient simulator and
// swept over an input-slew x output-load grid, producing NLDM tables
// (delay, output slew, switching energy) per timing arc. Device binding
// follows the paper: CMOS FET widths in lambda map to drawn microns;
// CNFET widths map to a tube count at the optimal ~5nm pitch found in
// case study 1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/models.hpp"
#include "layout/cells.hpp"
#include "netlist/cell_netlist.hpp"
#include "sim/transient.hpp"

namespace cnfet::liberty {

/// 2-D lookup table indexed by input slew (s) and output load (F).
class NldmTable {
 public:
  /// A key's place on one grid axis: the lower grid neighbour and the
  /// interpolation fraction towards the next one. A bracket depends only
  /// on the axis values, so one bracket serves every table on that grid.
  struct Bracket {
    std::size_t index = 0;
    double frac = 0.0;
  };

  NldmTable() = default;
  NldmTable(std::vector<double> slews, std::vector<double> loads);

  void set(std::size_t si, std::size_t li, double value);
  [[nodiscard]] double at(std::size_t si, std::size_t li) const;

  /// Brackets a key on this table's slew / load axis. Keys outside the
  /// grid clamp to its edge (flat extrapolation), a 1-point axis always
  /// brackets to {0, 0}, and a NaN key takes the upper edge.
  [[nodiscard]] Bracket slew_bracket(double slew) const;
  [[nodiscard]] Bracket load_bracket(double load) const;

  /// Bilinear interpolation between the four grid neighbours of a
  /// (slew, load) bracket pair taken on this table's grid (or on any
  /// table with the identical grid). Inline: the timing graph calls it
  /// several times per gate evaluation.
  [[nodiscard]] double lookup(Bracket slew, Bracket load) const {
    const std::size_t n_loads = loads_.size();
    if (slews_.size() == 1 && n_loads == 1) return values_[0];
    const std::size_t si = slew.index;
    const std::size_t li = load.index;
    const double sf = slew.frac;
    const double lf = load.frac;
    const std::size_t si1 = std::min(si + 1, slews_.size() - 1);
    const std::size_t li1 = std::min(li + 1, n_loads - 1);
    const double v00 = values_[si * n_loads + li];
    const double v01 = values_[si * n_loads + li1];
    const double v10 = values_[si1 * n_loads + li];
    const double v11 = values_[si1 * n_loads + li1];
    return v00 * (1 - sf) * (1 - lf) + v01 * (1 - sf) * lf +
           v10 * sf * (1 - lf) + v11 * sf * lf;
  }
  /// Bilinear interpolation with flat extrapolation at the grid edges.
  [[nodiscard]] double lookup(double slew, double load) const {
    return lookup(slew_bracket(slew), load_bracket(load));
  }

  [[nodiscard]] const std::vector<double>& slews() const { return slews_; }
  [[nodiscard]] const std::vector<double>& loads() const { return loads_; }

 private:
  std::vector<double> slews_;
  std::vector<double> loads_;
  std::vector<double> values_;
};

/// One input-to-output timing arc (single-output cells).
struct TimingArc {
  int input = 0;
  bool out_rising = false;  ///< direction of the output transition
  NldmTable delay;          ///< 50%-to-50% propagation delay (s)
  NldmTable out_slew;       ///< 20%-80% output slew (s)
  NldmTable energy;         ///< supply energy for the transition (J)
};

/// A characterized library cell.
///
/// The evaluation kernel relies on two layout facts that characterize_cell
/// produces and api::library_from_json enforces: every table of the cell
/// sits on one shared slew x load grid, and `arcs` is input-major with
/// arcs[2*pin] the falling and arcs[2*pin+1] the rising output arc.
struct LibCell {
  std::string name;
  layout::BuiltCell built;       ///< netlist + layout + function
  double drive = 1.0;
  std::vector<double> input_cap; ///< F per input pin
  double area_lambda2 = 0.0;     ///< scheme-1 core area
  std::vector<TimingArc> arcs;

  /// The arc of `input` with the given output direction, by index.
  [[nodiscard]] const TimingArc& arc(int input, bool out_rising) const {
    const auto k = 2 * static_cast<std::size_t>(input) + (out_rising ? 1 : 0);
    if (input < 0 || k >= arcs.size()) throw_no_arc(input);
    return arcs[k];
  }
  /// Brackets on the cell's shared grid, reusable across all its tables
  /// (every cell has at least one input, so at least two arcs).
  [[nodiscard]] NldmTable::Bracket slew_bracket(double slew) const {
    return arcs.front().delay.slew_bracket(slew);
  }
  [[nodiscard]] NldmTable::Bracket load_bracket(double load) const {
    return arcs.front().delay.load_bracket(load);
  }
  /// Worst arc delay at a given slew/load (max over inputs & directions).
  [[nodiscard]] double worst_delay(double slew, double load) const;

 private:
  [[noreturn]] void throw_no_arc(int input) const;
};

/// Options for characterization.
struct CharacterizeOptions {
  device::Tech65 tech;
  layout::Tech layout_tech = layout::Tech::kCnfet65;
  layout::LayoutStyle style = layout::LayoutStyle::kCompactEuler;
  layout::CellScheme scheme = layout::CellScheme::kScheme1;
  /// CNFET binding: tubes per lambda of drawn width at the optimal pitch
  /// (4 lambda = 130nm at 5nm pitch = 26 tubes -> 6.5 tubes/lambda).
  double tubes_per_lambda = 6.5;
  /// Electrical width of a CNFET relative to the drawn lambda width of the
  /// logically equivalent CMOS device. The calibrated per-tube drive means
  /// a CNFET delivers a CMOS-equivalent drive strength at roughly half the
  /// width — this is where the library's energy advantage comes from
  /// (case study 2's ~1.5x energy/cycle gain).
  double cnfet_width_scale = 0.5;
  std::vector<double> slew_grid = {5e-12, 20e-12, 60e-12};
  std::vector<double> load_grid = {0.5e-15, 2e-15, 6e-15, 14e-15};
  /// Engine settings for every characterization transient. Defaults to the
  /// fast engine (adaptive + analytic Jacobian); setting `adaptive` and
  /// `analytic_jacobian` false reproduces the seed reference engine the
  /// fast one is validated against.
  sim::TransientOptions transient = [] {
    sim::TransientOptions t;
    t.tstep = 0.25e-12;
    t.tstop = 400e-12;
    return t;
  }();
  /// Workers for the slew x load x arc measurement grid (0 = one per
  /// hardware thread, 1 = serial). Grid points are independent transients
  /// and results are written by index, so the tables are bit-identical
  /// for any thread count.
  int num_threads = 0;
};

/// One measured grid point of a timing arc.
struct ArcMeasurement {
  double delay = 0.0;     ///< s, 50%-to-50%
  double out_slew = 0.0;  ///< s, 20%-80%
  double energy = 0.0;    ///< J drawn from the supply over the transient
};

/// Reusable per-worker measurement state for measure_arc: the cell's
/// simulator circuit is built ONCE by bind(), and each grid point then
/// only reshapes the input source waves and the output load cap before
/// running a scratch-backed transient — so a warm characterization arc
/// performs zero heap allocations. One scratch per worker thread
/// (util::worker_scratch), never shared concurrently; results are
/// bit-identical to the unbound measure_arc path because the circuit is
/// built element-for-element the same way.
class ArcScratch {
 public:
  ArcScratch() = default;
  ArcScratch(const ArcScratch&) = delete;
  ArcScratch& operator=(const ArcScratch&) = delete;

  /// (Re)builds the measurement circuit for `cell`, reusing every buffer
  /// capacity-preservingly. The cell and options must outlive the bound
  /// scratch's use. A nonzero `epoch` short-circuits rebinding when it
  /// matches the previous bind — characterize_cell stamps each call with
  /// a fresh epoch so a worker's thread-local scratch rebinds once per
  /// (worker, cell) rather than once per task; epoch 0 always rebuilds.
  void bind(const netlist::CellNetlist& cell,
            const CharacterizeOptions& options, std::uint64_t epoch = 0);

  /// True when bound to exactly this cell object (the measure_arc
  /// precondition for the scratch-backed path).
  [[nodiscard]] bool bound_to(const netlist::CellNetlist& cell) const {
    return cell_ == &cell;
  }

  /// The simulator scratch, exposed for the workspace-stability tests.
  [[nodiscard]] sim::SimScratch& sim() { return sim_; }

 private:
  friend ArcMeasurement measure_arc(const netlist::CellNetlist& cell,
                                    int input, std::uint64_t side_values,
                                    bool in_rising, double slew, double load,
                                    const CharacterizeOptions& options,
                                    ArcScratch* scratch);

  sim::Circuit circuit_;
  sim::SimScratch sim_;
  sim::TransientOptions topt_;
  std::vector<int> node_of_;       ///< cell net -> circuit node
  std::vector<int> input_node_;    ///< circuit node per cell input
  std::vector<int> input_source_;  ///< source index per cell input
  int supply_ = -1;                ///< supply source index
  int load_cap_ = -1;              ///< output load capacitor index
  double vdd_ = 0.0;
  const netlist::CellNetlist* cell_ = nullptr;
  std::uint64_t epoch_ = 0;
};

/// The layout-construction options characterize_cell uses for a cell at
/// `drive`. Exposed so a persisted library (api::serialize) can rebuild
/// each cell's geometry exactly as characterization built it — the NLDM
/// tables come from disk, the layout is deterministic and cheap.
[[nodiscard]] layout::CellBuildOptions cell_build_options(
    double drive, const CharacterizeOptions& options);

/// Simulates one (cell, input, direction, slew, load) grid point: the
/// transistor netlist is instantiated in the transient simulator with
/// `input` toggling, the other inputs pinned to `side_values`, and the
/// output loaded with `load`. Exposed for the perf bench and the
/// engine-equivalence tests; characterize_cell drives it over the grid.
/// With a `scratch` already bound to `cell`, the call reuses its circuit
/// and simulator buffers (zero steady-state allocations); null scratch
/// builds everything locally, with identical results.
[[nodiscard]] ArcMeasurement measure_arc(const netlist::CellNetlist& cell,
                                         int input, std::uint64_t side_values,
                                         bool in_rising, double slew,
                                         double load,
                                         const CharacterizeOptions& options,
                                         ArcScratch* scratch = nullptr);

/// Characterizes one cell at the given drive strength.
[[nodiscard]] LibCell characterize_cell(const layout::CellSpec& spec,
                                        double drive,
                                        const CharacterizeOptions& options);

/// One available drive strength of a cell family.
struct DriveOption {
  double drive = 1.0;
  const LibCell* cell = nullptr;
};

/// A characterized library. Lookups by name go through a name->index map
/// (mappers call find() per gate, so the linear scan was a hot path), and
/// the drive family of each cell base name is indexed for the sizing pass.
class Library {
 public:
  Library() = default;
  explicit Library(std::vector<LibCell> cells) : cells_(std::move(cells)) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      index_.emplace(cells_[i].name, i);
      family_[base_name(cells_[i].name)].push_back(i);
    }
  }

  [[nodiscard]] const LibCell& find(const std::string& name) const;
  [[nodiscard]] const std::vector<LibCell>& cells() const { return cells_; }
  void add(LibCell cell) {
    index_.emplace(cell.name, cells_.size());
    family_[base_name(cell.name)].push_back(cells_.size());
    cells_.push_back(std::move(cell));
  }

  /// Every characterized drive of a cell base name ("INV", "NAND2"),
  /// ascending by drive; empty when the base is unknown. The sizing pass
  /// walks this instead of probing drive_suffix strings.
  [[nodiscard]] std::vector<DriveOption> drives_of(
      const std::string& cell_base) const;

  /// "NAND2_2X" -> "NAND2" (the name up to the drive suffix).
  [[nodiscard]] static std::string base_name(const std::string& cell_name);

 private:
  std::vector<LibCell> cells_;
  std::unordered_map<std::string, std::size_t> index_;
  std::unordered_map<std::string, std::vector<std::size_t>> family_;
};

/// Builds the kit's working library: INV/NAND2 at several drive strengths
/// (the cells the paper's full adder uses) plus 1x of the full family.
[[nodiscard]] Library build_library(const CharacterizeOptions& options);

/// Liberty-format-style text export (enough structure for inspection and
/// diffing; not a validated Synopsys grammar).
[[nodiscard]] std::string to_liberty_text(const Library& library,
                                          const std::string& lib_name);

/// Builds the simulator device for one FET of a cell under this binding.
[[nodiscard]] device::DeviceModel bind_device(const netlist::Fet& fet,
                                              const CharacterizeOptions& options);

}  // namespace cnfet::liberty
