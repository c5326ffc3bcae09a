// The public compiler pipeline of the kit: Boolean logic in, immune CNFET
// GDSII out, as ONE typed object instead of hand-wired free functions.
//
// A Flow advances through the stages
//
//     Created -> Mapped -> Timed -> Optimized -> Placed -> SignedOff
//             -> Exported
//
// (Optimized runs the opt:: sizing/buffering/cleanup passes when
// FlowOptions::optimize is set, and passes through untouched otherwise.)
// where each advance produces a typed artifact (MappedArtifact,
// TimedArtifact, ...) and appends structured Diagnostics (severity, stage,
// message). Every fallible public call returns util::Result<T>; exceptions
// thrown by the internal engines (mapper, STA, placer, DRC, immunity
// prover, GDS writer) are caught at this boundary and converted into
// error diagnostics, so a batch driver can run thousands of jobs without
// unwinding. Characterized libraries are shared through api::LibraryCache.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/library_cache.hpp"
#include "drc/drc.hpp"
#include "flow/gate_netlist.hpp"
#include "flow/mapper.hpp"
#include "flow/placer.hpp"
#include "gds/gds.hpp"
#include "gen/gen.hpp"
#include "opt/opt.hpp"
#include "route/extract.hpp"
#include "sta/sta.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace cnfet::api {

/// Pipeline position. A Flow only moves forward, one stage per advance.
enum class Stage {
  kCreated,
  kMapped,
  kTimed,
  kOptimized,
  kPlaced,
  kSignedOff,
  kExported,
};

[[nodiscard]] const char* to_string(Stage stage);

/// Inverse of to_string(Stage), as the CLI and jobs.json need it. Unknown
/// names come back as a Diagnostic, never a throw.
[[nodiscard]] util::Result<Stage> stage_from_string(const std::string& name);

/// Stages are totally ordered; compare positions with this.
[[nodiscard]] constexpr int index_of_stage(Stage stage) {
  return static_cast<int>(stage);
}

/// Options for a whole flow run. Stage-specific knobs reuse the engines'
/// own option structs so nothing is expressible only in the legacy API.
struct FlowOptions {
  layout::Tech tech = layout::Tech::kCnfet65;
  /// Drive strength of the mapped gates (library suffix, e.g. 1 -> "_1X").
  double drive = 1.0;
  /// Optional stronger drive for gates driving primary outputs (0 = same).
  double output_drive = 0.0;
  /// Exhaustively verify the mapping against the specification (<= 16
  /// inputs; wider designs downgrade to a warning diagnostic).
  bool verify = true;
  /// Covering objective for map(): gate count (the paper-reproduction
  /// default) or NLDM-estimated delay (flow::MapCost::kDelay).
  flow::MapCost map_cost = flow::MapCost::kGateCount;
  /// Run the opt:: passes (cleanup, critical-path sizing, buffer
  /// insertion) in the Optimized stage. Off by default — the
  /// paper-reproduction benches time the drawn netlist exactly as built,
  /// and the stage passes through untouched.
  bool optimize = false;
  /// Optimization stops once the worst arrival meets this (s); 0 = keep
  /// improving while the area budget allows.
  double target_delay = 0.0;
  /// Area-growth bound for the opt:: passes, as a fraction of the mapped
  /// netlist's cell area.
  double max_area_growth = 0.25;
  sta::StaOptions sta;
  flow::PlaceOptions place;
  drc::DrcOptions drc;
  /// Wire-aware signoff: route the placed design on the metal2/metal3
  /// grid, extract Elmore parasitics, re-time with wire loads and run the
  /// wire DRC deck (all in the SignedOff stage), then export the routed
  /// metal into the GDS. Off by default — the ideal-net flow stays the
  /// A/B reference.
  bool route = false;
  route::RouteOptions route_opts;
  /// GDS top structure name.
  std::string top_name = "TOP";
  /// Pre-characterized library; null = fetch from LibraryCache::global().
  LibraryHandle library;
};

/// Stage artifact: technology mapping (or an adopted netlist).
struct MappedArtifact {
  flow::MapResult map;
  int num_inputs = 0;
  /// True when the exhaustive equivalence check ran and passed. Adopted
  /// netlists (Flow::from_netlist) have no specification to check against.
  bool verified = false;
};

/// Stage artifact: static timing and the energy/cycle rollup.
struct TimedArtifact {
  sta::StaResult timing;
  [[nodiscard]] double edp_js() const {
    return timing.worst_arrival * timing.energy_per_cycle;
  }
};

/// Stage artifact: what the opt:: passes did. With FlowOptions::optimize
/// false the stage passes through: `enabled` is false, `timing` repeats
/// the Timed artifact, and the netlist is untouched.
struct OptimizedArtifact {
  bool enabled = false;
  opt::PassStats stats;
  sta::StaResult timing;  ///< post-optimization timing
  [[nodiscard]] double edp_js() const {
    return timing.worst_arrival * timing.energy_per_cycle;
  }
};

/// Stage artifact: placement under the chosen scheme.
struct PlacedArtifact {
  flow::PlacementResult placement;
};

/// Per-library-cell signoff record (distinct cells used by the design).
struct CellSignOff {
  std::string cell;
  int drc_violations = 0;
  bool immune = false;
  /// False when the immunity proof is not applicable (CMOS baseline).
  bool immunity_checked = false;
};

/// Stage artifact: DRC + CNT-immunity signoff over the cells the design
/// instantiates. Dirty cells surface as warning diagnostics, not errors —
/// the numbers are the product.
struct SignOffArtifact {
  std::vector<CellSignOff> cells;
  int total_drc_violations = 0;
  bool all_immune = true;

  [[nodiscard]] bool clean() const {
    return total_drc_violations == 0 && all_immune;
  }
};

/// Stage artifact: wire-aware signoff (only with FlowOptions::route).
/// Produced in the SignedOff stage alongside the cell checks: the routed
/// wires, their extracted RC, the wire-loaded re-time and the wire DRC
/// deck. The wire model only *adds* to the ideal one (wire cap on top of
/// the per-fanout proxy, Elmore delay on top of the cell arcs), so
/// routed_timing is never more optimistic than the ideal reference.
struct RoutedArtifact {
  route::RoutingResult routing;
  route::Extraction extraction;
  sta::StaResult routed_timing;        ///< STA with the extracted wire loads
  double ideal_worst_arrival_s = 0.0;  ///< the ideal-net A/B reference
  int wire_drc_violations = 0;
};

/// Stage artifact: the GDSII library (cell structures + top with SREFs).
struct ExportedArtifact {
  gds::Library gds;
  std::string top_name;
};

/// Flat metric rollup of whatever stages have completed — the Table-1 /
/// Figure-8 numbers as data. Fields for stages not yet reached hold their
/// zero defaults.
struct FlowMetrics {
  std::string name;
  layout::Tech tech = layout::Tech::kCnfet65;
  Stage stage = Stage::kCreated;
  // Mapped
  int gates = 0, nand2 = 0, nor2 = 0, inv = 0;
  bool verified = false;
  // Timed (post-optimization values once that stage has run enabled)
  double worst_arrival_s = 0.0;
  double energy_per_cycle_j = 0.0;
  double edp_js = 0.0;
  // Optimized
  bool optimized = false;
  double pre_opt_worst_arrival_s = 0.0;
  int gates_resized = 0;
  int buffers_inserted = 0;
  int gates_removed = 0;
  double opt_area_growth = 0.0;
  // Placed
  double placed_area_lambda2 = 0.0;
  double utilization = 0.0;
  double hpwl_lambda = 0.0;
  // SignedOff
  int cells_signed_off = 0;
  int drc_violations = 0;
  bool all_immune = false;
  // Routed (FlowOptions::route; zero defaults otherwise)
  bool routed = false;
  double total_wirelength = 0.0;       ///< lambda of routed centerline
  double wire_cap_ff = 0.0;            ///< total extracted wire cap
  double wire_delay_ps = 0.0;          ///< routed minus ideal worst arrival
  double routed_worst_arrival_s = 0.0;
  int wire_drc_violations = 0;
  // Exported
  std::size_t gds_structures = 0;
};

/// The stage-typed logic-to-GDSII pipeline. Construct with one of the
/// factories, then either step (`map()`, `time()`, ...) or `run()` to a
/// target stage; read artifacts through the const accessors.
class Flow {
 public:
  /// Compiles named Boolean outputs over shared primary inputs.
  [[nodiscard]] static util::Result<Flow> from_expressions(
      std::vector<flow::OutputSpec> outputs,
      std::vector<std::string> input_names, FlowOptions options = {});

  /// Compiles one standard-family cell's function (OUT = NOT pdn(x)) —
  /// "give me an immune NAND3" as a single call.
  [[nodiscard]] static util::Result<Flow> from_cell(const std::string& name,
                                                    FlowOptions options = {});

  /// Adopts an already-built gate netlist (e.g. flow::build_full_adder) at
  /// stage Mapped. The netlist must reference cells of `options.library`
  /// (or of the cached library for `options.tech` when null).
  [[nodiscard]] static util::Result<Flow> from_netlist(
      flow::GateNetlist netlist, FlowOptions options = {});

  /// Generates a gen:: benchmark design over the resolved library and
  /// adopts it at stage Mapped (from_netlist). A generator failure comes
  /// back as the Result's Diagnostic. As in from_cell, the default
  /// top_name "TOP" is replaced by the design's name (e.g. "rca16").
  [[nodiscard]] static util::Result<Flow> from_gen(
      const gen::GenOptions& gen_options, FlowOptions options = {});

  Flow(Flow&&) = default;
  Flow& operator=(Flow&&) = default;
  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Stage stage() const { return stage_; }
  [[nodiscard]] const FlowOptions& options() const { return options_; }
  [[nodiscard]] const util::Diagnostics& diagnostics() const { return diags_; }
  [[nodiscard]] const liberty::Library& library() const { return *library_; }
  [[nodiscard]] LibraryHandle library_handle() const { return library_; }

  /// Stage advances. Each requires exactly the preceding stage, returns the
  /// reached stage, and never throws: failures come back as the Result's
  /// Diagnostic (also recorded in diagnostics()) with the stage unchanged.
  util::Result<Stage> map();
  util::Result<Stage> time();
  util::Result<Stage> optimize();
  util::Result<Stage> place();
  util::Result<Stage> sign_off();
  util::Result<Stage> export_design();

  /// Advances until `target` (default: all the way to Exported), stopping
  /// at the first failing stage.
  util::Result<Stage> run(Stage target = Stage::kExported);

  /// Artifact accessors: null until the corresponding stage completes.
  [[nodiscard]] const MappedArtifact* mapped() const {
    return mapped_ ? &*mapped_ : nullptr;
  }
  [[nodiscard]] const TimedArtifact* timed() const {
    return timed_ ? &*timed_ : nullptr;
  }
  [[nodiscard]] const OptimizedArtifact* optimized() const {
    return optimized_ ? &*optimized_ : nullptr;
  }
  [[nodiscard]] const PlacedArtifact* placed() const {
    return placed_ ? &*placed_ : nullptr;
  }
  [[nodiscard]] const SignOffArtifact* signed_off() const {
    return signoff_ ? &*signoff_ : nullptr;
  }
  [[nodiscard]] const RoutedArtifact* routed() const {
    return routed_ ? &*routed_ : nullptr;
  }
  [[nodiscard]] const ExportedArtifact* exported() const {
    return exported_ ? &*exported_ : nullptr;
  }

  /// The design netlist (valid from stage Mapped onward).
  [[nodiscard]] util::Result<const flow::GateNetlist*> netlist() const;

  /// Flips the routing knob on a flow that has not signed off yet (the
  /// compile server's resume-with-route request); no effect afterwards.
  void set_route(bool on) { options_.route = on; }

  /// Writes the exported GDS stream to `path`; returns the path.
  [[nodiscard]] util::Result<std::string> write_gds(
      const std::string& path) const;

  /// Snapshot of every completed stage's headline numbers.
  [[nodiscard]] FlowMetrics metrics() const;

  /// Checkpoints the session's decisions (stage, options, specification,
  /// diagnostics, netlist, placement, routing ...) but no sign-off result
  /// as a versioned compact JSON file `flow.json` under `dir` (created if
  /// needed). A session saved at any stage and reconstructed with resume()
  /// continues bit-identically: the same GDS bytes, the same FlowMetrics.
  /// Returns the file path.
  /// (Implemented in api/serialize.cpp.)
  [[nodiscard]] util::Result<std::string> save(const std::string& dir) const;

  /// The flow.json payload save() wraps in the artifact envelope, as an
  /// in-memory value — what the cnfetd compile server ships over the wire
  /// so a served session is byte-identical to a locally saved one.
  [[nodiscard]] util::Result<util::json::Value> session_json() const;

  /// Rebuilds a session saved by save(). The characterized library is
  /// re-resolved through LibraryCache::global() for the saved technology
  /// (characterization is deterministic, so the reconstruction is exact)
  /// and validated against the saved library fingerprint — a session
  /// built with a custom FlowOptions::library is refused rather than
  /// silently rebound to different NLDM tables. Sign-off results and the
  /// Exported GDS are re-derived with the stages' own code, once a saved
  /// routing has passed route::verify (a broken one is refused). Broken
  /// routings and schema-version or checksum mismatches come back as
  /// error Diagnostics.
  [[nodiscard]] static util::Result<Flow> resume(const std::string& dir);

  /// resume() minus the file: rebuilds a session from the flow.json
  /// payload itself (the value session_json() produced). `origin` names
  /// the payload's source in error messages ("<request>" on the compile
  /// server, the file path in resume()).
  [[nodiscard]] static util::Result<Flow> resume_json(
      const util::json::Value& payload, const std::string& origin);

 private:
  Flow(std::string name, FlowOptions options, LibraryHandle library);

  /// Runs `body` with the exception->Diagnostic conversion and the
  /// stage-order check shared by every advance.
  template <typename Body>
  util::Result<Stage> advance(Stage required, Stage next,
                              const char* stage_name, Body&& body);

  [[nodiscard]] const layout::DesignRules& design_rules() const;

  /// Sign-off's derivations (cell DRC and immunity; extraction, wired
  /// timing and wire DRC of a routing), shared by sign_off() and resume.
  [[nodiscard]] SignOffArtifact check_cells(util::Diagnostics& diags) const;
  [[nodiscard]] RoutedArtifact derive_routed(route::RoutingResult routing,
                                             util::Diagnostics& diags) const;

  /// The GDS of the placed design — with the routed metal when routed_
  /// is set — shared by export_design() and session resume.
  [[nodiscard]] ExportedArtifact build_exported() const;

  std::string name_;
  FlowOptions options_;
  LibraryHandle library_;
  Stage stage_ = Stage::kCreated;
  util::Diagnostics diags_;

  // Specification (empty for adopted netlists).
  std::vector<flow::OutputSpec> spec_outputs_;
  std::vector<std::string> spec_inputs_;

  std::optional<MappedArtifact> mapped_;
  std::optional<TimedArtifact> timed_;
  std::optional<OptimizedArtifact> optimized_;
  std::optional<PlacedArtifact> placed_;
  std::optional<SignOffArtifact> signoff_;
  std::optional<RoutedArtifact> routed_;
  std::optional<ExportedArtifact> exported_;
};

}  // namespace cnfet::api
