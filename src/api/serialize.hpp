// Versioned JSON artifact I/O: the durable form of every object the
// public pipeline produces or consumes.
//
// Artifact files share one envelope:
//
//     { "schema_version": 2, "kind": "library" | "flow" | "jobs" | "report",
//       "checksum": "<fnv1a64 of the compact payload dump>",
//       "payload": { ... } }
//
// Readers are *forward-refusing*: any schema_version other than the one
// this build writes is an error (a newer writer may mean fields this
// reader silently misinterprets), and a checksum mismatch means the file
// was truncated or edited — both come back as error Diagnostics, never a
// crash. api::LibraryCache turns a refused library file into a fallback
// re-characterization; Flow::resume and the cnfetc CLI surface the error.
//
// The to_json/from_json pairs below are the value-level converters the
// envelope wraps. Both directions of a type run one field list in
// serialize.cpp, `fields(io, x)`, which names each member once in file
// order: a writer io sets the members into a JSON object and a reader io
// decodes them back, so a field cannot be written without being read.
// Only the formats and checks the list cannot express are hand-written:
// the NLDM grid and cell-layout checks, logic::Expr, the flat wire/via
// rows, placement gate indices, the gate netlist, the decimal-string seed
// and the session's stage/artifact invariants.
//
// The converters follow the library's internal throwing contract
// (util::Error on a malformed shape); the file-level save_*/load_*
// functions and Flow::save/resume convert to util::Result at the api::
// boundary. Round-trips are exact: doubles survive bit-for-bit (see
// util/json.hpp), object members keep their order, and a reconstructed
// Flow continues to the identical GDS byte stream.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/batch.hpp"
#include "api/flow.hpp"
#include "cnt/analyzer.hpp"
#include "gen/gen.hpp"
#include "util/json.hpp"

namespace cnfet::api {

/// Schema version stamped into (and required of) every artifact file.
inline constexpr int kSchemaVersion = 2;

/// Inverse of layout::to_string(Tech); accepts any capitalization
/// ("cnfet65", "CNFET65"). The CLI's --tech flag speaks this.
[[nodiscard]] util::Result<layout::Tech> tech_from_string(
    const std::string& name);

// --- value-level converters (throw util::Error on malformed input) --------

/// The characterized library, NLDM tables and all. The geometry of each
/// cell (layout, netlist, truth table) is NOT stored: it is deterministic
/// and cheap, so from_json rebuilds it with layout::build_cell under the
/// stored tech/style/scheme — only the expensive transient-simulation
/// results travel through the file.
[[nodiscard]] util::json::Value to_json(const liberty::Library& library);
[[nodiscard]] liberty::Library library_from_json(const util::json::Value& v);

/// gen::GenOptions — the `cnfetc gen` subcommand and the compile server's
/// "gen" request speak this shape. The seed travels as a decimal string
/// (it is a full uint64; JSON integers are signed).
[[nodiscard]] util::json::Value to_json(const gen::GenOptions& options);
[[nodiscard]] gen::GenOptions gen_options_from_json(
    const util::json::Value& v);

/// Gate netlists; cells are stored by name and resolved against `library`.
[[nodiscard]] util::json::Value to_json(const flow::GateNetlist& netlist);
[[nodiscard]] flow::GateNetlist gate_netlist_from_json(
    const util::json::Value& v, const liberty::Library& library);

/// Placements; instances are stored by gate index into `netlist`.
[[nodiscard]] util::json::Value to_json(const flow::PlacementResult& placement,
                                        const flow::GateNetlist& netlist);
[[nodiscard]] flow::PlacementResult placement_from_json(
    const util::json::Value& v, const flow::GateNetlist& netlist);

/// Routed wires and vias, exact to the database unit; the round-trip
/// reproduces an operator==-equal RoutingResult (and therefore identical
/// routed GDS bytes).
[[nodiscard]] util::json::Value to_json(const route::RoutingResult& routing);
[[nodiscard]] route::RoutingResult routing_result_from_json(
    const util::json::Value& v);

[[nodiscard]] util::json::Value to_json(const FlowOptions& options);
[[nodiscard]] FlowOptions flow_options_from_json(const util::json::Value& v);

[[nodiscard]] util::json::Value to_json(const FlowMetrics& metrics);
[[nodiscard]] FlowMetrics flow_metrics_from_json(const util::json::Value& v);

[[nodiscard]] util::json::Value to_json(const util::Diagnostics& diagnostics);
[[nodiscard]] util::Diagnostics diagnostics_from_json(
    const util::json::Value& v);

[[nodiscard]] util::json::Value to_json(const sta::StaResult& result);
[[nodiscard]] sta::StaResult sta_result_from_json(const util::json::Value& v);

/// cnt::MonteCarloResult — the `cnfetc monte-carlo` command and the compile
/// server's "monte_carlo" request both emit this shape, so a served run can
/// be byte-compared against a local one. Only raw tallies travel (yield is
/// derived); histograms are fixed-width int64 arrays (counts are exact in
/// JSON doubles far beyond any real trial count).
[[nodiscard]] util::json::Value to_json(const cnt::MonteCarloResult& result);
[[nodiscard]] cnt::MonteCarloResult monte_carlo_result_from_json(
    const util::json::Value& v);

[[nodiscard]] util::json::Value to_json(const JobOutcome& outcome);
[[nodiscard]] JobOutcome job_outcome_from_json(const util::json::Value& v);

[[nodiscard]] util::json::Value to_json(const FlowReport& report);
[[nodiscard]] FlowReport flow_report_from_json(const util::json::Value& v);

[[nodiscard]] util::json::Value to_json(const FlowJob& job);
[[nodiscard]] FlowJob flow_job_from_json(const util::json::Value& v);

// --- the versioned file envelope ------------------------------------------

/// Wraps `payload` in the envelope and writes it to `path` as one
/// compact line. Returns the path.
[[nodiscard]] util::Result<std::string> write_artifact(
    const util::json::Value& payload, const std::string& kind,
    const std::string& path);

/// Reads `path`, validates envelope kind, schema version and checksum,
/// and returns the payload.
[[nodiscard]] util::Result<util::json::Value> read_artifact(
    const std::string& path, const std::string& kind);

// --- whole-file conveniences (what LibraryCache and cnfetc call) ----------

[[nodiscard]] util::Result<std::string> save_library(
    const liberty::Library& library, const std::string& path);
[[nodiscard]] util::Result<LibraryHandle> load_library(
    const std::string& path);

/// jobs.json: the serialized std::vector<FlowJob> a `cnfetc batch` run
/// executes.
[[nodiscard]] util::Result<std::string> save_jobs(
    const std::vector<FlowJob>& jobs, const std::string& path);
[[nodiscard]] util::Result<std::vector<FlowJob>> load_jobs(
    const std::string& path);

/// report.json: the serialized FlowReport a batch produced.
[[nodiscard]] util::Result<std::string> save_report(const FlowReport& report,
                                                    const std::string& path);
[[nodiscard]] util::Result<FlowReport> load_report(const std::string& path);

}  // namespace cnfet::api
