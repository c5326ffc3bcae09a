// Batch driver over api::Flow: many compile jobs, one characterized
// library per technology (via LibraryCache), independent failure domains,
// and an aggregated FlowReport — the paper's Table-1 / Figure-8 style
// numbers as data instead of printf.
#pragma once

#include <string>
#include <vector>

#include "api/flow.hpp"
#include "layout/cells.hpp"

namespace cnfet::api {

/// One unit of batch work. Exactly one source must be set: a standard-cell
/// name (`cell`) or an expression specification (`outputs` + `inputs`).
struct FlowJob {
  std::string name;
  /// Standard-family cell to compile (takes precedence when non-empty).
  std::string cell;
  std::vector<flow::OutputSpec> outputs;
  std::vector<std::string> inputs;
  FlowOptions options;
  /// How far to advance the pipeline.
  Stage target = Stage::kExported;
};

/// The job's session at stage Created: Flow::from_cell for a cell job,
/// Flow::from_expressions otherwise. Every front end (run_batch, the
/// compile server, cnfetc compile) starts a job's flow through this.
[[nodiscard]] util::Result<Flow> flow_from_job(const FlowJob& job);

/// Per-job outcome: reached stage, metrics snapshot and the full
/// diagnostic log. `ok` means the job reached its target stage.
struct JobOutcome {
  std::string name;
  bool ok = false;
  /// True when the job never ran because fail_fast stopped the batch after
  /// an earlier failure — the machine-readable marker report consumers
  /// filter on (a skipped job also reports `reached = kCreated`, which
  /// alone is indistinguishable from a job that failed at creation).
  bool skipped = false;
  Stage reached = Stage::kCreated;
  FlowMetrics metrics;
  util::Diagnostics diagnostics;
};

/// Aggregate over a whole batch.
struct FlowReport {
  std::vector<JobOutcome> jobs;

  // Rollups over jobs that reached the relevant stage.
  int total_gates = 0;
  double total_area_lambda2 = 0.0;
  double total_energy_per_cycle_j = 0.0;
  double worst_arrival_s = 0.0;       ///< max over jobs
  int total_drc_violations = 0;
  bool all_immune = true;             ///< over CNFET jobs that signed off

  [[nodiscard]] std::size_t num_ok() const;
  [[nodiscard]] std::size_t num_failed() const { return jobs.size() - num_ok(); }

  /// Every diagnostic of every job, tagged with the job name.
  [[nodiscard]] util::Diagnostics merged_diagnostics() const;

  /// Table rendering (one row per job + a rollup footer).
  [[nodiscard]] std::string to_string() const;
};

/// Execution knobs for run_batch.
struct BatchOptions {
  /// Worker threads for independent jobs: 1 (default) runs serially in the
  /// calling thread, 0 uses one worker per hardware thread. Any value
  /// produces an identical FlowReport — outcomes land in job order and
  /// each job's diagnostics are computed independently.
  int num_threads = 1;
  /// Stop launching jobs after the first failure; unstarted jobs are
  /// reported as failed with a "skipped" diagnostic. Deterministic when
  /// serial; with threads, jobs already in flight still finish and the
  /// skip boundary depends on timing.
  bool fail_fast = false;
};

/// Runs the jobs independently: no exception escapes, one failing job never
/// aborts the rest (unless fail_fast), and jobs on the same technology
/// share one characterized library through LibraryCache::global() (a cache
/// miss is characterized once; concurrent jobs block on the in-flight
/// build instead of duplicating it).
[[nodiscard]] FlowReport run_batch(const std::vector<FlowJob>& jobs,
                                   const BatchOptions& options);
[[nodiscard]] inline FlowReport run_batch(const std::vector<FlowJob>& jobs) {
  return run_batch(jobs, BatchOptions{});
}

/// Jobs compiling the paper's Table-1 cell family (INV ... OAI21) under
/// each requested technology — the standard regression batch.
[[nodiscard]] std::vector<FlowJob> family_jobs(
    const std::vector<layout::Tech>& techs, const FlowOptions& base = {});

/// Summary of one cell under one layout technique (Table-1 bookkeeping).
struct CellAreaSummary {
  std::string cell;
  layout::LayoutStyle style = layout::LayoutStyle::kCompactEuler;
  double width_lambda = 4.0;
  double active_area_lambda2 = 0.0;
  double core_area_lambda2 = 0.0;
  int etch_slots = 0;
  int redundant_contacts = 0;
  int via_on_gate = 0;
  bool immune = false;
  bool drc_clean = false;
};

/// Full audit of one scheme-1 cell: area, immunity proof, DRC.
[[nodiscard]] CellAreaSummary audit(layout::Tech tech, const std::string& name,
                                    layout::LayoutStyle style,
                                    double base_width_lambda = 4.0);

/// Table-1 sweep: audits layout::table1_cells() at the paper's widths
/// (3/4/6/10 lambda) under both the compact-Euler and the prior etched
/// technique.
[[nodiscard]] std::vector<CellAreaSummary> table1_sweep(layout::Tech tech);

}  // namespace cnfet::api
