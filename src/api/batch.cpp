#include "api/batch.hpp"

#include <atomic>
#include <utility>

#include "cnt/analyzer.hpp"
#include "drc/drc.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace cnfet::api {

util::Result<Flow> flow_from_job(const FlowJob& job) {
  return job.cell.empty()
             ? Flow::from_expressions(job.outputs, job.inputs, job.options)
             : Flow::from_cell(job.cell, job.options);
}

namespace {

JobOutcome run_one(const FlowJob& job) {
  JobOutcome outcome;
  outcome.name = job.name;
  auto flow = flow_from_job(job);
  if (!flow.ok()) {
    outcome.diagnostics.add(flow.error());
    return outcome;
  }
  auto& f = flow.value();
  const auto reached = f.run(job.target);
  outcome.ok = reached.ok();
  outcome.reached = f.stage();
  outcome.metrics = f.metrics();
  outcome.diagnostics = f.diagnostics();
  return outcome;
}

}  // namespace

std::size_t FlowReport::num_ok() const {
  std::size_t n = 0;
  for (const auto& job : jobs) {
    if (job.ok) ++n;
  }
  return n;
}

util::Diagnostics FlowReport::merged_diagnostics() const {
  util::Diagnostics merged;
  for (const auto& job : jobs) {
    for (auto d : job.diagnostics.items()) {
      d.stage = job.name + "/" + d.stage;
      merged.add(std::move(d));
    }
  }
  return merged;
}

std::string FlowReport::to_string() const {
  util::TextTable t({"job", "tech", "stage", "gates", "delay", "energy/cycle",
                     "EDP (fJ*ps)", "area (l^2)", "util", "DRC", "immune"});
  for (const auto& job : jobs) {
    const auto& m = job.metrics;
    const bool timed = index_of_stage(m.stage) >= index_of_stage(Stage::kTimed);
    const bool placed =
        index_of_stage(m.stage) >= index_of_stage(Stage::kPlaced);
    const bool signed_off =
        index_of_stage(m.stage) >= index_of_stage(Stage::kSignedOff);
    t.add_row(
        {job.name, layout::to_string(m.tech), api::to_string(m.stage),
         job.ok ? std::to_string(m.gates) : "FAILED",
         timed ? util::fmt_si(m.worst_arrival_s, "s") : "-",
         timed ? util::fmt_si(m.energy_per_cycle_j, "J") : "-",
         timed ? util::fmt_fixed(m.edp_js * 1e27, 2) : "-",
         placed ? util::fmt_fixed(m.placed_area_lambda2, 0) : "-",
         placed ? util::fmt_percent(m.utilization, 1) : "-",
         signed_off ? std::to_string(m.drc_violations) : "-",
         signed_off
             ? (m.tech == layout::Tech::kCnfet65 ? (m.all_immune ? "yes" : "NO")
                                                 : "n/a")
             : "-"});
  }
  bool any_cnfet_signed_off = false;
  for (const auto& job : jobs) {
    any_cnfet_signed_off =
        any_cnfet_signed_off || (job.metrics.tech == layout::Tech::kCnfet65 &&
                                 job.metrics.cells_signed_off > 0);
  }
  std::string out = t.to_string();
  out += "\n" + std::to_string(num_ok()) + "/" + std::to_string(jobs.size()) +
         " jobs ok; total gates " + std::to_string(total_gates) +
         ", total area " + util::fmt_fixed(total_area_lambda2, 0) +
         " lambda^2, total energy/cycle " +
         util::fmt_si(total_energy_per_cycle_j, "J") + ", worst delay " +
         util::fmt_si(worst_arrival_s, "s") + ", DRC violations " +
         std::to_string(total_drc_violations);
  if (any_cnfet_signed_off) {
    out += all_immune ? ", all CNFET cells immune" : ", IMMUNITY GAPS";
  }
  out += "\n";
  return out;
}

FlowReport run_batch(const std::vector<FlowJob>& jobs,
                     const BatchOptions& options) {
  // Jobs are independent failure domains, so they parallelize by index:
  // parallel_map keeps outcome i at slot i, and the rollup below walks the
  // outcomes in job order — the report is byte-identical to a serial run.
  std::atomic<bool> abort{false};
  auto outcomes = util::parallel_map(
      static_cast<std::int64_t>(jobs.size()),
      [&](std::int64_t i) -> JobOutcome {
        const auto& job = jobs[static_cast<std::size_t>(i)];
        if (options.fail_fast && abort.load(std::memory_order_relaxed)) {
          JobOutcome skipped;
          skipped.name = job.name;
          skipped.skipped = true;
          skipped.diagnostics.error(
              "batch", "skipped: an earlier job failed (fail_fast)");
          return skipped;
        }
        auto outcome = run_one(job);
        if (!outcome.ok && options.fail_fast) {
          abort.store(true, std::memory_order_relaxed);
        }
        return outcome;
      },
      options.num_threads);
  // run_one never lets an exception escape (the Flow boundary converts
  // them), so a parallel_map failure is unreachable; value() asserts that.
  FlowReport report;
  report.jobs = std::move(outcomes).value();
  for (const auto& outcome : report.jobs) {
    const auto& m = outcome.metrics;
    report.total_gates += m.gates;
    report.total_area_lambda2 += m.placed_area_lambda2;
    report.total_energy_per_cycle_j += m.energy_per_cycle_j;
    if (m.worst_arrival_s > report.worst_arrival_s) {
      report.worst_arrival_s = m.worst_arrival_s;
    }
    report.total_drc_violations += m.drc_violations;
    if (m.tech == layout::Tech::kCnfet65 && m.cells_signed_off > 0 &&
        !m.all_immune) {
      report.all_immune = false;
    }
  }
  return report;
}

std::vector<FlowJob> family_jobs(const std::vector<layout::Tech>& techs,
                                 const FlowOptions& base) {
  std::vector<FlowJob> jobs;
  for (const auto tech : techs) {
    for (const auto& cell : layout::table1_cells()) {
      FlowJob job;
      job.name = cell + "@" + layout::to_string(tech);
      job.cell = cell;
      job.options = base;
      job.options.tech = tech;
      job.options.top_name = "TOP";  // from_cell renames to the cell
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

CellAreaSummary audit(layout::Tech tech, const std::string& name,
                      layout::LayoutStyle style, double base_width_lambda) {
  layout::CellBuildOptions options;
  options.tech = tech;
  options.style = style;
  options.base_width_lambda = base_width_lambda;
  const auto built = layout::build_cell(layout::find_cell_spec(name), options);
  CellAreaSummary s;
  s.cell = name;
  s.style = style;
  s.width_lambda = base_width_lambda;
  s.active_area_lambda2 = built.layout.active_area_lambda2();
  s.core_area_lambda2 = built.layout.core_area_lambda2();
  s.etch_slots = built.layout.etch_slot_count();
  s.redundant_contacts = built.plan.redundant_contacts;
  s.via_on_gate = built.layout.via_on_gate_count();
  s.immune =
      cnt::check_exact(built.layout, built.netlist, built.function).immune;
  drc::DrcOptions drc_options;
  // The etched technique needs vertical gating by construction; audit it
  // under the relaxed deck so the area comparison is apples-to-apples.
  drc_options.allow_vertical_gating =
      style != layout::LayoutStyle::kCompactEuler;
  s.drc_clean = drc::check(built.layout, drc_options).clean();
  return s;
}

std::vector<CellAreaSummary> table1_sweep(layout::Tech tech) {
  std::vector<CellAreaSummary> out;
  for (const auto& name : layout::table1_cells()) {
    for (const double width : {3.0, 4.0, 6.0, 10.0}) {
      out.push_back(
          audit(tech, name, layout::LayoutStyle::kCompactEuler, width));
      out.push_back(audit(tech, name,
                          layout::LayoutStyle::kEtchedIsolatedBranches, width));
    }
  }
  return out;
}

}  // namespace cnfet::api
