// The `cnfetc gen` workloads: rca_route, cla_route and rca_opt.
//
// The timed run drives the shipped CLI exactly as a user types it:
// `cnfetc gen ... --out DIR` (compile, save, GDS), `cnfetc resume DIR` on
// rca_route, and a fixed `cnfetc monte-carlo` probe, repeated until the
// run's seconds are spent. The traced run replays the same compile in
// process, stage by stage, under spans.
#include <algorithm>
#include <filesystem>

#include "api/serialize.hpp"
#include "workloads.hpp"

namespace flowbench {

namespace api = cnfet::api;
namespace fs = std::filesystem;

namespace {

std::vector<std::string> gen_argv(const Context& ctx,
                                  const GenWorkload& workload,
                                  const std::string& dir) {
  std::vector<std::string> argv = {
      ctx.cnfetc, "gen", "--family", cnfet::gen::to_string(workload.gen.family),
      "--width", std::to_string(workload.gen.width)};
  if (workload.optimize) argv.push_back("--optimize");
  if (workload.route) argv.push_back("--route");
  argv.insert(argv.end(), {"--out", dir, "--cache-dir", ctx.cache_dir});
  return argv;
}

std::vector<std::string> probe_argv(const Context& ctx, std::uint64_t seed) {
  return {ctx.cnfetc,  "monte-carlo", "--cell",    kProbeCell,
          "--trials",  std::to_string(kProbeTrials),
          "--seed",    std::to_string(seed),
          "--threads", "1",           "--out",     ctx.path("mc.json")};
}

}  // namespace

int run_gen(Context& ctx, const GenWorkload& workload) {
  EndToEnd e;
  e.setup_s = timed_setup(ctx, nullptr);

  std::string dir;
  const auto start = Clock::now();
  for (int it = 0; it == 0 || seconds_since(start) < ctx.options.seconds;
       ++it) {
    if (!dir.empty()) fs::remove_all(dir);
    dir = ctx.path("session" + std::to_string(it));
    settle();
    const auto compiled = run_process(gen_argv(ctx, workload, dir), ctx.log);
    ctx.tally.op(compiled.ok(), workload.name + ": cnfetc gen");
    e.compile_ms.push_back(compiled.wall_s * 1e3);
    e.peak_rss_mb = std::max(e.peak_rss_mb, compiled.peak_rss_mb);
    ++e.operations;
    if (workload.resume) {
      const std::string gds = read_file(dir + "/design.gds");
      settle();
      const auto resumed = run_process(
          {ctx.cnfetc, "resume", dir, "--cache-dir", ctx.cache_dir}, ctx.log);
      ctx.tally.op(resumed.ok(), workload.name + ": cnfetc resume");
      ctx.tally.check(!gds.empty() && read_file(dir + "/design.gds") == gds,
                      workload.name + ": cnfetc resume rewrites identical GDS");
      e.peak_rss_mb = std::max(e.peak_rss_mb, resumed.peak_rss_mb);
      ++e.operations;
    }
    settle();
    for (int j = 0; j < kProbeCalls; ++j) {
      const auto seed = mc_seed(ctx.options.seed, 1000u * it + j);
      const auto probe = run_process(probe_argv(ctx, seed), ctx.log);
      ctx.tally.op(probe.ok(), "cnfetc monte-carlo");
      e.mc_ms.push_back(probe.wall_s * 1e3);
      ++e.operations;
    }
  }
  e.elapsed_s = seconds_since(start);

  // The last probe's --out file against the same run in process.
  const auto last_seed =
      mc_seed(ctx.options.seed,
              1000u * (e.compile_ms.size() - 1) + (kProbeCalls - 1));
  ctx.tally.check(read_file(ctx.path("mc.json")) ==
                      json::dump(api::to_json(traced_monte_carlo(
                                     ctx, kProbeCell, kProbeTrials, last_seed)),
                                 2),
                  "cnfetc monte-carlo equals the in-process result");

  use_bench_cache(ctx);
  auto resumed = api::Flow::resume(dir);
  if (resumed.ok()) {
    e.quality = check_session(ctx, workload, resumed.value(),
                              read_file(dir + "/design.gds"));
  } else {
    ctx.tally.check(false, workload.name + ": in-process resume");
  }
  check_tracer_prefix(ctx, kProbeCell, mc_seed(ctx.options.seed, 1));
  e.session_bytes = static_cast<double>(fs::file_size(dir + "/flow.json") +
                                        fs::file_size(dir + "/design.gds"));
  report_end_to_end(ctx, e);
  return 0;
}

int run_gen_traced(Context& ctx, const GenWorkload& workload) {
  traced_characterize(ctx);

  // The untraced reference: the same compile through the shipped CLI.
  const std::string cli_dir = ctx.path("session_cli");
  settle();
  const auto untraced = run_process(gen_argv(ctx, workload, cli_dir), ctx.log);
  ctx.tally.op(untraced.ok(), workload.name + ": cnfetc gen");
  fs::remove_all(cli_dir);
  settle();

  // The same compile in process, one span per layer call; mirrors
  // `cnfetc gen` (library, generate, adopt, run, save, write GDS).
  auto& tr = ctx.tracer;
  const std::string dir = ctx.path("session");
  std::optional<api::Flow> flow;
  {
    auto compile = tr.span("compile");
    use_bench_cache(ctx);
    api::LibraryHandle library;
    {
      auto span = tr.span("library_cache.load");
      library =
          api::LibraryCache::global().get(api::FlowOptions{}.tech).value();
    }
    cnfet::gen::Generated design;
    {
      auto span = tr.span("gen.generate");
      design = cnfet::gen::generate(*library, workload.gen);
    }
    ctx.counters["gen.gates"] =
        static_cast<double>(design.netlist.gates().size());
    api::FlowOptions options;
    options.optimize = workload.optimize;
    options.route = workload.route;
    options.library = library;
    options.top_name = design.name;
    flow.emplace(
        api::Flow::from_netlist(std::move(design.netlist), options).value());
    bool ok = run_stages_traced(ctx, *flow);
    {
      auto span = tr.span("serialize.save");
      ok = flow->save(dir).ok() && ok;
    }
    {
      auto span = tr.span("gds.write");
      ok = flow->write_gds(dir + "/design.gds").ok() && ok;
    }
    ctx.tally.op(ok, workload.name + ": traced compile");
  }
  ctx.counters["trace.compile_ms"] = tr.total_ms("compile");
  ctx.counters["trace.overhead_ms"] =
      tr.total_ms("compile") - untraced.wall_s * 1e3;
  const auto m = flow->metrics();
  ctx.counters["opt.gates_resized"] = m.gates_resized;
  ctx.counters["opt.buffers_inserted"] = m.buffers_inserted;
  ctx.counters["opt.gates_removed"] = m.gates_removed;
  ctx.counters["place.hpwl_lambda"] = m.hpwl_lambda;
  ctx.counters["gds.bytes"] =
      static_cast<double>(fs::file_size(dir + "/design.gds"));
  ctx.counters["serialize.session_bytes"] =
      static_cast<double>(fs::file_size(dir + "/flow.json"));

  settle();
  replay_signoff(ctx, *flow);

  std::optional<api::Flow> resumed;
  {
    auto span = tr.span("serialize.resume");
    auto result = api::Flow::resume(dir);
    if (result.ok()) resumed.emplace(std::move(result).value());
  }
  ctx.tally.op(resumed.has_value(), workload.name + ": resume");
  if (resumed) {
    (void)check_session(ctx, workload, *resumed,
                        read_file(dir + "/design.gds"));
  }

  for (int j = 0; j < kProbeCalls; ++j) {
    (void)traced_monte_carlo(ctx, kProbeCell, kProbeTrials,
                             mc_seed(ctx.options.seed, j));
  }
  check_tracer_prefix(ctx, kProbeCell, mc_seed(ctx.options.seed, 1));

  report_layers(ctx);
  return 0;
}

}  // namespace flowbench
