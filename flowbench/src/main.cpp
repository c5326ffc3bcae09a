// flowbench — end-to-end benchmark of the CNFET design kit's user paths.
//
//   flowbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin DIR --work DIR
//
// --bin names the directory holding the cnfetc and cnfetd builds; --work is
// a scratch directory the run empties first and removes at the end. With
// --trace 0 the run drives the shipped binaries and prints the end-to-end
// metrics; with --trace 1 it replays the workload in process under spans
// and prints the per-layer metrics (spans are written next to --work).
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit codes: 0 ran (check `correct`), 1 could not run, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using namespace flowbench;
namespace fs = std::filesystem;

int usage(const std::string& error) {
  std::fprintf(stderr,
               "flowbench: %s\n"
               "usage: flowbench --workload rca_route|cla_route|rca_opt|"
               "serve_mix --seed N --seconds S --trace 0|1 --bin DIR "
               "--work DIR\n",
               error.c_str());
  return 2;
}

bool parse_options(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options->workload = value;
      } else if (flag == "--seed") {
        options->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options->seconds = std::stoi(value);
      } else if (flag == "--trace") {
        options->trace = std::stoi(value) != 0;
      } else if (flag == "--bin") {
        options->bin_dir = value;
      } else if (flag == "--work") {
        options->work_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() &&
         !options->bin_dir.empty() && !options->work_dir.empty() &&
         options->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  if (!parse_options(argc, argv, &ctx.options)) return usage("bad arguments");
  const GenWorkload* gen_workload = find_gen_workload(ctx.options.workload);
  if (gen_workload == nullptr && ctx.options.workload != "serve_mix") {
    return usage("unknown workload " + ctx.options.workload);
  }
  ctx.cnfetc = ctx.options.bin_dir + "/cnfetc";
  ctx.cnfetd = ctx.options.bin_dir + "/cnfetd";
  if (!fs::exists(ctx.cnfetc) || !fs::exists(ctx.cnfetd)) {
    std::fprintf(stderr, "flowbench: no cnfetc/cnfetd in %s\n",
                 ctx.options.bin_dir.c_str());
    return 1;
  }
  // Every library comes from a cache dir this run created, never from
  // the user's disk tier; the children inherit the cleared environment.
  unsetenv("CNFET_LIBRARY_CACHE_DIR");
  ctx.options.work_dir = fs::absolute(ctx.options.work_dir).string();
  fs::remove_all(ctx.options.work_dir);
  fs::create_directories(ctx.options.work_dir);
  ctx.log = ctx.path("children.log");

  int code = 1;
  try {
    if (gen_workload != nullptr) {
      code = ctx.options.trace ? run_gen_traced(ctx, *gen_workload)
                               : run_gen(ctx, *gen_workload);
    } else {
      code = ctx.options.trace ? run_serve_traced(ctx) : run_serve(ctx);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    code = 1;
  }
  if (ctx.options.trace) {
    ctx.tracer.write(ctx.options.work_dir + "-spans-seed" +
                     std::to_string(ctx.options.seed) + ".json");
  }
  if (code == 0) {
    std::printf("%s\n", ctx.report.result_line(ctx.tally).c_str());
    fs::remove_all(ctx.options.work_dir);
  } else {
    std::fprintf(stderr, "flowbench: run failed; children's output is in %s\n",
                 ctx.log.c_str());
  }
  return code;
}
