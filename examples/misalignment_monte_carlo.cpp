// Library-wide misalignment study: sweeps the CNT misalignment severity and
// reports functional yield for vulnerable vs immune layouts of every family
// cell — the wafer-scale argument behind the paper's Section III.
//
// The sweep shards its trials across every hardware thread. Thanks to the
// counter-based per-trial seeding (see cnt::monte_carlo) the numbers are
// bit-identical to a single-threaded run.
#include <cstdio>

#include "cnt/analyzer.hpp"
#include "layout/cells.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

int main() {
  using namespace cnfet;
  const int threads = util::hardware_threads();

  std::printf("functional yield under mispositioned CNTs "
              "(500 trials per point, %d threads)\n\n", threads);

  util::TextTable t({"cell", "sigma(angle)", "naive yield", "euler yield"});
  for (const char* name : {"NAND2", "NAND3", "NOR3", "AOI21", "AOI22"}) {
    for (const double sigma : {4.0, 8.0, 16.0, 32.0}) {
      cnt::TubeModel model;
      model.angle_sigma_deg = sigma;
      model.bend_sigma_deg = sigma / 2;
      auto run = [&](layout::LayoutStyle style) {
        const auto built =
            layout::build_cell(layout::find_cell_spec(name), {.style = style});
        return cnt::monte_carlo(built.layout, built.netlist, built.function,
                                model, 500, 7, threads);
      };
      const auto naive = run(layout::LayoutStyle::kNaiveVulnerable);
      const auto euler = run(layout::LayoutStyle::kCompactEuler);
      t.add_row({name, util::fmt_fixed(sigma, 0) + " deg",
                 util::fmt_percent(naive.yield(), 1),
                 util::fmt_percent(euler.yield(), 1)});
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Immune layouts hold 100%% yield at any misalignment severity; "
              "the naive layout degrades with tube density and angle.\n");
  return 0;
}
