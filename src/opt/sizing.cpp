#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "opt/opt.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace cnfet::opt {

using flow::Gate;
using flow::GateNetlist;

using detail::check_incremental;

namespace {

/// One resize to try this round, in enumeration (path, family) order —
/// the order that breaks arrival ties, serial and sharded alike.
struct Candidate {
  int gate = -1;
  const liberty::LibCell* cell = nullptr;
};

/// A worker's private netlist copy with a rebind-cloned graph over it:
/// candidate try/revert runs here without touching the live netlist, so
/// shards never contend. Member order matters — the graph binds to this
/// shard's own copy.
struct Shard {
  GateNetlist netlist;
  sta::TimingGraph graph;
  Shard(const GateNetlist& src, const sta::TimingGraph& live)
      : netlist(src), graph(live, netlist) {}
};

/// Try/revert one candidate and return the worst arrival it achieves.
/// Incremental re-times are bit-for-bit equal to a full rebuild, so the
/// value is identical whether measured on the live graph or a shard.
double measure(GateNetlist& netlist, sta::TimingGraph& graph,
               const Candidate& c) {
  const liberty::LibCell* original =
      netlist.gates()[static_cast<std::size_t>(c.gate)].cell;
  netlist.resize_gate(c.gate, c.cell);
  graph.on_gate_replaced(c.gate);
  const double worst = graph.worst_arrival();
  netlist.resize_gate(c.gate, original);
  graph.on_gate_replaced(c.gate);
  return worst;
}

}  // namespace

void size_gates(GateNetlist& netlist, sta::TimingGraph& graph,
                const liberty::Library& library, const OptOptions& options,
                double area_budget, PassStats* stats) {
  double area = total_area(netlist);
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<Candidate> candidates;
  std::vector<double> measured;
  std::vector<int> path;
  // Each cell's drive family, resolved once per pass on first sight:
  // drives_of builds and hashes the base name and sorts a fresh vector.
  std::unordered_map<const liberty::LibCell*,
                     std::vector<liberty::DriveOption>>
      families;

  for (int round = 0; round < options.max_sizing_rounds; ++round) {
    const double worst = graph.worst_arrival();
    if (options.target_delay > 0.0 && worst <= options.target_delay) return;
    graph.critical_gates(path);

    // Enumerate every in-budget resize on the critical path. The sweep
    // accepts at most the single best one per round.
    candidates.clear();
    for (const int g : path) {
      const liberty::LibCell* original =
          netlist.gates()[static_cast<std::size_t>(g)].cell;
      auto [family, fresh] = families.try_emplace(original);
      if (fresh) {
        family->second =
            library.drives_of(liberty::Library::base_name(original->name));
      }
      for (const auto& option : family->second) {
        if (option.cell == original) continue;
        if (area - original->area_lambda2 + option.cell->area_lambda2 >
            area_budget) {
          continue;
        }
        candidates.push_back(Candidate{g, option.cell});
      }
    }

    const int workers = util::resolve_threads(
        options.num_threads, static_cast<std::int64_t>(candidates.size()));
    int best_index = -1;
    double best_worst = worst;
    if (workers <= 1) {
      // In-place on the live graph: one cone re-time per candidate.
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double candidate = measure(netlist, graph, candidates[i]);
        if (candidate < best_worst) {
          best_worst = candidate;
          best_index = static_cast<int>(i);
        }
      }
    } else {
      // Sharded: contiguous candidate ranges on private clones. Clones are
      // built once (rebind-clone, no NLDM re-evaluation) and kept in sync
      // with each accepted resize below.
      graph.retime();
      if (static_cast<int>(shards.size()) < workers) {
        // A clone only READS the live netlist and (post-retime) graph, so
        // the missing shards build concurrently — at 10k gates the copies
        // dominate the first sharded round's cost.
        const std::size_t first = shards.size();
        shards.resize(static_cast<std::size_t>(workers));
        const auto built = util::parallel_for(
            static_cast<std::int64_t>(workers) -
                static_cast<std::int64_t>(first),
            [&](std::int64_t i) {
              shards[first + static_cast<std::size_t>(i)] =
                  std::make_unique<Shard>(netlist, graph);
            },
            workers);
        if (!built.ok()) throw util::Error(built.error().message);
      }
      measured.assign(candidates.size(), 0.0);
      const std::size_t chunk =
          (candidates.size() + static_cast<std::size_t>(workers) - 1) /
          static_cast<std::size_t>(workers);
      const auto ran = util::parallel_for(
          workers,
          [&](std::int64_t w) {
            Shard& shard = *shards[static_cast<std::size_t>(w)];
            const std::size_t begin = static_cast<std::size_t>(w) * chunk;
            const std::size_t end =
                std::min(candidates.size(), begin + chunk);
            for (std::size_t i = begin; i < end; ++i) {
              measured[i] = measure(shard.netlist, shard.graph, candidates[i]);
            }
          },
          workers);
      if (!ran.ok()) throw util::Error(ran.error().message);
      // (arrival, index) in index order == the serial first-strict-min.
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (measured[i] < best_worst) {
          best_worst = measured[i];
          best_index = static_cast<int>(i);
        }
      }
    }
    if (best_index < 0) return;  // no resize improves the critical path

    const Candidate& best = candidates[static_cast<std::size_t>(best_index)];
    area += best.cell->area_lambda2 -
            netlist.gates()[static_cast<std::size_t>(best.gate)]
                .cell->area_lambda2;
    netlist.resize_gate(best.gate, best.cell);
    graph.on_gate_replaced(best.gate);
    for (auto& shard : shards) {
      shard->netlist.resize_gate(best.gate, best.cell);
      shard->graph.on_gate_replaced(best.gate);
    }
    ++stats->gates_resized;
    check_incremental(graph, options);
  }
}

}  // namespace cnfet::opt
