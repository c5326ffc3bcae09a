#include "route/router.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "geom/rect_index.hpp"
#include "util/error.hpp"

namespace cnfet::route {

namespace {

using flow::Gate;

/// The two-layer node grid. Node (x, y, layer) sits at a track crossing;
/// layer 0 (metal2) carries horizontal moves, layer 1 (metal3) vertical.
/// The layers interleave in the node index, so a via step lands on the
/// neighbouring word.
struct Grid {
  geom::Coord pitch = 0;
  geom::Vec2 lo;  ///< center of node (0, 0)
  int nx = 0;
  int ny = 0;

  [[nodiscard]] int nodes() const { return nx * ny * 2; }
  [[nodiscard]] int idx(int x, int y, int layer) const {
    return ((y * nx + x) << 1) | layer;
  }
  [[nodiscard]] int x_of(int node) const { return (node >> 1) % nx; }
  [[nodiscard]] int y_of(int node) const { return (node >> 1) / nx; }
  [[nodiscard]] int layer_of(int node) const { return node & 1; }
  [[nodiscard]] geom::Vec2 center(int x, int y) const {
    return {lo.x + pitch * x, lo.y + pitch * y};
  }
  [[nodiscard]] int snap(geom::Coord c, geom::Coord lo_c, int n) const {
    const auto g =
        static_cast<int>((c - lo_c + pitch / 2) / pitch);
    return std::clamp(g, 0, n - 1);
  }
  [[nodiscard]] std::pair<int, int> snap(geom::Vec2 p) const {
    return {snap(p.x, lo.x, nx), snap(p.y, lo.y, ny)};
  }
};

/// Search window in grid coordinates (inclusive).
struct Window {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  [[nodiscard]] bool contains(int x, int y) const {
    return x >= x0 && x <= x1 && y >= y0 && y <= y1;
  }
};

/// Pin-name lookup cache: cell -> input-pin centers (cell-local coords),
/// indexed by the gate's input pin number. Cells name their pins 'A' + the
/// cell input index, one pin per distinct input; a series gate reuses its
/// input's single pin.
class PinCache {
 public:
  [[nodiscard]] geom::Vec2 pin_center(const liberty::LibCell* cell, int pin) {
    auto [it, inserted] = cache_.try_emplace(cell);
    if (inserted) {
      const auto& layout = cell->built.layout;
      for (const auto& p : layout.pins()) {
        const int index = p.name.empty() ? 0 : p.name[0] - 'A';
        if (index >= static_cast<int>(it->second.size())) {
          it->second.resize(static_cast<std::size_t>(index) + 1,
                            layout.bbox().center());
        }
        it->second[static_cast<std::size_t>(index)] = p.rect.center();
      }
      if (it->second.empty()) {
        it->second.push_back(layout.bbox().center());
      }
    }
    const auto& centers = it->second;
    const auto i = static_cast<std::size_t>(pin);
    return i < centers.size() ? centers[i] : centers.back();
  }

 private:
  std::map<const liberty::LibCell*, std::vector<geom::Vec2>> cache_;
};

/// Terminal points of one net, driver first (when the net has one), then
/// one entry per netlist.fanout(net) pair in canonical order.
std::vector<geom::Vec2> terminal_points(const flow::GateNetlist& netlist,
                                        int net,
                                        const std::vector<int>& instance_of,
                                        const flow::PlacementResult& placement,
                                        PinCache& pins) {
  std::vector<geom::Vec2> points;
  const int driver = netlist.driver_index(net);
  if (driver >= 0) {
    const auto& inst = placement.instances[static_cast<std::size_t>(
        instance_of[static_cast<std::size_t>(driver)])];
    // The output terminal: the middle of the instance footprint (the
    // abstraction stands in for the cell's output rail).
    points.push_back(
        {inst.origin.x + inst.width / 2, inst.origin.y + inst.height / 2});
  }
  for (const auto& [gate, pin] : netlist.fanout(net)) {
    const auto& inst = placement.instances[static_cast<std::size_t>(
        instance_of[static_cast<std::size_t>(gate)])];
    const Gate& g = netlist.gates()[static_cast<std::size_t>(gate)];
    points.push_back(inst.origin + pins.pin_center(g.cell, pin));
  }
  return points;
}

// came_from move codes (how a search reached a node).
enum : std::uint8_t { kFromNegX, kFromPosX, kFromNegY, kFromPosY, kFromVia };

// The per-node search word: g mod 8, a closed bit and a shortest-path-DAG
// bit under the epoch of the search that wrote it. A word whose epoch is
// not the current one reads as unvisited, so nothing is cleared between
// searches.
constexpr int kEpochShift = 5;
constexpr std::uint32_t kGMask = 7;
constexpr std::uint32_t kClosed = 1U << 3;
constexpr std::uint32_t kOnDag = 1U << 4;
constexpr std::uint32_t kMaxEpoch = (1U << (32 - kEpochShift)) - 1;

/// A queued grid node with its coordinates, so the search never divides.
struct Item {
  int node = 0;
  int x = 0;
  int y = 0;
};

}  // namespace

RoutingResult route(const flow::GateNetlist& netlist,
                    const flow::PlacementResult& placement,
                    const layout::DesignRules& rules,
                    const RouteOptions& options) {
  CNFET_REQUIRE(!placement.instances.empty());

  // Instance lookup by gate index.
  const Gate* base = netlist.gates().data();
  std::vector<int> instance_of(netlist.gates().size(), -1);
  for (std::size_t i = 0; i < placement.instances.size(); ++i) {
    const auto gi = placement.instances[i].gate - base;
    CNFET_REQUIRE_MSG(
        gi >= 0 && gi < static_cast<std::ptrdiff_t>(netlist.gates().size()),
        "placement references a foreign netlist");
    instance_of[static_cast<std::size_t>(gi)] = static_cast<int>(i);
  }
  for (const int inst : instance_of) {
    CNFET_REQUIRE_MSG(inst >= 0, "placement does not cover every gate");
  }

  Grid grid;
  grid.pitch = rules.db(rules.route_pitch);
  PinCache pins;

  // Terminal points first: the grid is sized from routing demand, not just
  // the placement extent. A vertical cut of the fabric is crossed by every
  // net whose terminal bbox spans it, and each crossing consumes one
  // horizontal track (one grid row) at that cut — so the channel must hold
  // at least the worst cut's crossing count, padded for detours. The
  // area-greedy placer happily emits single-row placements whose cell
  // height alone (a handful of tracks) could never carry the nets; the
  // extra tracks live in the free space above and below the cells.
  std::vector<std::vector<geom::Vec2>> net_points(
      static_cast<std::size_t>(netlist.num_nets()));
  std::vector<std::pair<geom::Coord, geom::Coord>> x_spans, y_spans;
  for (int net = 0; net < netlist.num_nets(); ++net) {
    auto points = terminal_points(netlist, net, instance_of, placement, pins);
    if (points.size() >= 2) {
      geom::Coord x0 = points[0].x, x1 = points[0].x;
      geom::Coord y0 = points[0].y, y1 = points[0].y;
      for (const auto& p : points) {
        x0 = std::min(x0, p.x);
        x1 = std::max(x1, p.x);
        y0 = std::min(y0, p.y);
        y1 = std::max(y1, p.y);
      }
      x_spans.emplace_back(x0, x1);
      y_spans.emplace_back(y0, y1);
    }
    net_points[static_cast<std::size_t>(net)] = std::move(points);
  }
  // Max nets crossing any cut, by +1/-1 sweep over span endpoints.
  const auto max_crossing = [](std::vector<std::pair<geom::Coord,
                                                     geom::Coord>>& spans) {
    std::vector<std::pair<geom::Coord, int>> events;
    events.reserve(spans.size() * 2);
    for (const auto& [lo, hi] : spans) {
      events.emplace_back(lo, +1);
      events.emplace_back(hi, -1);
    }
    std::sort(events.begin(), events.end());
    int depth = 0, worst = 0;
    for (const auto& [at, delta] : events) {
      depth += delta;
      worst = std::max(worst, depth);
    }
    return worst;
  };
  // 2x congestion slack: greedy one-net-at-a-time routing fragments the
  // channel, and rip-up only repairs nets that are walled in completely,
  // so the fabric needs real headroom over the crossing lower bound.
  const int need_ny = max_crossing(x_spans) * 2 + 16;
  const int need_nx = max_crossing(y_spans) * 2 + 16;

  const geom::Coord margin = grid.pitch * 4;
  grid.nx = static_cast<int>((placement.bbox.width() + 2 * margin) /
                             grid.pitch) + 1;
  grid.ny = static_cast<int>((placement.bbox.height() + 2 * margin) /
                             grid.pitch) + 1;
  const int extra_x = std::max(0, need_nx - grid.nx);
  const int extra_y = std::max(0, need_ny - grid.ny);
  grid.nx += extra_x;
  grid.ny += extra_y;
  // Extra capacity splits evenly around the placement so detours stay
  // short on both sides.
  grid.lo = {placement.bbox.lo().x - margin - grid.pitch * (extra_x / 2),
             placement.bbox.lo().y - margin - grid.pitch * (extra_y / 2)};

  RoutingResult result;
  result.pitch = grid.pitch;
  result.grid_bbox =
      geom::Rect(grid.lo, {grid.lo.x + grid.pitch * (grid.nx - 1),
                           grid.lo.y + grid.pitch * (grid.ny - 1)});

  // occ: net id + 1 claiming a node (0 = free). Terminal nodes are
  // reserved for every net up front — in ascending net order, probing
  // outward ring by ring when a snap collides with a foreign net — so via
  // landings can never short two nets.
  std::vector<std::int32_t> occ(static_cast<std::size_t>(grid.nodes()), 0);
  // Reserved terminal/hatch nodes: never freed by rip-up, and never
  // crossed when hunting for blockers.
  std::vector<std::uint8_t> hard(static_cast<std::size_t>(grid.nodes()), 0);

  struct NetPlan {
    int net = -1;
    std::vector<int> nodes;          ///< layer-0 node per terminal
    std::vector<geom::Vec2> points;  ///< snapped node centers per terminal

    [[nodiscard]] geom::Coord half_perimeter() const {
      geom::Coord x0 = points[0].x, x1 = points[0].x;
      geom::Coord y0 = points[0].y, y1 = points[0].y;
      for (const auto& p : points) {
        x0 = std::min(x0, p.x);
        x1 = std::max(x1, p.x);
        y0 = std::min(y0, p.y);
        y1 = std::max(y1, p.y);
      }
      return (x1 - x0) + (y1 - y0);
    }
  };
  std::vector<NetPlan> plans;
  for (int net = 0; net < netlist.num_nets(); ++net) {
    auto& points = net_points[static_cast<std::size_t>(net)];
    if (points.empty()) continue;
    NetPlan plan;
    plan.net = net;
    for (const auto& p : points) {
      auto [gx, gy] = grid.snap(p);
      int node = grid.idx(gx, gy, 0);
      if (occ[static_cast<std::size_t>(node)] != 0 &&
          occ[static_cast<std::size_t>(node)] != net + 1) {
        // Deterministic outward square-ring probe for a free node.
        bool found = false;
        for (int r = 1; r < std::max(grid.nx, grid.ny) && !found; ++r) {
          for (int dy = -r; dy <= r && !found; ++dy) {
            for (int dx = -r; dx <= r && !found; ++dx) {
              if (std::max(std::abs(dx), std::abs(dy)) != r) continue;
              const int cx = gx + dx, cy = gy + dy;
              if (cx < 0 || cx >= grid.nx || cy < 0 || cy >= grid.ny) continue;
              const int cand = grid.idx(cx, cy, 0);
              const auto o = occ[static_cast<std::size_t>(cand)];
              if (o == 0 || o == net + 1) {
                node = cand;
                gx = cx;
                gy = cy;
                found = true;
              }
            }
          }
        }
        CNFET_REQUIRE_MSG(found, "routing grid exhausted reserving terminals");
      }
      occ[static_cast<std::size_t>(node)] = net + 1;
      // Also reserve the layer-1 node above the terminal — its via escape
      // hatch. Pin rows pack terminals of different nets onto adjacent
      // nodes, so a terminal whose row neighbors are foreign can only be
      // reached from above; a foreign vertical wire parking there would
      // strand the terminal no matter how much fabric the grid has.
      // Reservation runs before any routing and terminal nodes are
      // distinct across nets, so the hatch is always still free here.
      occ[static_cast<std::size_t>(grid.idx(gx, gy, 1))] = net + 1;
      hard[static_cast<std::size_t>(node)] = 1;
      hard[static_cast<std::size_t>(grid.idx(gx, gy, 1))] = 1;
      plan.nodes.push_back(node);
      plan.points.push_back(grid.center(gx, gy));
    }
    plans.push_back(std::move(plan));
  }

  // Short nets first: a compact net blocked by a long net's wall has no
  // way around, while a long net can detour past a routed short one. The
  // (span, net id) key keeps the order fully deterministic, and results
  // are still emitted in ascending net order below.
  std::stable_sort(plans.begin(), plans.end(),
                   [](const NetPlan& a, const NetPlan& b) {
                     return a.half_perimeter() < b.half_perimeter();
                   });

  // Search state, reused across nets. Epoch stamping avoids clearing the
  // per-node arrays between searches.
  std::vector<std::uint32_t> state(static_cast<std::size_t>(grid.nodes()), 0);
  std::vector<std::uint32_t> tree_stamp(static_cast<std::size_t>(grid.nodes()),
                                        0);
  std::vector<std::uint8_t> came(static_cast<std::size_t>(grid.nodes()), 0);
  std::vector<Item> ring[4];  ///< open nodes by f mod 4
  std::vector<std::pair<int, Item>> seeds;  ///< (f, seed), f descending
  std::vector<Item> pending;  ///< DAG-marking stack, blocker-search queue
  std::vector<Item> tree_nodes;
  std::uint32_t epoch = 0;
  std::uint32_t stamp = 0;
  const int row = 2 * grid.nx;  ///< node-index step of one grid row

  const auto next_epoch = [&] {
    if (++epoch > kMaxEpoch) {
      std::fill(state.begin(), state.end(), 0);
      epoch = 1;
    }
    return epoch;
  };
  const auto seen = [&](int node) {
    return state[static_cast<std::size_t>(node)] >> kEpochShift == epoch;
  };
  // Calls fn(node, x, y, came_code) for each in-window grid neighbour of
  // `from`, in the fixed slot order the tie-break contract names (metal2:
  // +x, -x, via; metal3: +y, -y, via), until fn returns true.
  const auto for_each_step = [&](const Window& w, const Item& from,
                                 auto&& fn) {
    const int n = from.node;
    const int x = from.x, y = from.y;
    if ((n & 1) == 0) {
      if (x < w.x1 && fn(n + 2, x + 1, y, kFromNegX)) return;
      if (x > w.x0 && fn(n - 2, x - 1, y, kFromPosX)) return;
    } else {
      if (y < w.y1 && fn(n + row, x, y + 1, kFromNegY)) return;
      if (y > w.y0 && fn(n - row, x, y - 1, kFromPosY)) return;
    }
    fn(n ^ 1, x, y, kFromVia);
  };
  const Window full_grid{0, 0, grid.nx - 1, grid.ny - 1};

  // Rip-up bookkeeping. Greedy nets can wall a later net into a pocket no
  // amount of fabric fixes; when that happens the stuck net finds the
  // walls' owners (a relaxed search that crosses foreign path claims, but
  // never reserved terminals), rips them, routes itself, and the ripped
  // nets re-route afterwards. Budgets keep the loop finite — a net that
  // exhausts them routes best-effort and reports its misses as failures.
  constexpr int kMaxAttempts = 6;  ///< rip-assisted retries per stuck net
  constexpr int kMaxRips = 4;      ///< times any one net may be ripped
  const auto num_nets = static_cast<std::size_t>(netlist.num_nets());
  std::vector<std::vector<int>> claims(num_nets);  ///< non-hard path nodes
  std::vector<int> plan_of(num_nets, -1);
  std::vector<int> rip_count(num_nets, 0);
  std::vector<int> attempts(num_nets, 0);
  std::vector<RoutedNet> routed_of(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    plan_of[static_cast<std::size_t>(plans[i].net)] = static_cast<int>(i);
    routed_of[i].net = plans[i].net;
    routed_of[i].terminals = plans[i].points;
  }

  const auto rip_net = [&](int net) {
    for (const int n : claims[static_cast<std::size_t>(net)]) {
      occ[static_cast<std::size_t>(n)] = 0;
    }
    claims[static_cast<std::size_t>(net)].clear();
    auto& routed = routed_of[static_cast<std::size_t>(
        plan_of[static_cast<std::size_t>(net)])];
    routed.wires.clear();
    routed.vias.clear();
    routed.length_lambda = 0.0;
  };

  // Routes one net from scratch (ripping any previous claims first).
  // Returns -1 on success, or the first unreachable target node; in
  // `best_effort` mode it instead skips unreachable targets, counts them
  // as failures, and keeps whatever did connect.
  const auto route_one = [&](int plan_index, bool best_effort) {
    auto& plan = plans[static_cast<std::size_t>(plan_index)];
    const int net = plan.net;
    rip_net(net);
    auto& routed = routed_of[static_cast<std::size_t>(plan_index)];

    // Distinct terminal nodes, first occurrence order.
    std::vector<int> targets;
    for (const int node : plan.nodes) {
      if (std::find(targets.begin(), targets.end(), node) == targets.end()) {
        targets.push_back(node);
      }
    }
    if (targets.size() < 2) return -1;

    const std::uint32_t net_stamp = ++stamp;
    tree_nodes.clear();
    tree_nodes.push_back(Item{targets.front(), grid.x_of(targets.front()),
                              grid.y_of(targets.front())});
    tree_stamp[static_cast<std::size_t>(targets.front())] = net_stamp;

    // Window escalation ladder around the terminal bbox.
    int tx0 = grid.nx, ty0 = grid.ny, tx1 = 0, ty1 = 0;
    for (const int t : targets) {
      tx0 = std::min(tx0, grid.x_of(t));
      tx1 = std::max(tx1, grid.x_of(t));
      ty0 = std::min(ty0, grid.y_of(t));
      ty1 = std::max(ty1, grid.y_of(t));
    }
    const auto window_at = [&](int halo) {
      return Window{std::max(0, tx0 - halo), std::max(0, ty0 - halo),
                    std::min(grid.nx - 1, tx1 + halo),
                    std::min(grid.ny - 1, ty1 + halo)};
    };
    std::vector<std::pair<int, int>> h_edges;  ///< (y, min x) unit edges
    std::vector<std::pair<int, int>> v_edges;  ///< (x, min y) unit edges
    std::vector<std::pair<int, int>> via_nodes;

    for (std::size_t t = 1; t < targets.size(); ++t) {
      const int target = targets[t];
      if (tree_stamp[static_cast<std::size_t>(target)] == net_stamp) {
        continue;  // an earlier path already ran through it
      }
      const int gx = grid.x_of(target), gy = grid.y_of(target);
      // Lower bound on the steps from a node to the target (on metal2):
      // the Manhattan distance plus the vias a layer change still needs.
      // Admissible and consistent; every step moves f = g + h by 0 or 2.
      const auto h = [&](const Item& it) {
        const int dy = std::abs(it.y - gy);
        const int vias = (it.node & 1) != 0 ? 1 : dy != 0 ? 2 : 0;
        return std::abs(it.x - gx) + dy + vias;
      };
      bool reached = false;
      const int halos[] = {options.window_halo_cells,
                           options.window_halo_cells * 4,
                           std::max(grid.nx, grid.ny)};
      for (const int halo : halos) {
        const Window w = window_at(halo);
        const std::uint32_t tag = next_epoch() << kEpochShift;
        for (auto& bucket : ring) bucket.clear();
        seeds.clear();
        for (const Item& s : tree_nodes) {
          if (!w.contains(s.x, s.y)) continue;
          state[static_cast<std::size_t>(s.node)] = tag;  // g = 0, open
          seeds.emplace_back(h(s), s);
        }
        std::sort(seeds.begin(), seeds.end(),
                  [](const auto& a, const auto& b) {
                    return a.first > b.first;
                  });

        // A* in f order from the in-window tree to the target, closing
        // every node with f <= D (the target's distance): that closes every
        // node of every shortest path, each with its exact g. Open nodes
        // span f..f+2, so a ring of four buckets holds them; seeds enter
        // when f reaches theirs.
        for (int f = seeds.empty() ? 0 : seeds.back().first;; ++f) {
          while (!seeds.empty() && seeds.back().first == f) {
            ring[f & 3].push_back(seeds.back().second);
            seeds.pop_back();
          }
          auto& bucket = ring[f & 3];
          while (!bucket.empty()) {
            const Item it = bucket.back();
            bucket.pop_back();
            auto& word = state[static_cast<std::size_t>(it.node)];
            if ((word & kClosed) != 0) continue;  // superseded entry
            word |= kClosed;
            reached |= it.node == target;
            const int g1 = f - h(it) + 1;
            for_each_step(w, it, [&](int n, int x, int y, std::uint8_t) {
              const auto o = occ[static_cast<std::size_t>(n)];
              if (o != 0 && o != net + 1) return false;
              auto& next = state[static_cast<std::size_t>(n)];
              // An open node's tentative g is within 2 of g1, so g1 improves
              // it exactly when (g1 - g) mod 8 is 6 or 7.
              if (seen(n) &&
                  ((next & kClosed) != 0 ||
                   ((static_cast<std::uint32_t>(g1) - next) & kGMask) < 6)) {
                return false;
              }
              next = tag | (static_cast<std::uint32_t>(g1) & kGMask);
              const Item item{n, x, y};
              ring[(g1 + h(item)) & 3].push_back(item);
              return false;
            });
          }
          if (reached) break;
          if (ring[(f + 1) & 3].empty() && ring[(f + 2) & 3].empty()) {
            if (seeds.empty()) break;  // the window is exhausted
            f = seeds.back().first - 1;
          }
        }
        if (!reached) continue;

        // Mark the shortest-path DAG back from the target: a closed
        // neighbour one step nearer the tree lies on a shortest path.
        const auto g_of = [&](int n) {
          return state[static_cast<std::size_t>(n)] & kGMask;
        };
        const auto on_dag = [&](int n) {
          return seen(n) && (state[static_cast<std::size_t>(n)] & kOnDag);
        };
        state[static_cast<std::size_t>(target)] |= kOnDag;
        pending.assign(1, Item{target, gx, gy});
        while (!pending.empty()) {
          const Item v = pending.back();
          pending.pop_back();
          const std::uint32_t g_prev = (g_of(v.node) - 1) & kGMask;
          for_each_step(w, v, [&](int n, int x, int y, std::uint8_t) {
            auto& word = state[static_cast<std::size_t>(n)];
            if (seen(n) && (word & (kClosed | kOnDag)) == kClosed &&
                (word & kGMask) == g_prev) {
              word |= kOnDag;
              pending.push_back(Item{n, x, y});
            }
            return false;
          });
        }
        // The tie-break contract (router.hpp) picks the lexicographically
        // smallest shortest path under (seed position, neighbour slots):
        // walk the DAG forward from the first seed on it (tree nodes outside
        // the window were not searched), taking the first slot that stays
        // on it, and leave that path in came[] for the walk back.
        Item at = *std::find_if(tree_nodes.begin(), tree_nodes.end(),
                                [&](const Item& s) { return on_dag(s.node); });
        while (at.node != target) {
          const std::uint32_t g_next = (g_of(at.node) + 1) & kGMask;
          for_each_step(w, at, [&](int n, int x, int y, std::uint8_t code) {
            if (!on_dag(n) || g_of(n) != g_next) return false;
            came[static_cast<std::size_t>(n)] = code;
            at = Item{n, x, y};
            return true;
          });
        }
        break;
      }
      if (!reached) {
        if (!best_effort) return target;
        ++result.failed_nets;
        continue;
      }
      // Walk the parent chain back into the tree, claiming nodes and
      // recording unit edges.
      int n = target;
      while (tree_stamp[static_cast<std::size_t>(n)] != net_stamp) {
        const int x = grid.x_of(n), y = grid.y_of(n);
        const int layer = grid.layer_of(n);
        int prev = n;
        switch (came[static_cast<std::size_t>(n)]) {
          case kFromNegX:
            prev = grid.idx(x - 1, y, layer);
            h_edges.emplace_back(y, x - 1);
            break;
          case kFromPosX:
            prev = grid.idx(x + 1, y, layer);
            h_edges.emplace_back(y, x);
            break;
          case kFromNegY:
            prev = grid.idx(x, y - 1, layer);
            v_edges.emplace_back(x, y - 1);
            break;
          case kFromPosY:
            prev = grid.idx(x, y + 1, layer);
            v_edges.emplace_back(x, y);
            break;
          case kFromVia:
            prev = grid.idx(x, y, 1 - layer);
            via_nodes.emplace_back(x, y);
            break;
        }
        tree_stamp[static_cast<std::size_t>(n)] = net_stamp;
        occ[static_cast<std::size_t>(n)] = net + 1;
        if (!hard[static_cast<std::size_t>(n)]) {
          claims[static_cast<std::size_t>(net)].push_back(n);
        }
        tree_nodes.push_back(Item{n, x, y});
        n = prev;
      }
    }

    // Merge unit edges into maximal straight wires.
    const geom::Coord width = rules.db(rules.wire_width);
    std::sort(h_edges.begin(), h_edges.end());
    for (std::size_t i = 0; i < h_edges.size();) {
      const int y = h_edges[i].first;
      const int x0 = h_edges[i].second;
      std::size_t j = i + 1;
      while (j < h_edges.size() && h_edges[j].first == y &&
             h_edges[j].second == h_edges[j - 1].second + 1) {
        ++j;
      }
      const int x1 = h_edges[j - 1].second + 1;
      routed.wires.push_back(
          Wire{0, grid.center(x0, y), grid.center(x1, y), width});
      i = j;
    }
    std::sort(v_edges.begin(), v_edges.end());
    for (std::size_t i = 0; i < v_edges.size();) {
      const int x = v_edges[i].first;
      const int y0 = v_edges[i].second;
      std::size_t j = i + 1;
      while (j < v_edges.size() && v_edges[j].first == x &&
             v_edges[j].second == v_edges[j - 1].second + 1) {
        ++j;
      }
      const int y1 = v_edges[j - 1].second + 1;
      routed.wires.push_back(
          Wire{1, grid.center(x, y0), grid.center(x, y1), width});
      i = j;
    }
    std::sort(via_nodes.begin(), via_nodes.end());
    via_nodes.erase(std::unique(via_nodes.begin(), via_nodes.end()),
                    via_nodes.end());
    const geom::Coord via_size = rules.db(rules.via_size);
    for (const auto& [x, y] : via_nodes) {
      routed.vias.push_back(Via{grid.center(x, y), via_size});
    }
    routed.length_lambda =
        static_cast<double>(h_edges.size() + v_edges.size()) *
        rules.route_pitch;
    return -1;
  };

  // Finds the distinct foreign nets whose path claims wall `target` off
  // from `source` — the relaxed search crosses soft (rippable) claims but
  // never reserved terminals. Empty means even ripping cannot connect.
  const auto find_blockers = [&](int net, int source, int target) {
    std::vector<int> blockers;
    next_epoch();
    pending.clear();
    pending.push_back(Item{source, grid.x_of(source), grid.y_of(source)});
    state[static_cast<std::size_t>(source)] = epoch << kEpochShift;
    bool reached = false;
    for (std::size_t head = 0; head < pending.size() && !reached; ++head) {
      const Item it = pending[head];
      if (it.node == target) {
        reached = true;
        break;
      }
      for_each_step(full_grid, it, [&](int n, int x, int y,
                                       std::uint8_t code) {
        if (seen(n)) return false;
        const auto o = occ[static_cast<std::size_t>(n)];
        if (o != 0 && o != net + 1 && hard[static_cast<std::size_t>(n)]) {
          return false;
        }
        state[static_cast<std::size_t>(n)] = epoch << kEpochShift;
        came[static_cast<std::size_t>(n)] = code;
        pending.push_back(Item{n, x, y});
        return false;
      });
    }
    if (!reached) return blockers;
    for (int n = target; n != source;) {
      const auto o = occ[static_cast<std::size_t>(n)];
      if (o != 0 && o != net + 1) {
        const int owner = static_cast<int>(o) - 1;
        if (std::find(blockers.begin(), blockers.end(), owner) ==
            blockers.end()) {
          blockers.push_back(owner);
        }
      }
      switch (came[static_cast<std::size_t>(n)]) {
        case kFromNegX: n -= 2; break;
        case kFromPosX: n += 2; break;
        case kFromNegY: n -= row; break;
        case kFromPosY: n += row; break;
        case kFromVia:  n ^= 1; break;
      }
    }
    return blockers;
  };

  // The work loop: every planned net once, plus re-queued rip victims.
  std::vector<int> work(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    work[i] = static_cast<int>(i);
  }
  for (std::size_t head = 0; head < work.size(); ++head) {
    const int plan_index = work[head];
    const int net = plans[static_cast<std::size_t>(plan_index)].net;
    int failed = route_one(plan_index, false);
    while (failed >= 0 &&
           attempts[static_cast<std::size_t>(net)]++ < kMaxAttempts) {
      const int source =
          plans[static_cast<std::size_t>(plan_index)].nodes.front();
      const auto blockers = find_blockers(net, source, failed);
      bool all_rippable = !blockers.empty();
      for (const int b : blockers) {
        all_rippable &= rip_count[static_cast<std::size_t>(b)] < kMaxRips;
      }
      if (!all_rippable) break;
      for (const int b : blockers) {
        rip_net(b);
        ++rip_count[static_cast<std::size_t>(b)];
        work.push_back(plan_of[static_cast<std::size_t>(b)]);
      }
      failed = route_one(plan_index, false);
    }
    if (failed >= 0) {
      (void)route_one(plan_index, true);  // keep what does connect
    }
  }

  for (auto& routed : routed_of) {
    result.total_wirelength_lambda += routed.length_lambda;
    result.nets.push_back(std::move(routed));
  }
  std::sort(result.nets.begin(), result.nets.end(),
            [](const RoutedNet& a, const RoutedNet& b) {
              return a.net < b.net;
            });
  return result;
}

// --- independent open/short oracle -----------------------------------------

namespace {

/// Union-find over the drawn shapes (plus one slot per terminal).
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int find(int a) {
    while (parent_[static_cast<std::size_t>(a)] != a) {
      a = parent_[static_cast<std::size_t>(a)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(a)])];
    }
    return a;
  }
  void unite(int a, int b) {
    parent_[static_cast<std::size_t>(find(a))] = find(b);
  }

 private:
  std::vector<int> parent_;
};

/// One layer's drawn metal for the oracle: wires of that layer plus every
/// via (a via lands on both layers).
struct LayerShapes {
  std::vector<geom::Rect> rects;
  std::vector<int> owner;  ///< index into RoutingResult::nets
  std::vector<int> node;   ///< union-find node

  void add(const geom::Rect& rect, int owner_net, int dsu_node) {
    rects.push_back(rect);
    owner.push_back(owner_net);
    node.push_back(dsu_node);
  }
};

}  // namespace

VerifyReport verify(const flow::GateNetlist& netlist,
                    const flow::PlacementResult& placement,
                    const RoutingResult& routing,
                    const layout::DesignRules& rules) {
  VerifyReport report;
  const geom::Coord pitch = rules.db(rules.route_pitch);

  // Re-derive the true pin/driver points to audit the stored terminals.
  const Gate* base = netlist.gates().data();
  std::vector<int> instance_of(netlist.gates().size(), -1);
  for (std::size_t i = 0; i < placement.instances.size(); ++i) {
    const auto gi = placement.instances[i].gate - base;
    if (gi >= 0 && gi < static_cast<std::ptrdiff_t>(netlist.gates().size())) {
      instance_of[static_cast<std::size_t>(gi)] = static_cast<int>(i);
    }
  }
  PinCache pins;

  // Union-find nodes: per routed net, its wires, then its vias, then its
  // terminals; net k owns nodes [first_node[k], first_node[k + 1]).
  std::vector<int> first_node(routing.nets.size() + 1, 0);
  LayerShapes layers[2];
  for (std::size_t k = 0; k < routing.nets.size(); ++k) {
    const auto& rn = routing.nets[k];
    ++report.nets_checked;
    // Stored terminals must sit within a pitch of the true pin points
    // (the snap distance bound; ring probing can push them further only
    // when a foreign net owns the nearest node, still within a few cells).
    const auto points =
        terminal_points(netlist, rn.net, instance_of, placement, pins);
    if (points.size() != rn.terminals.size()) {
      ++report.stray_terminals;
    } else {
      for (std::size_t i = 0; i < points.size(); ++i) {
        const auto d = rn.terminals[i] - points[i];
        if (std::abs(d.x) > 4 * pitch || std::abs(d.y) > 4 * pitch) {
          ++report.stray_terminals;
        }
      }
    }

    const int owner = static_cast<int>(k);
    int node = first_node[k];
    for (const auto& w : rn.wires) {
      layers[w.layer == 0 ? 0 : 1].add(w.rect(), owner, node++);
    }
    for (const auto& v : rn.vias) {
      for (auto& layer : layers) layer.add(v.rect(), owner, node);
      ++node;
    }
    first_node[k + 1] = node + static_cast<int>(rn.terminals.size());
  }
  DisjointSet dsu(static_cast<std::size_t>(first_node.back()));

  // One touching-pair enumeration per layer: same-net pairs connect,
  // distinct-net pairs are shorts.
  // Rows follow each layer's preferred direction (metal2 horizontal).
  const geom::RectIndex index[2] = {
      geom::RectIndex(std::move(layers[0].rects), geom::RectIndex::Axis::kX),
      geom::RectIndex(std::move(layers[1].rects), geom::RectIndex::Axis::kY)};
  std::vector<std::pair<int, int>> shorted;
  for (int l = 0; l < 2; ++l) {
    const auto& layer = layers[l];
    index[l].for_each_touching_pair(0, [&](std::size_t i, std::size_t j) {
      const int a = layer.owner[i];
      const int b = layer.owner[j];
      if (a == b) {
        dsu.unite(layer.node[i], layer.node[j]);
      } else {
        const int net_a = routing.nets[static_cast<std::size_t>(a)].net;
        const int net_b = routing.nets[static_cast<std::size_t>(b)].net;
        shorted.emplace_back(std::min(net_a, net_b), std::max(net_a, net_b));
      }
    });
  }
  std::sort(shorted.begin(), shorted.end());
  shorted.erase(std::unique(shorted.begin(), shorted.end()), shorted.end());
  report.shorted_net_pairs = static_cast<int>(shorted.size());

  for (std::size_t k = 0; k < routing.nets.size(); ++k) {
    const auto& rn = routing.nets[k];
    const int first_terminal =
        first_node[k + 1] - static_cast<int>(rn.terminals.size());
    for (std::size_t i = 0; i < rn.terminals.size(); ++i) {
      const int tid = first_terminal + static_cast<int>(i);
      // Terminals connect where a layer-0 shape (wire or via) covers them.
      index[0].for_each_touching(
          geom::Rect(rn.terminals[i], rn.terminals[i]), [&](std::size_t s) {
            if (layers[0].owner[s] == static_cast<int>(k)) {
              dsu.unite(tid, layers[0].node[s]);
            }
          });
      // Coincident terminals are electrically one point even with no metal.
      for (std::size_t j = 0; j < i; ++j) {
        if (rn.terminals[j] == rn.terminals[i]) {
          dsu.unite(tid, first_terminal + static_cast<int>(j));
        }
      }
    }
    if (rn.terminals.empty()) continue;
    const int root = dsu.find(first_terminal);
    for (int id = first_node[k]; id < first_node[k + 1]; ++id) {
      if (dsu.find(id) != root) {
        if (report.open_nets++ == 0) report.first_open_net = rn.net;
        break;
      }
    }
  }
  return report;
}

}  // namespace cnfet::route
