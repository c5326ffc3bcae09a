#include "drc/drc.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "geom/rect_index.hpp"

namespace cnfet::drc {

using geom::Coord;
using geom::Rect;

const char* to_string(RuleId rule) {
  switch (rule) {
    case RuleId::kGateMinLength:
      return "gate.min_length";
    case RuleId::kContactMinLength:
      return "contact.min_length";
    case RuleId::kGateContactSpacing:
      return "gate_contact.spacing";
    case RuleId::kGateGateSpacing:
      return "gate_gate.spacing";
    case RuleId::kContactContactSpacing:
      return "contact_contact.spacing";
    case RuleId::kEtchMinSize:
      return "etch.min_size";
    case RuleId::kGateOverhang:
      return "gate.band_overhang";
    case RuleId::kBandSeparation:
      return "cnt_band.separation";
    case RuleId::kViaOnGate:
      return "via.on_gate";
    case RuleId::kPinMinSize:
      return "pin.min_size";
    case RuleId::kWireMinWidth:
      return "wire.min_width";
    case RuleId::kWireSpacing:
      return "wire.spacing";
    case RuleId::kWireShort:
      return "wire.short";
  }
  return "?";
}

std::string DrcReport::to_string() const {
  if (clean()) return "DRC clean";
  std::ostringstream out;
  out << violations.size() << " DRC violation(s):";
  for (const auto& v : violations) {
    out << "\n  [" << drc::to_string(v.rule) << "] " << v.detail << " at "
        << v.where.to_string();
  }
  return out.str();
}

namespace {

void check_strip(const layout::StripGeometry& strip,
                 const layout::DesignRules& rules, DrcReport& report) {
  auto add = [&](RuleId rule, const std::string& detail, const Rect& where) {
    report.violations.push_back(Violation{rule, detail, where});
  };

  const Coord gate_len = rules.db(rules.gate_len);
  const Coord contact_len = rules.db(rules.contact_len);
  const Coord etch_len = rules.db(rules.etch_len);

  for (const auto& g : strip.gates) {
    if (g.rect.width() < gate_len) {
      add(RuleId::kGateMinLength, "gate narrower than Lg", g.rect);
    }
    if (g.rect.lo().y > strip.band.lo().y ||
        g.rect.hi().y < strip.band.hi().y) {
      add(RuleId::kGateOverhang,
          "gate does not cover the CNT band (tube bypass possible)", g.rect);
    }
  }
  for (const auto& c : strip.contacts) {
    if (c.rect.width() < contact_len) {
      add(RuleId::kContactMinLength, "contact narrower than Ls/Ld", c.rect);
    }
  }
  for (const auto& e : strip.etches) {
    if (e.width() < etch_len) {
      add(RuleId::kEtchMinSize, "etched region below lithography minimum", e);
    }
  }

  // Pairwise spacing along the strip.
  const Coord s_gc = rules.db(rules.gate_contact_space);
  const Coord s_gg = rules.db(rules.gate_gate_space);
  const Coord s_cc = rules.db(rules.contact_contact_space);
  auto gap = [](const Rect& a, const Rect& b) -> Coord {
    if (a.lo().x > b.lo().x) return a.lo().x - b.hi().x;
    return b.lo().x - a.hi().x;
  };
  for (std::size_t i = 0; i < strip.gates.size(); ++i) {
    for (std::size_t j = i + 1; j < strip.gates.size(); ++j) {
      const Coord g = gap(strip.gates[i].rect, strip.gates[j].rect);
      if (g >= 0 && g < s_gg) {
        add(RuleId::kGateGateSpacing, "gate-gate spacing",
            strip.gates[i].rect);
      }
    }
    for (const auto& c : strip.contacts) {
      const Coord g = gap(strip.gates[i].rect, c.rect);
      if (g >= 0 && g < s_gc) {
        add(RuleId::kGateContactSpacing, "gate-contact spacing", c.rect);
      }
    }
  }
  for (std::size_t i = 0; i < strip.contacts.size(); ++i) {
    for (std::size_t j = i + 1; j < strip.contacts.size(); ++j) {
      const Coord g = gap(strip.contacts[i].rect, strip.contacts[j].rect);
      // Abutting an etch slot legitimately separates contacts by 2 lambda
      // of etched region; only bare gaps below the rule are violations.
      bool etch_between = false;
      for (const auto& e : strip.etches) {
        if (e.lo().x >= std::min(strip.contacts[i].rect.hi().x,
                                 strip.contacts[j].rect.hi().x) &&
            e.hi().x <= std::max(strip.contacts[i].rect.lo().x,
                                 strip.contacts[j].rect.lo().x)) {
          etch_between = true;
        }
      }
      if (!etch_between && g >= 0 && g < s_cc) {
        add(RuleId::kContactContactSpacing, "contact-contact spacing",
            strip.contacts[i].rect);
      }
    }
  }
}

}  // namespace

DrcReport check(const layout::CellLayout& cell, const DrcOptions& options) {
  DrcReport report;
  const auto& rules = options.deck.has_value() ? *options.deck : cell.rules();

  check_strip(cell.pun(), rules, report);
  check_strip(cell.pdn(), rules, report);

  if (cell.pun().band.overlaps(cell.pdn().band)) {
    report.violations.push_back(Violation{
        RuleId::kBandSeparation, "PUN/PDN CNT bands overlap",
        cell.pun().band});
  }

  if (!options.allow_vertical_gating && cell.via_on_gate_count() > 0) {
    report.violations.push_back(Violation{
        RuleId::kViaOnGate,
        std::to_string(cell.via_on_gate_count()) +
            " gate(s) connect PUN-PDN only through a via on the active gate",
        cell.bbox()});
  }

  const geom::Coord pin_min = rules.db(rules.pin_width);
  for (const auto& pin : cell.pins()) {
    if (pin.rect.width() < pin_min || pin.rect.height() < pin_min) {
      report.violations.push_back(
          Violation{RuleId::kPinMinSize, "pin " + pin.name, pin.rect});
    }
  }
  return report;
}

namespace {

/// One metal layer of the routed design, flattened for the wire deck in
/// routing order: nets as stored, each net's wires before its vias.
struct RouteLayer {
  const char* name;
  geom::RectIndex::Axis along;  ///< the layer's preferred direction
  std::vector<Rect> rects;
  std::vector<int> net;
  std::vector<bool> is_via;  ///< exempt from the spacing rule, not shorts

  void add(const Rect& rect, int owner, bool via) {
    rects.push_back(rect);
    net.push_back(owner);
    is_via.push_back(via);
  }
};

/// Spacing/short violations between distinct nets on one layer, each
/// unordered shape pair at most once, ordered by (first, second) shape.
void check_layer(RouteLayer layer, Coord spacing, DrcReport& report) {
  const geom::RectIndex index(std::move(layer.rects), layer.along);
  const auto& rects = index.rects();
  struct Hit {
    std::size_t i, j;
    RuleId rule;
  };
  std::vector<Hit> hits;
  index.for_each_touching_pair(spacing, [&](std::size_t i, std::size_t j) {
    if (layer.net[i] == layer.net[j]) return;
    if (rects[i].touches(rects[j])) {
      hits.push_back({i, j, RuleId::kWireShort});
    } else if (!layer.is_via[i] && !layer.is_via[j] &&
               rects[i].expanded(spacing).overlaps(rects[j])) {
      hits.push_back({i, j, RuleId::kWireSpacing});
    }
  });
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return std::tie(a.i, a.j) < std::tie(b.i, b.j);
  });
  for (const auto& h : hits) {
    const std::string nets = "nets " + std::to_string(layer.net[h.i]) +
                             " and " + std::to_string(layer.net[h.j]);
    report.violations.push_back(Violation{
        h.rule,
        nets + (h.rule == RuleId::kWireShort ? " touch on "
                                             : " below wire spacing on ") +
            layer.name,
        rects[h.i]});
  }
}

}  // namespace

DrcReport check_routes(const route::RoutingResult& routing,
                       const layout::DesignRules& rules) {
  DrcReport report;
  const Coord min_width = rules.db(rules.wire_width);

  // metal2 (layer 0) prefers horizontal, metal3 vertical; vias land on
  // both layers.
  RouteLayer metal2{"metal2", geom::RectIndex::Axis::kX, {}, {}, {}};
  RouteLayer metal3{"metal3", geom::RectIndex::Axis::kY, {}, {}, {}};
  for (const auto& rn : routing.nets) {
    for (const auto& w : rn.wires) {
      if (w.width < min_width) {
        report.violations.push_back(Violation{
            RuleId::kWireMinWidth,
            "net " + std::to_string(rn.net) + " wire below minimum width",
            w.rect()});
      }
      (w.layer == 0 ? metal2 : metal3).add(w.rect(), rn.net, false);
    }
    for (const auto& v : rn.vias) {
      metal2.add(v.rect(), rn.net, true);
      metal3.add(v.rect(), rn.net, true);
    }
  }
  const Coord spacing = rules.db(rules.wire_spacing);
  check_layer(std::move(metal2), spacing, report);
  check_layer(std::move(metal3), spacing, report);
  return report;
}

}  // namespace cnfet::drc
