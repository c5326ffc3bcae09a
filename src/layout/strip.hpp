// Strip layouts: the 1-D intermediate representation of one plane (PUN or
// PDN) and its realization as 2-D shapes.
//
// A plane is a left-to-right sequence of elements — metal contacts, gate
// stripes, etched slots — over one CNT diffusion strip. This is exactly the
// abstraction of the paper's figures: Figure 3(b)'s PUN is the sequence
// [Vdd A Out B Vdd C Out], Figure 3(a)'s is
// [Vdd A Out][etch][Vdd B Out][etch][Vdd C Out].
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geom/rect.hpp"
#include "layout/rules.hpp"
#include "netlist/cell_netlist.hpp"

namespace cnfet::layout {

enum class ElementKind { kContact, kGate, kEtch };

struct PlaneElement {
  ElementKind kind = ElementKind::kContact;
  /// Net id for contacts, input index for gates, unused for etch slots.
  int id = 0;

  [[nodiscard]] static PlaneElement contact(netlist::NetId net) {
    return {ElementKind::kContact, net};
  }
  [[nodiscard]] static PlaneElement gate(int input) {
    return {ElementKind::kGate, input};
  }
  [[nodiscard]] static PlaneElement etch() { return {ElementKind::kEtch, 0}; }
};

using PlaneSeq = std::vector<PlaneElement>;

/// A contact shape bound to its net.
struct ContactShape {
  netlist::NetId net = 0;
  geom::Rect rect;
};

/// A gate stripe bound to its controlling input.
struct GateShape {
  int input = 0;
  geom::Rect rect;
};

/// 2-D realization of one plane sequence.
struct StripGeometry {
  netlist::FetType doping = netlist::FetType::kN;  ///< channel polarity
  geom::Rect strip;                ///< drawn CNT active strip
  geom::Rect band;                 ///< strip + cnt_margin: where mispositioned
                                   ///  tubes can survive the active etch
  std::vector<ContactShape> contacts;
  std::vector<GateShape> gates;
  std::vector<geom::Rect> etches;  ///< etched slots cutting the band

  [[nodiscard]] geom::Coord length() const { return strip.width(); }
  [[nodiscard]] geom::Coord device_width() const { return strip.height(); }
  /// Active area (strip bounding box) in square lambda.
  [[nodiscard]] double active_area_lambda2() const {
    return geom::area_to_lambda2(strip.area());
  }

  /// Translates every shape (used during cell assembly).
  void translate(geom::Vec2 d);
};

/// Builds strip geometry from a plane sequence.
///
/// `width_lambda` is the drawn transistor (strip) width. When `gate_anchors`
/// is given, the k-th gate's left edge is placed at max(natural position,
/// anchor k) so the PUN and PDN gate stripes align vertically; pass the
/// result of `align_gate_positions`.
[[nodiscard]] StripGeometry build_strip(
    const PlaneSeq& seq, netlist::FetType doping, double width_lambda,
    const DesignRules& rules, geom::Coord y0 = 0,
    const std::vector<geom::Coord>* gate_anchors = nullptr);

/// Joint anchors: element-wise max of both planes' natural gate positions.
/// Requires equal gate counts (true for dual static planes).
[[nodiscard]] std::vector<geom::Coord> align_gate_positions(
    const PlaneSeq& a, const PlaneSeq& b, const DesignRules& rules);

/// Number of gates in a sequence.
[[nodiscard]] int gate_count(const PlaneSeq& seq);
/// Number of etched slots in a sequence.
[[nodiscard]] int etch_count(const PlaneSeq& seq);

/// Human-readable form, e.g. "[Vdd A Out B Vdd C Out]" / "[Gnd A|B|C Out]".
[[nodiscard]] std::string to_string(const PlaneSeq& seq,
                                    const netlist::CellNetlist& cell);

}  // namespace cnfet::layout
