#include "schematic/escher_reader.hpp"

#include <stdexcept>
#include <vector>

#include "netlist/text_io.hpp"

namespace na {
namespace {

struct NodeRec {
  geom::Point pos;
  int up = 0, down = 0, left = 0, right = 0;
  std::string net_name;
};

}  // namespace

Diagram parse_escher_diagram(const Network& net, std::string_view text) {
  Diagram dia(net);
  RecordReader r(text, "escher diagram");
  bool have_header = false;

  auto coord = [&](size_t i) { return r.int_field(i, -kMaxCoord, kMaxCoord); };
  // A segment spans at most two coordinate bounds.
  auto length = [&](size_t i) { return r.int_field(i, 0, 2 * kMaxCoord); };
  auto expect_tag = [&](const char* tag) -> std::string {
    if (!r.next()) r.fail(std::string("expected ") + tag);
    if (r.size() < 2 || r[0] != tag) {
      r.fail(std::string("expected ") + tag + " record");
    }
    return std::string(r[1]);
  };

  std::vector<NodeRec> nodes;
  std::optional<geom::Point> pending_contact;

  while (r.next()) {
    const std::string tag(r[0]);
    if (tag == "#TUE-ES-871") {
      have_header = true;
    } else if (tag == "temp:" || tag == "tname:" || tag == "lname:" ||
               tag == "repr:" || tag == "contents:" || tag == "symbol:" ||
               tag == "formal:") {
      // structural records without per-element payload we need
    } else if (tag == "contact:") {
      // contact: b0 b1 t1 lb hb x y n t2 a  -> position at tokens 6,7
      if (r.size() < 9) r.fail("short contact record");
      pending_contact = geom::Point{coord(6), coord(7)};
    } else if (tag == "cname:" && pending_contact) {
      const std::string name(r.size() > 1 ? r[1] : "");
      const auto st = net.term_by_name(kNone, name);
      if (!st) r.fail("unknown system terminal '" + name + "'");
      dia.place_system_term(*st, *pending_contact);
      pending_contact.reset();
    } else if (tag == "subsys:") {
      // subsys: b0..b4 x y x1 y1 x2 y2 o t  -> lower-left at fields 7,8
      if (r.size() < 14) r.fail("short subsys record");
      const geom::Point lower_left{coord(8), coord(9)};
      const int rot = r.int_field(12, 0, 3);
      const std::string inst = expect_tag("instname:");
      expect_tag("tempname:");
      expect_tag("libname:");
      const auto m = net.module_by_name(inst);
      if (!m) r.fail("unknown instance '" + inst + "'");
      dia.place_module(*m, lower_left, static_cast<geom::Rot>(rot),
                       /*fixed=*/true);
    } else if (tag == "node:") {
      if (r.size() < 29) r.fail("short node record");
      NodeRec rec;
      rec.pos = {coord(6), coord(7)};
      rec.up = length(11);
      rec.down = length(15);
      rec.left = length(19);
      rec.right = length(23);
      rec.net_name = expect_tag("oname:");
      expect_tag("cname:");
      nodes.push_back(std::move(rec));
    } else if (tag == "cname:" || tag == "oname:" || tag == "instname:" ||
               tag == "tempname:" || tag == "libname:") {
      r.fail("stray " + tag + " record");
    } else {
      r.fail("unknown record '" + tag + "'");
    }
  }
  if (!have_header) throw std::runtime_error("escher diagram: missing #TUE-ES-871");

  // Reassemble polylines: consecutive node records of one net continue the
  // current polyline while the step to the next vertex matches the current
  // vertex's outgoing segment length.
  auto continues = [](const NodeRec& a, const NodeRec& b) {
    const geom::Point d = b.pos - a.pos;
    if (d.x != 0 && d.y != 0) return false;
    if (d == geom::Point{0, 0}) return false;
    if (d.x > 0) return a.right == d.x;
    if (d.x < 0) return a.left == -d.x;
    if (d.y > 0) return a.up == d.y;
    return a.down == -d.y;
  };
  size_t i = 0;
  while (i < nodes.size()) {
    const auto n = net.net_by_name(nodes[i].net_name);
    if (!n) {
      throw std::runtime_error("escher diagram: unknown net '" + nodes[i].net_name +
                               "'");
    }
    std::vector<geom::Point> pl{nodes[i].pos};
    size_t j = i;
    while (j + 1 < nodes.size() && nodes[j + 1].net_name == nodes[i].net_name &&
           continues(nodes[j], nodes[j + 1])) {
      pl.push_back(nodes[j + 1].pos);
      ++j;
    }
    dia.add_polyline(*n, std::move(pl));
    dia.route(*n).prerouted = true;
    i = j + 1;
  }
  return dia;
}

}  // namespace na
