#include "schematic/svg_writer.hpp"

#include <array>
#include <sstream>

namespace na {
namespace {

constexpr std::array<const char*, 8> kPalette = {
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22"};
constexpr int kTrackPx = 12;      ///< pixels per grid track
constexpr int kMarginTracks = 2;  ///< empty border

}  // namespace

std::string to_svg(const Diagram& dia) {
  std::ostringstream os;
  const Network& net = dia.network();
  geom::Rect bounds = dia.drawing_bounds();
  if (bounds.empty()) bounds = {{0, 0}, {1, 1}};
  bounds = bounds.expanded(kMarginTracks);

  const int s = kTrackPx;
  const int w = (bounds.width() + 1) * s;
  const int h = (bounds.height() + 1) * s;
  // SVG y grows downward; the diagram's y grows upward.
  auto X = [&](int x) { return (x - bounds.lo.x) * s + s / 2; };
  auto Y = [&](int y) { return h - ((y - bounds.lo.y) * s + s / 2); };

  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w << "\" height=\""
     << h << "\" viewBox=\"0 0 " << w << ' ' << h << "\">\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  // Nets first so module outlines stay crisp on top.
  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    if (r.polylines.empty()) continue;
    const char* color = kPalette[n % kPalette.size()];
    for (const auto& pl : r.polylines) {
      if (pl.size() < 2) continue;
      os << "<polyline fill=\"none\" stroke=\"" << color
         << "\" stroke-width=\"1.5\" points=\"";
      for (geom::Point p : pl) os << X(p.x) << ',' << Y(p.y) << ' ';
      os << "\"><title>" << net.net(n).name << "</title></polyline>\n";
    }
  }

  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) continue;
    const geom::Rect r = dia.module_rect(m);
    os << "<rect x=\"" << X(r.lo.x) << "\" y=\"" << Y(r.hi.y) << "\" width=\""
       << (r.width()) * s << "\" height=\"" << (r.height()) * s
       << "\" fill=\"#f5f0e0\" stroke=\"black\" stroke-width=\"1.5\"/>\n";
    os << "<text x=\"" << X(r.center().x) << "\" y=\"" << Y(r.center().y)
       << "\" font-size=\"" << s << "\" font-family=\"monospace\""
       << " text-anchor=\"middle\" dominant-baseline=\"middle\">"
       << net.module(m).name << "</text>\n";
  }

  for (int t = 0; t < net.term_count(); ++t) {
    const Terminal& term = net.term(t);
    if (!dia.term_placed(t) || (!term.is_system() && term.net == kNone)) continue;
    const geom::Point p = dia.term_pos(t);
    if (term.is_system()) {
      os << "<rect x=\"" << X(p.x) - s / 3 << "\" y=\"" << Y(p.y) - s / 3
         << "\" width=\"" << 2 * s / 3 << "\" height=\"" << 2 * s / 3
         << "\" fill=\"white\" stroke=\"black\"><title>" << term.name
         << "</title></rect>\n";
    } else {
      os << "<circle cx=\"" << X(p.x) << "\" cy=\"" << Y(p.y) << "\" r=\"" << s / 4
         << "\" fill=\"black\"><title>" << net.module(term.module).name << '.'
         << term.name << "</title></circle>\n";
    }
  }
  os << "</svg>\n";
  return os.str();
}

}  // namespace na
