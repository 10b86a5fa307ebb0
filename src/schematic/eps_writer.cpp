#include "schematic/eps_writer.hpp"

#include <sstream>

namespace na {

std::string to_eps(const Diagram& dia) {
  std::ostringstream os;
  const Network& net = dia.network();
  geom::Rect bounds = dia.drawing_bounds();
  if (bounds.empty()) bounds = {{0, 0}, {1, 1}};
  bounds = bounds.expanded(2);
  const double s = 8.0;  // PostScript points per grid track
  auto X = [&](double x) { return (x - bounds.lo.x) * s; };
  auto Y = [&](double y) { return (y - bounds.lo.y) * s; };

  os << "%!PS-Adobe-3.0 EPSF-3.0\n";
  os << "%%BoundingBox: 0 0 " << static_cast<int>(X(bounds.hi.x) + s) << ' '
     << static_cast<int>(Y(bounds.hi.y) + s) << "\n";
  os << "%%Title: netartwork schematic\n%%EndComments\n";
  os << "/m {moveto} def /l {lineto} def /s {stroke} def\n";
  os << "0.75 setlinewidth 1 setlinecap\n";

  // Nets.
  for (const NetRoute& r : dia.routes()) {
    for (const auto& pl : r.polylines) {
      if (pl.size() < 2) continue;
      os << "newpath " << X(pl[0].x) << ' ' << Y(pl[0].y) << " m";
      for (size_t i = 1; i < pl.size(); ++i) {
        os << ' ' << X(pl[i].x) << ' ' << Y(pl[i].y) << " l";
      }
      os << " s\n";
    }
  }
  // Module boxes (heavier line, like the plotted symbols).
  os << "1.5 setlinewidth\n";
  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) continue;
    const geom::Rect r = dia.module_rect(m);
    os << "newpath " << X(r.lo.x) << ' ' << Y(r.lo.y) << " m " << X(r.hi.x) << ' '
       << Y(r.lo.y) << " l " << X(r.hi.x) << ' ' << Y(r.hi.y) << " l " << X(r.lo.x)
       << ' ' << Y(r.hi.y) << " l closepath s\n";
    os << "/Courier findfont " << s << " scalefont setfont\n";
    os << X(r.center().x) << ' ' << Y(r.center().y) << " m ("
       << net.module(m).name << ") dup stringwidth pop 2 div neg 0 rmoveto show\n";
  }
  // Terminal marks.
  for (int t = 0; t < net.term_count(); ++t) {
    const Terminal& term = net.term(t);
    if (!dia.term_placed(t) || (!term.is_system() && term.net == kNone)) continue;
    const geom::Point p = dia.term_pos(t);
    os << "newpath " << X(p.x) << ' ' << Y(p.y) << ' ' << s / 4
       << " 0 360 arc fill\n";
  }
  os << "showpage\n%%EOF\n";
  return os.str();
}

}  // namespace na
