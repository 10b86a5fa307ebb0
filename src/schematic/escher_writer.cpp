#include "schematic/escher_writer.hpp"

#include <sstream>

namespace na {
namespace {

constexpr const char* kHeader = "#TUE-ES-871\n";

int io_code(TermType t) {
  switch (t) {
    case TermType::InOut: return 0;
    case TermType::In: return 1;
    case TermType::Out: return 2;
  }
  return 0;
}

}  // namespace

std::string to_escher_template(const ModuleTemplate& t, long creation_time) {
  std::ostringstream os;
  os << kHeader;
  os << "temp: 0 1 1 1 1\n";
  os << "tname: " << t.name << '\n';
  os << "lname: " << t.name << '\n';
  os << "repr: 0 1 1 0 0 " << t.size.x << ' ' << t.size.y << ' ' << creation_time
     << '\n';
  for (size_t i = 0; i < t.terms.size(); ++i) {
    const TemplateTerm& term = t.terms[i];
    const int more = i + 1 < t.terms.size() ? 1 : 0;
    os << "contact: " << more << " 1 " << io_code(term.type) << " 0 0 "
       << term.pos.x << ' ' << term.pos.y << " 0 1 0\n";
    os << "cname: " << term.name << '\n';
  }
  os << "symbol: 1 35 " << t.size.x << " 0 " << t.size.x << ' ' << t.size.y << '\n';
  os << "symbol: 1 35 0 " << t.size.y << ' ' << t.size.x << ' ' << t.size.y << '\n';
  os << "symbol: 1 35 " << t.size.x << " 0 0 0\n";
  os << "symbol: 0 35 0 0 0 " << t.size.y << '\n';
  os << "contents: 0 0\n";
  return os.str();
}

std::string to_escher_diagram(const Diagram& dia, const std::string& template_name,
                              long creation_time) {
  const Network& net = dia.network();
  std::ostringstream os;
  const geom::Rect bounds = dia.drawing_bounds();
  os << kHeader;
  os << "temp: 0 1 1 1 1\n";
  os << "tname: " << template_name << '\n';
  os << "lname: " << template_name << '\n';
  os << "repr: 0 1 0 " << bounds.lo.x << ' ' << bounds.lo.y << ' ' << bounds.hi.x
     << ' ' << bounds.hi.y << ' ' << creation_time << '\n';
  // System terminals appear as contacts of the diagram template.
  const auto& sys = net.system_terms();
  for (size_t i = 0; i < sys.size(); ++i) {
    const Terminal& term = net.term(sys[i]);
    if (!dia.system_term_placed(sys[i])) continue;
    const geom::Point p = dia.term_pos(sys[i]);
    const int more = i + 1 < sys.size() ? 1 : 0;
    os << "contact: " << more << " 1 " << io_code(term.type) << " 0 0 " << p.x << ' '
       << p.y << ' ' << term.net << " 1 0\n";
    os << "cname: " << term.name << '\n';
  }
  os << "contents: 1 1\n";

  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) continue;
    const geom::Rect r = dia.module_rect(m);
    const geom::Point c = r.center();
    const int more = 1;
    os << "subsys: " << more << " 1 1 1 0 " << c.x << ' ' << c.y << ' ' << r.lo.x
       << ' ' << r.lo.y << ' ' << r.hi.x << ' ' << r.hi.y << ' '
       << static_cast<int>(dia.placed(m).rot) << ' ' << creation_time << '\n';
    os << "instname: " << net.module(m).name << '\n';
    os << "tempname: "
       << (net.module(m).template_name.empty() ? net.module(m).name
                                               : net.module(m).template_name)
       << '\n';
    os << "libname: " << template_name << '\n';
  }

  // Net geometry: one node record per polyline vertex; the up/down/left/
  // right lengths of Appendix D encode the outgoing segments.
  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    for (const auto& pl : r.polylines) {
      for (size_t i = 0; i < pl.size(); ++i) {
        const geom::Point p = pl[i];
        int up = 0, down = 0, left = 0, right = 0;
        auto account = [&](geom::Point o) {
          if (o.x > p.x) right = o.x - p.x;
          if (o.x < p.x) left = p.x - o.x;
          if (o.y > p.y) up = o.y - p.y;
          if (o.y < p.y) down = p.y - o.y;
        };
        if (i > 0) account(pl[i - 1]);
        if (i + 1 < pl.size()) account(pl[i + 1]);
        os << "node: 1 0 1 1 1 " << p.x << ' ' << p.y << " 0 0 0 " << up
           << " 0 0 0 " << down << " 0 0 0 " << left << " 0 0 0 " << right
           << " 0 0 0 3 0\n";
        os << "oname: " << net.net(n).name << '\n';
        os << "cname: " << net.net(n).name << '\n';
      }
    }
  }
  return os.str();
}

}  // namespace na
