#include "schematic/diagram.hpp"

#include <stdexcept>

#include "geom/polyline.hpp"

namespace na {

int NetRoute::total_length() const {
  int len = 0;
  for (const auto& pl : polylines) {
    for (size_t i = 1; i < pl.size(); ++i) len += manhattan(pl[i - 1], pl[i]);
  }
  return len;
}

int NetRoute::bend_count() const {
  int bends = 0;
  for (const auto& pl : polylines) {
    for (size_t i = 2; i < pl.size(); ++i) {
      const bool prev_h = pl[i - 1].y == pl[i - 2].y && pl[i - 1].x != pl[i - 2].x;
      const bool cur_h = pl[i].y == pl[i - 1].y && pl[i].x != pl[i - 1].x;
      if (prev_h != cur_h) ++bends;
    }
  }
  return bends;
}

size_t NetRoute::cell_bound() const {
  size_t bound = 0;
  for (const auto& pl : polylines) bound += geom::cell_bound(pl);
  return bound;
}

Diagram::Diagram(const Network& net)
    : net_(&net),
      modules_(net.module_count()),
      system_terms_(net.term_count()),
      routes_(net.net_count()) {}

void Diagram::place_module(ModuleId m, geom::Point pos, geom::Rot rot, bool fixed) {
  modules_.at(m) = {true, pos, rot, fixed};
}

void Diagram::place_system_term(TermId t, geom::Point pos) {
  if (!net_->term(t).is_system()) {
    throw std::invalid_argument("place_system_term on a subsystem terminal");
  }
  system_terms_.at(t) = {true, pos};
}

bool Diagram::system_term_placed(TermId t) const {
  return system_terms_.at(t).placed;
}

bool Diagram::term_placed(TermId t) const {
  const Terminal& term = net_->term(t);
  return term.is_system() ? system_terms_.at(t).placed : modules_.at(term.module).placed;
}

bool Diagram::all_placed() const {
  for (const PlacedModule& m : modules_) {
    if (!m.placed) return false;
  }
  for (TermId t : net_->system_terms()) {
    if (!system_terms_[t].placed) return false;
  }
  return true;
}

geom::Point Diagram::module_size(ModuleId m) const {
  return geom::rotate_size(net_->module(m).size, modules_.at(m).rot);
}

geom::Rect Diagram::module_rect(ModuleId m) const {
  const PlacedModule& pm = modules_.at(m);
  return geom::Rect::from_size(pm.pos, module_size(m));
}

geom::Point Diagram::term_pos(TermId t) const {
  const Terminal& term = net_->term(t);
  if (term.is_system()) {
    const PlacedSystemTerm& st = system_terms_.at(t);
    if (!st.placed) throw std::logic_error("system terminal not placed");
    return st.pos;
  }
  const PlacedModule& pm = modules_.at(term.module);
  if (!pm.placed) throw std::logic_error("module not placed");
  return pm.pos + geom::rotate_point(term.pos, net_->module(term.module).size, pm.rot);
}

geom::Side Diagram::term_facing(TermId t) const {
  const Terminal& term = net_->term(t);
  if (term.is_system()) throw std::logic_error("system terminals have no facing");
  return geom::rotate_side(net_->term_side(t), modules_.at(term.module).rot);
}

geom::Rect Diagram::placement_bounds() const {
  geom::Rect bounds;  // empty
  for (int m = 0; m < net_->module_count(); ++m) {
    if (modules_[m].placed) bounds = bounds.hull(module_rect(m));
  }
  for (TermId t : net_->system_terms()) {
    if (system_terms_[t].placed) bounds = bounds.hull(system_terms_[t].pos);
  }
  return bounds;
}

geom::Rect Diagram::drawing_bounds() const {
  geom::Rect bounds = placement_bounds();
  for (const NetRoute& r : routes_) {
    for (const auto& pl : r.polylines) {
      for (geom::Point p : pl) bounds = bounds.hull(p);
    }
  }
  return bounds;
}

void Diagram::translate(geom::Point d) {
  for (PlacedModule& m : modules_) {
    if (m.placed) m.pos += d;
  }
  for (PlacedSystemTerm& t : system_terms_) {
    if (t.placed) t.pos += d;
  }
  for (NetRoute& r : routes_) {
    for (auto& pl : r.polylines) {
      for (auto& p : pl) p += d;
    }
  }
}

void Diagram::normalize(geom::Point origin) {
  const geom::Rect b = placement_bounds();
  if (b.empty()) return;
  translate(origin - b.lo);
}

void Diagram::add_polyline(NetId n, std::vector<geom::Point> pts) {
  if (pts.size() < 2 && !(pts.size() == 1)) {
    throw std::invalid_argument("polyline needs at least one point");
  }
  NetRoute& r = routes_.at(n);
  r.polylines.push_back(std::move(pts));
}

void Diagram::clear_routes() {
  for (NetRoute& r : routes_) r = {};
}

int Diagram::routed_count() const {
  int c = 0;
  for (const NetRoute& r : routes_) c += r.routed ? 1 : 0;
  return c;
}

int Diagram::unrouted_count() const {
  return static_cast<int>(routes_.size()) - routed_count();
}

}  // namespace na
