// The schematic diagram: placed module symbols, placed system terminals,
// and routed net paths over a network.
//
// A Diagram references (but does not own or mutate) a Network.  The
// placement phase fills module positions/rotations and system-terminal
// positions; the routing phase appends net polylines.  This mirrors the
// paper's data flow (fig. 3.2): placement emits a diagram of modules and
// terminals only, routing completes it with nets, and either part can also
// start from a partially filled diagram (preplaced / prerouted support).
#pragma once

#include <span>
#include <vector>

#include "geom/orientation.hpp"
#include "geom/rect.hpp"
#include "netlist/network.hpp"

namespace na {

struct PlacedModule {
  bool placed = false;
  geom::Point pos;               ///< lower-left corner after rotation
  geom::Rot rot = geom::Rot::R0;
  bool fixed = false;            ///< preplaced by the user; placement keeps it
};

struct PlacedSystemTerm {
  bool placed = false;
  geom::Point pos;
};

/// One net's drawn geometry: a list of polylines (each an orthogonal chain
/// of corner points).  The first polyline is the initial point-to-point
/// connection, later ones attach further terminals to the grown net.
struct NetRoute {
  bool routed = false;     ///< complete: every terminal reached (driver-set)
  bool prerouted = false;  ///< supplied by the user; routing keeps it
  std::vector<std::vector<geom::Point>> polylines;

  int total_length() const;
  int bend_count() const;
  /// Sum of geom::cell_bound over the polylines: an upper bound on the
  /// distinct points they cover.
  size_t cell_bound() const;
};

class Diagram {
 public:
  explicit Diagram(const Network& net);

  const Network& network() const { return *net_; }

  // ----- placement ----------------------------------------------------------
  void place_module(ModuleId m, geom::Point pos, geom::Rot rot = geom::Rot::R0,
                    bool fixed = false);
  void place_system_term(TermId t, geom::Point pos);
  bool module_placed(ModuleId m) const { return modules_.at(m).placed; }
  bool system_term_placed(TermId t) const;
  /// Whether any terminal has a position: a system terminal placed, or a
  /// subsystem terminal's module placed.
  bool term_placed(TermId t) const;
  bool all_placed() const;
  const PlacedModule& placed(ModuleId m) const { return modules_.at(m); }

  /// Rotated size of a placed module.
  geom::Point module_size(ModuleId m) const;
  /// Occupied rectangle (closed; the boundary is part of the symbol).
  geom::Rect module_rect(ModuleId m) const;
  /// Absolute position of any terminal: a subsystem terminal's rotated,
  /// translated position, or a system terminal's placed position.
  geom::Point term_pos(TermId t) const;
  /// Side of the module the terminal faces after rotation; for a system
  /// terminal, the expansion is unrestricted and this must not be called.
  geom::Side term_facing(TermId t) const;

  /// Hull of all placed modules and system terminals.
  geom::Rect placement_bounds() const;
  /// placement_bounds() grown over every routed point: the drawing's extent.
  geom::Rect drawing_bounds() const;
  /// Shifts every placed element (and every route) by `d`.
  void translate(geom::Point d);
  /// Translates so placement_bounds().lo becomes `origin` (default (0,0)).
  void normalize(geom::Point origin = {});

  // ----- routing ------------------------------------------------------------
  NetRoute& route(NetId n) { return routes_.at(n); }
  const NetRoute& route(NetId n) const { return routes_.at(n); }
  const std::vector<NetRoute>& routes() const { return routes_; }
  void add_polyline(NetId n, std::vector<geom::Point> pts);
  void clear_routes();
  int routed_count() const;
  int unrouted_count() const;

 private:
  const Network* net_;
  std::vector<PlacedModule> modules_;
  std::vector<PlacedSystemTerm> system_terms_;  ///< indexed by TermId (sparse)
  std::vector<NetRoute> routes_;
};

}  // namespace na
