// Absorbers: translate the pipeline's stats structs into MetricsRegistry
// entries under stable, prefixed names.
//
// Header-only on purpose — na_obs itself depends on nothing, and each
// absorber only reads plain struct fields, so any target that links both
// na_obs and the struct's library can include this without creating a
// dependency cycle between the static libraries.
//
// Naming scheme: <subsystem>.<counter>, so a JSON consumer can group by
// prefix and a human can scan the text emission.  Times are not absorbed
// here: they come from the span rollup (span.<name>.*_ms).
#pragma once

#include "core/generator.hpp"
#include "incremental/session.hpp"
#include "obs/metrics.hpp"
#include "route/router.hpp"
#include "schematic/metrics.hpp"

namespace na::obs {

inline void absorb(MetricsRegistry& reg, const RouteReport& r) {
  reg.set("route.nets_routed", r.nets_routed);
  reg.set("route.nets_failed", r.nets_failed);
  reg.set("route.connections_made", r.connections_made);
  reg.set("route.connections_failed", r.connections_failed);
  reg.set("route.retried_connections", r.retried_connections);
  reg.set("route.total_expansions", r.total_expansions);
}

inline void absorb(MetricsRegistry& reg, const DiagramStats& s) {
  reg.set("diagram.modules", s.modules);
  reg.set("diagram.nets", s.nets);
  reg.set("diagram.routed", s.routed);
  reg.set("diagram.unrouted", s.unrouted);
  reg.set("diagram.wire_length", s.wire_length);
  reg.set("diagram.bends", s.bends);
  reg.set("diagram.crossings", s.crossings);
  reg.set("diagram.branch_points", s.branch_points);
  reg.set("diagram.width", s.width);
  reg.set("diagram.height", s.height);
  reg.set("diagram.flow_violations", s.flow_violations);
}

inline void absorb(MetricsRegistry& reg, const RegenCounters& c) {
  reg.set("regen.updates", c.updates);
  reg.set("regen.incremental", c.incremental);
  reg.set("regen.full_regens", c.full_regens);
  reg.set("regen.edits_composed", c.edits_composed);
  reg.set("regen.modules_replaced", c.modules_replaced);
  reg.set("regen.modules_frozen", c.modules_frozen);
  reg.set("regen.nets_kept", c.nets_kept);
  reg.set("regen.nets_rerouted", c.nets_rerouted);
  reg.set("regen.nets_extended", c.nets_extended);
  reg.set("regen.cells_scrubbed", c.cells_scrubbed);
  reg.set("regen.route_expansions", c.route_expansions);
  reg.set("regen.region_validations", c.region_validations);
  reg.set("regen.full_validations", c.full_validations);
}

/// Counters of one generator run; its phase times are the place and
/// route spans (obs/trace.hpp span_rollup).
inline void absorb(MetricsRegistry& reg, const GeneratorResult& r) {
  absorb(reg, r.route);
  absorb(reg, r.stats);
}

}  // namespace na::obs
