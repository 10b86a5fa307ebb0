// The automatic schematic diagram generator — placement plus routing, the
// complete system of paper figure 3.2.
//
// This facade drives the two phases the way the historical PABLO/EUREKA
// pair did: the placer fills a diagram with module and terminal positions,
// the router adds the nets; either phase accepts partially filled input
// (preplaced modules, prerouted nets), so "generate" is also the
// incremental re-entry point the paper's editor workflow relies on.
#pragma once

#include "place/placer.hpp"
#include "route/router.hpp"
#include "schematic/metrics.hpp"

namespace na {

struct GeneratorOptions {
  PlacerOptions placer;
  RouterOptions router;
};

/// What one run produced.  Its phase times are the `place` and `route`
/// trace spans (obs::span_rollup).
struct GeneratorResult {
  PlacementInfo placement;
  RouteReport route;
  DiagramStats stats;
};

/// Runs placement (unless the diagram is already fully placed) and routing
/// on `dia`, which wraps the target network.
GeneratorResult generate(Diagram& dia, const GeneratorOptions& opt = {});

/// Convenience: builds a fresh diagram for `net` and generates it.
Diagram generate_diagram(const Network& net, const GeneratorOptions& opt = {},
                         GeneratorResult* result = nullptr);

}  // namespace na
