#include "core/generator.hpp"

#include "obs/trace.hpp"

namespace na {

GeneratorResult generate(Diagram& dia, const GeneratorOptions& opt) {
  GeneratorResult result;
  if (!dia.all_placed()) {
    NA_TRACE_SPAN(span, "place");
    result.placement = place(dia, opt.placer);
    span.arg("partitions", static_cast<long long>(result.placement.partitions.size()));
  }
  {
    NA_TRACE_SPAN(span, "route");
    result.route = route_all(dia, opt.router);
    span.arg("nets_routed", result.route.nets_routed);
    span.arg("nets_failed", result.route.nets_failed);
    span.arg("expansions", result.route.total_expansions);
  }
  {
    NA_TRACE_SCOPE("stats");
    result.stats = compute_stats(dia);
  }
  return result;
}

Diagram generate_diagram(const Network& net, const GeneratorOptions& opt,
                         GeneratorResult* result) {
  Diagram dia(net);
  GeneratorResult r = generate(dia, opt);
  if (result != nullptr) *result = std::move(r);
  return dia;
}

}  // namespace na
