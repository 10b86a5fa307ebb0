#include "core/generator.hpp"

#include <chrono>

#include "obs/trace.hpp"

namespace na {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

GeneratorResult generate(Diagram& dia, const GeneratorOptions& opt) {
  GeneratorResult result;
  if (!dia.all_placed()) {
    NA_TRACE_SPAN(span, "place");
    const auto t0 = std::chrono::steady_clock::now();
    result.placement = place(dia, opt.placer);
    result.place_seconds = seconds_since(t0);
    span.arg("partitions", static_cast<long long>(result.placement.partitions.size()));
  }
  {
    NA_TRACE_SPAN(span, "route");
    const auto t0 = std::chrono::steady_clock::now();
    result.route = route_all(dia, opt.router);
    result.route_seconds = seconds_since(t0);
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
