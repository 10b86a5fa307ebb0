// Scale tier — synthetic grid meshes at 1k/10k/100k modules, placed,
// routed and validated end-to-end, with the sharded router A/B'd against
// the single-shard sequential driver at 10k.
//
// Prints one line per (size, configuration) with modules/sec, validation
// time, peak RSS, shard balance and the stitch-net share — the numbers
// EXPERIMENTS.md's "Scale tier" table quotes.  The times are span rollups:
// the bench's own place and route spans and the validator's
// validate.full span.  The recorder's buffers count towards the RSS.
//
// NA_SCALE_MAX_MODULES caps the sweep (the ctest `scale` smoke runs with
// 1000 so the default suite stays fast; the full 10k/100k sweep is
// bench-only).
#include <cstdlib>

#include "bench_util.hpp"
#include "gen/synth.hpp"
#include "place/placer.hpp"
#include "route/shard_route.hpp"

namespace {

using namespace na;
using namespace na::bench;

GeneratorOptions scale_options() {
  GeneratorOptions opt;
  opt.placer.max_part_size = 8;
  opt.placer.max_box_size = 4;
  opt.placer.max_connections = 16;
  opt.router.margin = 6;
  return opt;
}

struct RunResult {
  std::vector<obs::SpanStats> spans;
  RouteReport report;
  ShardRouteStats shard_stats;

  double ms(const char* span) const { return obs::span_total_ms(spans, span); }
};

/// Places a fresh diagram, routes it with the given shard setup and
/// validates the result (aborting on an invalid diagram).
RunResult run_one(const Network& net, const GeneratorOptions& opt,
                  const ShardOptions& sopt, const char* config) {
  RunResult r;
  Diagram dia(net);
  r.spans = traced([&] {
    {
      NA_TRACE_SCOPE("place");
      place(dia, opt.placer);
    }
    {
      NA_TRACE_SCOPE("route");
      r.report = shard_route_all(dia, opt.router, sopt, &r.shard_stats);
    }
    require_valid(dia, config);
  });
  return r;
}

void print_result(const char* config, int modules, const RunResult& r) {
  const double total_ms = r.ms("place") + r.ms("route");
  const double mps = total_ms > 0 ? modules / total_ms * 1e3 : 0;
  const int base = r.shard_stats.nets_intra + r.shard_stats.nets_stitch;
  auto share = [base](int nets) {
    return base > 0 ? 100.0 * nets / base : 0.0;
  };
  std::printf(
      "%-28s %8d modules  place %8.1f ms  route %9.1f ms  validate %8.1f ms  "
      "%8.0f mod/s  unrouted %d  stitch %4.1f%%  residual %4.1f%%  "
      "balance %.2f  rss %lld MB\n",
      config, modules, r.ms("place"), r.ms("route"), r.ms("validate.full"), mps,
      r.report.nets_failed, share(r.shard_stats.nets_stitch),
      share(r.shard_stats.nets_residual), r.shard_stats.balance,
      obs::peak_rss_bytes() >> 20);
}

}  // namespace

int main() {
  const long cap = [] {
    const char* env = std::getenv("NA_SCALE_MAX_MODULES");
    return env != nullptr ? std::atol(env) : 200000L;
  }();
  const GeneratorOptions opt = scale_options();

  std::printf("\n=== scale tier — synthetic grid mesh, sharded routing ===\n");
  struct Tier {
    int modules;
    int shards;
  };
  for (const Tier tier : {Tier{1000, 4}, Tier{10000, 8}, Tier{100000, 16}}) {
    if (tier.modules > cap) continue;
    gen::SynthOptions sopt;
    sopt.topology = gen::SynthTopology::GridMesh;
    sopt.modules = tier.modules;
    sopt.seed = 1;
    const Network net = gen::synth_network(sopt);

    ShardOptions shard;
    shard.shards = tier.shards;
    shard.threads = 4;
    const std::string cfg = "mesh" + std::to_string(tier.modules) + " shards=" +
                            std::to_string(tier.shards);
    const RunResult sharded = run_one(net, opt, shard, cfg.c_str());
    print_result(cfg.c_str(), net.module_count(), sharded);

    // A/B at 10k: the same workload on the single-shard sequential driver.
    if (tier.modules == 10000) {
      const char* base_cfg = "mesh10000 shards=1 (base)";
      const RunResult baseline = run_one(net, opt, ShardOptions{1, 1}, base_cfg);
      print_result(base_cfg, net.module_count(), baseline);
      std::printf("10k speedup (route wall-clock): %.2fx\n",
                  baseline.ms("route") / sharded.ms("route"));
    }
  }
  return 0;
}
