// Sharded routing: region partitioning and its offset tiling,
// byte-determinism across thread counts, equality with the sequential
// driver at one shard, the offset pass and the residual pass actually
// connecting boundary-spanning nets, and a pinned digest of a mid-size
// sharded mesh.
#include "route/shard_route.hpp"

#include <gtest/gtest.h>

#include "gen/synth.hpp"
#include "place/placer.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/grid.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

Network mesh(int modules, std::uint64_t seed = 1) {
  gen::SynthOptions o;
  o.topology = gen::SynthTopology::GridMesh;
  o.modules = modules;
  o.seed = seed;
  return gen::synth_network(o);
}

PlacerOptions placer_options() {
  PlacerOptions o;
  o.max_part_size = 8;
  o.max_box_size = 4;
  o.max_connections = 16;
  return o;
}

Diagram placed(const Network& net, int threads = 1) {
  Diagram dia(net);
  PlacerOptions o = placer_options();
  o.threads = threads;
  place(dia, o);
  return dia;
}

/// Byte image of a diagram (fixed template name and timestamp).
std::string bytes(const Diagram& dia) {
  return to_escher_diagram(dia, "shard_test", 0);
}

void expect_reports_equal(const RouteReport& a, const RouteReport& b) {
  EXPECT_EQ(a.nets_routed, b.nets_routed);
  EXPECT_EQ(a.nets_failed, b.nets_failed);
  EXPECT_EQ(a.connections_made, b.connections_made);
  EXPECT_EQ(a.connections_failed, b.connections_failed);
  EXPECT_EQ(a.retried_connections, b.retried_connections);
  EXPECT_EQ(a.total_expansions, b.total_expansions);
  EXPECT_EQ(a.failed_nets, b.failed_nets);
}

TEST(ShardRegions, PartitionThePlaneExactly) {
  const geom::Rect area{{-3, 0}, {96, 49}};
  for (const int shards : {1, 2, 4, 7}) {
    const auto regions = shard_regions(area, shards);
    ASSERT_EQ(regions.size(), static_cast<size_t>(shards));
    int next_x = area.lo.x;
    for (const geom::Rect& r : regions) {
      EXPECT_EQ(r.lo.x, next_x);  // adjacent, no gap, no overlap
      EXPECT_EQ(r.lo.y, area.lo.y);
      EXPECT_EQ(r.hi.y, area.hi.y);
      next_x = r.hi.x + 1;
    }
    EXPECT_EQ(next_x, area.hi.x + 1);
    // Widths within one column of each other.
    int wmin = area.width() + 1, wmax = 0;
    for (const geom::Rect& r : regions) {
      wmin = std::min(wmin, r.width() + 1);
      wmax = std::max(wmax, r.width() + 1);
    }
    EXPECT_LE(wmax - wmin, 1);
  }
  // More shards than columns clamps instead of emitting empty regions.
  const auto tiny = shard_regions({{0, 0}, {2, 5}}, 8);
  EXPECT_EQ(tiny.size(), 3u);
}

/// Checks that `offset` is the offset tiling of `strips`: an exact,
/// gap-free cover of the same area, cut at every midpoint of a strip at
/// least two columns wide, with no empty strip.
void expect_offset_tiling(const std::vector<geom::Rect>& strips,
                          const std::vector<geom::Rect>& offset) {
  std::vector<int> cuts;  // first column right of each expected cut
  for (const geom::Rect& r : strips) {
    const int w = r.width() + 1;
    if (w >= 2) cuts.push_back(r.lo.x + w / 2);
  }
  ASSERT_EQ(offset.size(), cuts.size() + 1);
  EXPECT_EQ(offset.front().lo.x, strips.front().lo.x);
  EXPECT_EQ(offset.back().hi.x, strips.back().hi.x);
  for (size_t i = 0; i < offset.size(); ++i) {
    EXPECT_FALSE(offset[i].empty()) << "strip " << i;
    EXPECT_EQ(offset[i].lo.y, strips.front().lo.y);
    EXPECT_EQ(offset[i].hi.y, strips.front().hi.y);
    if (i > 0) {
      EXPECT_EQ(offset[i].lo.x, offset[i - 1].hi.x + 1);  // adjacent
      EXPECT_EQ(offset[i].lo.x, cuts[i - 1]);             // at a midpoint
    }
  }
}

TEST(ShardRegions, OffsetTilingCutsAtStripMidpoints) {
  const geom::Rect area{{-3, 0}, {96, 49}};
  for (const int shards : {2, 4, 7, 32}) {
    const auto strips = shard_regions(area, shards);
    const auto offset = offset_regions(strips);
    EXPECT_EQ(offset.size(), strips.size() + 1) << "shards=" << shards;
    expect_offset_tiling(strips, offset);
  }
  // Strips one or two columns wide: a one-column strip has no midpoint,
  // so it is not cut and no offset strip is empty.
  const geom::Rect narrow{{0, 0}, {9, 3}};
  for (const int shards : {2, 5, 7, 9, 10}) {
    const auto strips = shard_regions(narrow, shards);
    expect_offset_tiling(strips, offset_regions(strips));
  }
  EXPECT_EQ(offset_regions(shard_regions(narrow, 5)).size(), 6u);  // all 2 wide
  EXPECT_EQ(offset_regions(shard_regions(narrow, 10)).size(), 1u);  // all 1 wide
  EXPECT_TRUE(offset_regions({}).empty());
}

TEST(ShardRoute, SingleShardMatchesSequentialDriver) {
  const Network net = mesh(120);
  const Diagram base = placed(net);
  RouterOptions opt;

  Diagram a = base;
  const RouteReport ra = route_all(a, opt);
  Diagram b = base;
  ShardRouteStats stats;
  const RouteReport rb = shard_route_all(b, opt, ShardOptions{1, 1}, &stats);

  EXPECT_EQ(bytes(a), bytes(b));
  expect_reports_equal(ra, rb);
  EXPECT_EQ(stats.nets_stitch, 0);
  ASSERT_EQ(stats.shard_nets.size(), 1u);
}

TEST(ShardRoute, ByteIdenticalAcrossThreadCounts) {
  const Network net = mesh(240);
  const Diagram base = placed(net);
  RouterOptions opt;
  ShardOptions sopt;
  sopt.shards = 4;

  std::string first_bytes;
  RouteReport first_report;
  ShardRouteStats first_stats;
  for (const int threads : {1, 2, 4}) {
    Diagram dia = base;
    sopt.threads = threads;
    ShardRouteStats stats;
    const RouteReport report = shard_route_all(dia, opt, sopt, &stats);
    EXPECT_TRUE(validate_diagram(dia).empty()) << "threads=" << threads;
    if (threads == 1) {
      first_bytes = bytes(dia);
      first_report = report;
      first_stats = stats;
      EXPECT_GT(first_bytes.size(), 0u);
    } else {
      EXPECT_EQ(bytes(dia), first_bytes) << "threads=" << threads;
      expect_reports_equal(report, first_report);
      EXPECT_EQ(stats.shard_nets, first_stats.shard_nets);
      EXPECT_EQ(stats.nets_stitch, first_stats.nets_stitch);
      EXPECT_EQ(stats.nets_residual, first_stats.nets_residual);
    }
  }
}

TEST(ShardRoute, StitchNetsConnectAcrossBoundaries) {
  // A mesh cut into four strips: the nets crossing a cut must be routed
  // by the offset pass or the residual pass, and the result must be a
  // fully valid diagram with those nets connected.
  const Network net = mesh(120);
  Diagram dia = placed(net);
  ShardRouteStats stats;
  const RouteReport report =
      shard_route_all(dia, RouterOptions{}, ShardOptions{4, 1}, &stats);

  EXPECT_GT(stats.nets_stitch, 0);
  EXPECT_GT(stats.nets_intra, 0);
  EXPECT_TRUE(validate_diagram(dia).empty());
  // Every net (all are 2+-terminal and placed) ends up routed: the stitch
  // passes connected the boundary-spanning ones.
  EXPECT_EQ(report.nets_failed, 0);
  EXPECT_EQ(report.nets_routed + report.nets_failed,
            stats.nets_intra + stats.nets_stitch);
}

TEST(ShardRoute, OffsetTilingRoutesNetsAcrossTheCut) {
  // Two strips, one cut: the offset tiling's middle strip straddles the
  // cut, so every net crossing it is held there and none is left over.
  const Network net = mesh(120);
  Diagram dia = placed(net);
  const RouterOptions opt;
  const int cut = shard_regions(build_grid(dia, opt.margin).area(), 2)[1].lo.x;
  ShardRouteStats stats;
  const RouteReport report =
      shard_route_all(dia, opt, ShardOptions{2, 2}, &stats);
  EXPECT_GT(stats.nets_stitch, 0);
  EXPECT_EQ(stats.nets_residual, 0);
  EXPECT_EQ(report.nets_failed, 0);
  EXPECT_TRUE(validate_diagram(dia).empty());

  // Some routed wire crosses the cut: the offset pass connected it.
  int crossing = 0;
  for (const NetRoute& r : dia.routes()) {
    int lo = cut, hi = cut - 1;
    for (const auto& pl : r.polylines) {
      for (geom::Point p : pl) {
        lo = std::min(lo, p.x);
        hi = std::max(hi, p.x);
      }
    }
    crossing += (r.routed && lo < cut && hi >= cut) ? 1 : 0;
  }
  EXPECT_GT(crossing, 0);
}

TEST(ShardRoute, ResidualIsASmallShareOfTheStitchNets) {
  // Eight strips on a 240-module mesh: most stitch nets fit in an offset
  // strip; the few that neither tiling holds route on the live plane.
  const Network net = mesh(240);
  Diagram dia = placed(net);
  ShardRouteStats stats;
  const RouteReport report =
      shard_route_all(dia, RouterOptions{}, ShardOptions{8, 4}, &stats);
  EXPECT_GT(stats.nets_residual, 0);
  EXPECT_LT(stats.nets_residual, stats.nets_stitch / 4);
  EXPECT_EQ(report.nets_failed, 0);
  EXPECT_EQ(report.nets_routed, stats.nets_intra + stats.nets_stitch);
  EXPECT_TRUE(validate_diagram(dia).empty());
}

TEST(ShardRoute, TorusWrapNetsStitch) {
  // Torus wrap nets span the whole plane — the stress case for the
  // residual pass: no strip of either tiling holds them, so they route
  // on the live plane and must still connect.
  gen::SynthOptions o;
  o.topology = gen::SynthTopology::Torus;
  o.modules = 64;
  const Network net = gen::synth_network(o);
  Diagram dia = placed(net);
  ShardRouteStats stats;
  const RouteReport report =
      shard_route_all(dia, RouterOptions{}, ShardOptions{4, 1}, &stats);
  EXPECT_GT(stats.nets_stitch, 0);
  EXPECT_GT(stats.nets_residual, 0);
  EXPECT_TRUE(validate_diagram(dia).empty());
  EXPECT_EQ(report.nets_failed, 0);
}

/// 64-bit FNV-1a of a byte string.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(ShardRoute, SynthMeshMatchesPinnedDigest) {
  // The scale tier's golden contract: a ~2k-module mesh placed on four
  // threads (box formation per partition) and routed in 8 shards (a pass
  // over the 8 strips and its merge, a windowed pass over the 9 offset
  // strips cut at their midpoints and its merge, the residual on the
  // live plane, retry) must keep producing these exact ESCHER bytes and
  // this expansion count at any thread count.  A change means the
  // router's or placer's output changed, not its speed.
  const Network net = mesh(2000);
  Diagram base(net);
  PlacerOptions popt = placer_options();
  popt.threads = 4;
  place(base, popt);
  RouterOptions ropt;
  ropt.margin = 6;
  for (const int threads : {1, 2, 4}) {
    Diagram dia = base;
    ShardRouteStats stats;
    const RouteReport report =
        shard_route_all(dia, ropt, ShardOptions{8, threads}, &stats);
    EXPECT_GT(stats.nets_stitch, 0);
    const std::uint64_t digest = fnv1a(bytes(dia));
    EXPECT_EQ(digest, 0x83e61e09df8d574bull)
        << "threads=" << threads << std::hex << " digest 0x" << digest;
    EXPECT_EQ(report.total_expansions, 14360534) << "threads=" << threads;
  }
}

TEST(PlacerThreads, ByteIdenticalAcrossThreadCounts) {
  const Network net = mesh(180);
  const std::string one = bytes(placed(net, 1));
  EXPECT_EQ(bytes(placed(net, 2)), one);
  EXPECT_EQ(bytes(placed(net, 4)), one);
}

}  // namespace
}  // namespace na
