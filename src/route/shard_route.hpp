// Sharded routing: the scale tier of the EUREKA driver.
//
// The routing plane is split into disjoint vertical region shards.  A net
// whose pending terminals and prerouted geometry (inflated by one track
// for its claimpoints) fit inside one shard is routed against a *clipped*
// copy of that shard only — the clip boundary acts blocked, so per-shard
// searches touch O(shard) state instead of O(plane), and two shards can
// never write the same cell.  Shard jobs run on the worker pool;
// their results are journalled and merged into the live plane in shard
// index order, so any thread count produces a byte-identical diagram and
// report for a fixed shard count.
//
// Nets spanning a cut are *stitch* nets.  After the merge they go through
// a second sharded pass over the *offset* strips, whose cuts sit at the
// first strips' midpoints: a net that crosses one cut of the first tiling
// usually lies inside one offset strip.  That pass reads the merged live
// plane and searches inside a halo window (the hull of the net inflated by
// a constant 16 tracks, falling back to the whole strip), because an
// unwindowed search floods the strip.  Its jobs run on the same pool and merge in
// strip order.  The *residual* — nets neither tiling holds — is routed
// sequentially on the live plane with the same halo window and a
// full-plane fallback.  A windowed search indexes its state over the
// window, so a residual search touches O(window) state even on the live
// plane; only a fallback search pays O(plane).  Claimpoints are kept per
// net, so a merge replays and releases only each net's own.
// Pass 1 over the first strips and the section-5.7 retry pass search
// unwindowed.  The retry pass and the report accounting are shared with
// route_all.
//
// With shards <= 1 the driver is the sequential loop: route_all is this
// driver at one shard.
#pragma once

#include <vector>

#include "route/router.hpp"

namespace na {

struct ShardOptions {
  /// Number of vertical region shards the plane is cut into (<= 1 routes
  /// sequentially on the whole plane).
  int shards = 1;
  /// Worker threads for the shard jobs: 1 runs them inline in shard
  /// order, 0 uses the hardware concurrency.  Byte-identical output at
  /// any value.
  int threads = 1;
};

/// Work-distribution counters of one sharded run (kept out of RouteReport,
/// which must stay comparable with route_all's).
struct ShardRouteStats {
  std::vector<int> shard_nets;  ///< nets assigned to each shard
  int nets_intra = 0;           ///< nets routed inside one shard
  int nets_stitch = 0;          ///< nets crossing a cut of the strips
  int nets_residual = 0;        ///< stitch nets no offset strip holds
  /// max(shard_nets) / mean(shard_nets); 1.0 is a perfectly even split.
  double balance = 1.0;
};

/// The disjoint vertical strips `shard_route_all` cuts `area` into:
/// `shards` rects covering `area` exactly, widths differing by at most
/// one column.  Exposed for tests and the scale bench.
std::vector<geom::Rect> shard_regions(geom::Rect area, int shards);

/// The offset tiling of `strips` (adjacent, left to right): cut at each
/// strip's midpoint column, so n strips give n+1, with half-width strips
/// at both ends.  A strip one column wide has no midpoint and is not cut,
/// so no offset strip is empty.
std::vector<geom::Rect> offset_regions(const std::vector<geom::Rect>& strips);

/// Routes every unrouted net of a placed diagram in place, sharded
/// (`known_failed` as for route_all).
RouteReport shard_route_all(Diagram& dia, const RouterOptions& opt,
                            const ShardOptions& sopt,
                            ShardRouteStats* stats = nullptr,
                            const std::vector<bool>& known_failed = {});

}  // namespace na
