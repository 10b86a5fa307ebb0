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
// Nets spanning a shard boundary are *stitch* nets: they are routed after
// the merge, sequentially on the live plane, with a halo search window
// (the hull of the net inflated by `halo` tracks, full-plane fallback) —
// the cross-shard stitch protocol.  A windowed search indexes its state
// over the window, so a stitch search touches O(window) state even on
// the live plane; only a fallback search pays O(plane).  Claimpoints are
// kept per net, so the merge replays and releases only each net's own.
// The section-5.7 retry pass and the report accounting are shared with
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
  /// Stitch-pass search window slack in tracks around a stitch net's hull
  /// (full-plane fallback when the windowed search fails).
  int halo = 16;
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
  int nets_stitch = 0;          ///< boundary-spanning nets (halo pass)
  /// max(shard_nets) / mean(shard_nets); 1.0 is a perfectly even split.
  double balance = 1.0;
};

/// The disjoint vertical strips `shard_route_all` cuts `area` into:
/// `shards` rects covering `area` exactly, widths differing by at most
/// one column.  Exposed for tests and the scale bench.
std::vector<geom::Rect> shard_regions(geom::Rect area, int shards);

/// Routes every unrouted net of a placed diagram in place, sharded.
RouteReport shard_route_all(Diagram& dia, const RouterOptions& opt,
                            const ShardOptions& sopt,
                            ShardRouteStats* stats = nullptr);

}  // namespace na
