// The placement pipeline — the paper's PABLO program (chapter 4).
//
//   1. PARTITIONING        seed-and-grow functional groups  (-p, -c)
//   2. BOX_FORMATION       longest signal-flow strings      (-b)
//   3. MODULE_PLACEMENT    left-to-right within each box    (-s)
//   4. BOX_PLACEMENT       gravity centres within partition (-i)
//   5. PARTITION_PLACEMENT gravity centres globally         (-e)
//   6. TERMINAL_PLACEMENT  system terminals on the ring
//
// Modules already placed in the diagram (preplaced, option -g) are kept:
// they form a partition of their own that stays at its absolute position,
// and the remaining modules are arranged around it.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "place/boxes.hpp"
#include "place/partition_place.hpp"
#include "schematic/diagram.hpp"

namespace na {

struct PlacerOptions {
  int max_part_size = 1;  ///< -p: maximum modules per partition
  int max_box_size = 1;   ///< -b: maximum string length
  int max_connections = std::numeric_limits<int>::max();  ///< -c
  int partition_spacing = 0;  ///< -e: extra tracks around each partition
  int box_spacing = 0;        ///< -i: extra tracks around each box
  int module_spacing = 0;     ///< -s: extra tracks around each module
  /// Placement threads: after partitioning, box formation / module
  /// placement / box placement of each partition are independent jobs;
  /// N > 1 runs them on a worker pool, 0 uses the hardware
  /// concurrency.  Any thread count produces a byte-identical placement —
  /// per-partition results are deterministic and are assembled in
  /// partition order.
  int threads = 1;
};

/// The structural decomposition the placement produced, for inspection,
/// tests, and the experiment harness.
struct PlacementInfo {
  std::vector<std::vector<ModuleId>> partitions;
  std::vector<std::vector<Box>> boxes;  ///< boxes per partition, level order
};

/// Runs the full pipeline on `dia`, placing every unplaced module and
/// system terminal.  The diagram is normalised to a (0,0) lower-left
/// corner afterwards unless preplaced modules pin the coordinates.
PlacementInfo place(Diagram& dia, const PlacerOptions& opt = {});

// ----- pieces shared with incremental placement -----------------------------
// incremental_place re-runs this pipeline over an edit's dirty modules with
// the clean ones pinned; it calls these pieces of place() rather than
// keeping copies, so both place a partition byte for byte alike.
namespace detail {

/// Placed modules as one pinned pseudo-partition (Appendix E, option -g:
/// "the preplaced part will form a partition on its own"): a one-module
/// box per module, at its position relative to `hull.lo` and with its
/// rotation and size.  Module m is read from `dia` as m itself, or as
/// `to_dia[m]` when `to_dia` is given — an old diagram read through
/// NetlistDiff::module_to_old — while its box keeps the id m.
PartitionLayout pinned_layout(const Diagram& dia, const std::vector<ModuleId>& modules,
                              geom::Rect hull, std::span<const ModuleId> to_dia = {});

/// Pipeline steps 2-4 for one partition: box formation, module placement
/// within each box, box placement within the partition, each under its
/// place.* trace span.  A pure function of (net, partition, options), so
/// partitions can be built as independent jobs in any order.
struct PartitionResult {
  std::vector<Box> boxes;
  PartitionLayout layout;
};
PartitionResult build_partition(const Network& net,
                                const std::vector<ModuleId>& partition,
                                const PlacerOptions& opt, int part_idx);

/// Commits the absolute position of every module in `full` that `dia` has
/// not placed yet (placed modules stay put).  Returns how many it placed.
int commit_layout(Diagram& dia, const FullLayout& full);

}  // namespace detail
}  // namespace na
