// Dirty-region tracking — layer 2a of the incremental regeneration engine.
//
// Maps a NetlistDiff onto the partition structure the placement produced
// (paper section 4.6.3): an edit invalidates placement at *partition*
// granularity, because seed-and-grow, box formation and the gravity
// placements all operate per partition.  The rules:
//
//   * a changed module dirties its partition (its shape drives the box
//     layout it sits in);
//   * a removed module dirties the partition it was in (the survivors may
//     re-group);
//   * a changed net dirties the partitions of exactly the modules whose
//     membership on that net changed (the re-pinned end), not of every
//     module on the net;
//   * an added module is dirty but belongs to no old partition;
//   * added and removed nets do NOT dirty placement — connecting or
//     deleting a net is a pure routing change, handled by the patch router.
//
// Every module of a dirty partition becomes dirty (it will be re-placed by
// seed-and-grow over the dirty set); everything else stays frozen.
#pragma once

#include "incremental/netlist_diff.hpp"
#include "place/placer.hpp"

namespace na {

struct DirtyInfo {
  std::vector<bool> partition_dirty;  ///< per partition of the old PlacementInfo
  std::vector<bool> module_dirty;     ///< per NEW module id: must be (re)placed
  int dirty_modules = 0;
  int dirty_partitions = 0;

  /// Share of partitions invalidated — the fallback criterion: above one
  /// half (a constant in session.cpp) a full re-place is cheaper and
  /// better than patching.
  double dirty_fraction() const {
    return partition_dirty.empty()
               ? 1.0
               : static_cast<double>(dirty_partitions) /
                     static_cast<double>(partition_dirty.size());
  }
};

/// Projects `diff` onto `placement` (the cached PlacementInfo, in OLD ids).
DirtyInfo map_dirty(const NetlistDiff& diff, const Network& before,
                    const Network& after, const PlacementInfo& placement);

}  // namespace na
