// Iterative placement improvement by pairwise exchange (paper 4.2.1).
//
// The class of algorithms the paper explicitly *rejects* for diagram
// generation: "They deal with local changes such as the pair wise exchange
// of modules.  Typically, there are a large number of such trials, so this
// results in very greedy algorithms ... They easily get stuck in a local
// minimum.  Their greediness is unacceptable for generating diagrams
// automatically.  A diagram should be produced in no time."
//
// Implemented here so the trade-off can be measured: the improver swaps
// module positions (keeping each module's rotation) whenever that lowers
// the total estimated wire length, until a pass yields no gain or the
// budget runs out.  bench_placement_baselines quantifies the cost/benefit.
#pragma once

#include "schematic/diagram.hpp"

namespace na {

struct ImproveOptions {
  long max_trials = 500000; ///< absolute bound on evaluated swaps
};

struct ImproveReport {
  int swaps = 0;
  long trials = 0;
  long initial_length = 0;  ///< estimated wire length before
  long final_length = 0;    ///< ... and after
};

/// Estimated wire length of a placement: per net, the half perimeter of
/// its terminals' bounding box (the standard pre-routing estimate).
long estimate_wire_length(const Diagram& dia);

/// Greedy pairwise-exchange improvement over the placed modules.  Only
/// swaps that keep both modules inside non-overlapping positions are
/// applied: modules exchange lower-left positions when their sizes allow it
/// without collision.  System terminals stay put.
ImproveReport improve_by_exchange(Diagram& dia, const ImproveOptions& opt = {});

}  // namespace na
