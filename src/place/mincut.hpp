// Min-cut bipartitioning placement baseline (paper section 4.2.3,
// Lauther [5]).
//
// Recursive bipartitioning with alternating cut direction: each module set
// is split into two roughly equal halves minimising the number of nets
// crossing the cut (greedy balanced split plus pairwise-swap improvement),
// realised as a slicing arrangement so symbols never overlap.
//
// The paper's verdict — reproduced by bench_placement_baselines — is that
// this placement ignores signal-flow direction and therefore yields less
// readable schematics than the flow-aware pipeline, even though it
// minimises crossings between regions.
#pragma once

#include "schematic/diagram.hpp"

namespace na {

/// Places every module of the diagram (ignores preplacement) and the
/// system terminals: two empty tracks around each module, at most eight
/// pairwise-swap passes per split.
void mincut_place(Diagram& dia);

/// Exposed for tests: splits `mods` into two halves (|sizes| differ by at
/// most one module) minimising the crossing net count; returns the first
/// half (the rest is the second).
std::vector<ModuleId> mincut_bipartition(const Network& net,
                                         const std::vector<ModuleId>& mods,
                                         int improvement_passes);

/// Number of nets with a terminal in both halves.
int cut_size(const Network& net, const std::vector<ModuleId>& a,
             const std::vector<ModuleId>& b);

}  // namespace na
