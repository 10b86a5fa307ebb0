// Columnar logic-schematic placement baseline (paper section 4.3).
//
// The highly constrained scheme used for pure logic diagrams: modules are
// layered into columns by input dependency (column 1: modules driven only
// from outside; column k: driven only by columns < k), then the symbols in
// each column are permuted to reduce net crossings with barycentre sweeps.
// The paper's point — which the baseline bench demonstrates — is that this
// works only for acyclic, gate-like networks and "imposes a lot of
// undesirable constraints" for general schematics.
#pragma once

#include "schematic/diagram.hpp"

namespace na {

/// Places every module of the diagram and the system terminals: four
/// barycentre sweeps, four tracks between columns, two between the symbols
/// of a column.
void columnar_place(Diagram& dia);

/// Exposed for tests: the column index (level) of each module; cycles are
/// cut by capping relaxation at module-count iterations.
std::vector<int> columnar_levels(const Network& net);

}  // namespace na
