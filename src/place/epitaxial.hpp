// Epitaxial-growth placement baseline (paper section 4.2.2).
//
// The textbook form the paper sketches: seed the placement with the most
// connected module, then repeatedly take the unplaced module with the most
// connections to the placed structure and drop it on the free grid slot
// with the smallest total estimated wire length.  Implemented on a slot
// grid sized for the largest module (the paper notes the algorithm "is
// usually implemented on a grid").
#pragma once

#include "schematic/diagram.hpp"

namespace na {

/// Places every module of the diagram and the system terminals.
void epitaxial_place(Diagram& dia);

}  // namespace na
