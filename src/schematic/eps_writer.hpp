// Encapsulated PostScript output — the plotter format of the paper's era
// (the figures in the original report are pen plots).  One grid track maps
// to 8 points; modules are outlined boxes with centred labels, nets are
// polyline strokes, terminals small marks.
#pragma once

#include <string>

#include "schematic/diagram.hpp"

namespace na {

std::string to_eps(const Diagram& dia);

}  // namespace na
