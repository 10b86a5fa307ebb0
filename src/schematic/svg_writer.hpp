// SVG rendering of a schematic diagram — the modern stand-in for the
// graphics terminal of the historical ESCHER editor.
#pragma once

#include <string>

#include "schematic/diagram.hpp"

namespace na {

/// Renders the diagram to SVG markup: 12 pixels per grid track, a
/// two-track border, nets in an 8-colour palette cycled over net ids,
/// module names inside the symbols and every placed terminal marked.
std::string to_svg(const Diagram& dia);

}  // namespace na
