// Module library: reusable symbol templates (paper section 3.4, Appendix B/C).
//
// The paper's flow keeps a library of module representations maintained by
// the QUINTO module generator; the diagram generator pulls template sizes
// and terminal positions from it when instantiating a net-list.  Here a
// ModuleLibrary stores ModuleTemplates and knows how to parse / emit the
// Appendix B module-description format:
//
//   module <name> <width> <height>
//   <in|out|inout> <term-name> <x> <y>
//   ...
//
// Appendix B requires coordinates divisible by the drawing pitch (10 in the
// historical files); we store track units directly and accept an optional
// pitch divisor when parsing legacy files.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/network.hpp"

namespace na {

struct TemplateTerm {
  std::string name;
  TermType type = TermType::InOut;
  geom::Point pos;  ///< on the template perimeter
};

struct ModuleTemplate {
  std::string name;
  geom::Point size;
  std::vector<TemplateTerm> terms;

  std::optional<const TemplateTerm*> term_by_name(std::string_view n) const;
};

class ModuleLibrary {
 public:
  /// Registers a template; replaces any previous template of the same name.
  void add(ModuleTemplate t);
  const ModuleTemplate* find(std::string_view name) const;
  bool contains(std::string_view name) const { return find(name) != nullptr; }
  int size() const { return static_cast<int>(order_.size()); }
  const std::vector<std::string>& names() const { return order_; }

  /// Instantiates `tmpl` into `net` under instance name `instance`,
  /// creating the module and all its terminals.  Throws if unknown.
  ModuleId instantiate(Network& net, std::string_view tmpl,
                       std::string instance) const;

  /// Convenience: a library of simple generic templates (buf/and/or/...,
  /// registers, muxes) used by the workload generators and examples.
  static ModuleLibrary standard_cells();

 private:
  std::unordered_map<std::string, ModuleTemplate> templates_;
  std::vector<std::string> order_;
};

/// Parses one Appendix-B module description.  `pitch` divides all file
/// coordinates (pass 10 for historical ESCHER-era files, 1 for track units).
/// Throws std::runtime_error with a line-numbered message on bad input.
ModuleTemplate parse_module_description(std::string_view text, int pitch = 1);

/// Emits the Appendix-B description (inverse of the parser, pitch 1).
std::string format_module_description(const ModuleTemplate& t);

}  // namespace na
