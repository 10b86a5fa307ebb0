#include "netlist/module_library.hpp"

#include <sstream>
#include <stdexcept>

#include "netlist/text_io.hpp"

namespace na {

std::optional<const TemplateTerm*> ModuleTemplate::term_by_name(
    std::string_view n) const {
  for (const TemplateTerm& t : terms) {
    if (t.name == n) return &t;
  }
  return std::nullopt;
}

void ModuleLibrary::add(ModuleTemplate t) {
  auto [it, inserted] = templates_.emplace(t.name, t);
  if (inserted) {
    order_.push_back(t.name);
  } else {
    it->second = std::move(t);
  }
}

const ModuleTemplate* ModuleLibrary::find(std::string_view name) const {
  auto it = templates_.find(std::string(name));
  return it == templates_.end() ? nullptr : &it->second;
}

ModuleId ModuleLibrary::instantiate(Network& net, std::string_view tmpl,
                                    std::string instance) const {
  const ModuleTemplate* t = find(tmpl);
  if (t == nullptr) {
    throw std::runtime_error("unknown module template '" + std::string(tmpl) + "'");
  }
  const ModuleId m = net.add_module(std::move(instance), t->name, t->size);
  for (const TemplateTerm& term : t->terms) {
    net.add_terminal(m, term.name, term.type, term.pos);
  }
  return m;
}

namespace {

ModuleTemplate gate2(std::string name) {
  return {std::move(name),
          {4, 4},
          {{"a", TermType::In, {0, 1}},
           {"b", TermType::In, {0, 3}},
           {"y", TermType::Out, {4, 2}}}};
}

}  // namespace

ModuleLibrary ModuleLibrary::standard_cells() {
  ModuleLibrary lib;
  lib.add({"buf", {4, 2}, {{"a", TermType::In, {0, 1}}, {"y", TermType::Out, {4, 1}}}});
  lib.add({"inv", {4, 2}, {{"a", TermType::In, {0, 1}}, {"y", TermType::Out, {4, 1}}}});
  lib.add(gate2("and2"));
  lib.add(gate2("or2"));
  lib.add(gate2("xor2"));
  lib.add(gate2("nand2"));
  lib.add(gate2("nor2"));
  lib.add({"and3",
           {4, 4},
           {{"a", TermType::In, {0, 1}},
            {"b", TermType::In, {0, 2}},
            {"c", TermType::In, {0, 3}},
            {"y", TermType::Out, {4, 2}}}});
  lib.add({"dff",
           {6, 4},
           {{"d", TermType::In, {0, 3}},
            {"ck", TermType::In, {0, 1}},
            {"q", TermType::Out, {6, 3}},
            {"qn", TermType::Out, {6, 1}}}});
  lib.add({"mux2",
           {6, 4},
           {{"a", TermType::In, {0, 3}},
            {"b", TermType::In, {0, 1}},
            {"s", TermType::In, {3, 0}},
            {"y", TermType::Out, {6, 2}}}});
  lib.add({"adder",
           {8, 6},
           {{"a", TermType::In, {0, 4}},
            {"b", TermType::In, {0, 2}},
            {"cin", TermType::In, {4, 0}},
            {"s", TermType::Out, {8, 3}},
            {"cout", TermType::Out, {4, 6}}}});
  lib.add({"alu",
           {10, 8},
           {{"a", TermType::In, {0, 6}},
            {"b", TermType::In, {0, 2}},
            {"op", TermType::In, {5, 0}},
            {"y", TermType::Out, {10, 4}},
            {"flags", TermType::Out, {5, 8}}}});
  lib.add({"reg",
           {8, 6},
           {{"d", TermType::In, {0, 4}},
            {"en", TermType::In, {0, 2}},
            {"ck", TermType::In, {4, 0}},
            {"q", TermType::Out, {8, 3}}}});
  lib.add({"ctrl",
           {10, 10},
           {{"i0", TermType::In, {0, 3}},
            {"i1", TermType::In, {0, 7}},
            {"c0", TermType::Out, {10, 2}},
            {"c1", TermType::Out, {10, 5}},
            {"c2", TermType::Out, {10, 8}},
            {"c3", TermType::Out, {3, 10}},
            {"c4", TermType::Out, {7, 10}},
            {"c5", TermType::Out, {3, 0}},
            {"c6", TermType::Out, {7, 0}}}});
  return lib;
}

ModuleTemplate parse_module_description(std::string_view text, int pitch) {
  RecordReader r(text, "module description");
  // Appendix B coordinates are multiples of the drawing pitch.
  auto coord = [&](size_t i) {
    const int v = r.int_field(i, -kMaxCoord, kMaxCoord);
    if (v % pitch != 0) {
      r.fail("coordinate " + std::string(r[i]) + " not divisible by pitch " +
             std::to_string(pitch));
    }
    return v / pitch;
  };
  if (!r.next()) throw std::runtime_error("module description: empty input");
  if (r.size() != 4 || r[0] != "module") {
    r.fail("expected 'module <name> <width> <height>'");
  }
  ModuleTemplate t;
  t.name = r[1];
  t.size = {coord(2), coord(3)};
  if (t.size.x <= 0 || t.size.y <= 0) r.fail("non-positive module size");
  while (r.next()) {
    if (r.size() != 4) r.fail("expected '<type> <name> <x> <y>'");
    auto type = parse_term_type(r[0]);
    if (!type) r.fail("bad terminal type '" + std::string(r[0]) + "'");
    const geom::Point pos{coord(2), coord(3)};
    if (!geom::on_perimeter(pos, t.size)) {
      r.fail("terminal '" + std::string(r[1]) + "' not on the module outline");
    }
    t.terms.push_back({std::string(r[1]), *type, pos});
  }
  return t;
}

std::string format_module_description(const ModuleTemplate& t) {
  std::ostringstream out;
  out << "module " << t.name << ' ' << t.size.x << ' ' << t.size.y << '\n';
  for (const TemplateTerm& term : t.terms) {
    out << to_string(term.type) << ' ' << term.name << ' ' << term.pos.x << ' '
        << term.pos.y << '\n';
  }
  return out.str();
}

}  // namespace na
