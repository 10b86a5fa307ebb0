#include "netlist/netlist_io.hpp"

#include <sstream>
#include <stdexcept>

#include "netlist/text_io.hpp"

namespace na {
namespace {

/// Calls `record(r, n)` for each line of `text` with fields before its
/// first '#'-led one (the comment extension); `n` counts those fields.
template <typename Fn>
void for_each_record(std::string_view text, const char* label, Fn record) {
  RecordReader r(text, label);
  while (r.next()) {
    size_t n = 0;
    while (n < r.size() && !r[n].starts_with('#')) ++n;
    if (n > 0) record(r, n);
  }
}

}  // namespace

Network parse_network(const ModuleLibrary& lib, std::string_view call_file,
                      std::string_view io_file, std::string_view netlist_file) {
  Network net;

  for_each_record(call_file, "call-file", [&](const RecordReader& r, size_t n) {
    if (n != 2) r.fail("expected '<instance> <template>'");
    const std::string inst(r[0]);
    if (inst == "root") r.fail("'root' is a reserved instance name");
    if (net.module_by_name(inst)) r.fail("duplicate instance '" + inst + "'");
    try {
      lib.instantiate(net, r[1], inst);
    } catch (const std::exception& e) {
      r.fail(e.what());
    }
  });

  for_each_record(io_file, "io-file", [&](const RecordReader& r, size_t n) {
    if (n != 2) r.fail("expected '<terminal> <type>'");
    const std::string name(r[0]);
    auto type = parse_term_type(r[1]);
    if (!type) r.fail("bad terminal type '" + std::string(r[1]) + "'");
    if (net.term_by_name(kNone, name)) {
      r.fail("duplicate system terminal '" + name + "'");
    }
    net.add_system_terminal(name, *type);
  });

  for_each_record(netlist_file, "net-list-file",
                  [&](const RecordReader& r, size_t n) {
    if (n != 3) r.fail("expected '<net> <instance> <terminal>'");
    const NetId net_id = net.get_or_add_net(r[0]);
    const std::string inst(r[1]);
    ModuleId m = kNone;
    if (inst != "root") {
      auto found = net.module_by_name(inst);
      if (!found) r.fail("unknown instance '" + inst + "'");
      m = *found;
    }
    auto t = net.term_by_name(m, r[2]);
    if (!t) r.fail("unknown terminal '" + std::string(r[2]) + "' of '" + inst + "'");
    try {
      net.connect(net_id, *t);
    } catch (const std::exception& e) {
      r.fail(e.what());
    }
  });

  return net;
}

NetlistFiles write_network(const Network& net) {
  NetlistFiles out;
  {
    std::ostringstream os;
    for (const Module& m : net.modules()) {
      os << m.name << ' ' << (m.template_name.empty() ? m.name : m.template_name)
         << '\n';
    }
    out.call_file = os.str();
  }
  {
    std::ostringstream os;
    for (TermId t : net.system_terms()) {
      os << net.term(t).name << ' ' << to_string(net.term(t).type) << '\n';
    }
    out.io_file = os.str();
  }
  {
    std::ostringstream os;
    for (const Net& n : net.nets()) {
      for (TermId t : n.terms) {
        const Terminal& term = net.term(t);
        os << n.name << ' '
           << (term.is_system() ? std::string("root") : net.module(term.module).name)
           << ' ' << term.name << '\n';
      }
    }
    out.netlist_file = os.str();
  }
  return out;
}

}  // namespace na
