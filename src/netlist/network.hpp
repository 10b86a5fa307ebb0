// The network model: modules, terminals, and nets.
//
// This is the nine-tuple representation of paper section 4.6.2,
//   (M, N, ST, T, terms, type, position-terminal, net, size)
// realised as an indexed in-memory structure:
//   * modules (M) with their sizes (size) and terminal lists (terms),
//   * subsystem terminals (T) with relative positions (position-terminal)
//     and io types (type),
//   * system terminals (ST) with io types,
//   * nets (N) as terminal sets (the relation `net`).
//
// Terminal positions are relative to the *unrotated* module's lower-left
// corner; the placement phase assigns rotations and absolute positions in a
// separate Diagram structure so a Network stays immutable through the flow.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geom/orientation.hpp"
#include "geom/point.hpp"

namespace na {

using ModuleId = int;
using NetId = int;
using TermId = int;
inline constexpr int kNone = -1;

/// IO type of a terminal (paper: type : T u ST -> {in, out, inout}).
enum class TermType { In, Out, InOut };

std::string to_string(TermType t);
/// Parses "in" / "out" / "inout" (Appendix A io-file syntax).
std::optional<TermType> parse_term_type(std::string_view s);

/// True when a terminal of type `from` may drive a terminal of type `to`
/// (the out/inout -> in/inout relation used by LONGEST_PATH).
constexpr bool drives(TermType from, TermType to) {
  return (from == TermType::Out || from == TermType::InOut) &&
         (to == TermType::In || to == TermType::InOut);
}

struct Terminal {
  std::string name;
  TermType type = TermType::InOut;
  geom::Point pos;          ///< relative to module lower-left; unused for system terminals
  ModuleId module = kNone;  ///< kNone => system terminal
  NetId net = kNone;        ///< kNone => unconnected

  bool is_system() const { return module == kNone; }
};

struct Module {
  std::string name;           ///< instance name
  std::string template_name;  ///< library template (may be empty for ad-hoc modules)
  geom::Point size;           ///< x and y extent in grid tracks
  std::vector<TermId> terms;
};

struct Net {
  std::string name;
  std::vector<TermId> terms;
};

/// An immutable-after-build electrical network.
///
/// Ids are dense indices (0..count-1) into the per-kind vectors, so
/// algorithms can use plain vectors keyed by id.
class Network {
 public:
  // ----- construction ------------------------------------------------------
  ModuleId add_module(std::string name, std::string template_name, geom::Point size);
  /// Adds a subsystem terminal.  `rel` must lie on the module perimeter.
  TermId add_terminal(ModuleId m, std::string name, TermType type, geom::Point rel);
  TermId add_system_terminal(std::string name, TermType type);
  NetId add_net(std::string name);
  /// Returns the net named `name`, creating it if absent.
  NetId get_or_add_net(std::string_view name);
  /// Attaches a terminal to a net.  A terminal joins at most one net.
  void connect(NetId n, TermId t);

  // ----- element access ----------------------------------------------------
  int module_count() const { return static_cast<int>(modules_.size()); }
  int net_count() const { return static_cast<int>(nets_.size()); }
  int term_count() const { return static_cast<int>(terms_.size()); }
  const Module& module(ModuleId m) const { return modules_.at(m); }
  const Terminal& term(TermId t) const { return terms_.at(t); }
  const Net& net(NetId n) const { return nets_.at(n); }
  const std::vector<Module>& modules() const { return modules_; }
  const std::vector<Terminal>& terms() const { return terms_; }
  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<TermId>& system_terms() const { return system_terms_; }

  std::optional<ModuleId> module_by_name(std::string_view name) const;
  std::optional<NetId> net_by_name(std::string_view name) const;
  /// Terminal of module `m` named `term_name` (kNone module => system terminal).
  std::optional<TermId> term_by_name(ModuleId m, std::string_view term_name) const;

  // ----- derived queries (paper 4.6.2 auxiliary functions) ------------------
  /// Side of the module perimeter the terminal sits on (unrotated module).
  geom::Side term_side(TermId t) const;
  /// (m0, m1) connected(n): both modules carry a terminal of net n.
  bool connected_by(ModuleId m0, ModuleId m1, NetId n) const;
  /// Number of distinct nets connecting the two modules.
  int connections(ModuleId m0, ModuleId m1) const;
  /// Number of distinct nets connecting `m` to any module for which
  /// `in_set[other]` is true (m itself is ignored).
  int connections_to(ModuleId m, const std::vector<bool>& in_set) const;
  /// Number of distinct nets with a terminal inside the set and a terminal
  /// outside it (external connection count used by FORM_PARTITION).
  int external_connections(const std::vector<bool>& in_set) const;
  /// Modules adjacent to `m` through any net (deduplicated, no self).
  std::vector<ModuleId> neighbors(ModuleId m) const;
  /// Nets touching module `m` (deduplicated).
  std::vector<NetId> nets_of(ModuleId m) const;

  // ----- validation ---------------------------------------------------------
  /// Structural checks: terminals on perimeter, nets with >= 2 terminals,
  /// no dangling references.  Returns human-readable problem descriptions.
  std::vector<std::string> validate() const;

 private:
  std::vector<Module> modules_;
  std::vector<Terminal> terms_;
  std::vector<Net> nets_;
  std::vector<TermId> system_terms_;
  std::unordered_map<std::string, ModuleId> module_names_;
  std::unordered_map<std::string, NetId> net_names_;
};

}  // namespace na
