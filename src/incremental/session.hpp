// RegenSession — the re-entrant facade of the incremental regeneration
// engine: the piece the ESCHER-style edit loop (paper sections 2 and 6)
// talks to.  It owns the cached network copy, diagram and partition
// structure, and turns each edited Network handed to update() into a new
// diagram by diffing, patching placement, and patch-routing — falling back
// to a full regeneration when the edit is too large (more than half the
// partitions dirty), the frozen placement becomes infeasible, or
// the patched diagram fails the geometric validity check.
//
//   RegenSession session(options);
//   session.update(net);          // first call: full generation
//   ...user edits net...
//   session.update(edited_net);   // small delta => small work
//   session.last().nets_rerouted; // what the update actually cost
#pragma once

#include <memory>

#include "core/generator.hpp"
#include "geom/rect.hpp"
#include "incremental/netlist_diff.hpp"

namespace na {

/// Work counters for one update (last()) or the session lifetime (totals()).
struct RegenCounters {
  int updates = 0;
  int incremental = 0;    ///< updates served by the patch path
  int full_regens = 0;    ///< updates that fell back to full generation
  int edits_composed = 0;  ///< edit scripts covered by update_composed calls
  int modules_replaced = 0;
  int modules_frozen = 0;
  int nets_kept = 0;
  int nets_rerouted = 0;
  int nets_extended = 0;  ///< rerouted nets that kept partial geometry
  int cells_scrubbed = 0;
  long route_expansions = 0;  ///< successful search work of the routing pass
  int failed_searches = 0;    ///< that pass's searches that found no path
  long failed_expansions = 0; ///< states those searches expanded
  int pocket_proofs = 0;      ///< failed searches ended by the pocket proof
  int region_validations = 0;  ///< patches checked by validate_region
  /// Dirty hull the last patch validated (empty for full regens and no-op
  /// updates); in totals() the hull of every patch's region.
  geom::Rect dirty_region;

  /// Adds every counter of `o` and hulls its dirty region into this one —
  /// the single place a new counter has to be summed.
  RegenCounters& operator+=(const RegenCounters& o);
};

class RegenSession {
 public:
  /// Every update places and routes with `opt`, and checks every patched
  /// result against the drawing rules, falling back to a full regeneration
  /// when it reports problems.  The check is region-scoped: validate_region
  /// over the patch's dirty hull.
  explicit RegenSession(GeneratorOptions opt = {});
  ~RegenSession();
  RegenSession(RegenSession&&) noexcept;
  RegenSession& operator=(RegenSession&&) noexcept;

  /// Regenerates the cached diagram for `next` and returns it.  The first
  /// call (or any too-large edit) is a full generation; small edits take
  /// the incremental path.  The returned reference stays valid until the
  /// next update()/adopt() call.
  const Diagram& update(const Network& next);

  /// Multi-edit entry point: regenerates for `next` exactly as update()
  /// would, but records that the one diff/update covered `edits` composed
  /// edit scripts (ScriptComposer::steps() at flush time).  The service
  /// tier uses this at observation points so k deferred edits cost one
  /// netlist diff and one patch pass instead of k.
  const Diagram& update_composed(const Network& next, int edits);

  /// Re-seeds the session from an externally produced diagram — e.g. one
  /// reloaded through escher_reader after an editor restart, or a careful
  /// hand placement.  `dia` must wrap a network equal to `net`.
  /// Partition/box structure is re-derived from scratch; for an exact
  /// continuation of a previous session use save()/restore().
  void adopt(const Network& net, const Diagram& dia);

  /// Serialises the whole session — network, partition/box structure, and
  /// the routed diagram (as an ESCHER file via escher_writer) — into one
  /// text blob a later process can restore().  Requires a diagram.
  std::string save() const;

  /// Rebuilds a session from save() output: the restored session holds an
  /// equal network, the *same* partition/box structure (not a re-derived
  /// one), and a geometry-identical diagram, so the next update() produces
  /// byte-identical output to the session that was saved.  Counters start
  /// at zero.  Throws std::runtime_error with a line number on malformed
  /// input.
  void restore(std::string_view text);

  bool has_diagram() const { return dia_ != nullptr; }
  const Diagram& diagram() const;
  const Network& network() const;
  const PlacementInfo& placement() const { return info_; }
  const RegenCounters& totals() const { return totals_; }
  /// Counters of the most recent update() only.
  const RegenCounters& last() const { return last_; }

 private:
  void full_regen(const Network& next);
  void account(const RegenCounters& one);

  GeneratorOptions opt_;
  std::unique_ptr<Network> net_;  ///< owned copy; dia_ points into it
  std::unique_ptr<Diagram> dia_;
  PlacementInfo info_;
  RegenCounters totals_;
  RegenCounters last_;
};

}  // namespace na
