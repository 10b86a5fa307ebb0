// The line-expansion router (paper chapter 5) and its shared search core.
//
// The search explores states (grid point, heading).  A straight step costs
// one length unit (plus one crossing when it passes over a foreign
// perpendicular net); a turn in place costs one bend and requires the whole
// grid point to be free (a bend occupies both orientations).  With costs
// ordered lexicographically (bends, crossings, length) the first goal state
// popped is exactly the path section 5.4 asks for: minimum bends, then
// minimum crossovers, then minimum wire length.  The `-s` option of
// Appendix F swaps the last two keys.
//
// The search state lives in a SearchWorkspace (generation-stamped arrays
// plus a reusable binary heap) so repeated searches stop paying a per-call
// O(W*H) allocation; a caller that passes no workspace gets a private one.
// An optional per-problem window restricts the explored plane: points
// outside it count as blocked, and the driver retries without the window
// when a windowed search fails.  States are indexed over the searched
// extent (window ∩ plane, or the whole plane without a window), so a
// windowed search's arrays and scrubs are O(window), not O(plane).  Every
// grid predicate is false outside the plane, so the clip changes no
// result, and heap order depends only on keys and insertion order, never
// on state ids.
//
// A search that fails can only say so after expanding every state its
// starts reach, which on a large plane means flooding it.  So at its
// kPocketCheckAt-th pop a search checks once, with a short backward walk
// from the destination, whether the destination sits in a pocket that no
// start reaches (pocket_sealed).  A search whose net is known to have
// failed before (SearchProblem::known_failed) tries the proof before its
// first pop instead: a heap-free forward flood over the search's own moves
// (failure_proved), and when that runs out of budget, the backward walk
// against the flooded states.  Either proof only stops searches the
// exhaustive loop would also fail, so every result is unchanged.
#include "route/dijkstra.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace na {
namespace detail {
namespace {

constexpr std::uint64_t kField = (std::uint64_t{1} << 20) - 1;

/// Packs the cost triple into one comparable 64-bit key.  Field widths:
/// 20 bits per component (grids here are far smaller than 2^20 tracks).
std::uint64_t pack(const SearchCosts& c, CostMode mode) {
  auto clamp20 = [](int v) {
    return static_cast<std::uint64_t>(v) & kField;
  };
  switch (mode) {
    case CostMode::BendsCrossingsLength:
      return (clamp20(c.bends) << 40) | (clamp20(c.crossings) << 20) |
             clamp20(c.length);
    case CostMode::BendsLengthCrossings:
      return (clamp20(c.bends) << 40) | (clamp20(c.length) << 20) |
             clamp20(c.crossings);
    case CostMode::LengthOnly:
      return clamp20(c.length);
  }
  return 0;
}

/// The inverse of pack() for the fields the key holds (the length-only key
/// holds no bends or crossings; those come from the side array).
SearchCosts unpack(std::uint64_t key, CostMode mode) {
  auto field = [&](int shift) { return static_cast<int>((key >> shift) & kField); };
  switch (mode) {
    case CostMode::BendsCrossingsLength: return {field(40), field(20), field(0)};
    case CostMode::BendsLengthCrossings: return {field(40), field(0), field(20)};
    case CostMode::LengthOnly: return {0, 0, field(0)};
  }
  return {};
}

/// The states of a search extent: state = cell * 4 + heading, with cells
/// numbered row by row from the extent's lower-left corner.
struct StateIndex {
  geom::Rect ext;
  int w;  ///< the extent's width in cells

  int of(geom::Point p, geom::Dir d) const {
    return ((p.y - ext.lo.y) * w + (p.x - ext.lo.x)) * 4 + static_cast<int>(d);
  }
  geom::Point point(int state) const {
    const int cell = state / 4;
    return {ext.lo.x + cell % w, ext.lo.y + cell / w};
  }
  static geom::Dir dir(int state) { return static_cast<geom::Dir>(state % 4); }
};

/// Calls `f(state)` for every start state of `prob`: each start whose
/// point is in the extent and may become a node of the net, in its forced
/// direction or in all four.
template <class F>
inline void for_each_start_state(const RoutingGrid& grid,
                                 const SearchProblem& prob,
                                 const StateIndex& ix, F&& f) {
  for (const SearchStart& s : prob.starts) {
    // The start point becomes a node of this net as well.
    if (!ix.ext.contains(s.p) || !grid.node_free(s.p, prob.net)) continue;
    if (s.dir) {
      f(ix.of(s.p, *s.dir));
    } else {
      for (geom::Dir d : geom::kAllDirs) f(ix.of(s.p, d));
    }
  }
}

/// Where the straight step of state (p, d) leads: nowhere, onto the
/// destination, or into (q, d), crossing the foreign net `across` (kNone
/// for none).  The search and the forward flood both step through here,
/// so the move rule exists once.
struct Step {
  enum Kind { Blocked, Arrive, Enter } kind;
  geom::Point q;
  NetId across;
};

[[gnu::always_inline]] inline Step straight_step(const RoutingGrid& grid,
                                                 const SearchProblem& prob,
                                                 const geom::Rect& ext,
                                                 geom::Point p, geom::Dir d) {
  // Every predicate is false outside the plane, so the extent test stands
  // in for the bounds checks and the rest derive from one load of q's cell.
  const NetId net = prob.net;
  const geom::Point q = p + geom::delta(d);
  if (!ext.contains(q)) return {Step::Blocked, q, kNone};
  const RoutingGrid::Cell& cell = grid.cell(q);
  if (!cell.enterable(net)) return {Step::Blocked, q, kNone};
  const bool horiz = geom::is_horizontal(d);
  const NetId along = horiz ? cell.h : cell.v;
  const NetId across = horiz ? cell.v : cell.h;
  const bool own = along == net || across == net;
  // Destination tests come first: a terminal cell is enterable only by its
  // own net and join cells are occupied, so the passability test would
  // veto them.  Arrival makes q a node of this net, so no foreign net may
  // touch q.
  const bool arrivable = cell.node_free(net);
  const bool is_target = prob.target && q == prob.target->p &&
                         (!prob.target->facing ||
                          d == geom::opposite(*prob.target->facing)) &&
                         arrivable;
  const bool is_join = prob.join_own_net && arrivable && own;
  if (is_target || is_join) return {Step::Arrive, q, across};
  if (along == kNone && !own) return {Step::Enter, q, across};
  return {Step::Blocked, q, kNone};
}

/// The pocket proof: true when no state that steps into the destination
/// can be reached from a start, so the search may stop with nullopt.
///
/// It walks the reversed move graph depth-first from the destination.
/// The seeds are the states that step into it: into the target cell
/// (along its entry direction), or into any arrivable cell of the net's
/// own geometry for a join.  A state (q,d) has the predecessor (q-δd, d)
/// when q is enterable, its d-orientation track is free and q is not an
/// own cell, and the predecessors (q, d⊥) when a turn is allowed at q.
/// Every forward move is among these, so a walk that runs out of states
/// proves that no forward path exists.  The walk gives up (false) when it
/// reaches a state the forward search has recorded, because that state is
/// reachable from a start by real moves (the start states themselves are
/// recorded before the first pop), or when it has walked more than
/// kPocketBudget states.  It marks the states it walks in the forward
/// search's own slots with marks the search reads as unvisited, so a
/// walk that gives up leaves the search exactly as it was.
///
/// Before the first pop nothing is recorded; there the walk gives up on
/// the states the forward flood marked with walk id `flood` instead (0:
/// no flood), which hold every start state.
bool pocket_sealed(const RoutingGrid& grid, const SearchProblem& prob,
                   const StateIndex& ix, const SearchWorkspace::View& visited,
                   SearchWorkspace& ws, std::uint64_t flood = 0) {
  const NetId net = prob.net;
  const std::uint64_t walk = ws.next_walk();
  std::vector<int>& stack = ws.walk_stack();
  stack.clear();
  long walked = 0;
  bool open = false;  // the walk gave up
  auto visit = [&](int state) {
    if (visited.walked(state, walk)) return;
    if (visited.best(state) != SearchWorkspace::kUnvisited ||
        (flood != 0 && visited.walked(state, flood)) ||
        ++walked > kPocketBudget) {
      open = true;
      return;
    }
    visited.mark_walked(state, walk);
    stack.push_back(state);
  };
  // Seeds: the states whose straight step enters an arrivable cell q.
  auto seed_into = [&](geom::Point q, std::optional<geom::Dir> only) {
    for (geom::Dir d : geom::kAllDirs) {
      if (only && d != *only) continue;
      const geom::Point p = q - geom::delta(d);
      if (ix.ext.contains(p)) visit(ix.of(p, d));
    }
  };
  if (prob.target && ix.ext.contains(prob.target->p)) {
    const RoutingGrid::Cell& cell = grid.cell(prob.target->p);
    if (cell.enterable(net) && cell.node_free(net)) {
      const std::optional<geom::Dir> facing = prob.target->facing;
      seed_into(prob.target->p,
                facing ? std::optional(geom::opposite(*facing)) : std::nullopt);
    }
  }
  if (prob.join_own_net) {
    const geom::Rect own = grid.net_extent(net).intersect(ix.ext);
    for (int y = own.lo.y; y <= own.hi.y && !open; ++y) {
      for (int x = own.lo.x; x <= own.hi.x && !open; ++x) {
        const RoutingGrid::Cell& cell = grid.cell({x, y});
        if (cell.occupied_by(net) && cell.enterable(net) &&
            cell.node_free(net)) {
          seed_into({x, y}, std::nullopt);
        }
      }
    }
  }
  while (!open && !stack.empty()) {
    const int state = stack.back();
    stack.pop_back();
    const geom::Point q = ix.point(state);
    const geom::Dir d = StateIndex::dir(state);
    const RoutingGrid::Cell& cell = grid.cell(q);
    // The straight predecessor goes on the stack last, so the walk runs
    // along lines first: a walk that is not sealed in meets the forward
    // search's lines sooner (half the wasted steps on the LIFE figures).
    if (cell.can_turn(net)) {
      for (geom::Dir nd : geom::kAllDirs) {
        if (geom::is_horizontal(nd) != geom::is_horizontal(d)) {
          visit(ix.of(q, nd));
        }
      }
    }
    const NetId along = geom::is_horizontal(d) ? cell.h : cell.v;
    if (cell.enterable(net) && along == kNone && !cell.occupied_by(net)) {
      const geom::Point p = q - geom::delta(d);
      if (ix.ext.contains(p)) visit(ix.of(p, d));
    }
  }
  return !open;
}

/// The known-failed gate: true when the search provably finds no path, so
/// it may return nullopt before seeding its starts.
///
/// First a forward flood walks the search's own moves (straight steps
/// through straight_step, turns) depth-first from the start states.  If
/// it runs out of states without an arrival move, having marked at most
/// kPocketBudget of them, nothing the search could pop reaches the
/// destination.  An arrival move means a path exists.  A flood that runs
/// out of budget leaves its marks, every start state among them, and the
/// backward walk of pocket_sealed then tries to close around the
/// destination without touching one.  Both walks mark the slots with
/// unstamped walk marks, so a proof that gives up leaves the search
/// exactly as it was; it must run before the starts are recorded.
bool failure_proved(const RoutingGrid& grid, const SearchProblem& prob,
                    const StateIndex& ix, const SearchWorkspace::View& visited,
                    SearchWorkspace& ws) {
  const NetId net = prob.net;
  const std::uint64_t flood = ws.next_walk();
  std::vector<int>& stack = ws.walk_stack();
  stack.clear();
  long walked = 0;
  bool open = false;  // the flood ran out of budget
  auto mark = [&](int state) {
    visited.mark_walked(state, flood);
    stack.push_back(state);
    ++walked;
  };
  for_each_start_state(grid, prob, ix, [&](int state) {
    if (!visited.walked(state, flood)) mark(state);
  });
  auto visit = [&](int state) {
    if (visited.walked(state, flood)) return;
    if (walked >= kPocketBudget) {
      open = true;
      return;
    }
    mark(state);
  };
  while (!open && !stack.empty()) {
    const int state = stack.back();
    stack.pop_back();
    const geom::Point p = ix.point(state);
    const geom::Dir d = StateIndex::dir(state);
    // As in the backward walk, the straight step goes on the stack last,
    // so the flood runs along lines first.
    if (grid.cell(p).can_turn(net)) {
      for (geom::Dir nd : geom::kAllDirs) {
        if (geom::is_horizontal(nd) != geom::is_horizontal(d)) {
          visit(ix.of(p, nd));
        }
      }
    }
    const Step step = straight_step(grid, prob, ix.ext, p, d);
    if (step.kind == Step::Arrive) return false;
    if (step.kind == Step::Enter) visit(ix.of(step.q, d));
  }
  return !open || pocket_sealed(grid, prob, ix, visited, ws, flood);
}

}  // namespace

// Deliberately one function with runtime checks for the window and the
// mode: specializing the hot loop per feature multiplies its inlining call
// sites, at which point GCC stops inlining the heap sift and key packing
// (~25% slower on the LIFE workload).
std::optional<SearchResult> grid_search(const RoutingGrid& grid,
                                        const SearchProblem& prob, CostMode mode,
                                        SearchWorkspace* ws) {
  SearchWorkspace local;
  if (!ws) ws = &local;
  ws->last_failure() = {};
  if (prob.starts.empty()) return std::nullopt;
  if (!prob.target && !prob.join_own_net) {
    throw std::invalid_argument("search problem without destination");
  }
  const bool windowed = prob.window.has_value();
  const geom::Rect ext =
      windowed ? prob.window->intersect(grid.area()) : grid.area();
  if (ext.empty()) return std::nullopt;
  const int w = ext.width() + 1;
  const int h = ext.height() + 1;
  const int ncells = w * h;
  const int nstates = ncells * 4;
  const int goal_state = nstates;  // virtual goal

  const StateIndex ix{ext, w};

  ws->begin(nstates + 1);
  const SearchWorkspace::View visited = ws->view();
  std::vector<HeapEntry>& open = ws->heap();
  // A state is recorded only on a strictly smaller key, so a live (popped,
  // not stale) entry's side costs are the ones stored with its key.
  SideCosts* const side =
      mode == CostMode::LengthOnly ? ws->side_costs(nstates + 1) : nullptr;

  auto relax = [&](int state, int from, const SearchCosts& c) {
    const std::uint64_t key = pack(c, mode);
    if (key < visited.best(state)) {
      visited.record(state, key, from);
      if (side) side[state] = {c.bends, c.crossings};
      heap_push(open, {key, state});
    }
  };
  auto costs_of = [&](const HeapEntry& e) {
    SearchCosts c = unpack(e.key, mode);
    if (side) {
      c.bends = side[e.state].bends;
      c.crossings = side[e.state].crossings;
    }
    return c;
  };

  if (prob.known_failed && failure_proved(grid, prob, ix, visited, *ws)) {
    ws->last_failure() = {0, true};
    return std::nullopt;
  }
  for_each_start_state(grid, prob, ix,
                       [&](int state) { relax(state, -1, {}); });

  const NetId net = prob.net;
  long expansions = 0;
  SearchCosts goal_costs{};
  while (!open.empty()) {
    const HeapEntry e = heap_pop(open);
    if (e.key != visited.best(e.state)) continue;  // stale
    if (e.state == goal_state) {
      goal_costs = costs_of(e);
      break;
    }
    if (++expansions > prob.max_expansions) {
      ws->last_failure() = {expansions - 1, false};
      return std::nullopt;
    }
    if (expansions == kPocketCheckAt &&
        pocket_sealed(grid, prob, ix, visited, *ws)) {
      ws->last_failure() = {expansions, true};
      return std::nullopt;
    }

    const geom::Point p = ix.point(e.state);
    const geom::Dir d = ix.dir(e.state);
    const SearchCosts costs = costs_of(e);

    // Straight step: extend the escape line one track.
    const Step step = straight_step(grid, prob, ext, p, d);
    if (step.kind != Step::Blocked) {
      SearchCosts c = costs;
      c.length += 1;
      if (step.kind == Step::Arrive) {
        relax(goal_state, e.state, c);
      } else {
        c.crossings += step.across != kNone ? 1 : 0;
        relax(ix.of(step.q, d), e.state, c);
      }
    }
    // Turns: start a perpendicular expansion wave (one bend deeper).  The
    // bend occupies the whole point, so both orientations must be free.
    if (grid.cell(p).can_turn(net)) {
      for (geom::Dir nd : geom::kAllDirs) {
        if (geom::is_horizontal(nd) == geom::is_horizontal(d)) continue;
        SearchCosts c = costs;
        c.bends += 1;
        relax(ix.of(p, nd), e.state, c);
      }
    }
  }

  if (ws->best(goal_state) == SearchWorkspace::kUnvisited) {
    ws->last_failure() = {expansions, false};
    return std::nullopt;
  }

  // Trace back the state chain and compress it into polyline corners.
  std::vector<geom::Point> chain;
  for (int s = ws->parent(goal_state); s != -1; s = ws->parent(s)) {
    chain.push_back(ix.point(s));
  }
  std::reverse(chain.begin(), chain.end());
  chain.push_back(prob.target ? prob.target->p
                              : ix.point(ws->parent(goal_state)) +
                                    geom::delta(ix.dir(ws->parent(goal_state))));
  std::vector<geom::Point> path;
  for (const geom::Point& p : chain) {
    if (!path.empty() && path.back() == p) continue;  // turn-in-place states
    if (path.size() >= 2) {
      const geom::Point& a = path[path.size() - 2];
      const geom::Point& b = path.back();
      const bool collinear = (a.x == b.x && b.x == p.x) || (a.y == b.y && b.y == p.y);
      if (collinear) {
        path.back() = p;
        continue;
      }
    }
    path.push_back(p);
  }

  SearchResult result;
  result.path = std::move(path);
  result.cost = {goal_costs.bends, goal_costs.crossings, goal_costs.length};
  result.expansions = expansions;
  return result;
}

}  // namespace detail

std::optional<SearchResult> line_expansion_search(const RoutingGrid& grid,
                                                  const SearchProblem& prob) {
  const auto mode = prob.order == CostOrder::BendsLengthCrossings
                        ? detail::CostMode::BendsLengthCrossings
                        : detail::CostMode::BendsCrossingsLength;
  return detail::grid_search(grid, prob, mode);
}

std::optional<SearchResult> straight_line(const RoutingGrid& grid, NetId net,
                                          const SearchStart& a, const SearchTarget& b) {
  const geom::Point pa = a.p;
  const geom::Point pb = b.p;
  if (pa.x != pb.x && pa.y != pb.y) return std::nullopt;
  if (pa == pb) return std::nullopt;
  const geom::Dir d = pa.x == pb.x ? (pb.y > pa.y ? geom::Dir::Up : geom::Dir::Down)
                                   : (pb.x > pa.x ? geom::Dir::Right : geom::Dir::Left);
  // Side compatibility (paper STRAIGHT_LINE): the start must exit toward the
  // destination and the destination must accept entry from that direction.
  if (a.dir && *a.dir != d) return std::nullopt;
  // `facing` is the destination's outward side; entry runs against it.
  if (b.facing && *b.facing != geom::opposite(d)) return std::nullopt;
  const bool horiz = geom::is_horizontal(d);
  int crossings = 0;
  for (geom::Point p = pa + geom::delta(d); p != pb; p += geom::delta(d)) {
    if (!grid.passable(p, net, horiz) || grid.occupied_by(p, net)) {
      return std::nullopt;
    }
    crossings += grid.crosses_at(p, net, horiz) ? 1 : 0;
  }
  if (!grid.enterable(pb, net) || !grid.node_free(pb, net)) return std::nullopt;
  SearchResult r;
  r.path = {pa, pb};
  r.cost = {0, crossings, manhattan(pa, pb)};
  r.expansions = 0;
  return r;
}

}  // namespace na
