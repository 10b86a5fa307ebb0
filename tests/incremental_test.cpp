// End-to-end tests for the incremental regeneration engine: edit scripts
// through RegenSession, with every incremental result run through the
// geometric validator and its metrics compared against a from-scratch
// regeneration of the same edited netlist.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/figures.hpp"
#include "gen/datapath.hpp"
#include "gen/chain.hpp"
#include "gen/life.hpp"
#include "gen/synth.hpp"
#include "incremental/edit.hpp"
#include "incremental/session.hpp"
#include "route/router.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/metrics.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

GeneratorOptions datapath_options() {
  GeneratorOptions opt;
  opt.placer.max_part_size = 5;
  opt.placer.max_box_size = 3;
  return opt;
}

/// Satellite contract: incremental metrics within 10% of the from-scratch
/// metrics on the same edited netlist.  The bound is one-sided — an
/// incremental result may be *better* than from-scratch (it keeps a
/// carefully routed baseline), it just must not be more than 10% worse.
/// Small counters get a small absolute floor so one rerouted corner does
/// not register as a relative blow-up.
void expect_within_10pct(const DiagramStats& inc, const DiagramStats& scratch) {
  auto close = [](int worse, int base, const char* what) {
    const double tol = std::max(6.0, 0.10 * std::abs(base));
    EXPECT_LE(worse - base, tol)
        << what << ": incremental " << worse << " vs from-scratch " << base;
  };
  EXPECT_EQ(inc.unrouted, scratch.unrouted);
  close(inc.wire_length, scratch.wire_length, "wire_length");
  close(inc.bends, scratch.bends, "bends");
  close(inc.crossings, scratch.crossings, "crossings");
}

TEST(Incremental, FirstUpdateIsFullGeneration) {
  const Network net = gen::datapath_network({6});
  RegenSession session(datapath_options());
  EXPECT_FALSE(session.has_diagram());
  const Diagram& dia = session.update(net);
  EXPECT_TRUE(session.has_diagram());
  EXPECT_EQ(session.last().full_regens, 1);
  EXPECT_EQ(session.last().incremental, 0);
  EXPECT_EQ(session.last().modules_replaced, net.module_count());
  EXPECT_TRUE(validate_diagram(dia).empty());
}

TEST(Incremental, NoOpUpdateKeepsEverything) {
  const Network net = gen::datapath_network({6});
  RegenSession session(datapath_options());
  session.update(net);
  const int routed = session.diagram().routed_count();

  const Diagram& dia = session.update(gen::datapath_network({6}));
  EXPECT_EQ(session.last().incremental, 1);
  EXPECT_EQ(session.last().full_regens, 0);
  EXPECT_EQ(session.last().nets_rerouted, 0);
  EXPECT_EQ(session.last().nets_kept, routed);
  EXPECT_EQ(session.last().modules_replaced, 0);
  EXPECT_TRUE(validate_diagram(dia).empty());
}

TEST(Incremental, AddedModuleTakesPatchPath) {
  const Network net = gen::datapath_network({8});
  RegenSession session(datapath_options());
  session.update(net);

  // Edit script: attach a probe module to one accumulator net.
  NetworkEditor ed(net);
  ed.add_module("probe", "probe", {4, 4});
  ed.add_module_terminal("probe", "i", TermType::In, {0, 2});
  ed.connect("b2_acc", "probe", "i");
  const Network edited = ed.build();

  const Diagram& inc = session.update(edited);
  EXPECT_EQ(session.last().incremental, 1) << "edit should be patchable";
  EXPECT_EQ(session.last().full_regens, 0);
  EXPECT_GT(session.last().modules_frozen, 0);
  EXPECT_LT(session.last().nets_rerouted, edited.net_count());
  EXPECT_GT(session.last().nets_kept, 0);
  EXPECT_TRUE(validate_diagram(inc).empty());

  RegenSession scratch(datapath_options());
  expect_within_10pct(compute_stats(inc), compute_stats(scratch.update(edited)));
}

TEST(Incremental, DeletedNetIsPureRoutingChange) {
  const Network net = gen::datapath_network({8});
  RegenSession session(datapath_options());
  session.update(net);
  std::vector<geom::Point> before_pos;
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    before_pos.push_back(session.diagram().placed(m).pos);
  }

  NetworkEditor ed(net);
  ed.remove_net("stat");  // controller status line goes away
  const Network edited = ed.build();
  ASSERT_EQ(edited.net_count(), net.net_count() - 1);

  const Diagram& inc = session.update(edited);
  EXPECT_EQ(session.last().incremental, 1);
  // Removing a net dirties no partition: placement untouched, nothing
  // rerouted, only the dead geometry scrubbed.
  EXPECT_EQ(session.last().modules_replaced, 0);
  EXPECT_EQ(session.last().nets_rerouted, 0);
  EXPECT_EQ(session.last().nets_kept, edited.net_count());
  EXPECT_GT(session.last().cells_scrubbed, 0);
  EXPECT_TRUE(validate_diagram(inc).empty());
  for (ModuleId m = 0; m < edited.module_count(); ++m) {
    EXPECT_EQ(inc.placed(m).pos, before_pos[m]) << edited.module(m).name;
  }

  RegenSession scratch(datapath_options());
  expect_within_10pct(compute_stats(inc), compute_stats(scratch.update(edited)));
}

TEST(Incremental, LargeEditFallsBackToFullRegen) {
  // A 6-module chain under -p 7 is a single partition: any placement-
  // relevant edit dirties 100% of partitions and must trip the fallback.
  const Network net = gen::chain_network({});
  GeneratorOptions opt;
  opt.placer.max_part_size = 7;
  opt.placer.max_box_size = 7;
  RegenSession session(opt);
  session.update(net);

  NetworkEditor ed(net);
  ed.remove_module("m2");  // breaks the chain's one partition
  const Network edited = ed.build();

  const Diagram& dia = session.update(edited);
  EXPECT_EQ(session.last().full_regens, 1);
  EXPECT_EQ(session.last().incremental, 0);
  EXPECT_EQ(session.totals().full_regens, 2);
  EXPECT_TRUE(validate_diagram(dia).empty());
}

TEST(Incremental, AdoptSeedsTheSession) {
  const Network net = gen::life_network();
  const GeneratorOptions opt = fig67_options();
  Diagram hand(net);
  gen::life_hand_placement(hand);
  ASSERT_EQ(route_all(hand, opt.router).nets_failed, 0);

  RegenSession session(opt);
  session.adopt(net, hand);
  EXPECT_TRUE(session.has_diagram());
  EXPECT_EQ(session.placement().partitions.size(), 9u)  // one per LIFE cell
      << "adopt must re-derive the partition structure";

  // A no-op update after adopt keeps all 222 nets.
  session.update(gen::life_network());
  EXPECT_EQ(session.last().incremental, 1);
  EXPECT_EQ(session.last().nets_kept, net.net_count());
  EXPECT_EQ(session.last().nets_rerouted, 0);
}

// The ISSUE acceptance scenario: a single-module edit on the LIFE diagram
// re-routes < 25% of the 222 nets, passes the validator, and lands within
// 10% of a from-scratch regeneration of the same edited netlist.
TEST(Incremental, LifeSingleModuleEditReroutesUnderQuarter) {
  const Network net = gen::life_network();
  const GeneratorOptions opt = fig67_options();
  Diagram hand(net);
  gen::life_hand_placement(hand);
  ASSERT_EQ(route_all(hand, opt.router).nets_failed, 0);

  RegenSession session(opt);
  session.adopt(net, hand);

  // Edit script: re-pin the write-enable output of the centre cell's rule
  // module two tracks down its right edge.
  NetworkEditor ed(net);
  ed.move_terminal("rule11", "we", {6, 11});
  const Network edited = ed.build();

  const Diagram& inc = session.update(edited);
  ASSERT_EQ(session.last().incremental, 1) << "edit must take the patch path";
  EXPECT_TRUE(validate_diagram(inc).empty());
  EXPECT_LT(session.last().nets_rerouted, edited.net_count() / 4)
      << "single-module edit must keep > 75% of the routing";
  EXPECT_EQ(session.last().nets_kept + session.last().nets_rerouted,
            edited.net_count());
  EXPECT_GT(session.last().modules_frozen, 20);

  // From-scratch baseline: the same hand placement + full route of the
  // edited netlist.
  Diagram scratch(edited);
  gen::life_hand_placement(scratch);
  ASSERT_EQ(route_all(scratch, opt.router).nets_failed, 0);
  expect_within_10pct(compute_stats(inc), compute_stats(scratch));
}

// Gravity-seeded add-module placement: a module the editor attaches to the
// global mode net (10 endpoints spread over the whole LIFE array) must be
// placed near the net's gravity centre, not appended at the array edge —
// and because it then sits next to its pins, the mode net is *extended* in
// place instead of being scrubbed and re-searched across the plane.
TEST(Incremental, AddedModulePlacesNearNetGravity) {
  const Network net = gen::life_network();
  const GeneratorOptions opt = fig67_options();
  Diagram hand(net);
  gen::life_hand_placement(hand);
  ASSERT_EQ(route_all(hand, opt.router).nets_failed, 0);

  RegenSession session(opt);
  session.adopt(net, hand);

  NetworkEditor ed(net);
  ed.add_module("probe", "probe", {4, 4});
  ed.add_module_terminal("probe", "i", TermType::In, {0, 2});
  ed.connect("mode", "probe", "i");
  const Network edited = ed.build();

  const Diagram& inc = session.update(edited);
  ASSERT_EQ(session.last().incremental, 1) << "edit must take the patch path";
  EXPECT_TRUE(validate_diagram(inc).empty());

  // Gravity centre of the probe's net over the already-placed endpoints.
  int sx = 0, sy = 0, cnt = 0;
  for (TermId t : net.net(*net.net_by_name("mode")).terms) {
    sx += hand.term_pos(t).x;
    sy += hand.term_pos(t).y;
    ++cnt;
  }
  const geom::Point center{sx / cnt, sy / cnt};

  const geom::Rect r = inc.module_rect(*inc.network().module_by_name("probe"));
  const geom::Point placed{(r.lo.x + r.hi.x) / 2, (r.lo.y + r.hi.y) / 2};
  const int dist = std::max(std::abs(placed.x - center.x),
                            std::abs(placed.y - center.y));
  // Edge placement puts the probe outside the frozen hull, half an array
  // (> 60 tracks) away from this centre; gravity seeding lands close by.
  EXPECT_LE(dist, 20) << "probe centre " << geom::to_string(placed)
                      << " vs net gravity " << geom::to_string(center);

  // Reroute cost must be far below the edge-placement behaviour, which
  // scrubbed the whole mode net (~1300 cells, > 100k search expansions).
  EXPECT_GE(session.last().nets_extended, 1) << "mode net must be extended";
  EXPECT_LE(session.last().nets_rerouted, 3);
  EXPECT_LT(session.last().cells_scrubbed, 200);
  EXPECT_LT(session.last().route_expansions, 20000);
  EXPECT_EQ(session.last().nets_kept + session.last().nets_rerouted,
            edited.net_count());
}

// ----- pinned edit corpus ----------------------------------------------------

/// 64-bit FNV-1a of a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// splitmix64: the corpus's seeded picks, identical on every platform.
struct CorpusRng {
  std::uint64_t s;
  int below(int n) {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<int>((z ^ (z >> 31)) % static_cast<std::uint64_t>(n));
  }
};

/// One edit of the corpus: a script over the current network.
using CorpusEdit = std::function<void(NetworkEditor&, const Network&, CorpusRng&)>;

/// What one update is pinned to: the ESCHER bytes and the work counters.
struct CorpusPin {
  std::uint64_t digest;
  int modules_replaced, modules_frozen, nets_rerouted, nets_extended,
      full_regens;
};

/// A seeded module that has at least one terminal.
ModuleId pick_module(const Network& net, CorpusRng& rng) {
  for (;;) {
    const ModuleId m = rng.below(net.module_count());
    if (!net.module(m).terms.empty()) return m;
  }
}

/// The corpus: add a probe on a net, move a terminal, resize a module, add
/// an unconnected module, remove one module or two, and an edit touching
/// most modules, which the dirty-share rule sends to a full regeneration.
std::vector<CorpusEdit> edit_corpus() {
  auto add_probe = [](NetworkEditor& ed, const Network& net, CorpusRng& rng) {
    const std::string name = "probe" + std::to_string(net.module_count());
    ed.add_module(name, "probe", {4, 4});
    ed.add_module_terminal(name, "i", TermType::In, {0, 2});
    ed.connect(net.net(rng.below(net.net_count())).name, name, "i");
  };
  // Re-pins a connected terminal along its own edge to a free slot.
  auto move_term = [](NetworkEditor& ed, const Network& net, CorpusRng& rng) {
    for (;;) {
      const Module& mod = net.module(pick_module(net, rng));
      const Terminal& t =
          net.term(mod.terms[rng.below(static_cast<int>(mod.terms.size()))]);
      if (t.net == kNone) continue;
      const bool vertical_edge = t.pos.x == 0 || t.pos.x == mod.size.x;
      std::vector<geom::Point> slots;
      for (int k = 1; k < (vertical_edge ? mod.size.y : mod.size.x); ++k) {
        const geom::Point to = vertical_edge ? geom::Point{t.pos.x, k}
                                             : geom::Point{k, t.pos.y};
        bool free = true;
        for (TermId o : mod.terms) free = free && net.term(o).pos != to;
        if (free) slots.push_back(to);
      }
      if (slots.empty()) continue;
      ed.move_terminal(mod.name, t.name,
                       slots[rng.below(static_cast<int>(slots.size()))]);
      return;
    }
  };
  // Widens a module by two tracks, carrying its right-edge terminals along.
  auto resize = [](NetworkEditor& ed, const Network& net, CorpusRng& rng) {
    const Module& mod = net.module(pick_module(net, rng));
    ed.resize_module(mod.name, {mod.size.x + 2, mod.size.y});
    for (TermId t : mod.terms) {
      const Terminal& term = net.term(t);
      if (term.pos.x == mod.size.x) {
        ed.move_terminal(mod.name, term.name, {mod.size.x + 2, term.pos.y});
      }
    }
  };
  auto add_lone = [](NetworkEditor& ed, const Network& net, CorpusRng&) {
    ed.add_module("lone" + std::to_string(net.module_count()), "", {3, 3});
  };
  auto remove = [](NetworkEditor& ed, const Network& net, CorpusRng& rng) {
    ed.remove_module(net.module(pick_module(net, rng)).name);
  };
  // Removes a seeded module and the one declared after it.
  auto remove_pair = [](NetworkEditor& ed, const Network& net, CorpusRng& rng) {
    const ModuleId m = rng.below(net.module_count() - 1);
    ed.remove_module(net.module(m).name);
    ed.remove_module(net.module(m + 1).name);
  };
  auto big = [move_term](NetworkEditor& ed, const Network& net, CorpusRng& rng) {
    for (int i = 0; i < net.module_count() * 3 / 4; ++i) move_term(ed, net, rng);
  };
  return {add_probe, move_term, resize, add_lone, remove,
          remove_pair, add_probe, move_term, remove_pair, remove,
          add_probe, big, add_probe};
}

/// Runs the corpus through one session and checks every update against
/// its pin.
void expect_corpus_pins(const Network& base, const GeneratorOptions& opt,
                        std::uint64_t seed, const std::vector<CorpusPin>& pins) {
  const std::vector<CorpusEdit> corpus = edit_corpus();
  ASSERT_EQ(pins.size(), corpus.size());
  RegenSession session(opt);
  Network net = base;
  session.update(net);
  CorpusRng rng{seed};
  for (size_t i = 0; i < corpus.size(); ++i) {
    NetworkEditor ed(net);
    corpus[i](ed, net, rng);
    net = ed.build();
    const Diagram& dia = session.update(net);
    const RegenCounters& c = session.last();
    const CorpusPin got{fnv1a(to_escher_diagram(dia, "corpus")),
                        c.modules_replaced, c.modules_frozen, c.nets_rerouted,
                        c.nets_extended, c.full_regens};
    const CorpusPin& want = pins[i];
    EXPECT_EQ(got.digest, want.digest)
        << "edit " << i << std::hex << " digest 0x" << got.digest;
    EXPECT_EQ(got.modules_replaced, want.modules_replaced) << "edit " << i;
    EXPECT_EQ(got.modules_frozen, want.modules_frozen) << "edit " << i;
    EXPECT_EQ(got.nets_rerouted, want.nets_rerouted) << "edit " << i;
    EXPECT_EQ(got.nets_extended, want.nets_extended) << "edit " << i;
    EXPECT_EQ(got.full_regens, want.full_regens) << "edit " << i;
  }
}

// The incremental-output contract: a seeded edit corpus over LIFE and over
// a 300-module mesh must keep producing these exact ESCHER bytes and work
// counters.  On the mesh the corpus reaches every way a dirty partition is
// pinned — in-place refresh, its vacated hole, a gravity-seeded vacancy,
// and the fall-through to partition placement — and both corpora take one
// full regeneration.
TEST(Incremental, EditCorpusMatchesPinnedDigests) {
  expect_corpus_pins(gen::life_network(), fig67_options(), 5,
                     {{0xae2d58dfe6557c79ull, 1, 27, 3, 3, 0},
                      {0xc50dfe74273032f0ull, 3, 25, 1, 1, 0},
                      {0xa960824937209b18ull, 3, 25, 35, 19, 0},
                      {0xc0f43e4a999de2e1ull, 1, 28, 1, 1, 0},
                      {0x6f94044e3dcc8853ull, 2, 26, 36, 23, 0},
                      {0x04f3a3f5f34de34eull, 1, 25, 22, 22, 0},
                      {0xe5cc1c2c04ff9b1full, 1, 26, 1, 0, 0},
                      {0x30db686d1ba2cb6bull, 3, 24, 1, 0, 0},
                      {0x4b3f308c79fff3eaull, 1, 24, 19, 19, 0},
                      {0xda54a6b5aad3b213ull, 2, 22, 31, 19, 0},
                      {0xe446b47880dc084dull, 1, 24, 2, 2, 0},
                      {0x41237861482b44e4ull, 25, 0, 155, 0, 1},
                      {0x9ad52ae569c57a12ull, 1, 25, 1, 1, 0}});

  gen::SynthOptions mesh;
  mesh.modules = 300;
  GeneratorOptions mesh_opt;
  mesh_opt.placer.max_part_size = 8;
  mesh_opt.placer.max_box_size = 4;
  mesh_opt.placer.max_connections = 16;
  mesh_opt.router.margin = 6;
  expect_corpus_pins(gen::synth_network(mesh), mesh_opt, 5,
                     {{0xf9e39d624c96e38cull, 1, 300, 1, 1, 0},
                      {0x5a8c62321060971cull, 8, 293, 1, 1, 0},
                      {0x23c4d7f537f8854dull, 8, 293, 22, 10, 0},
                      {0xab253fe5bdc5e487ull, 1, 301, 0, 0, 0},
                      {0xc1cff5f70620faf1ull, 7, 294, 13, 8, 0},
                      {0xa6acb9a581b19835ull, 6, 293, 15, 11, 0},
                      {0x610265e355f81a65ull, 1, 299, 1, 1, 0},
                      {0xea35924c28ea184dull, 8, 292, 1, 0, 0},
                      {0x36f55081fce3085dull, 14, 284, 38, 24, 0},
                      {0xae377e93a7a83585ull, 4, 293, 12, 9, 0},
                      {0x22015af4c9ade132ull, 1, 297, 1, 1, 0},
                      {0xeafd2bb84aa79a4cull, 298, 0, 554, 0, 1},
                      {0xed7b320120663c1dull, 1, 298, 1, 1, 0}});
}

// The daemon's LIFE path: `open life` regenerates at the default
// GeneratorOptions, which leave many nets unrouted, so every flush
// re-searches them and most of those searches fail.  Eight updates alternate the editor loop's edit
// (add a probe module whose terminal joins a seeded net) with its removal;
// each update's ESCHER bytes, unrouted count and failed searches are
// pinned (a change to how a failure is found must not change how many
// searches fail).
TEST(Incremental, LifeProbeReplayMatchesPinnedDigest) {
  struct Pin {
    std::uint64_t digest;
    int unrouted;
    int failed_searches;
  };
  const Pin pins[] = {
      {0x09bca4d4dd9884a3ull, 104, 244}, {0x3faaebab2c18dd85ull, 93, 222},
      {0x151756578fa45e87ull, 85, 212},  {0xbfbe6db1873e8501ull, 78, 190},
      {0xf70764b04b7244feull, 78, 186},  {0x66f99a4fc98daadcull, 78, 186},
      {0x3d05d4ca69e643d8ull, 78, 186},  {0xa312b543b83765e2ull, 78, 186}};
  RegenSession session;
  Network net = gen::life_network();
  session.update(net);
  CorpusRng rng{11};
  int proved_first = 0;  // updates whose failed searches expanded nothing
  for (int i = 0; i < 8; ++i) {
    NetworkEditor ed(net);
    if (i % 2 == 0) {
      ed.add_module("probe", "", {4, 3});
      ed.add_module_terminal("probe", "p", TermType::In, {0, 1});
      ed.connect(net.net(rng.below(net.net_count())).name, "probe", "p");
    } else {
      ed.remove_module("probe");
    }
    net = ed.build();
    const Diagram& dia = session.update(net);
    EXPECT_EQ(session.last().full_regens, 0) << "update " << i;
    const Pin got{fnv1a(to_escher_diagram(dia, "replay")),
                  compute_stats(dia).unrouted, session.last().failed_searches};
    EXPECT_EQ(got.digest, pins[i].digest)
        << "update " << i << std::hex << " digest 0x" << got.digest;
    EXPECT_EQ(got.unrouted, pins[i].unrouted) << "update " << i;
    EXPECT_EQ(got.failed_searches, pins[i].failed_searches) << "update " << i;
    if (got.failed_searches > 0 && session.last().failed_expansions == 0) {
      ++proved_first;
    }
  }
  // Once the patch starts from a diagram whose failures are known, the
  // known-failed gate proves every one of them before its search pops a
  // state.
  EXPECT_GT(proved_first, 0);
}

// ----- session save/restore --------------------------------------------------

// The daemon contract (na_serve kill/restart): save() captures network,
// partition/box structure and routed diagram; restore() rebuilds a session
// whose next update() is byte-identical to the one the original session
// would have produced.
TEST(SessionPersistence, RoutedLifeSessionRoundTrips) {
  const GeneratorOptions opt = fig67_options();
  RegenSession original(opt);
  Network net = gen::life_network();
  original.update(net);

  // A couple of edits so the saved state is a genuinely patched session,
  // not a fresh full generation.
  {
    NetworkEditor ed(net);
    ed.add_module("probe", "", {6, 4});
    ed.add_module_terminal("probe", "t0", TermType::In, {0, 2});
    net = ed.build();
    original.update(net);
  }

  const std::string blob = original.save();
  EXPECT_EQ(blob.rfind("#NA-SESSION-1", 0), 0u);

  RegenSession reloaded(opt);
  reloaded.restore(blob);
  EXPECT_TRUE(reloaded.has_diagram());
  EXPECT_EQ(reloaded.totals().updates, 0) << "counters start at zero";

  // Identical geometry right away...
  EXPECT_EQ(to_escher_diagram(reloaded.diagram(), "s"),
            to_escher_diagram(original.diagram(), "s"));
  // ...and the *same* placement structure, so the next edit diverges
  // nowhere: apply one more edit to both sessions and compare bytes.
  NetworkEditor ed(net);
  ed.move_terminal("rule11", "we", {6, 11});
  const Network edited = ed.build();
  const Diagram& a = original.update(edited);
  const Diagram& b = reloaded.update(edited);
  EXPECT_EQ(to_escher_diagram(b, "s"), to_escher_diagram(a, "s"))
      << "restored session diverged on the first post-restore edit";
  EXPECT_EQ(reloaded.last().incremental, original.last().incremental);
  EXPECT_EQ(reloaded.last().nets_rerouted, original.last().nets_rerouted);
  EXPECT_TRUE(validate_diagram(b).empty());
}

TEST(SessionPersistence, SaveRequiresDiagramAndRestoreIsStrict) {
  RegenSession empty;
  EXPECT_THROW(empty.save(), std::exception);

  RegenSession session(datapath_options());
  session.update(gen::datapath_network({}));
  const std::string blob = session.save();

  const char* bad[] = {
      "",
      "#WRONG-HEADER-1\n",
      "#NA-SESSION-1\nmodule not-a-number 4 m\n",
      "#NA-SESSION-1\nterm 0 in 0 0 t\n",  // terminal before any module
      "#NA-SESSION-1\nconn 99 99\n",
      "#NA-SESSION-1\nmodule 4 4 m\n",  // truncated: no end marker
  };
  for (const char* text : bad) {
    RegenSession scratch;
    EXPECT_THROW(scratch.restore(text), std::runtime_error)
        << "input: " << text;
  }
  // Records the Network itself rejects fail on their own line too.
  const std::pair<const char*, const char*> rejected[] = {
      {"#NA-SESSION-1\nmodule 0 4 m\n",
       "line 2: module 'm' must have positive size"},
      {"#NA-SESSION-1\nmodule 4 4 m\nterm 0 in 1 1 t\n",
       "line 3: terminal 't' of module 'm' not on module perimeter"},
      {"#NA-SESSION-1\nmodule 4 4 m\nterm 0 in 0 1 t\nnet a\nnet b\n"
       "conn 0 0\nconn 1 0\n",
       "line 7: terminal 't' already connected"},
  };
  for (const auto& [text, why] : rejected) {
    RegenSession scratch;
    try {
      scratch.restore(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }

  // Corrupting a structural line inside a valid blob must also throw, not
  // install half a session.
  std::string corrupt = blob;
  const size_t at = corrupt.find("\npart ");
  ASSERT_NE(at, std::string::npos);
  corrupt.replace(at, 6, "\npart x");
  RegenSession scratch;
  EXPECT_THROW(scratch.restore(corrupt), std::runtime_error);
}

}  // namespace
}  // namespace na
