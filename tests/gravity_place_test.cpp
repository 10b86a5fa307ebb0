// Unit tests for the gravity placement engine (box/partition placement,
// sections 4.6.5/4.6.6) and the system terminal placement (4.6.7).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "gen/controller.hpp"
#include "netlist/module_library.hpp"
#include "place/box_place.hpp"
#include "place/gravity.hpp"
#include "place/partition_place.hpp"
#include "place/terminal_place.hpp"

namespace na {
namespace {

TEST(NearestFreePosition, IdealWhenFree) {
  EXPECT_EQ(nearest_free_position({5, 5}, {2, 2}, {}, 0), (geom::Point{5, 5}));
}

TEST(NearestFreePosition, DodgesOverlap) {
  const std::vector<geom::Rect> placed{geom::Rect::from_size({0, 0}, {10, 10})};
  const geom::Point p = nearest_free_position({4, 4}, {2, 2}, placed, 0);
  EXPECT_FALSE(geom::Rect::from_size(p, {2, 2}).overlaps(placed[0]));
  // Nearest free spot: just outside one face of the block.
  const std::int64_t d2 = geom::dist2(p, {4, 4});
  EXPECT_LE(d2, 49);  // within reach of the block faces
}

TEST(NearestFreePosition, RespectsSpacing) {
  const std::vector<geom::Rect> placed{geom::Rect::from_size({0, 0}, {4, 4})};
  const geom::Point p = nearest_free_position({0, 0}, {2, 2}, placed, 3);
  EXPECT_FALSE(
      geom::Rect::from_size(p, {2, 2}).expanded(3).overlaps(placed[0]));
}

TEST(NearestFreePosition, ExactNearest) {
  // With a wall on the left, the nearest free x must be just right of it.
  std::vector<geom::Rect> placed{geom::Rect::from_size({0, 0}, {10, 100})};
  const geom::Point p = nearest_free_position({5, 50}, {2, 2}, placed, 0);
  EXPECT_EQ(p, (geom::Point{11, 50}));
}

// The penalised ring search against brute force: on seeded obstacle sets
// and penalty maps, the returned position is feasible and its score
// dist2 + penalty is the minimum over the whole Chebyshev square of radius
// R, and a zero penalty reproduces nearest_free_position exactly.
TEST(RingSearch, PenaltyMatchesBruteForce) {
  std::uint64_t state = 18;
  auto below = [&](int n) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>((state >> 33) % static_cast<std::uint64_t>(n));
  };
  constexpr int kRadius = 8;
  int ideal_blocked = 0, penalty_moved = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const geom::Point ideal{below(21) - 10, below(21) - 10};
    const geom::Point size{1 + below(4), 1 + below(4)};
    const int spacing = below(2);
    std::vector<geom::Rect> obstacles;
    for (int k = below(7); k > 0; --k) {
      obstacles.push_back(geom::Rect::from_size(
          ideal + geom::Point{below(17) - 8, below(17) - 8}, {below(6), below(6)}));
    }
    // Penalty per position of the square; zero outside it.
    std::vector<std::int64_t> cost((2 * kRadius + 1) * (2 * kRadius + 1));
    for (std::int64_t& c : cost) c = below(3) == 0 ? 0 : below(60);
    auto penalty = [&](geom::Point p) -> std::int64_t {
      const geom::Point d = p - ideal;
      if (std::abs(d.x) > kRadius || std::abs(d.y) > kRadius) return 0;
      return cost[(d.y + kRadius) * (2 * kRadius + 1) + d.x + kRadius];
    };
    auto feasible = [&](geom::Point p) {
      const geom::Rect candidate = geom::Rect::from_size(p, size).expanded(spacing);
      for (const geom::Rect& r : obstacles) {
        if (candidate.overlaps(r)) return false;
      }
      return true;
    };

    std::optional<std::int64_t> best;
    std::optional<geom::Point> nearest;
    for (int dy = -kRadius; dy <= kRadius; ++dy) {
      for (int dx = -kRadius; dx <= kRadius; ++dx) {
        const geom::Point p = ideal + geom::Point{dx, dy};
        if (!feasible(p)) continue;
        const std::int64_t score = geom::dist2(p, ideal) + penalty(p);
        if (!best || score < *best) best = score;
        if (!nearest || geom::dist2(p, ideal) < geom::dist2(*nearest, ideal)) {
          nearest = p;
        }
      }
    }

    const auto got = ring_search(ideal, kRadius, feasible, penalty);
    ASSERT_EQ(got.has_value(), best.has_value()) << "trial " << trial;
    if (got) {
      EXPECT_TRUE(feasible(*got)) << "trial " << trial;
      EXPECT_EQ(geom::dist2(*got, ideal) + penalty(*got), *best) << "trial " << trial;
      ideal_blocked += feasible(ideal) ? 0 : 1;
      penalty_moved += geom::dist2(*got, ideal) > geom::dist2(*nearest, ideal) ? 1 : 0;
    }
    const auto zero = ring_search(ideal, 100000, feasible,
                                  [](geom::Point) { return std::int64_t{0}; });
    ASSERT_TRUE(zero.has_value());
    EXPECT_EQ(*zero, nearest_free_position(ideal, size, obstacles, spacing))
        << "trial " << trial;
  }
  // The corpus exercises both the blocked ideal point and a penalty that
  // outweighs distance.
  EXPECT_GT(ideal_blocked, 20);
  EXPECT_GT(penalty_moved, 20);
}

GravityItem item(geom::Point size, int weight,
                 std::vector<std::pair<NetId, geom::Point>> terms) {
  GravityItem it;
  it.size = size;
  it.weight = weight;
  it.terms = std::move(terms);
  return it;
}

TEST(GravityPlace, HeaviestFirstAtOrigin) {
  const std::vector<GravityItem> items{
      item({4, 4}, 1, {{0, {4, 2}}}),
      item({6, 6}, 5, {{0, {0, 3}}}),
  };
  const auto pos = gravity_place(items, 0);
  EXPECT_EQ(pos[1], (geom::Point{0, 0}));
}

TEST(GravityPlace, NoOverlaps) {
  std::vector<GravityItem> items;
  for (int i = 0; i < 8; ++i) {
    items.push_back(item({5, 3 + i % 3}, i,
                         {{i % 3, {0, 1}}, {(i + 1) % 3, {5, 1}}}));
  }
  const auto pos = gravity_place(items, 1);
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      EXPECT_FALSE(geom::Rect::from_size(pos[i], items[i].size)
                       .overlaps(geom::Rect::from_size(pos[j], items[j].size)))
          << i << " vs " << j;
    }
  }
}

TEST(GravityPlace, ConnectedItemsLandClose) {
  // Three items: 0 and 1 share a net, 2 is unrelated.  1 must end up
  // nearer to 0 than 2's distance-by-default.
  const std::vector<GravityItem> items{
      item({4, 4}, 3, {{0, {4, 2}}}),
      item({4, 4}, 1, {{0, {0, 2}}}),
      item({4, 4}, 2, {}),
  };
  const auto pos = gravity_place(items, 0);
  const auto d01 = geom::dist2(pos[0], pos[1]);
  const auto d02 = geom::dist2(pos[0], pos[2]);
  EXPECT_LT(d01, d02);
}

TEST(GravityPlace, FixedItemsStay) {
  std::vector<GravityItem> items{
      item({4, 4}, 1, {{0, {4, 2}}}),
      item({4, 4}, 9, {{0, {0, 2}}}),
  };
  items[0].fixed_pos = geom::Point{100, 100};
  const auto pos = gravity_place(items, 0);
  EXPECT_EQ(pos[0], (geom::Point{100, 100}));
  // The second is pulled toward the fixed one.
  EXPECT_LT(geom::dist2(pos[1], {100, 100}), 2000);
}

TEST(GravityPlace, IncrementalMatchesReference) {
  // The indexed/heap engine behind gravity_place must reproduce the
  // quadratic-rescan transcription position for position: mixed sizes,
  // weight ties, shared nets, item sets with and without fixed members.
  for (const int n : {1, 7, 40}) {
    std::vector<GravityItem> items;
    for (int i = 0; i < n; ++i) {
      GravityItem it;
      it.size = {3 + (i * 7) % 5, 2 + (i * 5) % 4};
      it.weight = (i * 13) % 9;  // repeated weights force id tie-breaks
      const int nterms = i % 4;  // every 4th item is connectionless
      for (int k = 0; k < nterms; ++k) {
        it.terms.push_back({(i + k * 3) % 11,
                            {(k * 2) % (it.size.x + 1), (k * 3) % (it.size.y + 1)}});
      }
      items.push_back(std::move(it));
    }
    for (const int spacing : {0, 1, 2}) {
      EXPECT_EQ(gravity_place(items, spacing),
                gravity_place_reference(items, spacing))
          << "n=" << n << " spacing=" << spacing;
    }
    if (n == 40) {
      items[5].fixed_pos = geom::Point{30, -10};
      items[17].fixed_pos = geom::Point{-20, 15};
      EXPECT_EQ(gravity_place(items, 1), gravity_place_reference(items, 1));
    }
  }
}

// --- box / partition placement over real layouts --------------------------------

TEST(PlaceBoxes, PartitionHullStartsAtOrigin) {
  const Network net = gen::controller_network();
  std::vector<BoxLayout> boxes;
  for (ModuleId m = 0; m < 4; ++m) {
    boxes.push_back(place_box_modules(net, {m}, 0));
  }
  const PartitionLayout part = place_boxes(net, std::move(boxes), 0);
  geom::Rect hull;
  for (size_t b = 0; b < part.boxes.size(); ++b) {
    hull = hull.hull(geom::Rect::from_size(part.box_pos[b], part.boxes[b].size));
  }
  EXPECT_EQ(hull.lo, (geom::Point{0, 0}));
  EXPECT_EQ(hull.width(), part.size.x);
  EXPECT_EQ(hull.height(), part.size.y);
}

TEST(PlaceBoxes, NoBoxOverlap) {
  const Network net = gen::controller_network();
  std::vector<BoxLayout> boxes;
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    boxes.push_back(place_box_modules(net, {m}, 0));
  }
  const PartitionLayout part = place_boxes(net, std::move(boxes), 0);
  for (size_t a = 0; a < part.boxes.size(); ++a) {
    for (size_t b = a + 1; b < part.boxes.size(); ++b) {
      EXPECT_FALSE(
          geom::Rect::from_size(part.box_pos[a], part.boxes[a].size)
              .overlaps(geom::Rect::from_size(part.box_pos[b], part.boxes[b].size)));
    }
  }
}

TEST(PlacePartitions, NoPartitionOverlapAndTermLookup) {
  const Network net = gen::controller_network();
  std::vector<PartitionLayout> parts;
  for (int half = 0; half < 2; ++half) {
    std::vector<BoxLayout> boxes;
    for (ModuleId m = half * 8; m < (half + 1) * 8; ++m) {
      boxes.push_back(place_box_modules(net, {m}, 0));
    }
    parts.push_back(place_boxes(net, std::move(boxes), 0));
  }
  const FullLayout full = place_partitions(net, std::move(parts), 2);
  ASSERT_EQ(full.partition_pos.size(), 2u);
  EXPECT_FALSE(
      geom::Rect::from_size(full.partition_pos[0], full.partitions[0].size)
          .overlaps(
              geom::Rect::from_size(full.partition_pos[1], full.partitions[1].size)));
  // Terminal lookup resolves through the hierarchy.
  const TermId t = *net.term_by_name(0, "i0");
  EXPECT_NO_THROW(full.term_pos(net, t));
}

// --- terminal placement -----------------------------------------------------------

Network two_port() {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  const ModuleId b = lib.instantiate(net, "buf", "b0");
  const TermId in = net.add_system_terminal("x", TermType::In);
  const TermId out = net.add_system_terminal("y", TermType::Out);
  const NetId n0 = net.add_net("n0");
  net.connect(n0, in);
  net.connect(n0, *net.term_by_name(b, "a"));
  const NetId n1 = net.add_net("n1");
  net.connect(n1, *net.term_by_name(b, "y"));
  net.connect(n1, out);
  return net;
}

TEST(TerminalPlace, OnRingAroundPlacement) {
  const Network net = two_port();
  Diagram dia(net);
  dia.place_module(0, {10, 10});
  place_system_terminals(dia);
  const geom::Rect ring = geom::Rect::from_size({10, 10}, {4, 2}).expanded(1);
  for (TermId st : net.system_terms()) {
    ASSERT_TRUE(dia.system_term_placed(st));
    EXPECT_TRUE(ring.on_boundary(dia.term_pos(st)))
        << geom::to_string(dia.term_pos(st));
  }
}

TEST(TerminalPlace, InputLeftOutputRight) {
  const Network net = two_port();
  Diagram dia(net);
  dia.place_module(0, {10, 10});
  place_system_terminals(dia);
  const geom::Point in_pos = dia.term_pos(net.system_terms()[0]);
  const geom::Point out_pos = dia.term_pos(net.system_terms()[1]);
  EXPECT_LT(in_pos.x, out_pos.x);  // rule 4: inputs left, outputs right
}

TEST(TerminalPlace, NoCoincidentTerminals) {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");
  // Many unconnected inputs all gravitating to the same fallback spot.
  for (int i = 0; i < 6; ++i) {
    net.add_system_terminal("t" + std::to_string(i), TermType::In);
  }
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  place_system_terminals(dia);
  for (size_t i = 0; i < net.system_terms().size(); ++i) {
    for (size_t j = i + 1; j < net.system_terms().size(); ++j) {
      EXPECT_NE(dia.term_pos(net.system_terms()[i]),
                dia.term_pos(net.system_terms()[j]));
    }
  }
}

TEST(TerminalPlace, KeepsPreplaced) {
  const Network net = two_port();
  Diagram dia(net);
  dia.place_module(0, {10, 10});
  dia.place_system_term(net.system_terms()[0], {0, 0});
  place_system_terminals(dia);
  EXPECT_EQ(dia.term_pos(net.system_terms()[0]), (geom::Point{0, 0}));
}

}  // namespace
}  // namespace na
