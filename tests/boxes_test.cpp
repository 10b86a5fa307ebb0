// Unit tests for box formation (CONSTRUCT_ROOTS / LONGEST_PATH /
// BOX_FORMATION, paper section 4.6.3).
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/chain.hpp"
#include "gen/random_net.hpp"
#include "place/boxes.hpp"

namespace na {
namespace {

/// m0 -> m1 -> m2 -> m3 chain plus a side branch m1 -> m4.
Network chain_with_branch() {
  Network net;
  for (int i = 0; i < 5; ++i) {
    const ModuleId m = net.add_module("m" + std::to_string(i), "", {4, 4});
    net.add_terminal(m, "a", TermType::In, {0, 1});
    net.add_terminal(m, "y", TermType::Out, {4, 1});
    net.add_terminal(m, "z", TermType::Out, {4, 3});
  }
  auto t = [&](ModuleId m, const char* n) { return *net.term_by_name(m, n); };
  auto wire = [&](const char* name, TermId a, TermId b) {
    const NetId n = net.add_net(name);
    net.connect(n, a);
    net.connect(n, b);
  };
  wire("n01", t(0, "y"), t(1, "a"));
  wire("n12", t(1, "y"), t(2, "a"));
  wire("n23", t(2, "y"), t(3, "a"));
  wire("n14", t(1, "z"), t(4, "a"));
  return net;
}

TEST(DrivesModule, Direction) {
  const Network net = chain_with_branch();
  EXPECT_TRUE(drives_module(net, 0, 1));
  EXPECT_FALSE(drives_module(net, 1, 0));
  EXPECT_TRUE(drives_module(net, 1, 4));
  EXPECT_FALSE(drives_module(net, 0, 2));
  EXPECT_FALSE(drives_module(net, 0, 0));
}

TEST(ConstructRoots, ExternalConnectionMakesRoot) {
  const Network net = chain_with_branch();
  // Partition {1,2}: both touch modules outside it.
  const auto roots = construct_roots(net, {1, 2});
  EXPECT_EQ(roots.size(), 2u);
}

TEST(ConstructRoots, SystemInputMakesRoot) {
  Network net;
  const ModuleId a = net.add_module("a", "", {4, 2});
  const ModuleId b = net.add_module("b", "", {4, 2});
  const TermId ta = net.add_terminal(a, "in", TermType::In, {0, 1});
  const TermId tay = net.add_terminal(a, "y", TermType::Out, {4, 1});
  const TermId tb = net.add_terminal(b, "in", TermType::In, {0, 1});
  net.add_terminal(b, "y", TermType::Out, {4, 1});
  const TermId st = net.add_system_terminal("x", TermType::In);
  const NetId n0 = net.add_net("n0");
  net.connect(n0, st);
  net.connect(n0, ta);
  const NetId n1 = net.add_net("n1");
  net.connect(n1, tay);
  net.connect(n1, tb);
  const auto roots = construct_roots(net, {a, b});
  // a: driven by a system input -> root.  b: exactly one net to other
  // modules -> root by the single-net rule.
  EXPECT_NE(std::find(roots.begin(), roots.end(), a), roots.end());
  EXPECT_NE(std::find(roots.begin(), roots.end(), b), roots.end());
}

TEST(ConstructRoots, SingleNetRule) {
  const Network net = chain_with_branch();
  // Whole network as one partition: m0 has one net to others -> root;
  // m4 and m3 too; m1 has three nets, m2 two -> not roots.
  const auto roots = construct_roots(net, {0, 1, 2, 3, 4});
  auto has = [&](ModuleId m) {
    return std::find(roots.begin(), roots.end(), m) != roots.end();
  };
  EXPECT_TRUE(has(0));
  EXPECT_TRUE(has(3));
  EXPECT_TRUE(has(4));
  EXPECT_FALSE(has(1));
  EXPECT_FALSE(has(2));
}

TEST(LongestPath, FollowsChain) {
  const Network net = chain_with_branch();
  const std::vector<ModuleId> avail = {0, 1, 2, 3, 4};
  const Box path = longest_path(net, 0, avail, 10);
  EXPECT_EQ(path, (Box{0, 1, 2, 3}));
}

TEST(LongestPath, RespectsBoxSizeLimit) {
  const Network net = chain_with_branch();
  const std::vector<ModuleId> avail = {0, 1, 2, 3, 4};
  EXPECT_EQ(longest_path(net, 0, avail, 2).size(), 2u);
  EXPECT_EQ(longest_path(net, 0, avail, 1).size(), 1u);
}

TEST(LongestPath, RespectsAvailability) {
  const Network net = chain_with_branch();
  const std::vector<ModuleId> avail = {0, 1, 3, 4};  // m2 unavailable
  const Box path = longest_path(net, 0, avail, 10);
  // Chain broken at m2: 0 -> 1 -> 4 (the branch).
  EXPECT_EQ(path, (Box{0, 1, 4}));
}

TEST(LongestPath, HandlesCyclesWithoutRevisiting) {
  Network net;
  for (int i = 0; i < 3; ++i) {
    const ModuleId m = net.add_module("m" + std::to_string(i), "", {4, 2});
    net.add_terminal(m, "a", TermType::In, {0, 1});
    net.add_terminal(m, "y", TermType::Out, {4, 1});
  }
  auto wire = [&](const char* name, ModuleId f, ModuleId t) {
    const NetId n = net.add_net(name);
    net.connect(n, *net.term_by_name(f, "y"));
    net.connect(n, *net.term_by_name(t, "a"));
  };
  wire("n0", 0, 1);
  wire("n1", 1, 2);
  wire("n2", 2, 0);  // cycle
  const Box path = longest_path(net, 0, {0, 1, 2}, 10);
  EXPECT_EQ(path.size(), 3u);  // each module once
}

TEST(FormBoxes, DisjointCover) {
  for (unsigned seed : {3u, 9u}) {
    gen::RandomNetOptions opt;
    opt.modules = 14;
    opt.seed = seed;
    const Network net = gen::random_network(opt);
    std::vector<ModuleId> all(net.module_count());
    for (int i = 0; i < net.module_count(); ++i) all[i] = i;
    for (int max_box : {1, 3, 7}) {
      const auto boxes = form_boxes(net, all, max_box);
      std::vector<int> seen(net.module_count(), 0);
      for (const Box& b : boxes) {
        EXPECT_FALSE(b.empty());
        EXPECT_LE(static_cast<int>(b.size()), max_box);
        for (ModuleId m : b) seen[m]++;
        // Every consecutive pair is a drive edge (string property).
        for (size_t i = 1; i < b.size(); ++i) {
          EXPECT_TRUE(drives_module(net, b[i - 1], b[i]));
        }
      }
      for (int m = 0; m < net.module_count(); ++m) EXPECT_EQ(seen[m], 1);
    }
  }
}

TEST(FormBoxes, ChainBecomesOneBox) {
  const Network net = gen::chain_network({6, false, true});
  std::vector<ModuleId> all(net.module_count());
  for (int i = 0; i < net.module_count(); ++i) all[i] = i;
  const auto boxes = form_boxes(net, all, 7);
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0].size(), 6u);
}

TEST(FormBoxes, BoxSizeOneYieldsSingletons) {
  const Network net = chain_with_branch();
  const auto boxes = form_boxes(net, {0, 1, 2, 3, 4}, 1);
  EXPECT_EQ(boxes.size(), 5u);
}

}  // namespace
}  // namespace na
