// Tests for the workload generators: the reconstructed paper networks must
// have exactly the published module/net counts, and the random generators
// must produce structurally valid networks.
#include <gtest/gtest.h>

#include "gen/chain.hpp"
#include "gen/channel_gen.hpp"
#include "gen/controller.hpp"
#include "gen/facing.hpp"
#include "gen/life.hpp"
#include "gen/random_net.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

TEST(ChainGen, Figure61Counts) {
  // Paper table 6.1, row 6.1: 6 modules, 6 nets.
  const Network net = gen::chain_network({});
  EXPECT_EQ(net.module_count(), 6);
  EXPECT_EQ(net.net_count(), 6);
  EXPECT_TRUE(net.validate().empty());
}

TEST(ChainGen, Options) {
  const Network net = gen::chain_network({4, true, true});
  EXPECT_EQ(net.module_count(), 4);
  EXPECT_EQ(net.net_count(), 5);  // 3 chain + in + out
  EXPECT_EQ(net.system_terms().size(), 2u);
  EXPECT_TRUE(net.validate().empty());
}

TEST(ChainGen, IsOneDriveChain) {
  const Network net = gen::chain_network({5, false, false});
  for (int i = 0; i + 1 < 5; ++i) {
    EXPECT_EQ(net.connections(i, i + 1), 1);
  }
  EXPECT_EQ(net.connections(0, 2), 0);
}

TEST(ControllerGen, Figure62Counts) {
  // Paper table 6.1, rows 6.2-6.5: 16 modules, 24 nets.
  const Network net = gen::controller_network();
  EXPECT_EQ(net.module_count(), 16);
  EXPECT_EQ(net.net_count(), 24);
  EXPECT_TRUE(net.validate().empty());
}

TEST(ControllerGen, CentralController) {
  const Network net = gen::controller_network();
  const auto ctrl = net.module_by_name("ctrl");
  ASSERT_TRUE(ctrl.has_value());
  // The controller touches all three clusters.
  EXPECT_GE(net.neighbors(*ctrl).size(), 3u);
}

TEST(LifeGen, Figure66Counts) {
  // Paper table 6.1, rows 6.6/6.7: 27 modules, 222 nets.
  const Network net = gen::life_network();
  EXPECT_EQ(net.module_count(), 27);
  EXPECT_EQ(net.net_count(), 222);
  EXPECT_EQ(net.system_terms().size(), 6u);
  EXPECT_TRUE(net.validate().empty());
}

TEST(LifeGen, EveryCellHasEightNeighbourInputsDriven) {
  const Network net = gen::life_network();
  for (int i = 0; i < 9; ++i) {
    const std::string name =
        "sum" + std::to_string(i / 3) + std::to_string(i % 3);
    const ModuleId sum = *net.module_by_name(name);
    for (int k = 0; k < 8; ++k) {
      const auto t = net.term_by_name(sum, "n" + std::to_string(k));
      ASSERT_TRUE(t.has_value());
      EXPECT_NE(net.term(*t).net, kNone) << name << ".n" << k;
      // Each neighbour net is point-to-point.
      EXPECT_EQ(net.net(net.term(*t).net).terms.size(), 2u);
    }
  }
}

TEST(LifeGen, GlobalNetsSpanAllCells) {
  const Network net = gen::life_network();
  const auto clk = net.net_by_name("clk");
  ASSERT_TRUE(clk.has_value());
  EXPECT_EQ(net.net(*clk).terms.size(), 10u);  // root + 9 registers
  const auto mode = net.net_by_name("mode");
  ASSERT_TRUE(mode.has_value());
  EXPECT_EQ(net.net(*mode).terms.size(), 10u);
}

TEST(LifeGen, HandPlacementValid) {
  const Network net = gen::life_network();
  Diagram dia(net);
  gen::life_hand_placement(dia);
  EXPECT_TRUE(dia.all_placed());
  EXPECT_TRUE(validate_diagram(dia).empty());
}

TEST(RandomGen, Deterministic) {
  const Network a = gen::random_network({});
  const Network b = gen::random_network({});
  ASSERT_EQ(a.module_count(), b.module_count());
  ASSERT_EQ(a.net_count(), b.net_count());
  for (int n = 0; n < a.net_count(); ++n) {
    EXPECT_EQ(a.net(n).terms, b.net(n).terms);
  }
}

TEST(RandomGen, SeedsDiffer) {
  gen::RandomNetOptions o1;
  o1.seed = 1;
  gen::RandomNetOptions o2;
  o2.seed = 2;
  const Network a = gen::random_network(o1);
  const Network b = gen::random_network(o2);
  bool differ = a.net_count() != b.net_count();
  for (int n = 0; !differ && n < std::min(a.net_count(), b.net_count()); ++n) {
    differ = a.net(n).terms != b.net(n).terms;
  }
  EXPECT_TRUE(differ);
}

TEST(RandomGen, StructurallyValid) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    gen::RandomNetOptions opt;
    opt.modules = 15;
    opt.extra_nets = 10;
    opt.seed = seed;
    const Network net = gen::random_network(opt);
    EXPECT_EQ(net.module_count(), 15);
    EXPECT_TRUE(net.validate().empty()) << "seed " << seed;
  }
}

TEST(ChannelGen, Deterministic) {
  const ChannelProblem a = gen::random_channel({});
  const ChannelProblem b = gen::random_channel({});
  EXPECT_EQ(a.top, b.top);
  EXPECT_EQ(a.bottom, b.bottom);
}

TEST(ChannelGen, PinCounts) {
  gen::ChannelGenOptions opt;
  opt.columns = 40;
  opt.nets = 12;
  const ChannelProblem p = gen::random_channel(opt);
  EXPECT_EQ(p.columns(), 40);
  std::vector<int> pins(12, 0);
  for (int v : p.top) {
    if (v != ChannelTrunk::kNoNet) pins[v]++;
  }
  for (int v : p.bottom) {
    if (v != ChannelTrunk::kNoNet) pins[v]++;
  }
  for (int n = 0; n < 12; ++n) EXPECT_GE(pins[n], 2) << "net " << n;
}

TEST(FacingGen, Structure) {
  const gen::FacingOptions fopt{3, 6, 4, 2};
  const Network net = gen::facing_pairs(fopt);
  EXPECT_EQ(net.module_count(), 6);
  EXPECT_EQ(net.net_count(), 18);
  EXPECT_TRUE(net.validate().empty());
  Diagram dia(net);
  gen::facing_placement(dia, fopt);
  EXPECT_TRUE(validate_diagram(dia).empty());
  // The channel between facing modules is exactly `channel` tracks wide.
  EXPECT_EQ(dia.module_rect(1).lo.x - dia.module_rect(0).hi.x - 1, fopt.channel);
}

TEST(FacingGen, SeedsPermuteDifferently) {
  const Network a = gen::facing_pairs({1, 6, 4, 1});
  const Network b = gen::facing_pairs({1, 6, 4, 2});
  bool differ = false;
  for (int n = 0; n < a.net_count() && !differ; ++n) {
    differ = a.net(n).terms != b.net(n).terms;
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace na
