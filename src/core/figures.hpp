// The generator settings of the paper's figures 6.1-6.7: one definition
// shared by the benches, the examples and the tests that reproduce them.
#pragma once

#include "core/generator.hpp"
#include "route/net_order.hpp"

namespace na {

inline GeneratorOptions fig61_options() {
  GeneratorOptions opt;  // one partition, one string
  opt.placer.max_part_size = 7;
  opt.placer.max_box_size = 7;
  return opt;
}

inline GeneratorOptions fig62_options() {
  GeneratorOptions opt;  // -p 1 -b 1 (pure clustering)
  opt.placer.max_part_size = 1;
  opt.placer.max_box_size = 1;
  opt.router.margin = 6;
  return opt;
}

inline GeneratorOptions fig63_options() {
  GeneratorOptions opt;  // -p 5 -b 1 (functional partitions, no strings)
  opt.placer.max_part_size = 5;
  opt.placer.max_box_size = 1;
  opt.placer.max_connections = 8;
  opt.router.margin = 6;
  return opt;
}

inline GeneratorOptions fig64_options() {
  GeneratorOptions opt;  // -p 7 -b 5 (partitions of strings)
  opt.placer.max_part_size = 7;
  opt.placer.max_box_size = 5;
  opt.router.margin = 6;
  return opt;
}

/// Figure 6.6, the hand-placed LIFE: a dense diagram needs ring space for
/// the wrap-around nets, and long nets routed first (the ordering
/// criterion section 7 recommends).
inline GeneratorOptions life_router_options() {
  GeneratorOptions opt;
  opt.router.margin = 12;
  opt.router.order_criterion = static_cast<int>(NetOrderCriterion::LongestFirst);
  return opt;
}

inline GeneratorOptions fig67_options() {
  GeneratorOptions opt = life_router_options();  // automatic LIFE placement
  opt.placer.max_part_size = 3;                  // one partition per cell
  opt.placer.max_box_size = 3;
  opt.placer.module_spacing = 1;
  opt.placer.partition_spacing = 2;
  return opt;
}

}  // namespace na
