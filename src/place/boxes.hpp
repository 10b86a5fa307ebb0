// Box formation: strings of signal-flow-connected modules inside a
// partition (paper section 4.6.3, BOX_FORMATION / CONSTRUCT_ROOTS /
// LONGEST_PATH).
//
// A box is a string (path) of modules where each successor's in/inout
// terminal is driven by its predecessor's out/inout terminal.  The position
// in the string is the module's level; placing strings left to right
// enforces the desired signal flow (rule 3).
#pragma once

#include <vector>

#include "netlist/network.hpp"

namespace na {

/// A box: modules in level order (head = level 1).
using Box = std::vector<ModuleId>;

/// CONSTRUCT_ROOTS: modules of the partition allowed to head a string —
/// those with a connection outside the partition, or driven by an in/inout
/// *system* terminal, or having exactly one net to other modules.
std::vector<ModuleId> construct_roots(const Network& net,
                                      const std::vector<ModuleId>& partition);

/// LONGEST_PATH: longest out->in chain from `root` through `candidates`
/// (the modules still free to join a string, `root` ignored among them),
/// at most `max_box_size` long (depth-first with the paper's length
/// bound).  `candidates` must be sorted ascending by ModuleId: the DFS
/// tries successors in that order and keeps the first longest string, so
/// the order decides ties.  Each DFS step scans the candidates, not every
/// module of the network.
Box longest_path(const Network& net, ModuleId root,
                 const std::vector<ModuleId>& candidates, int max_box_size);

/// True when `from` drives `to`: some net joins an out/inout terminal of
/// `from` with an in/inout terminal of `to` (the edge relation of
/// LONGEST_PATH).
bool drives_module(const Network& net, ModuleId from, ModuleId to);

/// BOX_FORMATION over one partition: repeatedly carve out the longest
/// root-anchored string until every module of the partition is boxed.
std::vector<Box> form_boxes(const Network& net, const std::vector<ModuleId>& partition,
                            int max_box_size);

}  // namespace na
