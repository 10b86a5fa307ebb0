// Random network generator for property tests and scaling benches:
// connected, mostly feed-forward networks over the standard cell library,
// with controllable size, extra fan-out nets and system terminals.
#pragma once

#include <cstdint>

#include "netlist/network.hpp"

namespace na::gen {

struct RandomNetOptions {
  int modules = 10;
  int extra_nets = 8;  ///< fan-out nets (1 to 3 sinks) beyond the spine
  std::uint32_t seed = 1;
};

/// Deterministic for a given option set.  Every module is reachable from
/// the first through the net graph; every net has >= 2 terminals.
Network random_network(const RandomNetOptions& opt = {});

}  // namespace na::gen
