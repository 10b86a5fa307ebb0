// Parameterised synthetic netlists for the scale tier: workloads far past
// the paper's hundred-module figures, with known structure so benches can
// reason about the expected routing pattern.
//
// Three topologies:
//   * GridMesh  — an R x C mesh of cells, each driving its east and north
//     neighbour (a systolic-array-like fabric; nets are short and local,
//     the best case for region sharding);
//   * Torus     — the mesh plus wrap-around nets row/column ends, like the
//     LIFE board's edge wrapping (a controlled share of plane-spanning
//     nets, the stress case for the halo stitch pass);
//   * RandomDag — a connected random DAG whose per-net sink count targets
//     `fanout_mean` (irregular structure, exercises partitioning).
//
// GridMesh and RandomDag attach a handful of system terminals at the
// fabric edges; Torus has none, because its wrap nets leave no open pins.
//
// Every draw comes from a splitmix64 stream seeded by `seed` alone, so a
// given option set produces byte-identical networks on every platform and
// standard-library implementation (no std::uniform_* distributions).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "netlist/network.hpp"

namespace na::gen {

enum class SynthTopology { GridMesh, Torus, RandomDag };

/// CLI spelling ("grid" / "torus" / "dag"); nullopt on anything else.
std::optional<SynthTopology> parse_topology(std::string_view s);
std::string_view to_string(SynthTopology t);

struct SynthOptions {
  SynthTopology topology = SynthTopology::GridMesh;
  /// Target module count.  Honoured exactly (a mesh's last row may be
  /// partial).
  int modules = 1000;
  /// RandomDag: target mean sink count per driving net.
  double fanout_mean = 2.0;
  /// Seeds every random draw (cell-size jitter, DAG edges).
  std::uint64_t seed = 1;
};

/// Builds the network.  Deterministic: equal options => identical network,
/// including every name and id.  The result passes Network::validate().
Network synth_network(const SynthOptions& opt = {});

}  // namespace na::gen
