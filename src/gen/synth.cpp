#include "gen/synth.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace na::gen {
namespace {

/// splitmix64 (Steele/Lea/Flood) — the whole generator's randomness.  A
/// tiny counter-based stream: state advances by the golden-gamma constant,
/// each output is a finalised mix of the state.
struct SplitMix64 {
  std::uint64_t state;

  explicit SplitMix64(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform draw in [0, n) by rejection-free modulo — bias is irrelevant
  /// here (n is tiny against 2^64) and the modulo keeps it reproducible.
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
};

std::string idx_name(const char* prefix, int i) {
  return std::string(prefix) + std::to_string(i);
}

// ----- mesh / torus ----------------------------------------------------------

Network mesh_network(const SynthOptions& opt, bool wrap) {
  const int count = std::max(1, opt.modules);
  const int rows = std::max(1, static_cast<int>(std::sqrt(static_cast<double>(count))));
  const int cols = (count + rows - 1) / rows;
  SplitMix64 rng(opt.seed);

  Network net;
  // Cell modules with seed-jittered sizes: misaligned neighbour terminals
  // keep the router honest (pure straight-line fabrics route trivially).
  std::vector<ModuleId> cell(static_cast<size_t>(rows) * cols, kNone);
  std::vector<TermId> in_w(cell.size(), kNone), in_s(cell.size(), kNone);
  std::vector<TermId> out_e(cell.size(), kNone), out_n(cell.size(), kNone);
  int made = 0;
  for (int r = 0; r < rows && made < count; ++r) {
    for (int c = 0; c < cols && made < count; ++c, ++made) {
      const int w = 4 + static_cast<int>(rng.below(3));
      const int h = 4 + static_cast<int>(rng.below(3));
      const size_t i = static_cast<size_t>(r) * cols + c;
      const ModuleId m = net.add_module(
          "m" + std::to_string(r) + "_" + std::to_string(c), "", {w, h});
      cell[i] = m;
      in_w[i] = net.add_terminal(m, "w", TermType::In, {0, 1 + static_cast<int>(rng.below(h - 1))});
      in_s[i] = net.add_terminal(m, "s", TermType::In, {1 + static_cast<int>(rng.below(w - 1)), 0});
      out_e[i] = net.add_terminal(m, "e", TermType::Out, {w, 1 + static_cast<int>(rng.below(h - 1))});
      out_n[i] = net.add_terminal(m, "n", TermType::Out, {1 + static_cast<int>(rng.below(w - 1)), h});
    }
  }

  auto at = [&](int r, int c) -> size_t { return static_cast<size_t>(r) * cols + c; };
  auto connect2 = [&](const std::string& name, TermId a, TermId b) {
    const NetId n = net.add_net(name);
    net.connect(n, a);
    net.connect(n, b);
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const size_t i = at(r, c);
      if (cell[i] == kNone) continue;
      // East net: to the right neighbour, or (torus) wrapped to column 0.
      int ec = c + 1;
      if (ec >= cols || cell[at(r, ec)] == kNone) ec = wrap ? 0 : -1;
      if (ec >= 0 && ec != c && cell[at(r, ec)] != kNone) {
        connect2("e" + std::to_string(r) + "_" + std::to_string(c), out_e[i],
                 in_w[at(r, ec)]);
      }
      // North net: to the upper neighbour, or (torus) wrapped to row 0.
      int nr = r + 1;
      if (nr >= rows || cell[at(nr, c)] == kNone) nr = wrap ? 0 : -1;
      if (nr >= 0 && nr != r && cell[at(nr, c)] != kNone) {
        connect2("n" + std::to_string(r) + "_" + std::to_string(c), out_n[i],
                 in_s[at(nr, c)]);
      }
    }
  }

  if (!wrap) {
    // A few board pins: the first west inputs and last east outputs that
    // stayed open.
    const int pins = std::min(rows, 4);
    for (int r = 0; r < pins; ++r) {
      const size_t i = at(r, 0);
      if (cell[i] == kNone || net.term(in_w[i]).net != kNone) continue;
      const NetId n = net.add_net(idx_name("sysin", r));
      net.connect(n, net.add_system_terminal(idx_name("IN", r), TermType::In));
      net.connect(n, in_w[i]);
    }
    for (int r = 0; r < pins; ++r) {
      const size_t i = at(r, cols - 1);
      if (cell[i] == kNone || net.term(out_e[i]).net != kNone) continue;
      const NetId n = net.add_net(idx_name("sysout", r));
      net.connect(n, out_e[i]);
      net.connect(n, net.add_system_terminal(idx_name("OUT", r), TermType::Out));
    }
  }
  return net;
}

// ----- random DAG ------------------------------------------------------------

Network dag_network(const SynthOptions& opt) {
  const int count = std::max(1, opt.modules);
  SplitMix64 rng(opt.seed);

  // Edge list first: a spine edge parent(i) -> i keeps the DAG connected,
  // then extra forward edges until the total sink count per driving module
  // averages fanout_mean.
  std::vector<std::vector<int>> sinks(count);   // per driver, sink modules
  std::vector<int> in_degree(count, 0);
  for (int i = 1; i < count; ++i) {
    const int p = static_cast<int>(rng.below(i));
    sinks[p].push_back(i);
    ++in_degree[i];
  }
  const long long target_edges =
      std::llround(std::max(0.0, opt.fanout_mean) * count);
  long long edges = count - 1;
  while (edges < target_edges && count > 1) {
    const int driver = static_cast<int>(rng.below(count - 1));
    const int sink = driver + 1 + static_cast<int>(rng.below(count - 1 - driver));
    sinks[driver].push_back(sink);
    ++in_degree[sink];
    ++edges;
  }

  Network net;
  std::vector<TermId> out_term(count, kNone);
  std::vector<std::vector<TermId>> in_terms(count);
  for (int i = 0; i < count; ++i) {
    const int ins = std::max(1, in_degree[i]);
    const int w = 3 + static_cast<int>(rng.below(3));
    const int h = std::max(2, ins + 1);
    const ModuleId m = net.add_module(idx_name("m", i), "", {w, h});
    for (int k = 0; k < ins; ++k) {
      in_terms[i].push_back(
          net.add_terminal(m, idx_name("i", k), TermType::In, {0, 1 + k}));
    }
    out_term[i] = net.add_terminal(m, "o", TermType::Out,
                                   {w, 1 + static_cast<int>(rng.below(h - 1))});
  }

  // One net per driving module, fanning out to one input slot per sink.
  std::vector<int> next_in(count, 0);
  for (int i = 0; i < count; ++i) {
    if (sinks[i].empty()) continue;
    const NetId n = net.add_net(idx_name("n", i));
    net.connect(n, out_term[i]);
    for (int s : sinks[i]) net.connect(n, in_terms[s][next_in[s]++]);
  }

  // The source module's open input and the final module's (possibly
  // sink-less) output become the board pins.
  {
    const NetId n = net.add_net("sysin");
    net.connect(n, net.add_system_terminal("IN", TermType::In));
    net.connect(n, in_terms[0][next_in[0]++]);
  }
  const int last = count - 1;
  if (sinks[last].empty()) {
    const NetId n = net.add_net("sysout");
    net.connect(n, out_term[last]);
    net.connect(n, net.add_system_terminal("OUT", TermType::Out));
  }
  return net;
}

}  // namespace

std::optional<SynthTopology> parse_topology(std::string_view s) {
  if (s == "grid") return SynthTopology::GridMesh;
  if (s == "torus") return SynthTopology::Torus;
  if (s == "dag") return SynthTopology::RandomDag;
  return std::nullopt;
}

std::string_view to_string(SynthTopology t) {
  switch (t) {
    case SynthTopology::GridMesh: return "grid";
    case SynthTopology::Torus: return "torus";
    case SynthTopology::RandomDag: return "dag";
  }
  return "?";
}

Network synth_network(const SynthOptions& opt) {
  if (opt.modules < 1) throw std::invalid_argument("synth_network: modules < 1");
  switch (opt.topology) {
    case SynthTopology::GridMesh: return mesh_network(opt, /*wrap=*/false);
    case SynthTopology::Torus: return mesh_network(opt, /*wrap=*/true);
    case SynthTopology::RandomDag: return dag_network(opt);
  }
  throw std::invalid_argument("synth_network: unknown topology");
}

}  // namespace na::gen
