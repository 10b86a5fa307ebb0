// perfbench_driver — runs one workload of the repository benchmark and
// writes its raw measurements as one JSON document: times as integer
// nanoseconds, counts, the paths of metrics-op snapshots and trace files,
// and the outcome of every output check.  perfbench/run.py builds this
// program, runs it, and derives every metric from the document.
//
//   perfbench_driver --workload paper_figures --seed 1 --seconds 10
//                    --trace 0 --daemon <na_serve> --dir <work dir>
//                    --out <raw.json>
//
// Each layer is timed from outside, around the public call the benchmark
// makes into it: place(), route_all() / shard_route_all(),
// validate_diagram(), and the na_serve wire ops.  The netlist generators
// (gen) and the simulator (sim) only build inputs and check outputs; they
// are never inside a timed interval.  With --trace 1 the run is split in
// two halves, the second with the trace recorder on (in-process for the
// batch workloads, the daemon's flight recorder for the serve workloads),
// so run.py can state the tracing overhead next to the span rollup.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "gen/synth.hpp"
#include "obs/trace.hpp"
#include "route/shard_route.hpp"
#include "schematic/escher_reader.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "sim/life_check.hpp"

extern char** environ;

namespace {

using namespace na;
using Clock = std::chrono::steady_clock;

long long ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

long long ns_since(Clock::time_point t0) { return ns_between(t0, Clock::now()); }

/// splitmix64: every seeded choice of the benchmark comes from this.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;
  std::string dir;
  std::string out;
};

/// Output checks.  Each runs outside every timed interval; a failed one
/// is counted and described, and makes the run incorrect.
struct Checks {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> messages;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (messages.size() < 20) messages.push_back(what);
    }
  }
};

// ----- batch workloads: netlist -> validated diagram -------------------------

/// One diagram a pass generates: its network, the figure's options, and
/// the diagram a pass starts from (empty, or hand-placed for fig 6.6).
struct Input {
  std::string name;
  std::unique_ptr<Network> net;  // Diagram keeps a pointer to it
  GeneratorOptions opt;
  std::unique_ptr<Diagram> start;
  bool sharded = false;
  ShardOptions shard;
  bool life = false;
};

Input make_input(std::string name, Network net, GeneratorOptions opt) {
  Input in;
  in.name = std::move(name);
  in.net = std::make_unique<Network>(std::move(net));
  in.opt = std::move(opt);
  in.start = std::make_unique<Diagram>(*in.net);
  return in;
}

/// The inputs of one batch workload.  This is the workload's set-up.
std::vector<Input> make_inputs(const std::string& workload, std::uint64_t seed) {
  std::vector<Input> inputs;
  if (workload == "paper_figures") {
    inputs.push_back(make_input("fig6.1", gen::chain_network({}),
                                bench::fig61_options()));
    inputs.push_back(make_input("fig6.2", gen::controller_network(),
                                bench::fig62_options()));
    inputs.push_back(make_input("fig6.3", gen::controller_network(),
                                bench::fig63_options()));
    inputs.push_back(make_input("fig6.4", gen::controller_network(),
                                bench::fig64_options()));
    inputs.push_back(make_input("fig6.6", gen::life_network(),
                                bench::life_router_options()));
    gen::life_hand_placement(*inputs.back().start);
    inputs.back().life = true;
    inputs.push_back(make_input("fig6.7", gen::life_network(),
                                bench::fig67_options()));
    inputs.back().life = true;
  } else {  // mesh10k: the scale tier's 10k grid mesh, sharded on 4 threads
    gen::SynthOptions sopt;
    sopt.topology = gen::SynthTopology::GridMesh;
    sopt.modules = 10000;
    sopt.seed = seed;
    GeneratorOptions opt;
    opt.placer.max_part_size = 8;
    opt.placer.max_box_size = 4;
    opt.placer.max_connections = 16;
    opt.placer.threads = 4;
    opt.router.margin = 6;
    inputs.push_back(make_input("mesh10k", gen::synth_network(sopt), opt));
    inputs.back().sharded = true;
    inputs.back().shard.shards = 32;
    inputs.back().shard.threads = 4;
  }
  return inputs;
}

struct PassResult {
  long long total_ns = 0;
  long long place_ns = 0;
  long long route_ns = 0;
  long long validate_ns = 0;
  RouteReport route;  // summed over the pass's diagrams
  ShardRouteStats shard;
  DiagramStats stats;  // summed over the pass's diagrams
};

/// One pass: every input from netlist to validated diagram.  Only the
/// place/route/validate calls and the diagram copy they start from are
/// inside the timed interval; stats and checks run after it.
PassResult run_pass(const std::vector<Input>& inputs, Checks& checks) {
  PassResult r;
  for (const Input& in : inputs) {
    const auto t0 = Clock::now();
    Diagram dia = *in.start;
    const auto tp = Clock::now();
    if (!dia.all_placed()) place(dia, in.opt.placer);
    const auto tr = Clock::now();
    RouteReport rep;
    ShardRouteStats shard;
    if (in.sharded) {
      rep = shard_route_all(dia, in.opt.router, in.shard, &shard);
    } else {
      rep = route_all(dia, in.opt.router);
    }
    const auto tv = Clock::now();
    const std::vector<std::string> problems = validate_diagram(dia);
    const auto t1 = Clock::now();
    r.total_ns += ns_between(t0, t1);
    r.place_ns += ns_between(tp, tr);
    r.route_ns += ns_between(tr, tv);
    r.validate_ns += ns_between(tv, t1);

    checks.check(problems.empty(),
                 in.name + ": invalid diagram: " +
                     (problems.empty() ? std::string() : problems.front()));
    r.route.nets_routed += rep.nets_routed;
    r.route.nets_failed += rep.nets_failed;
    r.route.connections_made += rep.connections_made;
    r.route.connections_failed += rep.connections_failed;
    r.route.retried_connections += rep.retried_connections;
    r.route.total_expansions += rep.total_expansions;
    if (in.sharded) r.shard = shard;
    const DiagramStats s = compute_stats(dia);
    r.stats.modules += s.modules;
    r.stats.nets += s.nets;
    r.stats.unrouted += s.unrouted;
    r.stats.wire_length += s.wire_length;
    r.stats.bends += s.bends;
    r.stats.crossings += s.crossings;
  }
  return r;
}

/// Passes for `seconds` of wall time: at least one, and no pass that the
/// mean so far says would end after the deadline (a 10k-mesh pass takes
/// about as long as a whole run).
std::vector<PassResult> run_passes(const std::vector<Input>& inputs,
                                   double seconds, Checks& checks) {
  std::vector<PassResult> passes;
  const auto t0 = Clock::now();
  const long long limit = static_cast<long long>(seconds * 1e9);
  do {
    passes.push_back(run_pass(inputs, checks));
  } while (ns_since(t0) * static_cast<long long>(passes.size() + 1) /
               static_cast<long long>(passes.size()) <=
           limit);
  return passes;
}

void write_quality(obs::JsonWriter& w, const DiagramStats& s) {
  w.key("quality")
      .begin_object()
      .field("modules", s.modules)
      .field("nets", s.nets)
      .field("unrouted", s.unrouted)
      .field("wire_length", s.wire_length)
      .field("bends", s.bends)
      .field("crossings", s.crossings)
      .end_object();
}

void write_passes(obs::JsonWriter& w, const char* key,
                  const std::vector<PassResult>& passes) {
  w.key(key).begin_array();
  for (const PassResult& p : passes) {
    w.begin_object()
        .field("total_ns", p.total_ns)
        .field("place_ns", p.place_ns)
        .field("route_ns", p.route_ns)
        .field("validate_ns", p.validate_ns)
        .end_object();
  }
  w.end_array();
}

void run_batch(const Args& a, obs::JsonWriter& w, Checks& checks) {
  // Set-up is timed at least 5 times, then until half a second of set-up
  // or 101 samples; the last inputs are the ones measured.
  std::vector<long long> setup_ns;
  std::vector<Input> inputs;
  long long spent = 0;
  while (setup_ns.size() < 5 ||
         (spent < 500'000'000LL && setup_ns.size() < 101)) {
    const auto t0 = Clock::now();
    inputs = make_inputs(a.workload, a.seed);
    setup_ns.push_back(ns_since(t0));
    spent += setup_ns.back();
  }
  w.key("setup_ns").begin_array();
  for (const long long ns : setup_ns) w.value(ns);
  w.end_array();

  const double measure_s = a.trace ? a.seconds / 2 : a.seconds;
  const std::vector<PassResult> passes = run_passes(inputs, measure_s, checks);
  write_passes(w, "passes", passes);

  // Determinism: every pass must draw the same diagrams.
  const PassResult& last = passes.back();
  for (const PassResult& p : passes) {
    checks.check(p.stats.bends == last.stats.bends &&
                     p.stats.crossings == last.stats.crossings &&
                     p.stats.wire_length == last.stats.wire_length,
                 "diagram quality differs between passes");
  }
  write_quality(w, last.stats);
  w.key("route")
      .begin_object()
      .field("nets_routed", last.route.nets_routed)
      .field("nets_failed", last.route.nets_failed)
      .field("connections_failed", last.route.connections_failed)
      .field("retried_connections", last.route.retried_connections)
      .field("expansions", last.route.total_expansions)
      .end_object();
  w.key("shard").begin_object();
  w.field("nets_intra", last.shard.nets_intra)
      .field("nets_stitch", last.shard.nets_stitch);
  w.key("shard_nets").begin_array();
  for (const int n : last.shard.shard_nets) w.value(n);
  w.end_array().end_object();

  if (a.trace) {
    obs::trace_reset();
    obs::trace_enable();
    const std::vector<PassResult> traced =
        run_passes(inputs, a.seconds / 2, checks);
    obs::trace_disable();
    const std::string path = a.dir + "/trace-" + a.workload + ".json";
    checks.check(obs::trace_write(path), "cannot write " + path);
    obs::trace_reset();
    write_passes(w, "traced_passes", traced);
    w.field("trace_file", std::string_view(path));
  }

  // LIFE: the generated network must behave as the game of LIFE for 8
  // generations from the seeded board (the paper's simulation check).
  std::uint64_t state = a.seed;
  const std::uint64_t bits = splitmix(state);
  std::array<bool, 9> board{};
  std::string board_text;
  for (int c = 0; c < 9; ++c) {
    board[c] = ((bits >> c) & 1) != 0;
    board_text += board[c] ? '1' : '0';
  }
  for (const Input& in : inputs) {
    if (!in.life) continue;
    const std::vector<std::string> bad = sim::verify_life(*in.net, board, 8);
    checks.check(bad.empty(), in.name + ": LIFE simulation: " +
                                  (bad.empty() ? std::string() : bad.front()));
  }
  w.key("seed_detail").begin_object();
  if (a.workload == "paper_figures") {
    w.field("life_board", std::string_view(board_text));
  } else {
    w.field("synth_seed", static_cast<long long>(a.seed))
        .field("modules", inputs.front().net->module_count())
        .field("nets", inputs.front().net->net_count());
  }
  w.end_object();
  w.field("operations", static_cast<long long>(passes.size() * inputs.size()));
  w.field("peak_rss_bytes", obs::peak_rss_bytes());
}

// ----- serve workloads: closed-loop editors against na_serve -----------------

constexpr int kConnections = 4;
constexpr int kFlightEvents = 16384;

/// The stock na_serve daemon as a child process.  The destructor kills
/// and reaps a daemon that was not stopped cleanly.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start(const Args& a, const std::string& tag, bool flight,
             std::string* error) {
    port_file_ = a.dir + "/port-" + tag;
    std::remove(port_file_.c_str());
    const std::string log = a.dir + "/daemon-" + tag + ".log";
    std::vector<std::string> argv = {a.daemon, "--port", "0", "--port-file",
                                     port_file_};
    if (flight) {
      dump_path_ = a.dir + "/flight-" + tag + ".json";
      std::remove(dump_path_.c_str());
      argv.insert(argv.end(), {"--flight-recorder", std::to_string(kFlightEvents),
                               "--flight-dump", dump_path_});
    }
    std::vector<char*> cargv;
    for (std::string& s : argv) cargv.push_back(s.data());
    cargv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, a.daemon.c_str(), &fa, nullptr,
                               cargv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      *error = "cannot start " + a.daemon;
      return false;
    }
    const auto t0 = Clock::now();
    while (ns_since(t0) < 30'000'000'000LL) {
      // The daemon writes "<port>\n"; a file without the newline is still
      // being written.
      std::ifstream in(port_file_);
      std::string text;
      if (std::getline(in, text) && !in.eof()) {
        port_ = std::atoi(text.c_str());
        if (port_ > 0) return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "na_serve exited at start (see " + log + ")";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    *error = "na_serve did not report its port";
    return false;
  }

  int port() const { return port_; }
  const std::string& dump_path() const { return dump_path_; }

  /// Asks the flight recorder for a dump and waits until the file is
  /// complete (the dump happens on the daemon's next accept-loop tick).
  bool dump_flight() {
    ::kill(pid_, SIGUSR1);
    const std::string footer = "],\"displayTimeUnit\":\"ms\"}\n";
    const auto t0 = Clock::now();
    while (ns_since(t0) < 20'000'000'000LL) {
      std::ifstream in(dump_path_, std::ios::binary);
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string text = ss.str();
      if (text.size() >= footer.size() &&
          text.compare(text.size() - footer.size(), footer.size(), footer) == 0) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// SIGTERM (graceful drain), then waits; true when it exited cleanly.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (ns_since(t0) > 30'000'000'000LL) return false;  // destructor kills
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::string port_file_;
  std::string dump_path_;
};

bool reply_ok(const std::string& line) {
  return line.rfind(R"({"ok":true)", 0) == 0;
}

std::string session_name(int c) { return "s" + std::to_string(c); }

/// One round as the client saw it, in ns since the phase started.
struct Round {
  long long first_send = 0;  ///< first request of the round written
  long long last_send = 0;   ///< last request of the round written
  long long reply = 0;       ///< the round's get reply read
  int requests = 0;
  long long get_bytes = 0;
};

/// Per-connection editor state and results.
struct Editor {
  serve::BlockingClient client;
  std::uint64_t rng = 0;
  bool probe = false;  // serve_life: the probe module is in the design
  std::vector<Round> rounds;
  std::vector<std::string> nets_joined;  // serve_life: seeded probe targets
  long long failed = 0;
  long long requests = 0;
  std::string last_get;
  std::string error;
};

/// A live daemon with kConnections editors, each with its session open.
struct Service {
  Daemon daemon;
  std::vector<Editor> editors;
};

bool set_up(const Args& a, const std::string& tag, bool flight, Service& svc,
            long long* ns, std::string* error) {
  const auto t0 = Clock::now();
  if (!svc.daemon.start(a, tag, flight, error)) return false;
  const std::string design = a.workload == "serve_life" ? "life" : "chain";
  svc.editors = std::vector<Editor>(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    Editor& e = svc.editors[c];
    if (!e.client.connect("127.0.0.1", svc.daemon.port(), error)) return false;
    e.client.send_line(R"({"op":"open","session":")" + session_name(c) +
                       R"(","design":")" + design + R"("})");
  }
  for (int c = 0; c < kConnections; ++c) {
    std::string line;
    if (!svc.editors[c].client.recv_line(&line) || !reply_ok(line)) {
      *error = "open failed: " + line;
      return false;
    }
  }
  *ns = ns_since(t0);
  return true;
}

std::string edit_line(int c, const std::string& edits) {
  return R"({"op":"edit","session":")" + session_name(c) + R"(","edits":[)" +
         edits + "]}";
}

std::string get_line(int c) {
  return R"({"op":"get","session":")" + session_name(c) + R"("})";
}

/// serve_life round: one seeded edit, its reply, then a get.  The edits
/// alternate between adding a probe module whose terminal joins a seeded
/// LIFE net and removing it again, so the design is back at its base
/// every two rounds.
bool life_round(Editor& e, int c, const std::vector<std::string>& nets,
                Clock::time_point t0, bool record) {
  std::string edits;
  if (!e.probe) {
    const std::string& net = nets[splitmix(e.rng) % nets.size()];
    if (record) e.nets_joined.push_back(net);
    edits = R"({"kind":"add_module","name":"probe","template":"","w":4,"h":3},)"
            R"({"kind":"add_terminal","module":"probe","name":"p","type":"in","x":0,"y":1},)"
            R"({"kind":"connect","net":")" + net +
            R"(","module":"probe","term":"p"})";
  } else {
    edits = R"({"kind":"remove_module","name":"probe"})";
  }
  const std::string edit = edit_line(c, edits);
  const std::string get = get_line(c);
  Round r;
  r.first_send = ns_since(t0);
  std::string reply;
  const bool sent = e.client.send_line(edit) && e.client.recv_line(&reply);
  if (!sent) return false;
  if (!reply_ok(reply)) ++e.failed;
  r.last_send = ns_since(t0);
  if (!e.client.send_line(get) || !e.client.recv_line(&e.last_get)) return false;
  r.reply = ns_since(t0);
  if (!reply_ok(e.last_get)) ++e.failed;
  e.probe = !e.probe;
  r.requests = 2;
  r.get_bytes = static_cast<long long>(e.last_get.size());
  if (record) {
    e.requests += r.requests;
    e.rounds.push_back(r);
  }
  return true;
}

/// serve_burst round: 8 add_module + 8 remove_module of the same names,
/// pipelined with the get that ends the round in one write.
bool burst_round(Editor& e, int c, Clock::time_point t0, bool record) {
  constexpr int kAdds = 8;
  std::string lines;
  for (int i = 0; i < kAdds; ++i) {
    const int w = 2 + static_cast<int>(splitmix(e.rng) % 5);
    const int h = 2 + static_cast<int>(splitmix(e.rng) % 5);
    lines += edit_line(c, R"({"kind":"add_module","name":"burst)" +
                              std::to_string(i) + R"(","template":"","w":)" +
                              std::to_string(w) + R"(,"h":)" +
                              std::to_string(h) + "}");
    lines += '\n';
  }
  for (int i = 0; i < kAdds; ++i) {
    lines += edit_line(c, R"({"kind":"remove_module","name":"burst)" +
                              std::to_string(i) + R"("})");
    lines += '\n';
  }
  lines += get_line(c);
  Round r;
  r.first_send = ns_since(t0);
  if (!e.client.send_line(lines)) return false;
  r.last_send = ns_since(t0);
  std::string reply;
  for (int i = 0; i < 2 * kAdds; ++i) {
    if (!e.client.recv_line(&reply)) return false;
    if (!reply_ok(reply)) ++e.failed;
  }
  if (!e.client.recv_line(&e.last_get)) return false;
  r.reply = ns_since(t0);
  if (!reply_ok(e.last_get)) ++e.failed;
  r.requests = 2 * kAdds + 1;
  r.get_bytes = static_cast<long long>(e.last_get.size());
  if (record) {
    e.requests += r.requests;
    e.rounds.push_back(r);
  }
  return true;
}

/// Every editor runs rounds on its own thread until `seconds` have gone
/// by (or for `count` rounds when warming up).  A serve_life editor ends
/// on a completed add/remove pair.  Returns the phase's wall time.
long long run_rounds(const Args& a, Service& svc,
                     const std::vector<std::string>& nets, double seconds,
                     int count, bool record) {
  const bool life = a.workload == "serve_life";
  const auto t0 = Clock::now();
  const long long limit = static_cast<long long>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Editor& e = svc.editors[c];
      for (int i = 0;; ++i) {
        const bool more = count > 0 ? i < count : ns_since(t0) < limit;
        if (!more && !(life && e.probe)) break;
        const bool ok = life ? life_round(e, c, nets, t0, record)
                             : burst_round(e, c, t0, record);
        if (!ok) {
          e.error = "transport: " + e.client.last_error();
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ns_since(t0);
}

/// Saves the daemon's `metrics` op reply to `path`.
bool snapshot_metrics(Service& svc, const std::string& path) {
  const std::string reply = svc.editors[0].client.request(R"({"op":"metrics"})");
  if (!reply_ok(reply)) return false;
  std::ofstream out(path, std::ios::trunc);
  out << reply << '\n';
  return static_cast<bool>(out);
}

/// Reads each session's last get payload back with escher_reader and
/// validates it; the edit stream leaves every session at its base design.
DiagramStats check_payloads(const Service& svc, const Network& base,
                            Checks& checks) {
  DiagramStats sum;
  for (const Editor& e : svc.editors) {
    checks.check(e.error.empty(), "editor: " + e.error);
    checks.check(e.failed == 0, "editor saw " + std::to_string(e.failed) +
                                    " failed replies");
    try {
      const serve::JsonValue reply = serve::parse_json(e.last_get);
      const serve::JsonValue* payload = reply.find("payload");
      if (payload == nullptr) throw std::runtime_error("get reply has no payload");
      const Diagram dia = parse_escher_diagram(base, payload->text);
      const std::vector<std::string> problems = validate_diagram(dia);
      checks.check(problems.empty(),
                   "payload invalid: " +
                       (problems.empty() ? std::string() : problems.front()));
      long long instances = 0;
      for (size_t at = payload->text.find("instname: "); at != std::string::npos;
           at = payload->text.find("instname: ", at + 1)) {
        ++instances;
      }
      checks.check(dia.all_placed() && instances == base.module_count(),
                   "payload holds " + std::to_string(instances) +
                       " modules, the edit stream implies " +
                       std::to_string(base.module_count()));
      const DiagramStats s = compute_stats(dia);
      sum.modules += s.modules;
      sum.nets += s.nets;
      sum.unrouted += s.unrouted;
      sum.wire_length += s.wire_length;
      sum.bends += s.bends;
      sum.crossings += s.crossings;
    } catch (const std::exception& ex) {
      checks.check(false, std::string("payload unreadable: ") + ex.what());
    }
  }
  return sum;
}

void write_rounds(obs::JsonWriter& w, const Service& svc) {
  w.key("rounds").begin_array();
  for (const Editor& e : svc.editors) {
    for (const Round& r : e.rounds) {
      w.begin_array()
          .value(r.first_send)
          .value(r.last_send)
          .value(r.reply)
          .value(r.requests)
          .value(r.get_bytes)
          .end_array();
    }
  }
  w.end_array();
}

/// One measured phase against a fresh daemon: set-up, warm-up, metrics
/// snapshot, `seconds` of rounds, snapshot, checks, stop.
bool serve_phase(const Args& a, obs::JsonWriter& w, Checks& checks,
                 const std::string& tag, bool flight, double seconds,
                 long long* setup_ns) {
  const Network base = a.workload == "serve_life" ? gen::life_network()
                                                  : gen::chain_network({});
  std::vector<std::string> nets;
  for (NetId n = 0; n < base.net_count(); ++n) nets.push_back(base.net(n).name);

  Service svc;
  std::string error;
  if (!set_up(a, tag, flight, svc, setup_ns, &error)) {
    checks.check(false, tag + " set-up: " + error);
    return false;
  }
  for (int c = 0; c < kConnections; ++c) {
    svc.editors[c].rng = a.seed * 0x100000001B3ULL + static_cast<std::uint64_t>(c);
  }
  const bool life = a.workload == "serve_life";
  run_rounds(a, svc, nets, 0, life ? 2 : 20, false);

  const std::string before = a.dir + "/metrics-" + tag + "-before.json";
  const std::string after = a.dir + "/metrics-" + tag + "-after.json";
  checks.check(snapshot_metrics(svc, before), "metrics op failed");
  const long long wall_ns = run_rounds(a, svc, nets, seconds, 0, true);
  bool dumped = true;
  if (flight) dumped = svc.daemon.dump_flight();
  checks.check(dumped, "flight-recorder dump did not complete");
  checks.check(snapshot_metrics(svc, after), "metrics op failed");

  const DiagramStats quality = check_payloads(svc, base, checks);
  long long requests = 0;
  long long failed = 0;
  for (const Editor& e : svc.editors) {
    requests += e.requests;
    failed += e.failed;
  }
  for (Editor& e : svc.editors) e.client.close();
  checks.check(svc.daemon.stop(), "na_serve did not stop cleanly");

  w.key(tag).begin_object();
  w.field("wall_ns", wall_ns)
      .field("requests", requests)
      .field("failed_requests", failed)
      .field("metrics_before", std::string_view(before))
      .field("metrics_after", std::string_view(after));
  if (flight) w.field("flight_file", std::string_view(svc.daemon.dump_path()));
  write_rounds(w, svc);
  write_quality(w, quality);
  if (life) {
    w.key("nets_joined").begin_array();
    for (const Editor& e : svc.editors) {
      for (const std::string& n : e.nets_joined) w.value(std::string_view(n));
    }
    w.end_array();
  }
  w.end_object();
  return true;
}

void run_serve(const Args& a, obs::JsonWriter& w, Checks& checks) {
  // Set-up (daemon start plus the session opens) is timed at least 3
  // times, then until 2 s of set-up or 21 samples.  The measured phase's
  // own set-up is the last sample; the daemons before it are stopped
  // again unmeasured.
  std::vector<long long> setup_ns;
  long long spent = 0;
  while (setup_ns.size() + 1 < 3 ||
         (spent < 2'000'000'000LL && setup_ns.size() + 1 < 21)) {
    Service svc;
    std::string error;
    long long ns = 0;
    const bool ok = set_up(a, "setup", false, svc, &ns, &error);
    checks.check(ok, "set-up: " + error);
    if (!ok) break;
    setup_ns.push_back(ns);
    spent += ns;
    for (Editor& e : svc.editors) e.client.close();
    checks.check(svc.daemon.stop(), "na_serve did not stop cleanly");
  }
  long long ns = 0;
  const double measure_s = a.trace ? a.seconds / 2 : a.seconds;
  if (serve_phase(a, w, checks, "measured", false, measure_s, &ns)) {
    setup_ns.push_back(ns);
  }
  if (a.trace) {
    long long traced_setup = 0;
    serve_phase(a, w, checks, "traced", true, a.seconds / 2, &traced_setup);
    w.field("flight_events_per_thread", static_cast<long long>(kFlightEvents));
  }
  w.key("setup_ns").begin_array();
  for (const long long s : setup_ns) w.value(s);
  w.end_array();
  w.key("seed_detail").begin_object();
  w.field("editor_seed", static_cast<long long>(a.seed));
  w.end_object();
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::string(v) == "1";
    } else if (flag == "--daemon") {
      a->daemon = v;
    } else if (flag == "--dir") {
      a->dir = v;
    } else if (flag == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  const bool known = a->workload == "paper_figures" || a->workload == "mesh10k" ||
                     a->workload == "serve_life" || a->workload == "serve_burst";
  return known && a->seconds > 0 && !a->dir.empty() && !a->out.empty() &&
         !a->daemon.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload paper_figures|mesh10k|"
                 "serve_life|serve_burst --seed N --seconds S --trace 0|1 "
                 "--daemon PATH --dir DIR --out PATH\n");
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);

  obs::JsonWriter w;
  Checks checks;
  w.begin_object()
      .field("workload", std::string_view(a.workload))
      .field("seed", static_cast<long long>(a.seed))
      .field("trace", a.trace);
  if (a.workload == "paper_figures" || a.workload == "mesh10k") {
    run_batch(a, w, checks);
  } else {
    run_serve(a, w, checks);
  }
  w.key("checks").begin_object();
  w.field("attempted", checks.attempted).field("failed", checks.failed);
  w.key("messages").begin_array();
  for (const std::string& m : checks.messages) w.value(std::string_view(m));
  w.end_array().end_object();
  w.end_object();

  std::ofstream out(a.out, std::ios::trunc);
  out << w.str() << '\n';
  if (!out) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", a.out.c_str());
    return 1;
  }
  return 0;
}
