// End-to-end tests of the na_serve daemon over loopback: protocol round
// trips, per-session edit ordering under concurrent clients, cross-session
// isolation (16 concurrent sessions — the acceptance bar), kill/restart
// with byte-identical continuation, malformed traffic on a live socket and
// graceful shutdown.  Everything binds port 0 (ephemeral), so parallel
// ctest runs never collide.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "incremental/edit.hpp"
#include "incremental/session.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "schematic/escher_writer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace na;
using namespace na::serve;

namespace {

/// A started server + the thread running it; stops on destruction.
struct LiveServer {
  explicit LiveServer(ServerOptions opt = {}) : server(make(std::move(opt))) {
    std::string error;
    ok = server.start(&error);
    EXPECT_TRUE(ok) << error;
    if (ok) thread = std::thread([this] { server.run(); });
  }
  ~LiveServer() { stop(); }
  void stop() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }
  BlockingClient connect() {
    BlockingClient c;
    std::string error;
    EXPECT_TRUE(c.connect("127.0.0.1", server.port(), &error)) << error;
    return c;
  }
  static ServerOptions make(ServerOptions opt) {
    opt.port = 0;
    return opt;
  }

  Server server;
  std::thread thread;
  bool ok = false;
};

bool is_ok(const std::string& response) {
  return response.rfind(R"({"ok":true)", 0) == 0;
}

std::string field_code(const std::string& response) {
  const size_t at = response.find("\"code\":\"");
  if (at == std::string::npos) return {};
  const size_t begin = at + 8;
  return response.substr(begin, response.find('"', begin) - begin);
}

long long field_seq(const std::string& response) {
  const size_t at = response.find("\"seq\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(response.c_str() + at + 6, nullptr, 10);
}

/// Extracts the decoded "payload" string of a get/save response.
std::string field_payload(const std::string& response) {
  const size_t key = response.find("\"payload\":\"");
  if (key == std::string::npos) return {};
  std::string out;
  for (size_t i = key + 11; i < response.size(); ++i) {
    char c = response[i];
    if (c == '"') break;
    if (c == '\\') {
      const char e = response[++i];
      if (e == 'n') c = '\n';
      else if (e == 't') c = '\t';
      else if (e == 'r') c = '\r';
      else if (e == 'u') {  // payloads are ASCII; decode \u00XX only
        c = static_cast<char>(std::strtol(response.substr(i + 1, 4).c_str(),
                                          nullptr, 16));
        i += 4;
      } else c = e;
    }
    out.push_back(c);
  }
  return out;
}

/// Integer value of a metric inside a metrics response ("key":value).
long long metric_value(const std::string& metrics, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = metrics.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(metrics.c_str() + at + needle.size(), nullptr, 10);
}

/// Integer field of one named histogram inside a metrics response, e.g.
/// hist_field(r, "serve.lat.edit", "p50").  -1 when absent.
long long hist_field(const std::string& metrics, const std::string& hist,
                     const std::string& field) {
  const size_t at = metrics.find("\"" + hist + "\":{");
  if (at == std::string::npos) return -1;
  const std::string needle = "\"" + field + "\":";
  const size_t f = metrics.find(needle, at);
  const size_t end = metrics.find('}', at);
  if (f == std::string::npos || f > end) return -1;
  return std::strtoll(metrics.c_str() + f + needle.size(), nullptr, 10);
}

std::string edit_line(const std::string& session, int i) {
  return R"({"op":"edit","session":")" + session + R"(","edits":[)" +
         R"({"kind":"add_module","name":"mod)" + std::to_string(i) +
         R"(","template":"","w":4,"h":3}]})";
}

/// What the server should produce for `session` when every edit is
/// observed (a get/save between each): one RegenSession update per edit.
std::string local_reference(const std::string& design,
                            const std::string& session, int edits) {
  RegenSession regen{RegenOptions{}};
  Network net = design_network(design);
  regen.update(net);
  for (int i = 0; i < edits; ++i) {
    NetworkEditor ed(net);
    ed.add_module("mod" + std::to_string(i), "", {4, 3});
    net = ed.build();
    regen.update(net);
  }
  return to_escher_diagram(regen.diagram(), session);
}

/// What the server should produce for `session` after an *uninterrupted*
/// run of edits followed by one get: the edits compose into a single
/// flush — one diff, one update — at the observation point.
std::string composed_reference(const std::string& design,
                               const std::string& session, int edits) {
  RegenSession regen{RegenOptions{}};
  regen.update(design_network(design));
  ScriptComposer pending(regen.network());
  for (int i = 0; i < edits; ++i) {
    pending.apply([&](NetworkEditor& ed) {
      ed.add_module("mod" + std::to_string(i), "", {4, 3});
    });
  }
  regen.update_composed(pending.network(), pending.steps());
  return to_escher_diagram(regen.diagram(), session);
}

}  // namespace

TEST(Serve, OpenEditGetMatchesLocalSession) {
  LiveServer live;
  BlockingClient c = live.connect();

  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"a","design":"chain"})")));
  for (int i = 0; i < 3; ++i) {
    const std::string r = c.request(edit_line("a", i));
    ASSERT_TRUE(is_ok(r)) << r;
    EXPECT_EQ(field_seq(r), i + 1);
  }
  const std::string got =
      field_payload(c.request(R"({"op":"get","session":"a"})"));
  EXPECT_EQ(got, composed_reference("chain", "a", 3));
}

TEST(Serve, PerSessionOrderingUnderConcurrentClients) {
  LiveServer live;
  ASSERT_TRUE(
      is_ok(live.connect().request(R"({"op":"open","session":"s","design":"chain"})")));

  // 4 clients hammer one session.  Each must see strictly increasing seq
  // numbers (its own edits are ordered), and the union must be exactly
  // 1..N (edits are never lost or double-counted).
  constexpr int kClients = 4, kEditsEach = 5;
  std::vector<std::vector<long long>> seen(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> counter{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      BlockingClient c = live.connect();
      for (int i = 0; i < kEditsEach; ++i) {
        const std::string r =
            c.request(edit_line("s", counter.fetch_add(1)));
        ASSERT_TRUE(is_ok(r)) << r;
        seen[t].push_back(field_seq(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<long long> all;
  for (const auto& per_client : seen) {
    for (size_t i = 1; i < per_client.size(); ++i) {
      EXPECT_LT(per_client[i - 1], per_client[i]);  // per-client order
    }
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), size_t{kClients * kEditsEach});
  for (int i = 0; i < kClients * kEditsEach; ++i) EXPECT_EQ(all[i], i + 1);
}

TEST(Serve, SixteenConcurrentSessionsStayIsolated) {
  ServerOptions opt;
  opt.host.threads = 8;
  LiveServer live(opt);

  // The acceptance bar: 16 sessions, one client each, edited concurrently.
  // Every session's final diagram must equal the single-session reference —
  // concurrency across sessions must not leak into any session's output.
  constexpr int kSessions = 16, kEdits = 3;
  std::vector<std::string> results(kSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      const std::string name = "iso" + std::to_string(s);
      BlockingClient c = live.connect();
      ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":")" + name +
                                  R"(","design":"chain"})")));
      for (int i = 0; i < kEdits; ++i) {
        ASSERT_TRUE(is_ok(c.request(edit_line(name, i))));
      }
      results[s] =
          field_payload(c.request(R"({"op":"get","session":")" + name + R"("})"));
    });
  }
  for (std::thread& t : threads) t.join();

  for (int s = 0; s < kSessions; ++s) {
    const std::string name = "iso" + std::to_string(s);
    EXPECT_EQ(results[s], composed_reference("chain", name, kEdits))
        << "session " << name << " diverged";
  }
  EXPECT_EQ(live.server.host().open_sessions(), kSessions);
}

TEST(Serve, KillRestartRestoresByteIdentical) {
  const std::string state =
      (std::filesystem::temp_directory_path() /
       ("na_serve_test_state_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(state);

  // Reference: one continuous session, 2 edits, then render.
  const std::string want = local_reference("chain", "k", 2);

  ServerOptions opt;
  opt.host.state_dir = state;
  {
    LiveServer first(opt);
    BlockingClient c = first.connect();
    ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"k","design":"chain"})")));
    ASSERT_TRUE(is_ok(c.request(edit_line("k", 0))));
    // No explicit save: graceful stop must persist the dirty session.
    first.stop();
  }
  ASSERT_TRUE(std::filesystem::exists(state + "/k.session"));

  {
    LiveServer second(opt);
    BlockingClient c = second.connect();
    ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"k","restore":true})")));
    const std::string r = c.request(edit_line("k", 1));
    ASSERT_TRUE(is_ok(r)) << r;
    const std::string got =
        field_payload(c.request(R"({"op":"get","session":"k"})"));
    EXPECT_EQ(got, want) << "restored session diverged from the "
                            "never-restarted reference";
  }
  std::filesystem::remove_all(state);
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A host with a fresh state dir holding one saved, edited chain session
/// "a"; removes the dir on destruction.
struct SavedHost {
  explicit SavedHost(int threads = 1)
      : state((std::filesystem::temp_directory_path() /
               ("na_serve_save_test_" + std::to_string(::getpid())))
                  .string()),
        host(options(state, threads)) {
    EXPECT_TRUE(
        host.call(parse_request(R"({"op":"open","session":"a","design":"chain"})"))
            .ok);
    EXPECT_TRUE(host.call(parse_request(edit_line("a", 0))).ok);
    EXPECT_TRUE(host.call(parse_request(R"({"op":"save","session":"a"})")).ok);
  }
  ~SavedHost() { std::filesystem::remove_all(state); }
  static HostOptions options(const std::string& dir, int threads) {
    std::filesystem::remove_all(dir);
    HostOptions opt;
    opt.threads = threads;
    opt.state_dir = dir;
    return opt;
  }

  std::string state;
  SessionHost host;
};

}  // namespace

TEST(Serve, FailedSaveKeepsThePreviousSave) {
  SavedHost h;
  const std::string path = h.state + "/a.session";
  const std::string before = read_file(path);
  ASSERT_EQ(before.rfind("#NA-SESSION-1", 0), 0u);

  // A directory squatting on the temp name makes the next write fail
  // before anything touches the last good save.
  ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));
  ASSERT_TRUE(h.host.call(parse_request(edit_line("a", 1))).ok);
  const HostResult r =
      h.host.call(parse_request(R"({"op":"save","session":"a"})"));
  EXPECT_FALSE(r.ok);
  EXPECT_STREQ(r.error_code, err::kInternal);
  EXPECT_EQ(read_file(path), before);
  EXPECT_TRUE(std::filesystem::is_directory(path + ".tmp"));
}

TEST(Serve, SaveLeavesNoTempFile) {
  SavedHost h;
  EXPECT_TRUE(std::filesystem::exists(h.state + "/a.session"));
  EXPECT_FALSE(std::filesystem::exists(h.state + "/a.session.tmp"));
}

TEST(Serve, CloseThenRestoreInOneBurstRestoresClosedState) {
  // One burst, nothing awaited: an edit, a close that must save it, and a
  // same-name open+restore followed by a get.  The restore has to read
  // the close's save, never the save before it.
  const std::string want = local_reference("chain", "a", 2);
  for (int run = 0; run < 10; ++run) {
    SavedHost h(4);
    const std::string burst[] = {
        edit_line("a", 1), R"({"op":"close","session":"a"})",
        R"({"op":"open","session":"a","restore":true})",
        R"({"op":"get","session":"a"})"};
    std::promise<HostResult> done[4];
    std::future<HostResult> results[4];
    for (int i = 0; i < 4; ++i) {
      results[i] = done[i].get_future();
      h.host.submit(parse_request(burst[i]), [&done, i](HostResult r) {
        done[i].set_value(std::move(r));
      });
    }
    for (int i = 0; i < 3; ++i) {
      const HostResult r = results[i].get();
      ASSERT_TRUE(r.ok) << burst[i] << ": " << r.message;
    }
    const HostResult got = results[3].get();
    ASSERT_TRUE(got.ok) << got.message;
    EXPECT_EQ(got.payload, want)
        << "run " << run << ": the restore read the save before the close";
  }
}

TEST(Serve, MalformedTrafficKeepsConnectionAlive) {
  ServerOptions opt;
  opt.max_line = 4096;  // small cap so the oversized-line test is cheap
  LiveServer live(opt);
  BlockingClient c = live.connect();

  EXPECT_EQ(field_code(c.request("{broken")), "bad_json");
  EXPECT_EQ(field_code(c.request(R"({"op":"levitate"})")), "unknown_op");
  EXPECT_EQ(field_code(c.request(R"({"op":"edit","session":"ghost","edits":[)"
                                 R"({"kind":"remove_net","net":"n"}]})")),
            "no_such_session");
  EXPECT_EQ(field_code(c.request(R"({"op":"open","session":"x","design":"tnt"})")),
            "bad_design");
  EXPECT_EQ(field_code(c.request(R"({"op":"open","session":"../evil","design":"chain"})")),
            "bad_request");

  // Oversized line: rejected, discarded, connection survives.
  std::string huge = R"({"op":"ping","pad":")";
  huge.append(8192, 'x');
  huge += R"("})";
  EXPECT_EQ(field_code(c.request(huge)), "line_too_long");

  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"x","design":"chain"})")));
  EXPECT_EQ(field_code(c.request(R"({"op":"open","session":"x","design":"chain"})")),
            "session_exists");

  // A bad edit script must leave the session exactly as it was.
  const std::string before =
      field_payload(c.request(R"({"op":"get","session":"x"})"));
  EXPECT_EQ(field_code(c.request(
                R"({"op":"edit","session":"x","edits":[)"
                R"({"kind":"remove_module","name":"no_such_module"}]})")),
            "bad_edit");
  EXPECT_EQ(field_payload(c.request(R"({"op":"get","session":"x"})")), before);

  // Still fully functional after the whole gauntlet.
  EXPECT_TRUE(is_ok(c.request(R"({"op":"ping"})")));
}

TEST(Serve, SaveWithoutStateDirReturnsBlobInline) {
  LiveServer live;
  BlockingClient c = live.connect();
  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"b","design":"chain"})")));
  const std::string r = c.request(R"({"op":"save","session":"b"})");
  ASSERT_TRUE(is_ok(r));
  EXPECT_EQ(field_payload(r).rfind("#NA-SESSION-1", 0), 0u);
  // But open+restore without a state dir is a structured error.
  EXPECT_EQ(field_code(c.request(R"({"op":"open","session":"r2","restore":true})")),
            "no_state_dir");
}

TEST(Serve, ShutdownRequestStopsServer) {
  LiveServer live;
  BlockingClient c = live.connect();
  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"z","design":"chain"})")));
  ASSERT_TRUE(is_ok(c.request(R"({"op":"shutdown"})")));
  live.thread.join();  // run() returns on its own
  EXPECT_TRUE(live.server.stopping());
}

TEST(Serve, SigtermStopsServer) {
  LiveServer live;
  install_signal_handlers(live.server);
  BlockingClient c = live.connect();
  ASSERT_TRUE(is_ok(c.request(R"({"op":"ping"})")));
  ::raise(SIGTERM);
  live.thread.join();
  EXPECT_TRUE(live.server.stopping());
  // Restore default dispositions for the rest of the test binary.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

TEST(Serve, ClientDisconnectBeforeReadDoesNotKillServer) {
  LiveServer live;
  ASSERT_TRUE(is_ok(
      live.connect().request(R"({"op":"open","session":"d","design":"chain"})")));

  // The SIGPIPE regression: each client fires an edit and slams the
  // connection shut without ever reading the response.  The daemon must
  // apply every edit and write (or drop) every response without dying.
  // A polite client watches the session between rude visits (which also
  // keeps the edit order deterministic for the byte-identity check —
  // ordering across *connections* is arrival order, not client order).
  BlockingClient keeper = live.connect();
  constexpr int kRude = 20;
  for (int i = 0; i < kRude; ++i) {
    {
      BlockingClient c = live.connect();
      ASSERT_TRUE(c.send_line(edit_line("d", i)));
      c.close();  // gone before the response exists
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    long long seq = 0;
    while (seq < i + 1 && std::chrono::steady_clock::now() < deadline) {
      const std::string r = keeper.request(R"({"op":"get","session":"d"})");
      ASSERT_TRUE(is_ok(r)) << r << " / " << keeper.last_error();
      seq = field_seq(r);
      if (seq <= i) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(seq, i + 1) << "rude client " << i << "'s edit was lost";
  }

  // ...and the daemon is still fully alive afterwards.
  const std::string r = keeper.request(edit_line("d", kRude));
  ASSERT_TRUE(is_ok(r)) << r;
  EXPECT_EQ(field_seq(r), kRude + 1);
  EXPECT_EQ(field_payload(keeper.request(R"({"op":"get","session":"d"})")),
            local_reference("chain", "d", kRude + 1));
}

TEST(Serve, DribbleFedRequestStillParses) {
  LiveServer live;
  BlockingClient c = live.connect();

  // One byte per send(): the reactor must accumulate across however many
  // EPOLLIN wakeups it takes and only dispatch at the newline.
  const std::string line = R"({"op":"open","session":"slow","design":"chain"})"
                           "\n";
  for (char ch : line) {
    ASSERT_EQ(::send(c.fd(), &ch, 1, MSG_NOSIGNAL), 1);
  }
  std::string response;
  ASSERT_TRUE(c.recv_line(&response));
  EXPECT_TRUE(is_ok(response)) << response;

  // Same treatment for an edit, interleaved with a whole second request in
  // one final burst (split mid-line): both must answer, in order.
  const std::string burst = edit_line("slow", 0) + "\n" +
                            R"({"op":"get","session":"slow"})" + "\n";
  for (size_t i = 0; i < burst.size(); i += 7) {
    const size_t n = std::min<size_t>(7, burst.size() - i);
    ASSERT_EQ(::send(c.fd(), burst.data() + i, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
  }
  ASSERT_TRUE(c.recv_line(&response));
  EXPECT_EQ(field_seq(response), 1);
  ASSERT_TRUE(c.recv_line(&response));
  EXPECT_EQ(field_payload(response), local_reference("chain", "slow", 1));
}

TEST(Serve, ConnectionChurnFiveHundred) {
  ServerOptions opt;
  opt.io_threads = 2;
  LiveServer live(opt);

  // 500 short-lived connections — 400 sequential plus a 100-strong
  // concurrent burst: the event loop must reclaim every one (the old
  // plane held a thread per connection for the server's whole life).
  constexpr int kSequential = 400;
  for (int i = 0; i < kSequential; ++i) {
    BlockingClient c = live.connect();
    ASSERT_TRUE(is_ok(c.request(R"({"op":"ping"})"))) << "conn " << i;
  }

  // ...plus a concurrent burst of open/close churn across threads.
  constexpr int kThreads = 4, kEach = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kEach; ++i) {
        BlockingClient c = live.connect();
        ASSERT_TRUE(is_ok(c.request(R"({"op":"ping"})")));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const Server::Counters counters = live.server.counters();
  EXPECT_GE(counters.connections, kSequential + kThreads * kEach);
  EXPECT_GE(counters.requests, kSequential + kThreads * kEach);
  EXPECT_TRUE(is_ok(live.connect().request(R"({"op":"ping"})")));
}

TEST(Serve, StatsCountTrafficExactly) {
  ServerOptions opt;
  opt.max_line = 4096;
  LiveServer live(opt);
  BlockingClient c = live.connect();

  // Known traffic: 3 successes, 2 errors — one of them an oversized line,
  // which never reaches the parser and must still be counted.
  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"t","design":"chain"})")));
  ASSERT_TRUE(is_ok(c.request(edit_line("t", 0))));
  ASSERT_TRUE(is_ok(c.request(R"({"op":"ping"})")));
  EXPECT_EQ(field_code(c.request("{broken")), "bad_json");
  std::string huge = R"({"op":"ping","pad":")";
  huge.append(8192, 'x');
  huge += R"("})";
  EXPECT_EQ(field_code(c.request(huge)), "line_too_long");

  // The metrics response reports the totals *before* itself.
  const std::string metrics = c.request(R"({"op":"metrics"})");
  ASSERT_TRUE(is_ok(metrics)) << metrics;
  EXPECT_EQ(metric_value(metrics, "serve.requests"), 5);
  EXPECT_EQ(metric_value(metrics, "serve.errors"), 2);
  EXPECT_EQ(metric_value(metrics, "serve.connections"), 1);

  // And the counters() accessor agrees once the metrics request itself is
  // in.
  const Server::Counters counters = live.server.counters();
  EXPECT_EQ(counters.requests, 6);
  EXPECT_EQ(counters.errors, 2);
}

TEST(Serve, PipelinedEditsBatchAndStayDeterministic) {
  LiveServer live;
  BlockingClient c = live.connect();
  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"p","design":"chain"})")));

  // Fire a burst of pipelined edits without reading a single response:
  // the host may run them in fewer drain turns, but the responses must
  // come back in order with seq == arrival order, and the final diagram
  // must be byte-identical to unbatched execution.
  constexpr int kEdits = 14;
  for (int i = 0; i < kEdits; ++i) {
    ASSERT_TRUE(c.send_line(edit_line("p", i)));
  }
  for (int i = 0; i < kEdits; ++i) {
    std::string r;
    ASSERT_TRUE(c.recv_line(&r));
    ASSERT_TRUE(is_ok(r)) << r;
    EXPECT_EQ(field_seq(r), i + 1);  // wire order == edit order
  }
  EXPECT_EQ(field_payload(c.request(R"({"op":"get","session":"p"})")),
            composed_reference("chain", "p", kEdits));

  // Multi-edit regen: the whole uninterrupted run flushed through exactly
  // one RegenSession update at the get — not one per edit, and however the
  // requests fell into drain turns: the count is protocol-determined.
  const std::string metrics = c.request(R"({"op":"metrics"})");
  EXPECT_EQ(metric_value(metrics, "serve.batch.regens"), 1);
  EXPECT_EQ(metric_value(metrics, "serve.batch.composed"), kEdits + 0);
  EXPECT_EQ(metric_value(metrics, "regen.edits_composed"), kEdits + 0);
}

TEST(Serve, ClientDistinguishesTransportFailure) {
  LiveServer live;
  BlockingClient c = live.connect();

  // A successful round trip leaves last_error() empty.
  ASSERT_TRUE(is_ok(c.request(R"({"op":"ping"})")));
  EXPECT_TRUE(c.last_error().empty()) << c.last_error();

  // Stop the server: now request() returns "" *because the transport
  // failed*, and last_error() says so — distinguishable from a server
  // that genuinely sent an empty line.
  live.stop();
  const std::string r = c.request(R"({"op":"ping"})");
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(c.last_error().empty());
}

TEST(Serve, StatsReportServiceCounters) {
  LiveServer live;
  BlockingClient c = live.connect();
  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"m","design":"chain"})")));
  ASSERT_TRUE(is_ok(c.request(edit_line("m", 0))));
  const std::string r = c.request(R"({"op":"metrics"})");
  ASSERT_TRUE(is_ok(r)) << r;
  EXPECT_NE(r.find("\"serve.requests\":"), std::string::npos);
  EXPECT_NE(r.find("\"serve.sessions_open\":1"), std::string::npos);
  EXPECT_NE(r.find("\"serve.edits_applied\":1"), std::string::npos);
  EXPECT_NE(r.find("\"regen.updates\":"), std::string::npos);
}

TEST(Serve, MetricsOpRoundTripsHistograms) {
  LiveServer live;
  BlockingClient c = live.connect();
  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"h","design":"chain"})")));

  // Known op mix, with the client measuring its own edit latency through
  // the same estimator the server uses.
  constexpr int kEdits = 12;
  obs::Histogram client_lat;
  for (int i = 0; i < kEdits; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(is_ok(c.request(edit_line("h", i))));
    client_lat.record_ms(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  ASSERT_TRUE(is_ok(c.request(R"({"op":"get","session":"h"})")));

  const std::string r = c.request(R"({"op":"metrics","id":7})");
  ASSERT_TRUE(is_ok(r)) << r;
  EXPECT_NE(r.find("\"op\":\"metrics\""), std::string::npos);
  EXPECT_NE(r.find("\"id\":7"), std::string::npos);

  // The full registry rides along: scalars plus per-op latency histograms.
  EXPECT_NE(r.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(hist_field(r, "serve.lat.open", "count"), 1);
  EXPECT_EQ(hist_field(r, "serve.lat.edit", "count"), kEdits);
  EXPECT_EQ(hist_field(r, "serve.lat.get", "count"), 1);
  EXPECT_EQ(hist_field(r, "serve.lat.flush", "count"), 1);
  EXPECT_GE(hist_field(r, "serve.pool.queue_wait", "count"), 1);
  EXPECT_GT(metric_value(r, "serve.peak_rss_bytes"), 0);
  EXPECT_GE(metric_value(r, "serve.uptime_ms"), 0);

  // Quantile sanity, and agreement with the bench-side estimator: the
  // server-measured edit latency (dispatch to response, no socket RTT)
  // can never exceed what the client saw end to end.
  const long long p50 = hist_field(r, "serve.lat.edit", "p50");
  const long long p99 = hist_field(r, "serve.lat.edit", "p99");
  const long long max = hist_field(r, "serve.lat.edit", "max");
  EXPECT_GE(p50, 0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, max);
  const obs::HistogramData client_data = client_lat.snapshot();
  EXPECT_EQ(client_data.count, kEdits);
  EXPECT_LE(max, client_data.max);
}

TEST(Serve, RemovedStatsOpAnswersUnknownOpAndKeepsConnection) {
  LiveServer live;
  BlockingClient c = live.connect();
  // `metrics` is the one registry view; the old `stats` spelling is an
  // unknown op like any other — an error reply, never a dropped socket.
  const std::string r = c.request(R"({"op":"stats"})");
  ASSERT_FALSE(r.empty()) << c.last_error();
  EXPECT_EQ(field_code(r), "unknown_op");
  EXPECT_TRUE(is_ok(c.request(R"({"op":"ping"})")));
  EXPECT_TRUE(is_ok(c.request(R"({"op":"metrics"})")));
}

TEST(Serve, WatchdogProbesLoopLag) {
  ServerOptions opt;
  opt.watchdog_ms = 20;
  LiveServer live(opt);
  BlockingClient c = live.connect();
  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"w","design":"chain"})")));

  // Wait until a watchdog tick's loop-lag probes have run (generous
  // bound; the interval is 20ms).
  std::string r;
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    r = c.request(R"({"op":"metrics"})");
    if (hist_field(r, "serve.lat.loop_tick", "count") >= 1) break;
  }
  // Loop-lag probes record into the loop_tick histogram.
  EXPECT_GE(hist_field(r, "serve.lat.loop_tick", "count"), 1);
  // The gauges are computed live by the metrics op itself.
  EXPECT_EQ(metric_value(r, "serve.sessions_open"), 1);
  EXPECT_GE(metric_value(r, "serve.pending_edits"), 0);
  EXPECT_GT(metric_value(r, "serve.peak_rss_bytes"), 0);
  EXPECT_GE(metric_value(r, "serve.pool.queue_depth"), 0);
}

TEST(Serve, FlightDumpWritesTheRetainedRings) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "NA_TRACE=OFF build";
  const std::string path = testing::TempDir() + "serve_flight_test.json";
  std::remove(path.c_str());
  obs::trace_disable();
  obs::trace_reset();
  obs::trace_flight_enable(4096);
  obs::trace_enable();
  {
    LiveServer live;
    BlockingClient c = live.connect();
    ASSERT_TRUE(
        is_ok(c.request(R"({"op":"open","session":"f","design":"chain"})")));
    ASSERT_TRUE(is_ok(c.request(edit_line("f", 0))));
    ASSERT_TRUE(is_ok(c.request(R"({"op":"get","session":"f"})")));
    // The metrics op reports the ring bound the recorder runs with.
    EXPECT_EQ(metric_value(c.request(R"({"op":"metrics"})"),
                           "serve.flight.capacity"),
              4096);
    // On-demand dump takes the flush gate exclusive, so it can run while
    // the server is live.
    ASSERT_TRUE(live.server.dump_flight(path));
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("serve.edit"), std::string::npos);

  obs::trace_disable();
  obs::trace_flight_enable(0);
  obs::trace_reset();
  std::remove(path.c_str());
}

TEST(ServeOptions, DegenerateOptionsFailAtStartNamingTheFlag) {
  const auto start_error = [](ServerOptions opt) {
    opt.port = opt.port == -1 ? -1 : 0;
    Server server(std::move(opt));
    std::string error;
    EXPECT_FALSE(server.start(&error));
    return error;
  };
  {
    ServerOptions opt;
    opt.io_threads = 0;
    EXPECT_NE(start_error(opt).find("--io-threads"), std::string::npos);
  }
  {
    ServerOptions opt;
    opt.max_line = 0;
    EXPECT_NE(start_error(opt).find("--max-line"), std::string::npos);
  }
  {
    ServerOptions opt;
    opt.max_in_flight = 0;
    EXPECT_NE(start_error(opt).find("--max-in-flight"), std::string::npos);
  }
  {
    ServerOptions opt;
    opt.host.threads = 0;
    EXPECT_NE(start_error(opt).find("--threads"), std::string::npos);
  }
  {
    ServerOptions opt;
    opt.port = -1;
    EXPECT_NE(start_error(opt).find("--port"), std::string::npos);
  }
}

TEST(MultiEdit, StatsCountComposedRegens) {
  LiveServer live;
  BlockingClient c = live.connect();
  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"cc","design":"chain"})")));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(is_ok(c.request(edit_line("cc", i))));

  // metrics is NOT an observation point: the 3 edits are still pending.
  std::string metrics = c.request(R"({"op":"metrics"})");
  EXPECT_EQ(metric_value(metrics, "serve.pending_edits"), 3);
  EXPECT_EQ(metric_value(metrics, "serve.batch.regens"), 0);

  // The get flushes all of them through one update.
  const std::string got = c.request(R"({"op":"get","session":"cc"})");
  ASSERT_TRUE(is_ok(got)) << got;
  EXPECT_NE(got.find("\"flushed_edits\":3"), std::string::npos) << got;
  metrics = c.request(R"({"op":"metrics"})");
  EXPECT_EQ(metric_value(metrics, "serve.pending_edits"), 0);
  EXPECT_EQ(metric_value(metrics, "serve.batch.regens"), 1);
  EXPECT_EQ(metric_value(metrics, "serve.batch.composed"), 3);

  // An idle get flushes nothing and runs no further update.
  ASSERT_TRUE(is_ok(c.request(R"({"op":"get","session":"cc"})")));
  metrics = c.request(R"({"op":"metrics"})");
  EXPECT_EQ(metric_value(metrics, "serve.batch.regens"), 1);
}

TEST(MultiEdit, SaveBetweenEditsSnapshotsPrecedingEdit) {
  LiveServer live;  // no state dir: save returns the blob inline
  BlockingClient c = live.connect();
  ASSERT_TRUE(is_ok(c.request(R"({"op":"open","session":"sv","design":"chain"})")));

  // Pipeline edit / save / edit / get without reading: however the drain
  // jobs slice this, the save must snapshot exactly the state after the
  // first edit, and the get must observe both.
  ASSERT_TRUE(c.send_line(edit_line("sv", 0)));
  ASSERT_TRUE(c.send_line(R"({"op":"save","session":"sv"})"));
  ASSERT_TRUE(c.send_line(edit_line("sv", 1)));
  ASSERT_TRUE(c.send_line(R"({"op":"get","session":"sv"})"));

  std::string edit0, save, edit1, get;
  ASSERT_TRUE(c.recv_line(&edit0));
  ASSERT_TRUE(c.recv_line(&save));
  ASSERT_TRUE(c.recv_line(&edit1));
  ASSERT_TRUE(c.recv_line(&get));
  ASSERT_TRUE(is_ok(edit0)) << edit0;
  ASSERT_TRUE(is_ok(save)) << save;
  ASSERT_TRUE(is_ok(edit1)) << edit1;
  ASSERT_TRUE(is_ok(get)) << get;
  EXPECT_NE(save.find("\"flushed_edits\":1"), std::string::npos) << save;
  EXPECT_NE(get.find("\"flushed_edits\":1"), std::string::npos) << get;

  // Local reference with the same observation structure: flush after
  // edit 0 (the save), snapshot, flush after edit 1 (the get).
  RegenSession regen{RegenOptions{}};
  regen.update(design_network("chain"));
  ScriptComposer pending(regen.network());
  pending.apply([](NetworkEditor& ed) { ed.add_module("mod0", "", {4, 3}); });
  regen.update_composed(pending.network(), pending.steps());
  pending.flushed();
  const std::string want_blob = regen.save();
  pending.apply([](NetworkEditor& ed) { ed.add_module("mod1", "", {4, 3}); });
  regen.update_composed(pending.network(), pending.steps());
  pending.flushed();
  const std::string want_dia = to_escher_diagram(regen.diagram(), "sv");

  EXPECT_EQ(field_payload(save), want_blob)
      << "save between pipelined edits did not snapshot the state after "
         "the preceding edit";
  EXPECT_EQ(field_payload(get), want_dia);
}

namespace {

/// Deterministic seeded request schedule for session "f": valid single-
/// and multi-command edit scripts, removes of earlier adds, failing
/// scripts mid-run, interleaved saves, and a final get.
std::vector<std::string> fuzz_schedule(uint32_t seed, int n) {
  std::mt19937 rng(seed);
  std::vector<std::string> lines;
  std::vector<std::string> added;
  int next_mod = 0;
  for (int i = 0; i < n; ++i) {
    const int roll = static_cast<int>(rng() % 100);
    if (roll < 45) {  // fresh module
      const std::string m = "fz" + std::to_string(next_mod++);
      lines.push_back(
          R"({"op":"edit","session":"f","edits":[{"kind":"add_module","name":")" +
          m + R"(","template":"","w":4,"h":3}]})");
      added.push_back(m);
    } else if (roll < 60) {  // one script: add + terminal + connect
      const std::string m = "fc" + std::to_string(next_mod++);
      const std::string net = "chain" + std::to_string(rng() % 4);
      lines.push_back(
          R"({"op":"edit","session":"f","edits":[)"
          R"({"kind":"add_module","name":")" + m +
          R"(","template":"","w":4,"h":3},)"
          R"({"kind":"add_terminal","module":")" + m +
          R"(","name":"t","type":"in","x":0,"y":1},)"
          R"({"kind":"connect","net":")" + net + R"(","module":")" + m +
          R"(","term":"t"}]})");
      added.push_back(m);
    } else if (roll < 72 && !added.empty()) {  // remove an earlier add
      const size_t k = rng() % added.size();
      lines.push_back(
          R"({"op":"edit","session":"f","edits":[{"kind":"remove_module","name":")" +
          added[k] + R"("}]})");
      added.erase(added.begin() + static_cast<long>(k));
    } else if (roll < 86) {  // failing script (unknown module)
      lines.push_back(
          R"({"op":"edit","session":"f","edits":[{"kind":"remove_module","name":"missing)" +
          std::to_string(rng() % 1000) + R"("}]})");
    } else {  // save: an observation point mid-run
      lines.push_back(R"({"op":"save","session":"f"})");
    }
  }
  lines.push_back(R"({"op":"get","session":"f"})");
  return lines;
}

/// Opens chain session "f" on a fresh server, sends every line without
/// reading, then collects the responses in order.
std::vector<std::string> pipelined_replies(
    const std::vector<std::string>& lines) {
  LiveServer live;
  BlockingClient c = live.connect();
  EXPECT_TRUE(
      is_ok(c.request(R"({"op":"open","session":"f","design":"chain"})")));
  for (const std::string& line : lines) EXPECT_TRUE(c.send_line(line));
  std::vector<std::string> replies;
  for (const std::string& line : lines) {
    std::string r;
    EXPECT_TRUE(c.recv_line(&r)) << "no response to: " << line;
    replies.push_back(std::move(r));
  }
  return replies;
}

/// 64-bit FNV-1a of a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

TEST(MultiEdit, PipelinedRepliesMatchPinnedDigest) {
  // The comparison below runs one SessionHost on both sides, so a change
  // that altered both alike would pass it.  This pins the bytes
  // themselves: every seq, flushed_edits, error message, inline save blob
  // and the final diagram of the seeded schedule, pipelined.
  const std::vector<std::string> lines = fuzz_schedule(0x5eed, 40);
  std::string all;
  for (const std::string& r : pipelined_replies(lines)) all += r + "\n";
  EXPECT_EQ(fnv1a(all), 0x4426d3a7737481ddull) << "pipelined replies changed";
}

TEST(MultiEdit, BatchedAndUnbatchedRepliesAreByteIdentical) {
  // The byte-identity acceptance bar, fuzzed: stream a seeded random
  // request mix pipelined (many requests share a drain turn, and edits
  // compose into few flushes) and replay it request-per-response on a
  // second server (every op its own turn).  Every response — seq
  // numbers, batched markers, flushed_edits, error messages, save blobs,
  // the final diagram — must match byte for byte, because all of them
  // are functions of request order alone, never of how the queue was
  // sliced.
  const std::vector<std::string> lines = fuzz_schedule(0x5eed, 40);
  const std::vector<std::string> pipelined = pipelined_replies(lines);

  std::vector<std::string> unbatched;
  {
    LiveServer live;
    BlockingClient c = live.connect();
    ASSERT_TRUE(
        is_ok(c.request(R"({"op":"open","session":"f","design":"chain"})")));
    for (const std::string& line : lines) unbatched.push_back(c.request(line));
  }

  ASSERT_EQ(pipelined.size(), unbatched.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(pipelined[i], unbatched[i])
        << "response " << i << " diverged for request: " << lines[i];
  }
}
