// serve_demo — in-process walkthrough of the na_serve protocol (the ctest
// `serve` smoke test): starts a Server on an ephemeral loopback port,
// drives one session through open / edit / get / save / close with a
// BlockingClient, prints the transcript, and shuts down gracefully.
#include <cstdio>
#include <string>
#include <thread>

#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace na;

namespace {

bool step(serve::BlockingClient& client, const std::string& request) {
  std::printf(">> %s\n", request.c_str());
  const std::string response = client.request(request);
  if (response.empty()) {
    std::printf("!! connection lost\n");
    return false;
  }
  // The get payload is a full ESCHER file; keep the transcript readable.
  if (response.size() > 160) {
    std::printf("<< %.120s... (%zu bytes)\n", response.c_str(),
                response.size());
  } else {
    std::printf("<< %s\n", response.c_str());
  }
  return response.find("\"ok\":true") == 0 ||
         response.find("\"ok\":true") != std::string::npos;
}

}  // namespace

int main() {
  serve::ServerOptions opt;
  opt.port = 0;  // ephemeral: tests and demos never collide
  opt.host.threads = 4;

  serve::Server server(opt);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "serve_demo: %s\n", error.c_str());
    return 1;
  }
  std::printf("na_serve listening on 127.0.0.1:%d\n", server.port());
  std::thread serving([&server] { server.run(); });

  serve::BlockingClient client;
  if (!client.connect("127.0.0.1", server.port(), &error)) {
    std::fprintf(stderr, "serve_demo: %s\n", error.c_str());
    server.request_stop();
    serving.join();
    return 1;
  }

  bool ok = step(client, R"({"op":"ping"})");
  ok = ok && step(client, R"({"op":"open","id":1,"session":"demo","design":"life"})");
  ok = ok && step(client, R"({"op":"edit","id":2,"session":"demo","edits":[)"
                         R"({"kind":"add_module","name":"probe","template":"","w":6,"h":4},)"
                         R"({"kind":"add_terminal","module":"probe","name":"t0","type":"in","x":0,"y":2}]})");
  ok = ok && step(client, R"({"op":"edit","id":3,"session":"demo","edits":[)"
                         R"({"kind":"connect","net":"probe_net","module":"probe","term":"t0"}]})");
  ok = ok && step(client, R"({"op":"get","id":4,"session":"demo","format":"ascii"})");
  ok = ok && step(client, R"({"op":"metrics","id":5})");
  ok = ok && step(client, R"({"op":"close","id":6,"session":"demo"})");

  // A malformed request gets a structured error and keeps the connection.
  const std::string bad = client.request("{not json");
  std::printf(">> {not json\n<< %s\n", bad.c_str());
  ok = ok && bad.find("\"code\":\"bad_json\"") != std::string::npos;
  ok = ok && step(client, R"({"op":"ping"})");

  client.send_line(R"({"op":"shutdown"})");
  serving.join();
  std::printf("server stopped; demo %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
