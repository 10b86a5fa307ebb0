// na_serve wire protocol: line-delimited JSON over a TCP socket.
//
// Every request is one JSON object on one line; every response is one JSON
// object on one line.  Grammar (DESIGN §10 has the full walkthrough):
//
//   request  := {"op": OP, ["id": int,] ["session": string,] ...op fields}
//   OP       := "ping" | "open" | "edit" | "get" | "metrics" | "save"
//             | "close" | "shutdown"
//   open     += {"design": "life" | "controller" | "chain"
//                        | "datapath[:bits]", ["restore": bool]}
//   edit     += {"edits": [EDIT, ...]}
//   get      += {"format": "escher" | "svg" | "ascii"}
//   EDIT     := {"kind": "add_module", "name", "template", "w", "h"}
//             | {"kind": "remove_module", "name"}
//             | {"kind": "resize_module", "name", "w", "h"}
//             | {"kind": "add_terminal", "module", "name", "type", "x", "y"}
//             | {"kind": "move_terminal", "module", "term", "x", "y"}
//             | {"kind": "connect", "net", "module", "term"}   (module "" => system)
//             | {"kind": "disconnect", "module", "term"}
//             | {"kind": "remove_net", "net"}
//             | {"kind": "add_system_terminal", "name", "type"}
//             | {"kind": "remove_system_terminal", "name"}
//
//   response := {"ok": true, "op": OP, ["id": int,] ...result fields}
//             | {"ok": false, ["id": int,] "error":
//                  {"code": CODE, "message": string}}
//
//   edit     response carries {"seq", "batched": true}: the script was
//   composed into the session's pending network, and regeneration is
//   deferred to the next observation point (get/save/close/shutdown save)
//   where k pending edits flush through ONE netlist diff and ONE
//   RegenSession update.  get/save responses carry "flushed_edits" — how
//   many pending edits that op flushed.  Both fields depend only on the
//   session's request order, never on how requests fell into the host's
//   drain turns.
//
//   metrics  response carries {"metrics": {...}} — the daemon's whole
//   registry: serve.connections / serve.requests / serve.errors, the
//   multi-edit flush counters (serve.batch.regens flushes covering
//   serve.batch.composed edits), aggregated per-session regen
//   totals, the live gauges (pool queue depth, peak RSS, uptime), and
//   the latency histograms (serve.lat.open/edit/get/save,
//   serve.lat.flush, serve.lat.loop_tick, serve.pool.queue_wait) under
//   "histograms" — count/sum/min/max, p50/p90/p99 and the non-empty
//   [lower, count] buckets, all in microseconds.  The metrics request
//   itself is not yet counted in the totals it reports.
//
// A malformed request (oversized line, bad JSON, unknown op, missing
// field, wrong session id) gets a structured error response and the
// connection stays open — only a closed peer or shutdown ends it.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "geom/point.hpp"
#include "netlist/network.hpp"

namespace na::obs {
class MetricsRegistry;
}  // namespace na::obs

namespace na::serve {

/// Hard cap on one request line; longer lines get err::kLineTooLong and
/// are discarded up to the next newline.
inline constexpr size_t kMaxLineBytes = 1u << 20;

enum class Op {
  kPing,
  kOpen,
  kEdit,
  kGet,
  kMetrics,
  kSave,
  kClose,
  kShutdown
};

const char* to_string(Op op);

/// Stable machine-readable error codes (the "code" field of an error
/// response).  Clients switch on these; messages are for humans.
namespace err {
inline constexpr const char* kLineTooLong = "line_too_long";
inline constexpr const char* kBadJson = "bad_json";
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kUnknownOp = "unknown_op";
inline constexpr const char* kNoSuchSession = "no_such_session";
inline constexpr const char* kSessionExists = "session_exists";
inline constexpr const char* kBadDesign = "bad_design";
inline constexpr const char* kBadEdit = "bad_edit";
inline constexpr const char* kNoStateDir = "no_state_dir";
inline constexpr const char* kInternal = "internal";
inline constexpr const char* kShuttingDown = "shutting_down";
}  // namespace err

/// One NetworkEditor operation, decoded from an EDIT object.
struct EditCmd {
  enum class Kind {
    kAddModule,
    kRemoveModule,
    kResizeModule,
    kAddTerminal,
    kMoveTerminal,
    kConnect,
    kDisconnect,
    kRemoveNet,
    kAddSystemTerminal,
    kRemoveSystemTerminal,
  };
  Kind kind;
  std::string name;           ///< module / system-terminal name
  std::string module;         ///< owning module ("" = system terminal for connect)
  std::string term;           ///< terminal name
  std::string net;            ///< net name
  std::string template_name;  ///< add_module
  TermType type = TermType::InOut;
  geom::Point pos;  ///< x/y for terminals, w/h for module size
};

struct Request {
  Op op = Op::kPing;
  long long id = -1;  ///< echoed in the response when >= 0
  std::string session;
  std::string design;     // open
  bool restore = false;   // open: reload from the state dir
  std::string format;     // get: escher (default) | svg | ascii
  std::vector<EditCmd> edits;
};

/// Parse failure carrying the protocol error code for the response.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(const char* code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  const char* code() const { return code_; }

 private:
  const char* code_;
};

/// Parses one request line.  Throws ProtocolError on anything malformed.
Request parse_request(std::string_view line);

/// One-line error response.  `id` is echoed when >= 0.
std::string error_response(const char* code, std::string_view message,
                           long long id = -1);

/// One-line `metrics` response embedding the registry's JSON rendering as
/// the "metrics" field.  `id` is echoed when >= 0.
std::string registry_response(const obs::MetricsRegistry& reg,
                              long long id = -1);

}  // namespace na::serve
