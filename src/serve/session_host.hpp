// SessionHost — the daemon's session table: many named RegenSessions, each
// at the default generator options, and one FIFO worker pool.
//
// Concurrency model (DESIGN §10 argues determinism from it):
//   * every session request (open, edit, get, save, close) enters through
//     one asynchronous `submit(Request, HostCallback)`: it is queued on the
//     op queue of its session *name* and a single pool job per name drains
//     that queue, so the I/O threads of the event-loop connection plane
//     never block on placement/routing work;
//   * the queue serialises operations touching one name — edits to one
//     session are totally ordered (the response's `seq` is the order), a
//     close runs before a same-name reopen queued after it, and edits to
//     different sessions run concurrently on the pool;
//   * the drain job works in *turns*: each turn takes everything queued,
//     runs it in queue order under one flush-gate hold and one slot-
//     mutex hold, then answers in order; requests that arrive meanwhile
//     form the next turn;
//   * regeneration is *deferred to observation points*: an edit request
//     only applies its script to the session's pending network (a
//     transactional ScriptComposer step — netlist work, no geometry); the
//     expensive diff + RegenSession::update runs once per observation
//     point — get, save, close-with-save, shutdown save — covering every
//     edit composed since the previous flush (`serve.batch.regens` counts
//     flushes, `serve.batch.composed` the edits they covered);
//   * the table of names, with every queue and running flag, sits behind
//     one short-hold mutex (lookup, enqueue, turn swap — never held while
//     a session works).
//
// Why deferral preserves byte-identity where eager composition cannot:
// the incremental engine is path-dependent (gravity placement scores
// against the previous routed diagram, partition grouping depends on the
// dirty set), so collapsing k updates into one at an arbitrary internal
// boundary — e.g. wherever a turn happened to end — would make output
// depend on queue timing.  Deferral instead makes the composition
// boundaries *protocol-determined*: flushes happen exactly at the ops
// whose responses expose geometry, so the flush sequence — and with it
// every diagram a client can observe, every `seq`, and every response
// byte — is a pure function of the session's request sequence,
// independent of pipelining, how requests fall into turns, and other
// sessions.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "incremental/edit.hpp"
#include "incremental/session.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace na::serve {

struct HostOptions {
  /// Workers of the shared edit-dispatch pool.  The service parallelises
  /// across sessions; one session's regeneration runs on one worker.
  int threads = 4;
  /// Directory for save/restore; empty disables persistence (save returns
  /// the blob inline, open+restore fails).
  std::string state_dir;
};

/// Outcome of one host call.  `ok` false carries a protocol error code.
struct HostResult {
  bool ok = true;
  const char* error_code = nullptr;
  std::string message;
  /// edit: 1-based per-session edit sequence number after applying.
  long long seq = 0;
  /// get/save: edits flushed (composed into one regen) by this op.
  int flushed_edits = 0;
  /// open: whether the update ran a full generation.
  bool full_regen = false;
  int nets_rerouted = 0;
  int nets_kept = 0;
  /// get/save-without-state-dir: the requested bytes.
  std::string payload;

  static HostResult error(const char* code, std::string message) {
    HostResult r;
    r.ok = false;
    r.error_code = code;
    r.message = std::move(message);
    return r;
  }
};

/// Completion of a submitted request.  Invoked exactly once, either
/// synchronously (validation failures) or from a pool worker.
using HostCallback = std::function<void(HostResult)>;

class SessionHost {
 public:
  explicit SessionHost(HostOptions opt);
  ~SessionHost();
  SessionHost(const SessionHost&) = delete;
  SessionHost& operator=(const SessionHost&) = delete;

  /// Queues one session request — open, edit, get, save or close — on
  /// the op queue of `req.session`; `done` runs exactly once, inline for a
  /// request rejected up front (a bad name or a restore without a state
  /// dir on open, or any other op on a name with no queue), else from a
  /// pool worker after its turn.
  ///   * open creates session `req.session` from a design string ("life",
  ///     "controller", "chain", "datapath[:bits]"), or reloads it from the
  ///     state dir when `req.restore` is set; the initial full generation
  ///     runs on the pool, and a failed open leaves no session behind, so
  ///     the ops queued after it answer no_such_session;
  ///   * edit composes `req.edits` into the pending network;
  ///   * get flushes pending edits and renders the diagram in
  ///     `req.format` ("escher", "svg", "ascii");
  ///   * save flushes and persists into `<state_dir>/<name>.session`, or
  ///     inline in the result payload without a state dir;
  ///   * close, after every op queued before it, saves the session when a
  ///     state dir is configured and it has unsaved edits, then ends it.
  ///     A same-name open queued after it opens a new session.
  void submit(Request req, HostCallback done);

  /// Blocking `submit`, for tests, demos and benches driving the host
  /// without a server.  Never call from a pool worker.
  HostResult call(Request req);

  /// Saves every session with unsaved edits; returns how many were
  /// written.  The graceful-shutdown path.  No-op without a state dir.
  int save_dirty_sessions();

  /// Service-level counters, per-session regen totals (aggregated), the
  /// pool queue depth and the host-side latency histograms (µs).
  /// serve.sessions_open, like open_sessions(), counts the sessions whose
  /// open has run and whose close has not.  Histograms:
  /// serve.lat.flush (the deferred regen a get/save/close triggered) and
  /// serve.pool.queue_wait (submit-to-start wait of each drain job).
  void absorb_metrics(obs::MetricsRegistry& reg) const;

  int open_sessions() const;
  ThreadPool& pool() { return pool_; }
  const std::string& state_dir() const { return opt_.state_dir; }

  /// The trace-flush quiescence gate: every op execution (and the
  /// server's inline request handling) holds it shared; a flight-recorder
  /// dump takes it exclusive, at which point no request is emitting trace
  /// events.
  std::shared_mutex& flush_gate() { return flush_gate_; }

 private:
  struct PendingOp {
    Request req;
    HostCallback done;
  };
  struct Session {
    RegenSession regen;
    /// Edits since the last flush, composed netlist-only; regenerated
    /// from at the next observation point.
    ScriptComposer pending;
    long long seq = 0;   ///< applied edits
    bool dirty = false;  ///< has edits not yet saved

    Session() : pending(Network{}) {}
  };
  /// One session name: its op queue and, between a successful open and
  /// its close, its session.
  struct Slot {
    std::vector<PendingOp> queue;  ///< guarded by sessions_mu_
    bool running = false;  ///< a drain job is on the pool; sessions_mu_
    std::mutex mu;  ///< guards `session`: the drain job and metrics readers
    /// Written only by the slot's drain job.
    std::unique_ptr<Session> session;
  };

  std::string state_path(const std::string& name) const;
  /// The per-name pool job: records its queue wait since `submitted` as
  /// serve.pool.queue_wait, then runs the queue turn by turn; erases the
  /// slot when its queue empties with no session left.
  void drain(const std::string& name, const std::shared_ptr<Slot>& slot,
             std::chrono::steady_clock::time_point submitted);
  /// One op body, slot.mu held; every throw becomes an error result.
  HostResult execute(Slot& slot, const Request& req);
  HostResult exec_open(Slot& slot, const Request& req);
  HostResult exec_edit(Session& s, const std::vector<EditCmd>& cmds);
  HostResult exec_get(Session& s, const Request& req);
  HostResult save_locked(Session& s, const std::string& name);
  /// Regenerates from the pending composition (one diff, one update for
  /// however many edits are pending); returns how many it flushed.  Called
  /// at every observation point, slot.mu held.
  int flush_pending(Session& s);
  /// Every slot, copied out under sessions_mu_.
  std::vector<std::pair<std::string, std::shared_ptr<Slot>>> slots() const;

  HostOptions opt_;
  /// Declared before the pool: drain jobs record their queue wait into it
  /// until the pool is torn down.
  obs::Histogram pool_wait_hist_;
  obs::Histogram flush_hist_;  ///< update_composed time per flush, µs
  ThreadPool pool_;
  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Slot>> sessions_;
  mutable std::mutex flush_mu_;
  long long flush_regens_ = 0;    ///< serve.batch.regens: flushes run
  long long flush_composed_ = 0;  ///< serve.batch.composed: edits covered
  std::shared_mutex flush_gate_;
};

/// Builds the network for a design string; throws ProtocolError
/// (err::kBadDesign) on anything unknown.  Exposed for tests/benches that
/// want the reference network without a host.
Network design_network(const std::string& design);

}  // namespace na::serve
