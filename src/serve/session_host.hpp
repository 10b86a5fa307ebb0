// SessionHost — the daemon's session table: many named RegenSessions, one
// shared immutable ModuleLibrary, one FIFO worker pool.
//
// Concurrency model (DESIGN §10 argues determinism from it):
//   * every session operation is *asynchronous*: the caller enqueues it on
//     the session's op queue with a completion callback; a single pool job
//     per session drains that queue, so the I/O threads of the event-loop
//     connection plane never block on placement/routing work;
//   * the queue serialises operations touching one session — edits to one
//     session are totally ordered (the response's `seq` is the order),
//     edits to different sessions run concurrently on the pool;
//   * regeneration is *deferred to observation points*: an edit request
//     only applies its script to the session's pending network (a
//     transactional ScriptComposer step — netlist work, no geometry) and
//     replies immediately; the expensive diff + RegenSession::update runs
//     once per observation point — get, save, close-with-save, shutdown
//     save — covering every edit composed since the previous flush
//     (`serve.batch.regens` counts flushes, `serve.batch.composed` the
//     edits they covered);
//   * consecutive queued *edit* requests for one session still coalesce
//     into a single pool job (one queue pass, one session-mutex hold, one
//     trace span) — job granularity, independent of flush granularity;
//   * the session table itself is a short-hold mutex (lookup and insert
//     only — never held while a session works).
//
// Why deferral preserves byte-identity where eager composition cannot:
// the incremental engine is path-dependent (gravity placement scores
// against the previous routed diagram, partition grouping depends on the
// dirty set), so collapsing k updates into one at an arbitrary internal
// boundary — e.g. whatever run of edits a drain job happened to grab —
// would make output depend on queue timing.  Deferral instead makes the
// composition boundaries *protocol-determined*: flushes happen exactly at
// the ops whose responses expose geometry, so the flush sequence — and
// with it every diagram a client can observe, every `seq`, and every
// response byte — is a pure function of the session's request sequence,
// independent of pipelining, drain-job batching, and other sessions.
#pragma once

#include <deque>
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
#include "netlist/module_library.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace na::serve {

struct HostOptions {
  /// Workers of the shared edit-dispatch pool.
  int threads = 4;
  /// Per-session generator/regen settings.  The service parallelises
  /// across sessions; one session's regeneration runs on one worker.
  RegenOptions regen;
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

/// Completion of an async host operation.  Invoked exactly once, either
/// synchronously (validation failures) or from a pool worker.
using HostCallback = std::function<void(HostResult)>;

class SessionHost {
 public:
  explicit SessionHost(HostOptions opt);
  ~SessionHost();
  SessionHost(const SessionHost&) = delete;
  SessionHost& operator=(const SessionHost&) = delete;

  /// Creates session `name` from a design string ("life", "controller",
  /// "chain", "datapath[:bits]"), or reloads it from the state dir when
  /// `restore` is set.  The initial full generation runs on the pool.
  void open_async(const std::string& name, const std::string& design,
                  bool restore, HostCallback done);

  /// Applies an edit script to session `name` (serialised with every
  /// other op of that session; concurrent with other sessions; coalesced
  /// with other queued edits of the same session).
  void edit_async(const std::string& name, std::vector<EditCmd> cmds,
                  HostCallback done);

  /// Renders the session's current diagram ("escher", "svg", "ascii").
  void get_async(const std::string& name, const std::string& format,
                 HostCallback done);

  /// Persists the session: into `<state_dir>/<name>.session` when a state
  /// dir is configured, else inline in the result payload.
  void save_async(const std::string& name, HostCallback done);

  /// Drops the session (saving it first when a state dir is configured
  /// and it has unsaved edits).
  void close_async(const std::string& name, HostCallback done);

  /// Blocking conveniences over the async API, for tests, demos and
  /// benches driving the host without a server.  Never call from a pool
  /// worker.
  HostResult open(const std::string& name, const std::string& design,
                  bool restore);
  HostResult edit(const std::string& name, const std::vector<EditCmd>& cmds);
  HostResult get(const std::string& name, const std::string& format);
  HostResult save(const std::string& name);
  HostResult close(const std::string& name);

  /// Saves every session with unsaved edits; returns how many were
  /// written.  The graceful-shutdown path.  No-op without a state dir.
  int save_dirty_sessions();

  /// Service-level counters, per-session regen totals (aggregated) and
  /// the host-side latency histograms (microseconds): serve.lat.flush
  /// (the deferred regen a get/save/close triggered) and
  /// serve.pool.queue_wait (submit-to-dequeue wait of the shared pool).
  void absorb_metrics(obs::MetricsRegistry& reg) const;

  /// Edits composed but not yet flushed, across every open session — the
  /// watchdog's pending-work gauge.  Takes each session mutex briefly.
  long long pending_edits() const;

  /// Edit-coalescing counters: pool jobs that carried edits and how many
  /// edit requests rode in them — plus the multi-edit regen counters:
  /// `regens` flushes ran (one RegenSession::update each) and `composed`
  /// edits were covered by them.  `regens < edits` whenever a flush
  /// covered more than one edit.  Reported under serve.batch.*.
  struct BatchStats {
    long long jobs = 0;
    long long edits = 0;
    long long regens = 0;    ///< composed flushes (one update each)
    long long composed = 0;  ///< edit scripts those flushes covered
  };
  BatchStats batch_stats() const;

  int open_sessions() const;
  ThreadPool& pool() { return pool_; }
  const std::string& state_dir() const { return opt_.state_dir; }
  const ModuleLibrary& library() const { return lib_; }

  /// The trace-flush quiescence gate: every op execution (and the
  /// server's inline request handling) holds it shared; a flight-recorder
  /// dump takes it exclusive, at which point no request is emitting trace
  /// events.
  std::shared_mutex& flush_gate() { return flush_gate_; }

 private:
  enum class OpKind { kOpen, kEdit, kGet, kSave, kClose };
  struct PendingOp {
    OpKind kind;
    bool restore = false;
    std::string design;         // open
    std::vector<EditCmd> edits; // edit
    std::string format;         // get
    HostCallback done;
  };
  struct Session {
    std::mutex mu;  ///< state access: the drain job and metrics readers
    RegenSession regen;
    /// Edits since the last flush, composed netlist-only; regenerated
    /// from at the next observation point.
    ScriptComposer pending;
    long long seq = 0;   ///< applied edits
    bool dirty = false;  ///< has edits not yet saved
    std::string design;

    std::mutex qmu;  ///< op queue + running flag (short hold)
    std::deque<PendingOp> queue;
    bool running = false;  ///< a drain job is on the pool

    explicit Session(RegenOptions opt)
        : regen(std::move(opt)), pending(Network{}) {}
  };

  std::shared_ptr<Session> find(const std::string& name) const;
  std::string state_path(const std::string& name) const;
  void enqueue(const std::string& name, std::shared_ptr<Session> session,
               PendingOp op);
  /// The per-session pool job: drains the op queue, coalescing edits.
  void drain(const std::string& name, const std::shared_ptr<Session>& session);
  HostResult exec_open(Session& s, const std::string& name,
                       const PendingOp& op);
  HostResult exec_one_edit(Session& s, const std::vector<EditCmd>& cmds);
  HostResult exec_get(Session& s, const std::string& name,
                      const std::string& format);
  HostResult exec_close(Session& s, const std::string& name);
  HostResult save_locked(Session& s, const std::string& name);
  /// Regenerates from the pending composition (one diff, one update for
  /// however many edits are queued); returns how many it flushed.  Called
  /// at every observation point, session->mu held.
  int flush_pending(Session& s);
  void note_batch(size_t edits_in_job);
  void note_flush(size_t edits_flushed);

  HostOptions opt_;
  const ModuleLibrary lib_;  ///< shared immutable template cache
  /// Declared before the pool: the pool's queue-wait probe records into
  /// it until the pool is torn down.
  obs::Histogram pool_wait_hist_;
  obs::Histogram flush_hist_;  ///< update_composed time per flush, µs
  ThreadPool pool_;
  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  mutable std::mutex batch_mu_;
  BatchStats batch_;
  std::shared_mutex flush_gate_;
};

/// Builds the network for a design string; throws ProtocolError
/// (err::kBadDesign) on anything unknown.  Exposed for tests/benches that
/// want the reference network without a host.
Network design_network(const std::string& design);

}  // namespace na::serve
