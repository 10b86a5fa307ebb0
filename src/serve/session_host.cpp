#include "serve/session_host.hpp"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>

#include "gen/chain.hpp"
#include "gen/controller.hpp"
#include "gen/datapath.hpp"
#include "gen/life.hpp"
#include "incremental/edit.hpp"
#include "obs/stats_absorb.hpp"
#include "obs/trace.hpp"
#include "schematic/ascii_writer.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/svg_writer.hpp"

namespace na::serve {
namespace {

/// Session names become file names under the state dir — restrict them to
/// a path-safe alphabet instead of sanitising.
bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return name != "." && name != "..";
}

void apply_edit(NetworkEditor& ed, const EditCmd& cmd) {
  using K = EditCmd::Kind;
  switch (cmd.kind) {
    case K::kAddModule:
      ed.add_module(cmd.name, cmd.template_name, cmd.pos);
      break;
    case K::kRemoveModule:
      ed.remove_module(cmd.name);
      break;
    case K::kResizeModule:
      ed.resize_module(cmd.name, cmd.pos);
      break;
    case K::kAddTerminal:
      ed.add_module_terminal(cmd.module, cmd.name, cmd.type, cmd.pos);
      break;
    case K::kMoveTerminal:
      ed.move_terminal(cmd.module, cmd.term, cmd.pos);
      break;
    case K::kConnect:
      ed.connect(cmd.net, cmd.module, cmd.term);
      break;
    case K::kDisconnect:
      ed.disconnect(cmd.module, cmd.term);
      break;
    case K::kRemoveNet:
      ed.remove_net(cmd.net);
      break;
    case K::kAddSystemTerminal:
      ed.add_system_terminal(cmd.name, cmd.type);
      break;
    case K::kRemoveSystemTerminal:
      ed.remove_system_terminal(cmd.name);
      break;
  }
}

/// Runs one op body, folding every throw into a HostResult error.
template <typename Fn>
HostResult guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const ProtocolError& e) {
    return HostResult::error(e.code(), e.what());
  } catch (const std::exception& e) {
    return HostResult::error(err::kInternal, e.what());
  }
}

/// Bridges an async call onto a blocking one.
template <typename Call>
HostResult block_on(Call&& call) {
  std::promise<HostResult> prom;
  std::future<HostResult> fut = prom.get_future();
  call([&prom](HostResult r) { prom.set_value(std::move(r)); });
  return fut.get();
}

}  // namespace

Network design_network(const std::string& design) {
  if (design == "life") return gen::life_network();
  if (design == "controller") return gen::controller_network();
  if (design == "chain") return gen::chain_network({});
  if (design == "datapath" || design.rfind("datapath:", 0) == 0) {
    gen::DatapathOptions opt;
    if (const size_t colon = design.find(':'); colon != std::string::npos) {
      const std::string_view bits(design.data() + colon + 1,
                                  design.size() - colon - 1);
      int v = 0;
      const auto [ptr, ec] =
          std::from_chars(bits.data(), bits.data() + bits.size(), v);
      if (ec != std::errc{} || ptr != bits.data() + bits.size() || v < 1 ||
          v > 64) {
        throw ProtocolError(err::kBadDesign,
                            "bad datapath bit count '" + std::string(bits) + "'");
      }
      opt.bits = v;
    }
    return gen::datapath_network(opt);
  }
  throw ProtocolError(err::kBadDesign, "unknown design '" + design +
                                           "' (life|controller|chain|datapath[:bits])");
}

SessionHost::SessionHost(HostOptions opt)
    : opt_(std::move(opt)),
      lib_(ModuleLibrary::standard_cells()),
      pool_(opt_.threads) {
  pool_.set_queue_wait_histogram(&pool_wait_hist_);
  if (!opt_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt_.state_dir, ec);  // best effort
  }
}

SessionHost::~SessionHost() { pool_.wait_idle(); }

std::shared_ptr<SessionHost::Session> SessionHost::find(
    const std::string& name) const {
  std::lock_guard lock(sessions_mu_);
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

std::string SessionHost::state_path(const std::string& name) const {
  return opt_.state_dir + "/" + name + ".session";
}

// ----- the per-session op queue ---------------------------------------------

void SessionHost::enqueue(const std::string& name,
                          std::shared_ptr<Session> session, PendingOp op) {
  bool start_job = false;
  {
    std::lock_guard lock(session->qmu);
    session->queue.push_back(std::move(op));
    if (!session->running) {
      session->running = true;
      start_job = true;
    }
  }
  if (start_job) {
    pool_.submit([this, name, session] { drain(name, session); });
  }
}

void SessionHost::drain(const std::string& name,
                        const std::shared_ptr<Session>& session) {
  for (;;) {
    // Take the next batch: a maximal run of consecutive edits, or one
    // non-edit op.  Edits queued while this job was working coalesce here.
    std::vector<PendingOp> batch;
    {
      std::lock_guard lock(session->qmu);
      if (session->queue.empty()) {
        session->running = false;
        return;
      }
      if (session->queue.front().kind == OpKind::kEdit) {
        while (!session->queue.empty() &&
               session->queue.front().kind == OpKind::kEdit) {
          batch.push_back(std::move(session->queue.front()));
          session->queue.pop_front();
        }
      } else {
        batch.push_back(std::move(session->queue.front()));
        session->queue.pop_front();
      }
    }

    std::vector<HostResult> results(batch.size());
    {
      // Shared side of the trace-flush gate: a flight dump only runs when
      // no op body is emitting trace events.
      std::shared_lock gate(flush_gate_);
      if (batch.front().kind == OpKind::kEdit) {
        NA_TRACE_SPAN(span, "serve.edit");
        span.arg("requests", static_cast<long long>(batch.size()));
        std::lock_guard lock(session->mu);
        for (size_t i = 0; i < batch.size(); ++i) {
          results[i] = guarded(
              [&] { return exec_one_edit(*session, batch[i].edits); });
        }
        span.arg("seq", session->seq);
        note_batch(batch.size());
      } else {
        const PendingOp& op = batch.front();
        std::lock_guard lock(session->mu);
        results[0] = guarded([&]() -> HostResult {
          switch (op.kind) {
            case OpKind::kOpen:
              return exec_open(*session, name, op);
            case OpKind::kGet:
              return exec_get(*session, name, op.format);
            case OpKind::kSave:
              return save_locked(*session, name);
            case OpKind::kClose:
              return exec_close(*session, name);
            case OpKind::kEdit:
              break;  // handled above
          }
          return HostResult::error(err::kInternal, "bad op kind");
        });
      }
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].done) batch[i].done(std::move(results[i]));
    }
  }
}

// ----- op bodies (run on the pool, session->mu held) -------------------------

HostResult SessionHost::exec_open(Session& s, const std::string& name,
                                  const PendingOp& op) {
  NA_TRACE_SPAN(span, "serve.open");
  span.arg("restore", op.restore ? 1 : 0);
  if (op.restore) {
    std::ifstream in(state_path(name));
    if (!in) {
      return HostResult::error(err::kNoSuchSession,
                               "no saved session '" + name + "'");
    }
    std::stringstream ss;
    ss << in.rdbuf();
    s.regen.restore(ss.str());
  } else {
    s.regen.update(design_network(op.design));
  }
  s.pending.rebase(s.regen.network());
  HostResult ok;
  ok.full_regen = !op.restore;
  ok.nets_rerouted = s.regen.last().nets_rerouted;
  ok.nets_kept = s.pending.network().net_count();
  return ok;
}

HostResult SessionHost::exec_one_edit(Session& s,
                                      const std::vector<EditCmd>& cmds) {
  try {
    // Netlist work only — the composer's transactional apply runs the
    // script on an editor copy of the pending network, so a bad script
    // leaves the session exactly as it was, even mid-batch.  The
    // diff + regen for this edit runs at the next observation point.
    s.pending.apply(
        [&](NetworkEditor& ed) {
          for (const EditCmd& cmd : cmds) apply_edit(ed, cmd);
        });
  } catch (const std::exception& e) {
    throw ProtocolError(err::kBadEdit, e.what());
  }
  ++s.seq;
  s.dirty = true;
  HostResult ok;
  ok.seq = s.seq;
  return ok;
}

int SessionHost::flush_pending(Session& s) {
  const int pending = s.pending.steps();
  if (pending == 0) return 0;
  NA_TRACE_SPAN(span, "serve.flush");
  span.arg("edits", pending);
  const auto t0 = std::chrono::steady_clock::now();
  s.regen.update_composed(s.pending.network(), pending);
  flush_hist_.record(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  s.pending.flushed();
  note_flush(static_cast<size_t>(pending));
  return pending;
}

HostResult SessionHost::exec_get(Session& s, const std::string& name,
                                 const std::string& format) {
  const int flushed = flush_pending(s);
  if (!s.regen.has_diagram()) {
    return HostResult::error(err::kInternal, "session has no diagram");
  }
  HostResult r;
  r.flushed_edits = flushed;
  if (format == "svg") {
    r.payload = to_svg(s.regen.diagram());
  } else if (format == "ascii") {
    r.payload = to_ascii(s.regen.diagram());
  } else {
    r.payload = to_escher_diagram(s.regen.diagram(), name);
  }
  r.seq = s.seq;
  return r;
}

HostResult SessionHost::exec_close(Session& s, const std::string& name) {
  if (s.dirty && !opt_.state_dir.empty()) {
    return save_locked(s, name);
  }
  return HostResult{};
}

HostResult SessionHost::save_locked(Session& s, const std::string& name) {
  HostResult r;
  std::string text;
  try {
    // A save is an observation point: it must snapshot exactly the state
    // after the preceding edit in queue order, so the pending composition
    // flushes first.  Edits queued behind the save start a new run.
    r.flushed_edits = flush_pending(s);
    text = s.regen.save();
  } catch (const std::exception& e) {
    return HostResult::error(err::kInternal, e.what());
  }
  if (opt_.state_dir.empty()) {
    r.payload = std::move(text);
    return r;
  }
  // Write-then-rename: a kill or a write error mid-save leaves the last
  // good save in place, never a torn file.
  const std::string path = state_path(name);
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  const bool created = out.is_open();
  out << text;
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (created) std::remove(tmp.c_str());
    return HostResult::error(err::kInternal, "cannot write " + path);
  }
  s.dirty = false;
  r.seq = s.seq;
  return r;
}

// ----- the async entry points ------------------------------------------------

void SessionHost::open_async(const std::string& name,
                             const std::string& design, bool restore,
                             HostCallback done) {
  if (!valid_session_name(name)) {
    done(HostResult::error(err::kBadRequest, "bad session name '" + name + "'"));
    return;
  }
  if (restore && opt_.state_dir.empty()) {
    done(HostResult::error(err::kNoStateDir, "server runs without --state-dir"));
    return;
  }
  auto session = std::make_shared<Session>(opt_.regen);
  session->design = design;
  {
    std::lock_guard lock(sessions_mu_);
    const auto [it, inserted] = sessions_.emplace(name, session);
    if (!inserted) {
      done(HostResult::error(err::kSessionExists,
                             "session '" + name + "' already open"));
      return;
    }
  }
  PendingOp op;
  op.kind = OpKind::kOpen;
  op.restore = restore;
  op.design = design;
  // Bad design / corrupt state file: drop the table entry again — but
  // only if it is still ours (a close+reopen may have replaced it).
  op.done = [this, name, session, done = std::move(done)](HostResult r) {
    if (!r.ok) {
      std::lock_guard lock(sessions_mu_);
      const auto it = sessions_.find(name);
      if (it != sessions_.end() && it->second == session) sessions_.erase(it);
    }
    done(std::move(r));
  };
  enqueue(name, session, std::move(op));
}

void SessionHost::edit_async(const std::string& name, std::vector<EditCmd> cmds,
                             HostCallback done) {
  auto session = find(name);
  if (session == nullptr) {
    done(HostResult::error(err::kNoSuchSession, "no open session '" + name + "'"));
    return;
  }
  PendingOp op;
  op.kind = OpKind::kEdit;
  op.edits = std::move(cmds);
  op.done = std::move(done);
  enqueue(name, std::move(session), std::move(op));
}

void SessionHost::get_async(const std::string& name, const std::string& format,
                            HostCallback done) {
  auto session = find(name);
  if (session == nullptr) {
    done(HostResult::error(err::kNoSuchSession, "no open session '" + name + "'"));
    return;
  }
  PendingOp op;
  op.kind = OpKind::kGet;
  op.format = format;
  op.done = std::move(done);
  enqueue(name, std::move(session), std::move(op));
}

void SessionHost::save_async(const std::string& name, HostCallback done) {
  auto session = find(name);
  if (session == nullptr) {
    done(HostResult::error(err::kNoSuchSession, "no open session '" + name + "'"));
    return;
  }
  PendingOp op;
  op.kind = OpKind::kSave;
  op.done = std::move(done);
  enqueue(name, std::move(session), std::move(op));
}

void SessionHost::close_async(const std::string& name, HostCallback done) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard lock(sessions_mu_);
    const auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      done(HostResult::error(err::kNoSuchSession,
                             "no open session '" + name + "'"));
      return;
    }
    session = it->second;
    sessions_.erase(it);
  }
  // The close op runs after every in-flight job of this session, then
  // saves final state.
  PendingOp op;
  op.kind = OpKind::kClose;
  op.done = std::move(done);
  enqueue(name, std::move(session), std::move(op));
}

// ----- blocking conveniences -------------------------------------------------

HostResult SessionHost::open(const std::string& name, const std::string& design,
                             bool restore) {
  return block_on([&](HostCallback cb) {
    open_async(name, design, restore, std::move(cb));
  });
}

HostResult SessionHost::edit(const std::string& name,
                             const std::vector<EditCmd>& cmds) {
  return block_on(
      [&](HostCallback cb) { edit_async(name, cmds, std::move(cb)); });
}

HostResult SessionHost::get(const std::string& name,
                            const std::string& format) {
  return block_on(
      [&](HostCallback cb) { get_async(name, format, std::move(cb)); });
}

HostResult SessionHost::save(const std::string& name) {
  return block_on([&](HostCallback cb) { save_async(name, std::move(cb)); });
}

HostResult SessionHost::close(const std::string& name) {
  return block_on([&](HostCallback cb) { close_async(name, std::move(cb)); });
}

// ----- shutdown and metrics --------------------------------------------------

int SessionHost::save_dirty_sessions() {
  if (opt_.state_dir.empty()) return 0;
  std::vector<std::pair<std::string, std::shared_ptr<Session>>> all;
  {
    std::lock_guard lock(sessions_mu_);
    all.assign(sessions_.begin(), sessions_.end());
  }
  int saved = 0;
  // Shutdown saves flush pending compositions (regen + trace spans), so
  // hold the flush gate shared like any other op body.
  std::shared_lock gate(flush_gate_);
  for (auto& [name, session] : all) {
    std::lock_guard lock(session->mu);
    if (session->dirty && save_locked(*session, name).ok) ++saved;
  }
  return saved;
}

int SessionHost::open_sessions() const {
  std::lock_guard lock(sessions_mu_);
  return static_cast<int>(sessions_.size());
}

void SessionHost::note_batch(size_t edits_in_job) {
  std::lock_guard lock(batch_mu_);
  ++batch_.jobs;
  batch_.edits += static_cast<long long>(edits_in_job);
}

void SessionHost::note_flush(size_t edits_flushed) {
  std::lock_guard lock(batch_mu_);
  ++batch_.regens;
  batch_.composed += static_cast<long long>(edits_flushed);
}

SessionHost::BatchStats SessionHost::batch_stats() const {
  std::lock_guard lock(batch_mu_);
  return batch_;
}

void SessionHost::absorb_metrics(obs::MetricsRegistry& reg) const {
  std::vector<std::shared_ptr<Session>> all;
  {
    std::lock_guard lock(sessions_mu_);
    all.reserve(sessions_.size());
    for (const auto& [name, session] : sessions_) all.push_back(session);
  }
  reg.set("serve.sessions_open", static_cast<long long>(all.size()));
  long long edits = 0;
  long long pending = 0;
  RegenCounters sum;
  for (const auto& session : all) {
    std::lock_guard lock(session->mu);
    edits += session->seq;
    pending += session->pending.steps();
    sum += session->regen.totals();
  }
  reg.set("serve.edits_applied", edits);
  reg.set("serve.pending_edits", pending);
  const BatchStats b = batch_stats();
  reg.set("serve.batch.jobs", b.jobs);
  reg.set("serve.batch.edits", b.edits);
  reg.set("serve.batch.regens", b.regens);
  reg.set("serve.batch.composed", b.composed);
  obs::absorb(reg, sum);
  reg.set("serve.pool.peak_queued", pool_.stats().peak_queued);
  reg.set("serve.trace_buffered_events",
          static_cast<long long>(obs::trace_buffered_events()));
  reg.set_histogram("serve.lat.flush", flush_hist_.snapshot());
  reg.set_histogram("serve.pool.queue_wait", pool_wait_hist_.snapshot());
}

long long SessionHost::pending_edits() const {
  std::vector<std::shared_ptr<Session>> all;
  {
    std::lock_guard lock(sessions_mu_);
    all.reserve(sessions_.size());
    for (const auto& [name, session] : sessions_) all.push_back(session);
  }
  long long pending = 0;
  for (const auto& session : all) {
    std::lock_guard lock(session->mu);
    pending += session->pending.steps();
  }
  return pending;
}

}  // namespace na::serve
