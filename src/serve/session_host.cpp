#include "serve/session_host.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>

#include "gen/chain.hpp"
#include "gen/controller.hpp"
#include "gen/datapath.hpp"
#include "gen/life.hpp"
#include "incremental/edit.hpp"
#include "netlist/text_io.hpp"
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
      try {
        opt.bits = static_cast<int>(parse_int(bits, 1, 64));
      } catch (const std::runtime_error& e) {
        throw ProtocolError(err::kBadDesign,
                            std::string("bad datapath bit count: ") + e.what());
      }
    }
    return gen::datapath_network(opt);
  }
  throw ProtocolError(err::kBadDesign, "unknown design '" + design +
                                           "' (life|controller|chain|datapath[:bits])");
}

SessionHost::SessionHost(HostOptions opt)
    : opt_(std::move(opt)), pool_(opt_.threads) {
  if (!opt_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt_.state_dir, ec);  // best effort
  }
}

SessionHost::~SessionHost() { pool_.wait_idle(); }

std::string SessionHost::state_path(const std::string& name) const {
  return opt_.state_dir + "/" + name + ".session";
}

// ----- the per-name op queue -------------------------------------------------

void SessionHost::submit(Request req, HostCallback done) {
  const std::string name = req.session;
  if (req.op == Op::kOpen && !valid_session_name(name)) {
    done(HostResult::error(err::kBadRequest, "bad session name '" + name + "'"));
    return;
  }
  if (req.op == Op::kOpen && req.restore && opt_.state_dir.empty()) {
    done(HostResult::error(err::kNoStateDir, "server runs without --state-dir"));
    return;
  }
  std::shared_ptr<Slot> slot;
  bool start_job = false;
  {
    std::lock_guard lock(sessions_mu_);
    auto it = sessions_.find(name);
    if (it == sessions_.end() && req.op == Op::kOpen) {
      it = sessions_.emplace(name, std::make_shared<Slot>()).first;
    }
    if (it != sessions_.end()) {
      slot = it->second;
      slot->queue.push_back({std::move(req), std::move(done)});
      start_job = !slot->running;
      slot->running = true;
    }
  }
  if (slot == nullptr) {
    done(HostResult::error(err::kNoSuchSession, "no open session '" + name + "'"));
    return;
  }
  if (start_job) {
    pool_.submit([this, name, slot, t0 = std::chrono::steady_clock::now()] {
      drain(name, slot, t0);
    });
  }
}

HostResult SessionHost::call(Request req) {
  std::promise<HostResult> prom;
  std::future<HostResult> fut = prom.get_future();
  submit(std::move(req),
         [&prom](HostResult r) { prom.set_value(std::move(r)); });
  return fut.get();
}

void SessionHost::drain(const std::string& name,
                        const std::shared_ptr<Slot>& slot,
                        std::chrono::steady_clock::time_point submitted) {
  pool_wait_hist_.record(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - submitted)
                             .count());
  // Reused across turns: the swap hands the queue the previous turn's
  // emptied buffer, so a busy session stops allocating queue storage.
  std::vector<PendingOp> turn;
  std::vector<HostResult> results;
  for (;;) {
    // One turn: everything queued, in queue order.  Requests queued while
    // the turn runs form the next one.
    turn.clear();
    results.clear();
    {
      std::lock_guard lock(sessions_mu_);
      if (slot->queue.empty()) {
        slot->running = false;
        // Only this job writes slot->session.  A name with neither ops nor
        // a session leaves the table, so failed opens cannot grow it.
        if (slot->session == nullptr) sessions_.erase(name);
        return;
      }
      turn.swap(slot->queue);
    }

    {
      // Shared side of the trace-flush gate: a flight dump only runs when
      // no op body is emitting trace events.
      std::shared_lock gate(flush_gate_);
      std::lock_guard lock(slot->mu);
      for (const PendingOp& op : turn) {
        results.push_back(execute(*slot, op.req));
      }
    }
    for (size_t i = 0; i < turn.size(); ++i) {
      turn[i].done(std::move(results[i]));
    }
  }
}

// ----- op bodies (run on the pool, slot.mu held) -----------------------------

HostResult SessionHost::execute(Slot& slot, const Request& req) {
  try {
    if (req.op == Op::kOpen) return exec_open(slot, req);
    if (slot.session == nullptr) {
      return HostResult::error(err::kNoSuchSession,
                               "no open session '" + req.session + "'");
    }
    Session& s = *slot.session;
    switch (req.op) {
      case Op::kEdit:
        return exec_edit(s, req.edits);
      case Op::kGet:
        return exec_get(s, req);
      case Op::kSave:
        return save_locked(s, req.session);
      case Op::kClose: {
        // Close saves unsaved edits when a state dir can keep them, and
        // ends the session whatever the save answers.
        const std::unique_ptr<Session> closing = std::move(slot.session);
        if (s.dirty && !opt_.state_dir.empty()) {
          return save_locked(s, req.session);
        }
        return HostResult{};
      }
      default:
        break;
    }
  } catch (const ProtocolError& e) {
    return HostResult::error(e.code(), e.what());
  } catch (const std::exception& e) {
    return HostResult::error(err::kInternal, e.what());
  }
  return HostResult::error(err::kInternal, "not a session op");
}

HostResult SessionHost::exec_open(Slot& slot, const Request& req) {
  if (slot.session != nullptr) {
    return HostResult::error(err::kSessionExists,
                             "session '" + req.session + "' already open");
  }
  NA_TRACE_SPAN(span, "serve.open");
  span.arg("restore", req.restore ? 1 : 0);
  // Built aside and installed only once complete: a failed or throwing
  // open leaves the slot empty.
  auto s = std::make_unique<Session>();
  if (req.restore) {
    std::string text;
    try {
      text = read_file(state_path(req.session));
    } catch (const std::runtime_error&) {
      return HostResult::error(err::kNoSuchSession,
                               "no saved session '" + req.session + "'");
    }
    s->regen.restore(text);
  } else {
    s->regen.update(design_network(req.design));
  }
  s->pending.rebase(s->regen.network());
  HostResult ok;
  ok.full_regen = !req.restore;
  ok.nets_rerouted = s->regen.last().nets_rerouted;
  ok.nets_kept = s->pending.network().net_count();
  slot.session = std::move(s);
  return ok;
}

HostResult SessionHost::exec_edit(Session& s,
                                  const std::vector<EditCmd>& cmds) {
  NA_TRACE_SPAN(span, "serve.edit");
  try {
    // Netlist work only — the composer's transactional apply runs the
    // script on an editor copy of the pending network, so a bad script
    // leaves the session exactly as it was, even mid-turn.  The
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
  span.arg("seq", s.seq);
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
  {
    std::lock_guard lock(flush_mu_);
    ++flush_regens_;
    flush_composed_ += pending;
  }
  return pending;
}

HostResult SessionHost::exec_get(Session& s, const Request& req) {
  const int flushed = flush_pending(s);
  HostResult r;
  r.flushed_edits = flushed;
  if (req.format == "svg") {
    r.payload = to_svg(s.regen.diagram());
  } else if (req.format == "ascii") {
    r.payload = to_ascii(s.regen.diagram());
  } else {
    r.payload = to_escher_diagram(s.regen.diagram(), req.session);
  }
  r.seq = s.seq;
  return r;
}

HostResult SessionHost::save_locked(Session& s, const std::string& name) {
  HostResult r;
  std::string text;
  try {
    // A save is an observation point: it must snapshot exactly the state
    // after the preceding edit in queue order, so the pending composition
    // flushes first.  Edits queued behind the save compose afresh.
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
  try {
    write_file(tmp, text);
  } catch (const std::runtime_error& e) {
    return HostResult::error(err::kInternal, e.what());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return HostResult::error(err::kInternal, "cannot write '" + path + "'");
  }
  s.dirty = false;
  r.seq = s.seq;
  return r;
}

// ----- shutdown and metrics --------------------------------------------------

std::vector<std::pair<std::string, std::shared_ptr<SessionHost::Slot>>>
SessionHost::slots() const {
  std::lock_guard lock(sessions_mu_);
  return {sessions_.begin(), sessions_.end()};
}

int SessionHost::save_dirty_sessions() {
  if (opt_.state_dir.empty()) return 0;
  int saved = 0;
  // Shutdown saves flush pending compositions (regen + trace spans), so
  // hold the flush gate shared like any other op body.
  std::shared_lock gate(flush_gate_);
  for (const auto& [name, slot] : slots()) {
    std::lock_guard lock(slot->mu);
    if (slot->session != nullptr && slot->session->dirty &&
        save_locked(*slot->session, name).ok) {
      ++saved;
    }
  }
  return saved;
}

int SessionHost::open_sessions() const {
  int open = 0;
  for (const auto& [name, slot] : slots()) {
    std::lock_guard lock(slot->mu);
    open += slot->session != nullptr;
  }
  return open;
}

void SessionHost::absorb_metrics(obs::MetricsRegistry& reg) const {
  long long open = 0;
  long long edits = 0;
  long long pending = 0;
  RegenCounters sum;
  for (const auto& [name, slot] : slots()) {
    std::lock_guard lock(slot->mu);
    if (slot->session == nullptr) continue;
    ++open;
    edits += slot->session->seq;
    pending += slot->session->pending.steps();
    sum += slot->session->regen.totals();
  }
  reg.set("serve.sessions_open", open);
  reg.set("serve.edits_applied", edits);
  reg.set("serve.pending_edits", pending);
  {
    std::lock_guard lock(flush_mu_);
    reg.set("serve.batch.regens", flush_regens_);
    reg.set("serve.batch.composed", flush_composed_);
  }
  obs::absorb(reg, sum);
  reg.set("serve.pool.peak_queued", pool_.stats().peak_queued);
  reg.set("serve.pool.queue_depth", pool_.queue_depth());
  reg.set("serve.trace_buffered_events",
          static_cast<long long>(obs::trace_buffered_events()));
  reg.set_histogram("serve.lat.flush", flush_hist_.snapshot());
  reg.set_histogram("serve.pool.queue_wait", pool_wait_hist_.snapshot());
}

}  // namespace na::serve
