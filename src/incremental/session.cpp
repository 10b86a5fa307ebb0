#include "incremental/session.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "incremental/dirty.hpp"
#include "incremental/inc_place.hpp"
#include "incremental/inc_route.hpp"
#include "obs/trace.hpp"
#include "place/partition.hpp"
#include "place/boxes.hpp"
#include "schematic/escher_reader.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

/// Copies placement and routing of `src` onto a diagram over `net` — the
/// session's own network copy.  Ids must correspond 1:1 (same build order).
Diagram clone_onto(const Network& net, const Diagram& src) {
  Diagram dia(net);
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    if (!src.module_placed(m)) continue;
    const PlacedModule& pm = src.placed(m);
    dia.place_module(m, pm.pos, pm.rot, pm.fixed);
  }
  for (TermId st : net.system_terms()) {
    if (src.system_term_placed(st)) dia.place_system_term(st, src.term_pos(st));
  }
  for (NetId n = 0; n < net.net_count(); ++n) {
    dia.route(n) = src.route(n);
  }
  return dia;
}

/// Partition/box structure for an adopted diagram: re-derive it with the
/// session's own limits (partitioning is a pure function of the network,
/// so this is exactly what a from-scratch placement would have used).
PlacementInfo derive_structure(const Network& net, const PlacerOptions& opt) {
  PlacementInfo info;
  const PartitionLimits limits{opt.max_part_size, opt.max_connections};
  info.partitions = partition_network(net, limits);
  for (const auto& partition : info.partitions) {
    info.boxes.push_back(form_boxes(net, partition, opt.max_box_size));
  }
  return info;
}

// ----- session persistence ---------------------------------------------------
// save()/restore() serialise the whole session state: a `#NA-SESSION-1`
// header, the network replayed as construction records in id order (so the
// rebuilt ids match exactly), the partition/box structure verbatim (NOT
// re-derived — incremental updates patch it away from what a fresh
// partitioning would produce), and the routed diagram as an embedded
// ESCHER file.  Names are whitespace-free in every format of this repo;
// save() enforces that rather than emit an unparseable file.

constexpr const char* kSessionHeader = "#NA-SESSION-1";
constexpr const char* kSessionStateEnd = "end-session-state";

void check_name(const std::string& s, const char* what) {
  if (s.empty() || s.find_first_of(" \t\r\n") != std::string::npos) {
    throw std::runtime_error(std::string("RegenSession::save: unsupported ") +
                             what + " name '" + s + "'");
  }
}

[[noreturn]] void restore_fail(int line, const std::string& why) {
  throw std::runtime_error("RegenSession::restore: line " +
                           std::to_string(line) + ": " + why);
}

int restore_int(std::string_view tok, int line, const char* what, int lo,
                int hi) {
  int v = 0;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
    restore_fail(line, std::string("bad ") + what + " '" + std::string(tok) + "'");
  }
  if (v < lo || v > hi) {
    restore_fail(line, std::string(what) + " " + std::to_string(v) +
                           " out of range");
  }
  return v;
}

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> toks;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) toks.push_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

}  // namespace

std::string RegenSession::save() const {
  if (!net_ || !dia_) {
    throw std::logic_error("RegenSession::save: no diagram yet");
  }
  const Network& net = *net_;
  std::ostringstream os;
  os << kSessionHeader << '\n';
  for (const Module& m : net.modules()) {
    check_name(m.name, "module");
    os << "module " << m.size.x << ' ' << m.size.y << ' ' << m.name;
    if (!m.template_name.empty()) {
      check_name(m.template_name, "template");
      os << ' ' << m.template_name;
    }
    os << '\n';
  }
  // Terminals in global TermId order — module and system terminal records
  // interleave exactly as they were created, so replay rebuilds equal ids.
  for (TermId t = 0; t < net.term_count(); ++t) {
    const Terminal& term = net.term(t);
    check_name(term.name, "terminal");
    if (term.is_system()) {
      os << "systerm " << to_string(term.type) << ' ' << term.name << '\n';
    } else {
      os << "term " << term.module << ' ' << to_string(term.type) << ' '
         << term.pos.x << ' ' << term.pos.y << ' ' << term.name << '\n';
    }
  }
  for (const Net& n : net.nets()) {
    check_name(n.name, "net");
    os << "net " << n.name << '\n';
  }
  for (NetId n = 0; n < net.net_count(); ++n) {
    for (TermId t : net.net(n).terms) os << "conn " << n << ' ' << t << '\n';
  }
  for (const auto& part : info_.partitions) {
    os << "part";
    for (ModuleId m : part) os << ' ' << m;
    os << '\n';
  }
  for (size_t p = 0; p < info_.boxes.size(); ++p) {
    for (const Box& b : info_.boxes[p]) {
      os << "box " << p;
      for (ModuleId m : b) os << ' ' << m;
      os << '\n';
    }
  }
  // Flags the ESCHER diagram section cannot carry: the reader marks every
  // loaded module fixed and every loaded route prerouted (its
  // editor-handoff semantics) — a restored *session* must get back the
  // flags it actually had, or the next update() patches differently.
  auto flag_line = [&os](const char* kind, const std::vector<int>& ids) {
    if (ids.empty()) return;
    os << kind;
    for (const int id : ids) os << ' ' << id;
    os << '\n';
  };
  std::vector<int> fixed, routed, prerouted;
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    if (dia_->placed(m).fixed) fixed.push_back(m);
  }
  for (NetId n = 0; n < net.net_count(); ++n) {
    if (dia_->route(n).routed) routed.push_back(n);
    if (dia_->route(n).prerouted) prerouted.push_back(n);
  }
  flag_line("fixed", fixed);
  flag_line("routed", routed);
  flag_line("prerouted", prerouted);
  os << kSessionStateEnd << '\n';
  os << to_escher_diagram(*dia_, "session");
  return os.str();
}

void RegenSession::restore(std::string_view text) {
  Network net;
  PlacementInfo info;
  std::vector<int> fixed, routed, prerouted;
  size_t pos = 0;
  int lineno = 0;
  bool saw_header = false;
  size_t diagram_off = std::string_view::npos;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    const size_t next = eol + 1;
    ++lineno;
    if (!saw_header) {
      if (line != kSessionHeader) restore_fail(lineno, "missing #NA-SESSION-1 header");
      saw_header = true;
      pos = next;
      continue;
    }
    const std::vector<std::string_view> toks = split_tokens(line);
    if (toks.empty()) {
      if (pos >= text.size()) break;
      pos = next;
      continue;
    }
    const std::string_view kind = toks[0];
    if (kind == kSessionStateEnd) {
      diagram_off = next;
      break;
    }
    if (kind == "module") {
      if (toks.size() != 4 && toks.size() != 5) restore_fail(lineno, "module record needs 4 or 5 fields");
      const int w = restore_int(toks[1], lineno, "module width", 0, 1 << 24);
      const int h = restore_int(toks[2], lineno, "module height", 0, 1 << 24);
      net.add_module(std::string(toks[3]),
                     toks.size() == 5 ? std::string(toks[4]) : std::string(),
                     {w, h});
    } else if (kind == "term") {
      if (toks.size() != 6) restore_fail(lineno, "term record needs 6 fields");
      const int m = restore_int(toks[1], lineno, "module id", 0,
                                net.module_count() - 1);
      const auto type = parse_term_type(toks[2]);
      if (!type) restore_fail(lineno, "bad terminal type '" + std::string(toks[2]) + "'");
      const int x = restore_int(toks[3], lineno, "terminal x", -(1 << 24), 1 << 24);
      const int y = restore_int(toks[4], lineno, "terminal y", -(1 << 24), 1 << 24);
      net.add_terminal(m, std::string(toks[5]), *type, {x, y});
    } else if (kind == "systerm") {
      if (toks.size() != 3) restore_fail(lineno, "systerm record needs 3 fields");
      const auto type = parse_term_type(toks[1]);
      if (!type) restore_fail(lineno, "bad terminal type '" + std::string(toks[1]) + "'");
      net.add_system_terminal(std::string(toks[2]), *type);
    } else if (kind == "net") {
      if (toks.size() != 2) restore_fail(lineno, "net record needs 2 fields");
      net.add_net(std::string(toks[1]));
    } else if (kind == "conn") {
      if (toks.size() != 3) restore_fail(lineno, "conn record needs 3 fields");
      const int n = restore_int(toks[1], lineno, "net id", 0, net.net_count() - 1);
      const int t = restore_int(toks[2], lineno, "term id", 0, net.term_count() - 1);
      net.connect(n, t);
    } else if (kind == "part") {
      std::vector<ModuleId> part;
      for (size_t i = 1; i < toks.size(); ++i) {
        part.push_back(restore_int(toks[i], lineno, "module id", 0,
                                   net.module_count() - 1));
      }
      info.partitions.push_back(std::move(part));
    } else if (kind == "box") {
      if (toks.size() < 2) restore_fail(lineno, "box record needs a partition id");
      const int p = restore_int(toks[1], lineno, "partition id", 0,
                                static_cast<int>(info.partitions.size()) - 1);
      if (info.boxes.size() < info.partitions.size()) {
        info.boxes.resize(info.partitions.size());
      }
      Box box;
      for (size_t i = 2; i < toks.size(); ++i) {
        box.push_back(restore_int(toks[i], lineno, "module id", 0,
                                  net.module_count() - 1));
      }
      info.boxes[p].push_back(std::move(box));
    } else if (kind == "fixed" || kind == "routed" || kind == "prerouted") {
      std::vector<int>& out = kind == "fixed"    ? fixed
                              : kind == "routed" ? routed
                                                 : prerouted;
      const int hi = kind == "fixed" ? net.module_count() - 1
                                     : net.net_count() - 1;
      for (size_t i = 1; i < toks.size(); ++i) {
        out.push_back(restore_int(toks[i], lineno,
                                  kind == "fixed" ? "module id" : "net id", 0,
                                  hi));
      }
    } else {
      restore_fail(lineno, "unknown record '" + std::string(kind) + "'");
    }
    if (pos >= text.size()) break;
    pos = next;
  }
  if (!saw_header) restore_fail(lineno, "missing #NA-SESSION-1 header");
  if (diagram_off == std::string_view::npos) {
    restore_fail(lineno, "missing end-session-state record");
  }
  if (diagram_off >= text.size()) restore_fail(lineno, "missing embedded diagram");
  info.boxes.resize(info.partitions.size());

  auto copy = std::make_unique<Network>(std::move(net));
  auto dia = std::make_unique<Diagram>(
      parse_escher_diagram(*copy, text.substr(diagram_off)));
  // Override the reader's editor-handoff flags (everything fixed and
  // prerouted) with the session's recorded ones.
  for (ModuleId m = 0; m < copy->module_count(); ++m) {
    const PlacedModule& pm = dia->placed(m);
    if (pm.placed) dia->place_module(m, pm.pos, pm.rot, /*fixed=*/false);
  }
  for (NetId n = 0; n < copy->net_count(); ++n) {
    dia->route(n).routed = false;
    dia->route(n).prerouted = false;
  }
  for (const int m : fixed) dia->place_module(m, dia->placed(m).pos,
                                              dia->placed(m).rot, true);
  for (const int n : routed) dia->route(n).routed = true;
  for (const int n : prerouted) dia->route(n).prerouted = true;
  info_ = std::move(info);
  net_ = std::move(copy);
  dia_ = std::move(dia);
  totals_ = {};
  last_ = {};
}

RegenSession::RegenSession(RegenOptions opt) : opt_(std::move(opt)) {}
RegenSession::~RegenSession() = default;
RegenSession::RegenSession(RegenSession&&) noexcept = default;
RegenSession& RegenSession::operator=(RegenSession&&) noexcept = default;

const Diagram& RegenSession::diagram() const {
  if (!dia_) throw std::logic_error("RegenSession: no diagram yet");
  return *dia_;
}

const Network& RegenSession::network() const {
  if (!net_) throw std::logic_error("RegenSession: no network yet");
  return *net_;
}

RegenCounters& RegenCounters::operator+=(const RegenCounters& o) {
  updates += o.updates;
  incremental += o.incremental;
  full_regens += o.full_regens;
  edits_composed += o.edits_composed;
  modules_replaced += o.modules_replaced;
  modules_frozen += o.modules_frozen;
  nets_kept += o.nets_kept;
  nets_rerouted += o.nets_rerouted;
  nets_extended += o.nets_extended;
  cells_scrubbed += o.cells_scrubbed;
  route_expansions += o.route_expansions;
  region_validations += o.region_validations;
  full_validations += o.full_validations;
  dirty_region = dirty_region.hull(o.dirty_region);
  return *this;
}

void RegenSession::account(const RegenCounters& one) {
  last_ = one;
  totals_ += one;
}

void RegenSession::full_regen(const Network& next) {
  NA_TRACE_SPAN(span, "regen.full_regen");
  span.arg("modules", next.module_count());
  auto net = std::make_unique<Network>(next);
  auto dia = std::make_unique<Diagram>(*net);
  GeneratorResult result = generate(*dia, opt_.generator);
  info_ = std::move(result.placement);
  net_ = std::move(net);
  dia_ = std::move(dia);

  RegenCounters one;
  one.updates = 1;
  one.full_regens = 1;
  one.modules_replaced = next.module_count();
  one.nets_rerouted = result.route.nets_routed;
  one.route_expansions = result.route.total_expansions;
  account(one);
}

void RegenSession::adopt(const Network& net, const Diagram& dia) {
  auto copy = std::make_unique<Network>(net);
  auto cloned = std::make_unique<Diagram>(clone_onto(*copy, dia));
  info_ = derive_structure(*copy, opt_.generator.placer);
  net_ = std::move(copy);
  dia_ = std::move(cloned);
}

const Diagram& RegenSession::update(const Network& next) {
  if (!net_ || !dia_ || net_->module_count() == 0 || !dia_->all_placed()) {
    full_regen(next);
    return *dia_;
  }

  const NetlistDiff diff = [&] {
    NA_TRACE_SPAN(span, "regen.diff");
    NetlistDiff d = diff_networks(*net_, next);
    span.arg("modules_changed", d.modules_touched());
    span.arg("nets_changed", d.nets_touched());
    return d;
  }();
  if (diff.empty()) {
    RegenCounters one;
    one.updates = 1;
    one.incremental = 1;
    one.nets_kept = dia_->routed_count();
    account(one);
    return *dia_;
  }

  // Fallback rule, part 1: edit too large for patching.
  const DirtyInfo dirty = map_dirty(diff, *net_, next, info_);
  if (next.module_count() == 0 ||
      dirty.dirty_fraction() > opt_.max_dirty_fraction) {
    full_regen(next);
    return *dia_;
  }

  auto net = std::make_unique<Network>(next);
  auto dia = std::make_unique<Diagram>(*net);
  IncPlaceResult placed = [&] {
    NA_TRACE_SPAN(span, "regen.patch_place");
    IncPlaceResult r = incremental_place(*dia, *dia_, diff, dirty, info_,
                                         opt_.generator.placer);
    span.arg("feasible", r.feasible ? 1 : 0);
    span.arg("modules_replaced", r.modules_replaced);
    span.arg("modules_frozen", r.modules_frozen);
    return r;
  }();
  if (!placed.feasible) {  // fallback rule, part 2
    full_regen(next);
    return *dia_;
  }
  PatchRouteResult routed = [&] {
    NA_TRACE_SPAN(span, "regen.patch_route");
    PatchRouteResult r = patch_route(*dia, *dia_, diff, opt_.generator.router);
    span.arg("nets_kept", r.nets_kept);
    span.arg("nets_rerouted", r.nets_rerouted);
    span.arg("nets_extended", r.nets_extended);
    span.arg("cells_scrubbed", r.cells_scrubbed);
    return r;
  }();

  // Region-scoped validity check: only the union of the patched-net hulls
  // and the moved-module footprints (the patch router's dirty_region) is
  // re-checked.  Any in-region issue escalates to the whole-diagram check
  // — the region verdict is trusted only when it is clean.
  int region_validations = 0;
  int full_validations = 0;
  if (opt_.validate) {
    NA_TRACE_SPAN(span, "regen.validate");
    std::vector<std::string> issues = validate_region(*dia, routed.dirty_region);
    ++region_validations;
    if (!issues.empty()) {
      issues = validate_diagram(*dia);
      ++full_validations;
    }
    span.arg("region", region_validations);
    span.arg("full", full_validations);
    span.arg("issues", static_cast<long long>(issues.size()));
    if (!issues.empty()) {
      full_regen(next);  // patched diagram broke a drawing rule
      return *dia_;
    }
  }

  info_ = std::move(placed.info);
  net_ = std::move(net);
  dia_ = std::move(dia);

  RegenCounters one;
  one.updates = 1;
  one.incremental = 1;
  one.modules_replaced = placed.modules_replaced;
  one.modules_frozen = placed.modules_frozen;
  one.nets_kept = routed.nets_kept;
  one.nets_rerouted = routed.nets_rerouted;
  one.nets_extended = routed.nets_extended;
  one.cells_scrubbed = routed.cells_scrubbed;
  one.route_expansions = routed.report.total_expansions;
  one.region_validations = region_validations;
  one.full_validations = full_validations;
  one.dirty_region = routed.dirty_region;
  account(one);
  return *dia_;
}

const Diagram& RegenSession::update_composed(const Network& next, int edits) {
  const Diagram& dia = update(next);
  // update() ran exactly one diff/patch pass; credit it with the composed
  // edit count so callers can verify one-regen-per-flush in the counters.
  last_.edits_composed = edits;
  totals_.edits_composed += edits;
  return dia;
}

}  // namespace na
