#include "serve/protocol.hpp"

#include "netlist/text_io.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"

namespace na::serve {
namespace {

[[noreturn]] void bad(const std::string& message) {
  throw ProtocolError(err::kBadRequest, message);
}

std::string required_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::kString) {
    bad(std::string("missing string field '") + key + "'");
  }
  return v->text;
}

std::string optional_string(const JsonValue& obj, const char* key,
                            std::string fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::kString) {
    bad(std::string("field '") + key + "' must be a string");
  }
  return v->text;
}

int required_coord(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  long long n = 0;
  if (v == nullptr || !v->as_int(&n)) {
    bad(std::string("missing integer field '") + key + "'");
  }
  if (n < -kMaxCoord || n > kMaxCoord) {
    bad(std::string("field '") + key + "' out of range");
  }
  return static_cast<int>(n);
}

TermType required_term_type(const JsonValue& obj) {
  const std::string s = required_string(obj, "type");
  const auto t = parse_term_type(s);
  if (!t) bad("bad terminal type '" + s + "' (in|out|inout)");
  return *t;
}

EditCmd parse_edit(const JsonValue& e) {
  if (e.kind != JsonValue::kObject) {
    throw ProtocolError(err::kBadEdit, "edit must be an object");
  }
  EditCmd cmd;
  const std::string kind = required_string(e, "kind");
  using K = EditCmd::Kind;
  if (kind == "add_module") {
    cmd.kind = K::kAddModule;
    cmd.name = required_string(e, "name");
    cmd.template_name = optional_string(e, "template", "");
    cmd.pos = {required_coord(e, "w"), required_coord(e, "h")};
  } else if (kind == "remove_module") {
    cmd.kind = K::kRemoveModule;
    cmd.name = required_string(e, "name");
  } else if (kind == "resize_module") {
    cmd.kind = K::kResizeModule;
    cmd.name = required_string(e, "name");
    cmd.pos = {required_coord(e, "w"), required_coord(e, "h")};
  } else if (kind == "add_terminal") {
    cmd.kind = K::kAddTerminal;
    cmd.module = required_string(e, "module");
    cmd.name = required_string(e, "name");
    cmd.type = required_term_type(e);
    cmd.pos = {required_coord(e, "x"), required_coord(e, "y")};
  } else if (kind == "move_terminal") {
    cmd.kind = K::kMoveTerminal;
    cmd.module = required_string(e, "module");
    cmd.term = required_string(e, "term");
    cmd.pos = {required_coord(e, "x"), required_coord(e, "y")};
  } else if (kind == "connect") {
    cmd.kind = K::kConnect;
    cmd.net = required_string(e, "net");
    cmd.module = optional_string(e, "module", "");
    cmd.term = required_string(e, "term");
  } else if (kind == "disconnect") {
    cmd.kind = K::kDisconnect;
    cmd.module = optional_string(e, "module", "");
    cmd.term = required_string(e, "term");
  } else if (kind == "remove_net") {
    cmd.kind = K::kRemoveNet;
    cmd.net = required_string(e, "net");
  } else if (kind == "add_system_terminal") {
    cmd.kind = K::kAddSystemTerminal;
    cmd.name = required_string(e, "name");
    cmd.type = required_term_type(e);
  } else if (kind == "remove_system_terminal") {
    cmd.kind = K::kRemoveSystemTerminal;
    cmd.name = required_string(e, "name");
  } else {
    throw ProtocolError(err::kBadEdit, "unknown edit kind '" + kind + "'");
  }
  return cmd;
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kOpen: return "open";
    case Op::kEdit: return "edit";
    case Op::kGet: return "get";
    case Op::kMetrics: return "metrics";
    case Op::kSave: return "save";
    case Op::kClose: return "close";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

Request parse_request(std::string_view line) {
  JsonValue root;
  try {
    root = parse_json(line);
  } catch (const std::exception& e) {
    throw ProtocolError(err::kBadJson, e.what());
  }
  if (root.kind != JsonValue::kObject) {
    throw ProtocolError(err::kBadJson, "request must be a JSON object");
  }

  Request req;
  if (const JsonValue* id = root.find("id"); id != nullptr) {
    if (!id->as_int(&req.id) || req.id < 0) bad("field 'id' must be a non-negative integer");
  }

  const std::string op = required_string(root, "op");
  if (op == "ping") {
    req.op = Op::kPing;
  } else if (op == "open") {
    req.op = Op::kOpen;
    req.session = required_string(root, "session");
    req.design = optional_string(root, "design", "");
    if (const JsonValue* r = root.find("restore"); r != nullptr) {
      if (r->kind != JsonValue::kBool) bad("field 'restore' must be a bool");
      req.restore = r->boolean;
    }
    if (req.design.empty() && !req.restore) bad("open needs 'design' or 'restore'");
  } else if (op == "edit") {
    req.op = Op::kEdit;
    req.session = required_string(root, "session");
    const JsonValue* edits = root.find("edits");
    if (edits == nullptr || edits->kind != JsonValue::kArray) {
      bad("missing array field 'edits'");
    }
    if (edits->array.empty()) bad("'edits' must not be empty");
    for (const JsonValue& e : edits->array) req.edits.push_back(parse_edit(e));
  } else if (op == "get") {
    req.op = Op::kGet;
    req.session = required_string(root, "session");
    req.format = optional_string(root, "format", "escher");
    if (req.format != "escher" && req.format != "svg" && req.format != "ascii") {
      bad("bad format '" + req.format + "' (escher|svg|ascii)");
    }
  } else if (op == "metrics") {
    req.op = Op::kMetrics;
  } else if (op == "save") {
    req.op = Op::kSave;
    req.session = required_string(root, "session");
  } else if (op == "close") {
    req.op = Op::kClose;
    req.session = required_string(root, "session");
  } else if (op == "shutdown") {
    req.op = Op::kShutdown;
  } else {
    throw ProtocolError(err::kUnknownOp, "unknown op '" + op + "'");
  }
  if (!req.session.empty() && req.session.size() > 256) {
    bad("session name too long");
  }
  return req;
}

std::string error_response(const char* code, std::string_view message,
                           long long id) {
  obs::JsonWriter w;
  w.begin_object().field("ok", false);
  if (id >= 0) w.field("id", id);
  w.key("error").begin_object();
  w.field("code", std::string_view(code)).field("message", message);
  w.end_object().end_object();
  return w.take();
}

std::string registry_response(const obs::MetricsRegistry& reg, long long id) {
  obs::JsonWriter w;
  w.begin_object().field("ok", true).field("op", std::string_view("metrics"));
  if (id >= 0) w.field("id", id);
  // to_json() is a complete document (with a trailing newline — strip it,
  // responses are single lines); splice it as the "metrics" field.
  w.key("metrics");
  std::string out = w.take();
  std::string doc = reg.to_json();
  while (!doc.empty() && doc.back() == '\n') doc.pop_back();
  out += doc;
  out += '}';
  return out;
}

}  // namespace na::serve
