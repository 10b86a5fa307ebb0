// Minimal JSON value parser for the na_serve wire protocol.
//
// The daemon speaks line-delimited JSON; requests arrive from arbitrary
// clients, so the parser is strict (throws with a byte offset on anything
// malformed — the robustness corpus feeds it garbage) and bounded (depth
// cap against stack exhaustion).  Emission goes through obs::JsonWriter —
// this header is parse-only, keeping one JSON writer in the codebase.
//
// Numbers keep their source text: protocol fields are integers and a
// round-trip through double would corrupt large ids; as_int() re-parses
// with parse_int (netlist/text_io.hpp), the grammar of the CLI flags.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace na::serve {

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  std::string text;  ///< kString: decoded value; kNumber: raw source text
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Integer value of a kNumber; false on floats, overflow or non-numbers.
  bool as_int(long long* out) const;
};

/// Maximum container nesting parse_json accepts.
inline constexpr int kMaxJsonDepth = 32;

/// Parses exactly one JSON value spanning the whole input (trailing
/// whitespace allowed).  Throws std::runtime_error with a byte offset.
JsonValue parse_json(std::string_view text);

}  // namespace na::serve
