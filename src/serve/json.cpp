#include "serve/json.hpp"

#include <cctype>
#include <limits>
#include <stdexcept>
#include <string>

#include "netlist/text_io.hpp"

namespace na::serve {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  JsonValue parse() {
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + what);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  /// Reads the 4 hex digits of a \u escape (cursor past the 'u').
  unsigned hex4() {
    if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= h - '0';
      else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
      else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
      else fail("bad \\u escape digit");
    }
    return code;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("truncated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = hex4();
          // RFC 8259 §7: code points above the BMP travel as a surrogate
          // pair of \u escapes.  Pair them here; a surrogate half on its
          // own names no code point and is rejected (the error carries
          // the byte offset like every other parse failure).
          if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > s_.size() || s_[pos_] != '\\' ||
                s_[pos_ + 1] != 'u') {
              fail("unpaired high surrogate in \\u escape");
            }
            pos_ += 2;
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) {
              fail("high surrogate not followed by low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
          }
          // UTF-8 encode the code point.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
    return out;
  }

  JsonValue value(int depth) {
    if (depth >= kMaxJsonDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::kObject;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.array.push_back(value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = JsonValue::kString;
      v.text = string();
      return v;
    }
    if (c == 't' || c == 'f') {
      const std::string_view word = c == 't' ? "true" : "false";
      if (s_.compare(pos_, word.size(), word) != 0) fail("bad literal");
      pos_ += word.size();
      v.kind = JsonValue::kBool;
      v.boolean = c == 't';
      return v;
    }
    if (c == 'n') {
      if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
      pos_ += 4;
      return v;
    }
    // Number: validate the full JSON grammar here
    // (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), keep the text for
    // as_int().
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      fail("expected value");
    }
    if (s_[pos_] == '0') {
      ++pos_;  // no leading zeros: 0 is a complete integer part
    } else {
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    auto digits = [&] {  // one-or-more digit run (fraction, exponent)
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        fail("bad number");
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    };
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      digits();
    }
    v.kind = JsonValue::kNumber;
    v.text = std::string(s_.substr(start, pos_ - start));
    return v;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::as_int(long long* out) const {
  if (kind != kNumber) return false;
  try {
    *out = parse_int(text, std::numeric_limits<long long>::min(),
                     std::numeric_limits<long long>::max());
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

}  // namespace na::serve
