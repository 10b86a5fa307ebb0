// Outside text: every file, line record and integer the program reads from
// outside — the Appendix-A net-list files, Appendix-B module descriptions,
// ESCHER diagrams, session blobs, CLI flags and wire-protocol numbers —
// and every file it writes goes through this module.  The reading rules
// live here once; each parser keeps only its own format's rules on top.
//
//   RecordReader r(text, "call-file");
//   while (r.next()) {
//     if (r.size() != 2) r.fail("expected '<instance> <template>'");
//     ...r[0], r[1], r.int_field(i, lo, hi)...
//   }
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace na {

/// Bound on every coordinate and length read from outside text.  Far
/// beyond any drawable diagram, and small enough that the difference or
/// sum of two coordinates never overflows an int.
inline constexpr int kMaxCoord = 1 << 24;

/// The whole file; throws std::runtime_error "cannot open '<path>'".
std::string read_file(const std::string& path);

/// Replaces the file with `text`; throws std::runtime_error
/// "cannot write '<path>'" when it cannot be created or written in full
/// (and then removes what it wrote).
void write_file(const std::string& path, std::string_view text);

/// The one integer grammar: all of `text` is an optional '-' followed by
/// decimal digits, and the value lies in [lo, hi].  Throws
/// std::runtime_error "expected integer, got '<text>'" or
/// "<text> out of range".
long long parse_int(std::string_view text, long long lo, long long hi);

/// Line records: each line splits into whitespace-separated fields, lines
/// count from 1, and next() skips lines without fields.  Fields view the
/// text, which must outlive the reader.
class RecordReader {
 public:
  /// `label` names the input in every diagnostic.
  RecordReader(std::string_view text, std::string label);

  /// Advances to the next line that has a field; false at the end.
  bool next();

  size_t size() const { return fields_.size(); }
  std::string_view operator[](size_t i) const { return fields_[i]; }

  /// Throws std::runtime_error "<label> line <N>: <why>" for the current
  /// line.
  [[noreturn]] void fail(const std::string& why) const;

  /// Field `i` under parse_int's grammar; fails the line when it is
  /// missing, malformed or outside [lo, hi].
  int int_field(size_t i, int lo, int hi) const;

  /// The text after the current line.
  std::string_view rest() const { return text_.substr(pos_); }

 private:
  std::string_view text_;
  std::string label_;
  size_t pos_ = 0;
  int line_ = 0;
  std::vector<std::string_view> fields_;
};

}  // namespace na
