#include "netlist/text_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace na {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, std::string_view text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  out << text;
  out.close();
  if (!out) {
    std::remove(path.c_str());  // no torn file
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

long long parse_int(std::string_view text, long long lo, long long hi) {
  long long v = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc::invalid_argument || ptr != last) {
    throw std::runtime_error("expected integer, got '" + std::string(text) + "'");
  }
  if (ec != std::errc{} || v < lo || v > hi) {
    throw std::runtime_error(std::string(text) + " out of range");
  }
  return v;
}

RecordReader::RecordReader(std::string_view text, std::string label)
    : text_(text), label_(std::move(label)) {}

bool RecordReader::next() {
  constexpr std::string_view kSpace = " \t\r\f\v";
  while (pos_ < text_.size()) {
    const size_t eol = std::min(text_.find('\n', pos_), text_.size());
    const std::string_view line = text_.substr(pos_, eol - pos_);
    pos_ = std::min(eol + 1, text_.size());
    ++line_;
    fields_.clear();
    for (size_t i = line.find_first_not_of(kSpace); i != std::string_view::npos;
         i = line.find_first_not_of(kSpace, i)) {
      const size_t end = std::min(line.find_first_of(kSpace, i), line.size());
      fields_.push_back(line.substr(i, end - i));
      i = end;
    }
    if (!fields_.empty()) return true;
  }
  fields_.clear();
  return false;
}

void RecordReader::fail(const std::string& why) const {
  throw std::runtime_error(label_ + " line " + std::to_string(line_) + ": " + why);
}

int RecordReader::int_field(size_t i, int lo, int hi) const {
  if (i >= fields_.size()) fail("short record");
  try {
    return static_cast<int>(parse_int(fields_[i], lo, hi));
  } catch (const std::runtime_error& e) {
    fail(e.what());
  }
}

}  // namespace na
