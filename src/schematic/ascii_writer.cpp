#include "schematic/ascii_writer.hpp"

#include <algorithm>
#include <vector>

namespace na {

std::string to_ascii(const Diagram& dia) {
  const Network& net = dia.network();
  geom::Rect bounds = dia.drawing_bounds();
  if (bounds.empty()) return "(empty diagram)\n";
  bounds = bounds.expanded(1);

  const int w = bounds.width() + 1;
  const int h = bounds.height() + 1;
  std::vector<std::string> canvas(h, std::string(w, ' '));
  auto put = [&](geom::Point p, char c) {
    const int col = p.x - bounds.lo.x;
    const int row = bounds.hi.y - p.y;  // top row = max y
    if (col >= 0 && col < w && row >= 0 && row < h) canvas[row][col] = c;
  };
  auto get = [&](geom::Point p) {
    const int col = p.x - bounds.lo.x;
    const int row = bounds.hi.y - p.y;
    return (col >= 0 && col < w && row >= 0 && row < h) ? canvas[row][col] : ' ';
  };

  // Nets first; module symbols overwrite.
  for (const NetRoute& r : dia.routes()) {
    for (const auto& pl : r.polylines) {
      for (size_t i = 1; i < pl.size(); ++i) {
        const geom::Point a = pl[i - 1];
        const geom::Point b = pl[i];
        if (a == b) continue;
        const bool horizontal = a.y == b.y;
        const geom::Point step = {(b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y)};
        for (geom::Point p = a;; p += step) {
          const char want = horizontal ? '-' : '|';
          const char have = get(p);
          char c = want;
          if ((have == '-' && want == '|') || (have == '|' && want == '-')) c = '#';
          if (have == '+' || have == '#') c = have;
          put(p, c);
          if (p == b) break;
        }
      }
      for (size_t i = 1; i + 1 < pl.size(); ++i) put(pl[i], '+');  // corners
    }
  }

  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) continue;
    const geom::Rect r = dia.module_rect(m);
    for (int x = r.lo.x; x <= r.hi.x; ++x) {
      put({x, r.lo.y}, '-');
      put({x, r.hi.y}, '-');
    }
    for (int y = r.lo.y; y <= r.hi.y; ++y) {
      put({r.lo.x, y}, '|');
      put({r.hi.x, y}, '|');
    }
    for (geom::Point c : {r.lo, r.hi, geom::Point{r.lo.x, r.hi.y}, geom::Point{r.hi.x, r.lo.y}}) {
      put(c, '+');
    }
    // Interior fill with instance name.
    const std::string& name = net.module(m).name;
    int k = 0;
    for (int y = r.hi.y - 1; y > r.lo.y && k < static_cast<int>(name.size()); --y) {
      for (int x = r.lo.x + 1; x < r.hi.x && k < static_cast<int>(name.size()); ++x) {
        put({x, y}, name[k++]);
      }
    }
  }

  for (int t = 0; t < net.term_count(); ++t) {
    const Terminal& term = net.term(t);
    if (dia.term_placed(t) && (term.is_system() || term.net != kNone)) {
      put(dia.term_pos(t), term.is_system() ? 'O' : 'o');
    }
  }

  std::string out;
  out.reserve(static_cast<size_t>(h) * (w + 1));
  for (const std::string& row : canvas) {
    // Trim trailing blanks per row.
    const auto end = row.find_last_not_of(' ');
    out.append(row, 0, end == std::string::npos ? 0 : end + 1);
    out.push_back('\n');
  }
  return out;
}

}  // namespace na
