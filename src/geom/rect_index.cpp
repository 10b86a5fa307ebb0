#include "geom/rect_index.hpp"

#include <algorithm>
#include <cmath>

namespace na::geom {
namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

}  // namespace

template <class Fn>
void RectIndex::for_each_bucket(const Span& s, Fn&& fn) const {
  for (std::int64_t y = s.y0; y <= s.y1; ++y) {
    for (std::int64_t x = s.x0; x <= s.x1; ++x) fn(y * cols_ + x);
  }
}

RectIndex::RectIndex(std::vector<Rect> rects) : rects_(std::move(rects)) {
  std::int64_t n = 0;
  for (const Rect& r : rects_) {
    if (r.empty()) continue;
    hull_ = hull_.hull(r);
    ++n;
  }
  if (n == 0) return;

  // Bucket side: at least sqrt(dx * dy / n) and at least dx / n and dy / n,
  // for a hull of dx by dy grid points.  Then cols <= dx / cell + 1 and
  // rows <= dy / cell + 1, so
  //   cols * rows <= dx*dy / cell^2 + dx / cell + dy / cell + 1 <= 3n + 1
  // buckets, whatever the extent: two symbols 10^6 units apart or one
  // 100000 x 100000 symbol cost O(n), not O(area).  The loop only absorbs
  // floating-point rounding in the square root.
  const std::int64_t dx = std::int64_t{hull_.hi.x} - hull_.lo.x + 1;
  const std::int64_t dy = std::int64_t{hull_.hi.y} - hull_.lo.y + 1;
  cell_ = std::max({std::int64_t{1}, ceil_div(dx, n), ceil_div(dy, n),
                    static_cast<std::int64_t>(std::ceil(std::sqrt(
                        static_cast<double>(dx) * static_cast<double>(dy) /
                        static_cast<double>(n))))});
  std::int64_t rows = 0;
  for (;; ++cell_) {
    cols_ = ceil_div(dx, cell_);
    rows = ceil_div(dy, cell_);
    if (cols_ * rows <= 3 * n + 1) break;
  }

  // Counting pass, then a fill in ascending rectangle order (CSR layout).
  start_.assign(static_cast<std::size_t>(cols_ * rows + 1), 0);
  auto narrow = [](const Span& s) {
    return (s.x1 - s.x0 + 1) * (s.y1 - s.y0 + 1) <= kMaxSpan;
  };
  for (int i = 0; i < size(); ++i) {
    if (rects_[i].empty()) continue;
    const Span s = span_of(rects_[i]);
    if (!narrow(s)) {
      wide_.push_back(i);
      continue;
    }
    for_each_bucket(s, [&](std::int64_t b) { ++start_[b + 1]; });
  }
  for (std::size_t b = 1; b < start_.size(); ++b) start_[b] += start_[b - 1];
  items_.resize(start_.back());
  std::vector<int> fill(start_.begin(), start_.end() - 1);
  for (int i = 0; i < size(); ++i) {
    if (rects_[i].empty()) continue;
    const Span s = span_of(rects_[i]);
    if (!narrow(s)) continue;
    for_each_bucket(s, [&](std::int64_t b) { items_[fill[b]++] = i; });
  }
}

RectIndex::Span RectIndex::span_of(const Rect& r) const {
  return {(r.lo.x - std::int64_t{hull_.lo.x}) / cell_,
          (r.lo.y - std::int64_t{hull_.lo.y}) / cell_,
          (r.hi.x - std::int64_t{hull_.lo.x}) / cell_,
          (r.hi.y - std::int64_t{hull_.lo.y}) / cell_};
}

void RectIndex::overlapping_after(int i, std::vector<int>& out) const {
  out.clear();
  const Rect& r = rects_[i];
  if (r.empty()) return;
  auto take = [&](int j) {
    if (j > i && rects_[j].overlaps(r)) out.push_back(j);
  };
  for_each_bucket(span_of(r), [&](std::int64_t b) {
    for (int k = start_[b]; k < start_[b + 1]; ++k) take(items_[k]);
  });
  for (const int j : wide_) take(j);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace na::geom
