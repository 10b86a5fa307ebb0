#include "geom/polyline.hpp"

namespace na::geom {

size_t cell_bound(const Polyline& pl) {
  size_t bound = pl.size();
  for (size_t i = 1; i < pl.size(); ++i) bound += manhattan(pl[i - 1], pl[i]);
  return bound;
}

std::vector<Polyline> split_polyline(
    const Polyline& pl, const std::function<bool(const Segment&)>& keep) {
  std::vector<Polyline> out;
  if (pl.size() < 2) return out;
  Polyline run;
  for (size_t i = 0; i + 1 < pl.size(); ++i) {
    const Segment seg{pl[i], pl[i + 1]};
    if (keep(seg)) {
      if (run.empty()) run.push_back(pl[i]);
      run.push_back(pl[i + 1]);
    } else if (!run.empty()) {
      out.push_back(std::move(run));
      run.clear();
    }
  }
  if (!run.empty()) out.push_back(std::move(run));
  return out;
}

}  // namespace na::geom
