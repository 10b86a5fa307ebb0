// Integer 2-D points and directions on the schematic grid.
//
// All coordinates in this library are integers: the paper's generator works
// on a track grid (module sizes and terminal positions are grid-aligned,
// Appendix B demands coordinates divisible by the track pitch).
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <cstdlib>
#include <iosfwd>
#include <string>

namespace na::geom {

struct Point {
  int x = 0;
  int y = 0;

  friend constexpr Point operator+(Point a, Point b) { return {a.x + b.x, a.y + b.y}; }
  friend constexpr Point operator-(Point a, Point b) { return {a.x - b.x, a.y - b.y}; }
  friend constexpr Point operator*(Point a, int k) { return {a.x * k, a.y * k}; }
  constexpr Point& operator+=(Point b) { x += b.x; y += b.y; return *this; }
  constexpr Point& operator-=(Point b) { x -= b.x; y -= b.y; return *this; }
  friend constexpr bool operator==(Point, Point) = default;
  friend constexpr auto operator<=>(Point, Point) = default;
};

/// Manhattan (L1) distance — the router's wire-length measure.
constexpr int manhattan(Point a, Point b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// Squared Euclidean distance — the placer's gravity-centre measure
/// (PLACE_BOX / PLACE_PARTITION / PLACE_TERMINAL compare squared sums).
constexpr std::int64_t dist2(Point a, Point b) {
  const std::int64_t dx = a.x - b.x;
  const std::int64_t dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// A point packed into 64 bits, x high and y low: the key of the
/// point-keyed hash maps and sets.  point_of_key inverts it.
constexpr std::uint64_t point_key(Point p) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.x)) << 32) |
         static_cast<std::uint32_t>(p.y);
}

constexpr Point point_of_key(std::uint64_t k) {
  return {static_cast<std::int32_t>(k >> 32),
          static_cast<std::int32_t>(k & 0xffffffffu)};
}

std::string to_string(Point p);
std::ostream& operator<<(std::ostream& os, Point p);

/// The four orthogonal routing directions.  The paper uses
/// { left, right, up, down } both for terminal sides and for the expansion
/// direction of active segments.
enum class Dir : std::uint8_t { Left = 0, Right = 1, Up = 2, Down = 3 };

inline constexpr Dir kAllDirs[] = {Dir::Left, Dir::Right, Dir::Up, Dir::Down};

constexpr Point delta(Dir d) {
  switch (d) {
    case Dir::Left: return {-1, 0};
    case Dir::Right: return {1, 0};
    case Dir::Up: return {0, 1};
    case Dir::Down: return {0, -1};
  }
  return {};
}

constexpr Dir opposite(Dir d) {
  switch (d) {
    case Dir::Left: return Dir::Right;
    case Dir::Right: return Dir::Left;
    case Dir::Up: return Dir::Down;
    case Dir::Down: return Dir::Up;
  }
  return Dir::Left;
}

constexpr bool is_horizontal(Dir d) { return d == Dir::Left || d == Dir::Right; }
constexpr bool is_vertical(Dir d) { return !is_horizontal(d); }

/// Direction of the unit step from `a` to an orthogonally adjacent `b`.
/// Precondition: manhattan(a, b) == 1.
constexpr Dir step_dir(Point a, Point b) {
  if (b.x > a.x) return Dir::Right;
  if (b.x < a.x) return Dir::Left;
  if (b.y > a.y) return Dir::Up;
  return Dir::Down;
}

std::string to_string(Dir d);
std::ostream& operator<<(std::ostream& os, Dir d);

}  // namespace na::geom
