// Unit tests for the geometry substrate: points, directions, intervals,
// rectangles, segments, rotations, terminal-side derivation and the
// rectangle index.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "geom/orientation.hpp"
#include "geom/rect.hpp"
#include "geom/rect_index.hpp"

namespace na::geom {
namespace {

TEST(Point, Arithmetic) {
  EXPECT_EQ((Point{1, 2} + Point{3, 4}), (Point{4, 6}));
  EXPECT_EQ((Point{1, 2} - Point{3, 4}), (Point{-2, -2}));
  EXPECT_EQ((Point{2, 3} * 3), (Point{6, 9}));
  Point p{1, 1};
  p += {2, 2};
  EXPECT_EQ(p, (Point{3, 3}));
  p -= {1, 0};
  EXPECT_EQ(p, (Point{2, 3}));
}

TEST(Point, Distances) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({3, 4}, {0, 0}), 7);
  EXPECT_EQ(manhattan({-2, -2}, {2, 2}), 8);
  EXPECT_EQ(dist2({0, 0}, {3, 4}), 25);
  EXPECT_EQ(dist2({1, 1}, {1, 1}), 0);
}

TEST(Dir, DeltaAndOpposite) {
  for (Dir d : kAllDirs) {
    EXPECT_EQ(delta(d) + delta(opposite(d)), (Point{0, 0}));
    EXPECT_EQ(opposite(opposite(d)), d);
  }
  EXPECT_EQ(delta(Dir::Right), (Point{1, 0}));
  EXPECT_EQ(delta(Dir::Up), (Point{0, 1}));
}

TEST(Dir, Orientation) {
  EXPECT_TRUE(is_horizontal(Dir::Left));
  EXPECT_TRUE(is_horizontal(Dir::Right));
  EXPECT_TRUE(is_vertical(Dir::Up));
  EXPECT_TRUE(is_vertical(Dir::Down));
}

TEST(Dir, StepDir) {
  EXPECT_EQ(step_dir({0, 0}, {1, 0}), Dir::Right);
  EXPECT_EQ(step_dir({0, 0}, {-1, 0}), Dir::Left);
  EXPECT_EQ(step_dir({0, 0}, {0, 1}), Dir::Up);
  EXPECT_EQ(step_dir({0, 0}, {0, -1}), Dir::Down);
}

TEST(Interval, Basics) {
  const Interval i{2, 5};
  EXPECT_FALSE(i.empty());
  EXPECT_EQ(i.length(), 3);
  EXPECT_TRUE(i.contains(2));
  EXPECT_TRUE(i.contains(5));
  EXPECT_FALSE(i.contains(6));
  EXPECT_TRUE(Interval{}.empty());
  EXPECT_EQ(Interval{}.length(), 0);
}

TEST(Interval, Overlap) {
  EXPECT_TRUE((Interval{0, 3}).overlaps({3, 5}));
  EXPECT_FALSE((Interval{0, 3}).overlaps({4, 5}));
  EXPECT_FALSE((Interval{0, 3}).overlaps(Interval{}));
  EXPECT_EQ((Interval{0, 5}).intersect({3, 9}), (Interval{3, 5}));
  EXPECT_TRUE((Interval{4, 5}).intersect({0, 3}).empty());
  EXPECT_EQ((Interval{0, 1}).hull({4, 5}), (Interval{0, 5}));
  EXPECT_EQ((Interval{2, 3}).expanded(2), (Interval{0, 5}));
}

TEST(Rect, Basics) {
  const Rect r = Rect::from_size({1, 2}, {3, 4});
  EXPECT_EQ(r.lo, (Point{1, 2}));
  EXPECT_EQ(r.hi, (Point{4, 6}));
  EXPECT_EQ(r.width(), 3);
  EXPECT_EQ(r.height(), 4);
  EXPECT_TRUE(r.contains(Point{1, 2}));
  EXPECT_TRUE(r.contains(Point{4, 6}));
  EXPECT_FALSE(r.contains(Point{5, 6}));
  EXPECT_TRUE(Rect{}.empty());
}

TEST(Rect, OverlapIsClosed) {
  const Rect a = Rect::from_size({0, 0}, {2, 2});
  // Touching borders share grid points: closed rectangles overlap.
  EXPECT_TRUE(a.overlaps(Rect::from_size({2, 0}, {2, 2})));
  EXPECT_FALSE(a.overlaps(Rect::from_size({3, 0}, {2, 2})));
  EXPECT_TRUE(a.overlaps(a));
  EXPECT_FALSE(a.overlaps(Rect{}));
}

TEST(Rect, HullAndExpand) {
  const Rect a = Rect::from_size({0, 0}, {1, 1});
  const Rect b = Rect::from_size({5, 5}, {1, 1});
  EXPECT_EQ(a.hull(b), (Rect{{0, 0}, {6, 6}}));
  EXPECT_EQ(Rect{}.hull(a), a);
  EXPECT_EQ(a.hull(Point{9, 0}), (Rect{{0, 0}, {9, 1}}));
  EXPECT_EQ(a.expanded(2), (Rect{{-2, -2}, {3, 3}}));
}

TEST(Rect, Boundary) {
  const Rect r = Rect::from_size({0, 0}, {4, 4});
  EXPECT_TRUE(r.on_boundary({0, 2}));
  EXPECT_TRUE(r.on_boundary({4, 4}));
  EXPECT_FALSE(r.on_boundary({2, 2}));
  EXPECT_FALSE(r.on_boundary({5, 2}));
}

TEST(Segment, Basics) {
  const Segment h{{0, 3}, {5, 3}};
  EXPECT_TRUE(h.horizontal());
  EXPECT_FALSE(h.vertical());
  EXPECT_EQ(h.length(), 5);
  EXPECT_TRUE(h.contains({2, 3}));
  EXPECT_FALSE(h.contains({2, 4}));
  const Segment v{{1, 5}, {1, 1}};
  EXPECT_TRUE(v.vertical());
  EXPECT_EQ(v.bounds(), (Rect{{1, 1}, {1, 5}}));
  EXPECT_TRUE((Segment{{2, 2}, {2, 2}}).degenerate());
}

TEST(Rotation, Sizes) {
  EXPECT_EQ(rotate_size({3, 5}, Rot::R0), (Point{3, 5}));
  EXPECT_EQ(rotate_size({3, 5}, Rot::R90), (Point{5, 3}));
  EXPECT_EQ(rotate_size({3, 5}, Rot::R180), (Point{3, 5}));
  EXPECT_EQ(rotate_size({3, 5}, Rot::R270), (Point{5, 3}));
}

TEST(Rotation, PointsStayInRect) {
  const Point size{4, 2};
  for (Rot r : kAllRots) {
    const Point rs = rotate_size(size, r);
    for (int x = 0; x <= size.x; ++x) {
      for (int y = 0; y <= size.y; ++y) {
        const Point p = rotate_point({x, y}, size, r);
        EXPECT_GE(p.x, 0);
        EXPECT_GE(p.y, 0);
        EXPECT_LE(p.x, rs.x);
        EXPECT_LE(p.y, rs.y);
      }
    }
  }
}

TEST(Rotation, PointExamples) {
  const Point size{4, 2};
  // Lower-left corner cycles around the rectangle under CCW rotation.
  EXPECT_EQ(rotate_point({0, 0}, size, Rot::R90), (Point{2, 0}));
  EXPECT_EQ(rotate_point({0, 0}, size, Rot::R180), (Point{4, 2}));
  EXPECT_EQ(rotate_point({0, 0}, size, Rot::R270), (Point{0, 4}));
  EXPECT_EQ(rotate_point({4, 1}, size, Rot::R90), (Point{1, 4}));
}

TEST(Rotation, R180IsTwiceR90) {
  const Point size{6, 3};
  const Point p{6, 2};
  const Point once = rotate_point(p, size, Rot::R90);
  const Point twice = rotate_point(once, rotate_size(size, Rot::R90), Rot::R90);
  EXPECT_EQ(twice, rotate_point(p, size, Rot::R180));
}

TEST(Rotation, Sides) {
  EXPECT_EQ(rotate_side(Side::Right, Rot::R90), Side::Up);
  EXPECT_EQ(rotate_side(Side::Up, Rot::R90), Side::Left);
  EXPECT_EQ(rotate_side(Side::Left, Rot::R90), Side::Down);
  EXPECT_EQ(rotate_side(Side::Down, Rot::R90), Side::Right);
  for (Side s : kAllDirs) {
    EXPECT_EQ(rotate_side(s, Rot::R0), s);
    EXPECT_EQ(rotate_side(s, Rot::R180), opposite(s));
  }
}

TEST(Rotation, SideMatchesPointTransform) {
  // A terminal's derived side after rotating its position must equal the
  // rotated side.
  const Point size{4, 6};
  const Point terminals[] = {{0, 3}, {4, 2}, {2, 0}, {1, 6}};
  for (Point t : terminals) {
    const Side s = side_of(t, size);
    for (Rot r : kAllRots) {
      const Point rt = rotate_point(t, size, r);
      EXPECT_EQ(side_of(rt, rotate_size(size, r)), rotate_side(s, r))
          << "terminal " << to_string(t) << " rot " << static_cast<int>(r);
    }
  }
}

TEST(Rotation, RotationTaking) {
  for (Side from : kAllDirs) {
    for (Side to : kAllDirs) {
      EXPECT_EQ(rotate_side(from, rotation_taking(from, to)), to);
    }
  }
}

TEST(SideOf, Perimeter) {
  const Point size{4, 2};
  EXPECT_EQ(side_of({0, 1}, size), Side::Left);
  EXPECT_EQ(side_of({4, 1}, size), Side::Right);
  EXPECT_EQ(side_of({2, 0}, size), Side::Down);
  EXPECT_EQ(side_of({2, 2}, size), Side::Up);
  EXPECT_TRUE(on_perimeter({0, 0}, size));
  EXPECT_TRUE(on_perimeter({4, 2}, size));
  EXPECT_TRUE(on_perimeter({2, 0}, size));
  EXPECT_FALSE(on_perimeter({2, 1}, size));
  EXPECT_FALSE(on_perimeter({5, 1}, size));
  EXPECT_FALSE(on_perimeter({-1, 0}, size));
}

TEST(Strings, Formatting) {
  EXPECT_EQ(to_string(Point{1, -2}), "(1,-2)");
  EXPECT_EQ(to_string(Dir::Left), "left");
  EXPECT_EQ(to_string(Rot::R270), "R270");
  EXPECT_EQ(to_string(Rect{{0, 0}, {1, 1}}), "[(0,0)..(1,1)]");
  EXPECT_EQ(to_string(Segment{{0, 0}, {3, 0}}), "(0,0)-(3,0)");
}

// Seeded random rectangles straddling the origin, a few of them wide enough
// for the wide list, one empty: every query must return exactly what a
// linear scan returns, in the same order.
TEST(RectIndex, MatchesLinearScan) {
  std::mt19937 rng(7);
  auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::vector<Rect> rects;
  for (int i = 0; i < 200; ++i) {
    const Point lo{uniform(-300, 300), uniform(-300, 300)};
    const int reach = i % 25 == 0 ? 250 : 12;
    rects.push_back(Rect::from_size(lo, {uniform(0, reach), uniform(0, reach)}));
  }
  rects[17] = Rect{};
  const RectIndex index(rects);
  EXPECT_LE(index.bucket_count(), 3u * rects.size() + 1);

  for (int k = 0; k < 2000; ++k) {
    const Point p{uniform(-320, 580), uniform(-320, 580)};
    std::vector<int> expected, got;
    for (int i = 0; i < index.size(); ++i) {
      if (rects[i].contains(p)) expected.push_back(i);
    }
    index.containing(p, [&](int i) {
      got.push_back(i);
      return false;
    });
    ASSERT_EQ(got, expected) << to_string(p);
  }
  std::vector<int> got;
  for (int i = 0; i < index.size(); ++i) {
    std::vector<int> expected;
    for (int j = i + 1; j < index.size(); ++j) {
      if (rects[i].overlaps(rects[j])) expected.push_back(j);
    }
    index.overlapping_after(i, got);
    ASSERT_EQ(got, expected) << "rect " << i;
  }
}

}  // namespace
}  // namespace na::geom
