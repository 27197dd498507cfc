// Axis-aligned bounding boxes; the domain D of the UV-diagram, R-tree MBRs
// and quad-tree node regions are all Boxes.
#ifndef UVD_GEOM_BOX_H_
#define UVD_GEOM_BOX_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "geom/point.h"

namespace uvd {
namespace geom {

/// Closed axis-aligned rectangle [lo.x, hi.x] x [lo.y, hi.y].
struct Box {
  Point lo;
  Point hi;

  Box() = default;
  Box(Point low, Point high) : lo(low), hi(high) {}

  static Box FromCenterHalf(Point center, double half) {
    return Box({center.x - half, center.y - half}, {center.x + half, center.y + half});
  }

  /// An inverted box that is the identity for ExpandToInclude.
  static Box Empty() {
    const double inf = std::numeric_limits<double>::infinity();
    return Box({inf, inf}, {-inf, -inf});
  }

  double Width() const { return hi.x - lo.x; }
  double Height() const { return hi.y - lo.y; }
  double Area() const { return Width() * Height(); }
  Point Center() const { return {(lo.x + hi.x) * 0.5, (lo.y + hi.y) * 0.5}; }
  bool IsEmpty() const { return lo.x > hi.x || lo.y > hi.y; }
  /// Every coordinate finite and neither axis inverted: what a box
  /// decoded from disk must be before anything is sized or routed by it.
  bool IsFiniteNonEmpty() const {
    return std::isfinite(lo.x) && std::isfinite(lo.y) && std::isfinite(hi.x) &&
           std::isfinite(hi.y) && !IsEmpty();
  }

  bool Contains(const Point& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }

  /// Half-open membership [lo, hi) per axis: a point on a shared edge of
  /// two boxes tiling a larger region belongs to the upper/right box only,
  /// so tilings (sharded serving, quad-tree quarters) own every point
  /// exactly once. The max edge of the outermost box belongs to no box
  /// under this test — callers owning a global boundary must close it
  /// explicitly (see UVIndex::LocateLeafChecked).
  bool ContainsHalfOpen(const Point& p) const {
    return p.x >= lo.x && p.x < hi.x && p.y >= lo.y && p.y < hi.y;
  }

  bool ContainsBox(const Box& b) const {
    return b.lo.x >= lo.x && b.hi.x <= hi.x && b.lo.y >= lo.y && b.hi.y <= hi.y;
  }

  bool Intersects(const Box& b) const {
    return lo.x <= b.hi.x && b.lo.x <= hi.x && lo.y <= b.hi.y && b.lo.y <= hi.y;
  }

  /// Corners in counter-clockwise order starting at lo.
  std::array<Point, 4> Corners() const {
    return {Point{lo.x, lo.y}, Point{hi.x, lo.y}, Point{hi.x, hi.y}, Point{lo.x, hi.y}};
  }

  /// Quarter k of this box (0=SW, 1=SE, 2=NW, 3=NE), as used when a
  /// UV-index node splits into its four children.
  Box Quadrant(int k) const {
    const Point c = Center();
    switch (k) {
      case 0:
        return Box(lo, c);
      case 1:
        return Box({c.x, lo.y}, {hi.x, c.y});
      case 2:
        return Box({lo.x, c.y}, {c.x, hi.y});
      default:
        return Box(c, hi);
    }
  }

  void ExpandToInclude(const Point& p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }

  void ExpandToInclude(const Box& b) {
    ExpandToInclude(b.lo);
    ExpandToInclude(b.hi);
  }

  /// MINDIST: the smallest distance from p to any point of the box
  /// (0 if p is inside). Standard R-tree pruning metric.
  double MinDist(const Point& p) const {
    const double dx = std::max({lo.x - p.x, 0.0, p.x - hi.x});
    const double dy = std::max({lo.y - p.y, 0.0, p.y - hi.y});
    return std::sqrt(dx * dx + dy * dy);
  }

  /// MAXDIST: the largest distance from p to any point of the box.
  double MaxDist(const Point& p) const {
    const double dx = std::max(std::abs(p.x - lo.x), std::abs(p.x - hi.x));
    const double dy = std::max(std::abs(p.y - lo.y), std::abs(p.y - hi.y));
    return std::sqrt(dx * dx + dy * dy);
  }
};

}  // namespace geom
}  // namespace uvd

#endif  // UVD_GEOM_BOX_H_
