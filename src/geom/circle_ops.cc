#include "geom/circle_ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace uvd {
namespace geom {

namespace {

// acos(hp - hm) from the half-gaps hp = (1 + x) / 2 and hm = (1 - x) / 2.
double AcosOfHalfGaps(double hp, double hm) {
  const double x = hp - hm;
  if (std::abs(x) <= 0.5) return std::acos(x);
  const double y = 2.0 * std::asin(std::sqrt(std::max(0.0, x > 0.0 ? hm : hp)));
  return x > 0.0 ? y : M_PI - y;
}

}  // namespace

double LensArea(double d, double r1, double r2) {
  UVD_DCHECK_GE(r1, 0.0);
  UVD_DCHECK_GE(r2, 0.0);
  UVD_DCHECK_GE(d, 0.0);
  if (r1 == 0.0 || r2 == 0.0) return 0.0;
  if (d >= r1 + r2) return 0.0;  // disjoint
  const double rmin = std::min(r1, r2);
  if (d <= std::abs(r1 - r2)) {
    return M_PI * rmin * rmin;  // smaller disk fully contained
  }
  // Two circular segments, with half-angles a1 at the center of disk 1 and
  // a2 at disk 2. The factors f1..f4 are positive here, and the half-gaps
  // (1 -+ cos a) / 2 are products of them: near tangency they keep the
  // digits that acos(cos a) would lose to the rounding of cos a.
  const double f1 = -d + r1 + r2;
  const double f2 = d + r1 - r2;
  const double f3 = d - r1 + r2;
  const double f4 = d + r1 + r2;
  const double alpha1 = AcosOfHalfGaps(f2 * f4 / (4.0 * d * r1), f1 * f3 / (4.0 * d * r1));
  const double alpha2 = AcosOfHalfGaps(f3 * f4 / (4.0 * d * r2), f1 * f2 / (4.0 * d * r2));
  const double tri = 0.5 * std::sqrt(std::max(0.0, f1 * f2 * f3 * f4));
  // Clamp: near tangency the two terms cancel and roundoff can go
  // fractionally negative.
  return std::max(0.0, r1 * r1 * alpha1 + r2 * r2 * alpha2 - tri);
}

double CircleIntersectionArea(const Circle& a, const Circle& b) {
  return LensArea(Distance(a.center, b.center), a.radius, b.radius);
}

double AnnulusCircleIntersectionArea(const Point& q, double d, const Point& c,
                                     double r_in, double r_out) {
  UVD_DCHECK_GE(r_in, 0.0);
  UVD_DCHECK_LE(r_in, r_out);
  const double dist = Distance(q, c);
  return LensArea(dist, d, r_out) - LensArea(dist, d, r_in);
}

}  // namespace geom
}  // namespace uvd
