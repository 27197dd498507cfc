// Tests for circle/annulus intersection areas against closed forms and
// Monte-Carlo estimates.
#include "geom/circle_ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace uvd {
namespace geom {
namespace {

TEST(LensAreaTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(LensArea(5.0, 2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(LensArea(4.0, 2.0, 2.0), 0.0);  // externally tangent
}

TEST(LensAreaTest, ContainedIsSmallerDisk) {
  EXPECT_DOUBLE_EQ(LensArea(0.0, 3.0, 1.0), M_PI);
  EXPECT_DOUBLE_EQ(LensArea(1.0, 3.0, 1.0), M_PI);   // internal, not touching
  EXPECT_DOUBLE_EQ(LensArea(2.0, 3.0, 1.0), M_PI);   // internally tangent
  EXPECT_DOUBLE_EQ(LensArea(0.0, 2.0, 2.0), 4 * M_PI);  // identical disks
}

TEST(LensAreaTest, ZeroRadius) {
  EXPECT_DOUBLE_EQ(LensArea(1.0, 0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(LensArea(0.0, 0.0, 0.0), 0.0);
}

TEST(LensAreaTest, SymmetricHalfOverlap) {
  // Two unit circles whose centers are 1 apart: classic vesica-piscis-like
  // lens with closed form 2*acos(1/2) - sqrt(3)/2 per the segment formula.
  const double expected = 2.0 * std::acos(0.5) - std::sqrt(3.0) / 2.0;
  EXPECT_NEAR(LensArea(1.0, 1.0, 1.0), expected, 1e-12);
}

TEST(LensAreaTest, SymmetryInRadii) {
  for (double d = 0.1; d < 6.0; d += 0.37) {
    EXPECT_NEAR(LensArea(d, 1.7, 2.9), LensArea(d, 2.9, 1.7), 1e-12) << "d=" << d;
  }
}

TEST(LensAreaTest, MonotoneInDistance) {
  double prev = LensArea(0.0, 2.0, 3.0);
  for (double d = 0.1; d < 6.0; d += 0.1) {
    const double cur = LensArea(d, 2.0, 3.0);
    EXPECT_LE(cur, prev + 1e-12) << "d=" << d;
    prev = cur;
  }
}

TEST(LensAreaTest, MatchesMonteCarlo) {
  Rng rng(42);
  const double d = 1.3, r1 = 1.0, r2 = 1.6;
  const Point c1{0, 0}, c2{d, 0};
  int hits = 0;
  const int n = 400000;
  // Sample within the first disk; the lens fraction times disk area.
  for (int i = 0; i < n; ++i) {
    const double rad = r1 * std::sqrt(rng.Uniform(0, 1));
    const double ang = rng.Uniform(0, 2 * M_PI);
    const Point p{c1.x + rad * std::cos(ang), c1.y + rad * std::sin(ang)};
    if (Distance(p, c2) <= r2) ++hits;
  }
  const double mc = M_PI * r1 * r1 * hits / n;
  EXPECT_NEAR(LensArea(d, r1, r2), mc, 0.01);
}

TEST(LensAreaTest, NearTangencyKeepsItsDigits) {
  // 50-digit references: one ulp inside outer tangency, and a lens whose
  // cosines are both near +-1.
  EXPECT_LT(LensArea(24.953885132348358, 22.434801225575619, 2.5190839067727415), 1e-20);
  EXPECT_NEAR(LensArea(24.953885132348358, 22.434801225575619, 3.1488548834659267),
              1.52866487070439069, 4e-15);
  EXPECT_NEAR(LensArea(10.0, 6.0000000010000001, 16.0), 113.09733556693149, 4e-13);
}

TEST(CircleIntersectionAreaTest, MatchesLensArea) {
  const Circle a({0, 0}, 2), b({1, 1}, 1.5);
  EXPECT_DOUBLE_EQ(CircleIntersectionArea(a, b),
                   LensArea(std::sqrt(2.0), 2.0, 1.5));
}

TEST(AnnulusTest, FullAnnulusWhenCircleCoversIt) {
  // Query disk big enough to contain the whole annulus.
  const double area =
      AnnulusCircleIntersectionArea({0, 0}, 100.0, {1, 1}, 1.0, 2.0);
  EXPECT_NEAR(area, M_PI * (4.0 - 1.0), 1e-9);
}

TEST(AnnulusTest, ZeroWhenDisjoint) {
  EXPECT_DOUBLE_EQ(AnnulusCircleIntersectionArea({0, 0}, 1.0, {10, 0}, 0.5, 2.0),
                   0.0);
}

TEST(AnnulusTest, DegenerateRingIsZero) {
  EXPECT_DOUBLE_EQ(AnnulusCircleIntersectionArea({0, 0}, 5.0, {1, 0}, 1.5, 1.5),
                   0.0);
}

TEST(AnnulusTest, RingsPartitionDisk) {
  // Splitting a disk into rings and summing intersection areas with a query
  // disk must reproduce the full lens area.
  const Point q{0.4, -0.2}, c{1.5, 0.7};
  const double d = 1.9, r = 1.2;
  const int bars = 20;
  double sum = 0.0;
  for (int b = 0; b < bars; ++b) {
    const double r_in = r * b / bars;
    const double r_out = r * (b + 1) / bars;
    sum += AnnulusCircleIntersectionArea(q, d, c, r_in, r_out);
  }
  EXPECT_NEAR(sum, LensArea(Distance(q, c), d, r), 1e-9);
}

}  // namespace
}  // namespace geom
}  // namespace uvd
