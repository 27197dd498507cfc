// Tests for the distance CDF used by the probability integration.
#include "uncertain/distance_dist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "geom/circle_ops.h"
#include "uncertain/monte_carlo.h"

namespace uvd {
namespace uncertain {
namespace {

UncertainObject MakeObj(int id, geom::Point c, double r,
                        PdfKind kind = PdfKind::kGaussian) {
  if (kind == PdfKind::kGaussian) {
    return UncertainObject(id, geom::Circle(c, r), RadialHistogramPdf::Gaussian(r));
  }
  return UncertainObject(id, geom::Circle(c, r), RadialHistogramPdf::Uniform(r));
}

TEST(DistanceDistTest, CdfRowMatchesOnePointCdfBitwise) {
  // Query points outside, inside and at the center of the region; each
  // row entry sums the same terms in the same order as the one-point Cdf.
  Rng rng(12);
  for (int trial = 0; trial < 30; ++trial) {
    const double r = rng.Uniform(1, 20);
    const auto obj = MakeObj(0, {rng.Uniform(-30, 30), rng.Uniform(-30, 30)}, r,
                             trial % 2 == 0 ? PdfKind::kGaussian : PdfKind::kUniform);
    geom::Point q{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    if (trial % 3 == 1) q = {obj.center().x + 0.5 * r, obj.center().y - 0.25 * r};
    if (trial % 10 == 2) q = obj.center();
    DistanceDistribution dist(obj, q);
    std::vector<double> radii;
    for (int k = 0; k <= 100; ++k) {
      radii.push_back(dist.lower() - 1.0 + (dist.upper() - dist.lower() + 2.0) * k / 100);
    }
    radii.erase(std::remove_if(radii.begin(), radii.end(), [](double x) { return x < 0; }),
                radii.end());
    const QueryRadii grid(radii);
    std::vector<double> row(radii.size());
    dist.CdfRow(grid, row.data());
    for (size_t k = 0; k < radii.size(); ++k) {
      const double one = dist.Cdf(radii[k]);
      EXPECT_EQ(std::memcmp(&row[k], &one, sizeof(double)), 0)
          << "trial " << trial << " k " << k << " " << row[k] << " vs " << one;
    }
  }
}

TEST(DistanceDistTest, CdfMatchesPerBarAnnulusAreas) {
  // Against the per-bar sum: bars wholly inside or outside the disk count
  // 1 or 0, straddling bars mass * (annulus-disk intersection / ring area)
  // with geom::LensArea's std::acos lens areas. Some radii k/50 of the
  // support land within ulps of a ring-boundary tangency, where both sides
  // must keep their digits.
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const auto obj = MakeObj(0, {rng.Uniform(-30, 30), rng.Uniform(-30, 30)},
                             rng.Uniform(1, 20));
    const geom::Point q{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    DistanceDistribution dist(obj, q);
    const RadialHistogramPdf& pdf = obj.pdf();
    for (int k = 1; k < 50; ++k) {
      const double d = dist.lower() + (dist.upper() - dist.lower()) * k / 50;
      double want = 0.0;
      const double center_dist = geom::Distance(obj.center(), q);
      for (int b = 0; b < pdf.num_bars(); ++b) {
        const double r_in = pdf.RingInner(b);
        const double r_out = pdf.RingOuter(b);
        if (center_dist + r_out <= d) {
          want += pdf.bars()[static_cast<size_t>(b)];
          continue;
        }
        if (std::max(center_dist - r_out, r_in - center_dist) >= d) continue;
        want += pdf.bars()[static_cast<size_t>(b)] *
                geom::AnnulusCircleIntersectionArea(q, d, obj.center(), r_in, r_out) /
                (M_PI * (r_out * r_out - r_in * r_in));
      }
      EXPECT_NEAR(dist.Cdf(d), want, 1e-13) << "trial " << trial << " d " << d;
    }
  }
}

TEST(DistanceDistTest, SupportBounds) {
  const auto obj = MakeObj(0, {10, 0}, 3);
  DistanceDistribution dist(obj, {0, 0});
  EXPECT_DOUBLE_EQ(dist.lower(), 7.0);
  EXPECT_DOUBLE_EQ(dist.upper(), 13.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(6.9), 0.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(13.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(20.0), 1.0);
}

TEST(DistanceDistTest, MonotoneNondecreasing) {
  const auto obj = MakeObj(0, {5, 5}, 4);
  for (const geom::Point q : {geom::Point{0, 0}, geom::Point{5, 5}, geom::Point{6, 4}}) {
    DistanceDistribution dist(obj, q);
    double prev = 0.0;
    for (double d = 0.0; d <= dist.upper() + 1.0; d += 0.05) {
      const double c = dist.Cdf(d);
      EXPECT_GE(c, prev - 1e-12) << "q=(" << q.x << "," << q.y << ") d=" << d;
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
      prev = c;
    }
  }
}

TEST(DistanceDistTest, QueryInsideRegion) {
  // Query at the region center: distance distribution equals the radial CDF.
  const auto obj = MakeObj(0, {0, 0}, 10, PdfKind::kUniform);
  DistanceDistribution dist(obj, {0, 0});
  EXPECT_DOUBLE_EQ(dist.lower(), 0.0);
  for (double d = 1.0; d < 10.0; d += 1.0) {
    EXPECT_NEAR(dist.Cdf(d), (d * d) / 100.0, 1e-9) << d;
  }
}

TEST(DistanceDistTest, PointObjectIsStep) {
  const auto obj = MakeObj(0, {3, 4}, 0);
  DistanceDistribution dist(obj, {0, 0});
  EXPECT_DOUBLE_EQ(dist.lower(), 5.0);
  EXPECT_DOUBLE_EQ(dist.upper(), 5.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(4.999), 0.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(5.0), 1.0);
}

TEST(DistanceDistTest, MatchesMonteCarloGaussian) {
  Rng rng(99);
  const auto obj = MakeObj(0, {20, 0}, 8);
  const geom::Point q{0, 0};
  DistanceDistribution dist(obj, q);
  const int n = 200000;
  for (double d : {14.0, 18.0, 20.0, 22.0, 26.0}) {
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      if (geom::Distance(SamplePosition(obj, &rng), q) <= d) ++hits;
    }
    EXPECT_NEAR(dist.Cdf(d), static_cast<double>(hits) / n, 0.01) << "d=" << d;
  }
}

TEST(DistanceDistTest, MatchesMonteCarloQueryInsideUniform) {
  Rng rng(123);
  const auto obj = MakeObj(0, {0, 0}, 6, PdfKind::kUniform);
  const geom::Point q{2, 1};  // inside the region
  DistanceDistribution dist(obj, q);
  const int n = 200000;
  for (double d : {1.0, 2.5, 4.0, 6.0, 8.0}) {
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      if (geom::Distance(SamplePosition(obj, &rng), q) <= d) ++hits;
    }
    EXPECT_NEAR(dist.Cdf(d), static_cast<double>(hits) / n, 0.01) << "d=" << d;
  }
}

}  // namespace
}  // namespace uncertain
}  // namespace uvd
