// Tests for the verifier-style threshold PNN ([15]-flavoured bounds).
#include "uncertain/threshold.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"

namespace uvd {
namespace uncertain {
namespace {

UncertainObject Gauss(int id, geom::Point c, double r) {
  return UncertainObject(id, geom::Circle(c, r), RadialHistogramPdf::Gaussian(r));
}

std::vector<const UncertainObject*> Refs(const std::vector<UncertainObject>& objs) {
  std::vector<const UncertainObject*> refs;
  for (const auto& o : objs) refs.push_back(&o);
  return refs;
}

TEST(ThresholdTest, BoundsBracketExactProbabilities) {
  Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<UncertainObject> objs;
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 8));
    for (int i = 0; i < n; ++i) {
      objs.push_back(Gauss(i, {rng.Uniform(-40, 40), rng.Uniform(-40, 40)},
                           rng.Uniform(2, 15)));
    }
    const auto bounds = QualificationBounds(Refs(objs), {0, 0}, 16);
    const auto exact = ComputeQualificationProbabilities(Refs(objs), {0, 0});
    for (const auto& b : bounds) {
      EXPECT_LE(b.lower, b.upper + 1e-12);
      double p = 0;
      for (const auto& e : exact) {
        if (e.id == b.id) p = e.probability;
      }
      EXPECT_LE(b.lower, p + 2e-3) << "trial " << trial << " id " << b.id;
      EXPECT_GE(b.upper, p - 2e-3) << "trial " << trial << " id " << b.id;
    }
  }
}

TEST(ThresholdTest, BoundsMatchDirectEndpointProducts) {
  // The left/right survival products re-multiplied over j != i per cell
  // (the O(c^2 * m) form) on the same CDF grid.
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<UncertainObject> objs;
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 8));
    for (int i = 0; i < n; ++i) {
      objs.push_back(Gauss(i, {rng.Uniform(-40, 40), rng.Uniform(-40, 40)},
                           rng.Uniform(2, 15)));
    }
    const geom::Point q{0, 0};
    const auto bounds = QualificationBounds(Refs(objs), q, 16);
    const auto kept = FilterByDMinMax(Refs(objs), q);
    ASSERT_EQ(bounds.size(), kept.size());
    if (kept.size() < 2) continue;
    const CdfGrid grid = ComputeCdfGrid(kept, q, 16);
    for (size_t i = 0; i < kept.size(); ++i) {
      double lower = 0.0, upper = 0.0;
      for (int k = 0; k < 16; ++k) {
        const double df = grid.row(i)[k + 1] - grid.row(i)[k];
        if (df <= 0.0) continue;
        double left = 1.0, right = 1.0;
        for (size_t j = 0; j < kept.size(); ++j) {
          if (j == i) continue;
          left *= 1.0 - grid.row(j)[k];
          right *= 1.0 - grid.row(j)[k + 1];
        }
        lower += df * right;
        upper += df * left;
      }
      EXPECT_EQ(bounds[i].id, kept[i]->id());
      EXPECT_NEAR(bounds[i].lower, std::clamp(lower, 0.0, 1.0), 1e-12) << trial;
      EXPECT_NEAR(bounds[i].upper, std::clamp(upper, 0.0, 1.0), 1e-12) << trial;
    }
  }
}

TEST(ThresholdTest, FinerGridTightensBounds) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {6, 0}, 5));
  objs.push_back(Gauss(1, {9, 2}, 5));
  objs.push_back(Gauss(2, {-8, 1}, 6));
  double prev_gap = 10.0;
  for (int steps : {4, 16, 64}) {
    const auto bounds = QualificationBounds(Refs(objs), {0, 0}, steps);
    double gap = 0;
    for (const auto& b : bounds) gap = std::max(gap, b.upper - b.lower);
    EXPECT_LT(gap, prev_gap + 1e-12) << "steps=" << steps;
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.05);
}

TEST(ThresholdTest, DecisionsMatchFullIntegration) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<UncertainObject> objs;
    const int n = 3 + static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < n; ++i) {
      objs.push_back(Gauss(i, {rng.Uniform(-40, 40), rng.Uniform(-40, 40)},
                           rng.Uniform(2, 15)));
    }
    const double tau = 0.15;
    ThresholdOptions options;
    options.threshold = tau;
    const auto got = ThresholdQualification(Refs(objs), {0, 0}, options);
    const auto exact = ComputeQualificationProbabilities(Refs(objs), {0, 0});
    std::vector<int> want;
    for (const auto& e : exact) {
      if (e.probability >= tau) want.push_back(e.id);
    }
    std::sort(want.begin(), want.end());
    std::vector<int> got_ids;
    for (const auto& a : got) got_ids.push_back(a.id);
    std::sort(got_ids.begin(), got_ids.end());
    // Bound-accepted answers are certified >= tau; refined ones match the
    // integrator exactly. The only legitimate divergence is an exact-value
    // sitting within the verifier tolerance of tau; rule that out by
    // checking each difference.
    for (int id : got_ids) {
      double p = 0;
      for (const auto& e : exact) {
        if (e.id == id) p = e.probability;
      }
      EXPECT_GE(p, tau - 5e-3) << "trial " << trial;
    }
    for (int id : want) {
      EXPECT_TRUE(std::find(got_ids.begin(), got_ids.end(), id) != got_ids.end())
          << "trial " << trial << " lost id " << id;
    }
  }
}

TEST(ThresholdTest, VerifierAvoidsRefinementForClearCases) {
  // One dominant object and one marginal one: a tau well below the
  // dominant probability should be decided by bounds alone.
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {5, 0}, 3));
  objs.push_back(Gauss(1, {10.5, 0}, 3));
  ThresholdOptions options;
  options.threshold = 0.05;
  ThresholdStats tstats;
  const auto got = ThresholdQualification(Refs(objs), {0, 0}, options, &tstats);
  EXPECT_EQ(tstats.candidates, 2u);
  EXPECT_GT(tstats.accepted_by_bounds + tstats.rejected_by_bounds, 0u);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].id, 0);
}

TEST(ThresholdTest, SingleCandidateShortCircuit) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {5, 0}, 2));
  const auto bounds = QualificationBounds(Refs(objs), {0, 0});
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_DOUBLE_EQ(bounds[0].lower, 1.0);
  EXPECT_DOUBLE_EQ(bounds[0].upper, 1.0);
}

TEST(ThresholdTest, HighThresholdYieldsFewAnswers) {
  Rng rng(29);
  std::vector<UncertainObject> objs;
  for (int i = 0; i < 8; ++i) {
    objs.push_back(Gauss(i, {rng.Uniform(-20, 20), rng.Uniform(-20, 20)}, 10));
  }
  ThresholdOptions low, high;
  low.threshold = 0.01;
  high.threshold = 0.5;
  const auto many = ThresholdQualification(Refs(objs), {0, 0}, low);
  const auto few = ThresholdQualification(Refs(objs), {0, 0}, high);
  EXPECT_GE(many.size(), few.size());
}

}  // namespace
}  // namespace uncertain
}  // namespace uvd
