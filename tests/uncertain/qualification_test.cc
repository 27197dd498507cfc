// Tests for PNN qualification probabilities: conservation, the d_minmax
// verifier of [14], agreement with Monte Carlo, and edge cases.
#include "uncertain/qualification.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/random.h"
#include "geom/circle_ops.h"
#include "uncertain/monte_carlo.h"

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

double TotalProbability(const std::vector<PnnAnswer>& answers) {
  return std::accumulate(answers.begin(), answers.end(), 0.0,
                         [](double acc, const PnnAnswer& a) { return acc + a.probability; });
}

TEST(FilterTest, DMinMaxRemovesDominatedObjects) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {10, 0}, 2));    // dist_max = 12
  objs.push_back(Gauss(1, {11, 0}, 2));    // dist_min = 9 <= 12: stays
  objs.push_back(Gauss(2, {100, 0}, 2));   // dist_min = 98 > 12: pruned
  const auto kept = FilterByDMinMax(Refs(objs), {0, 0});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0]->id(), 0);
  EXPECT_EQ(kept[1]->id(), 1);
}

TEST(FilterTest, BoundaryObjectKept) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {10, 0}, 0));   // point at distance 10
  objs.push_back(Gauss(1, {10, 0.0}, 0));
  const auto kept = FilterByDMinMax(Refs(objs), {0, 0});
  EXPECT_EQ(kept.size(), 2u);  // exact tie: both can be the NN
}

TEST(QualificationTest, SingleObjectHasProbabilityOne) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(5, {3, 3}, 2));
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, 5);
  EXPECT_DOUBLE_EQ(answers[0].probability, 1.0);
}

TEST(QualificationTest, ProbabilitiesSumToOne) {
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<UncertainObject> objs;
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < n; ++i) {
      objs.push_back(Gauss(i, {rng.Uniform(-30, 30), rng.Uniform(-30, 30)},
                           rng.Uniform(0.5, 10)));
    }
    const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
    EXPECT_NEAR(TotalProbability(answers), 1.0, 5e-3) << "trial " << trial;
  }
}

TEST(QualificationTest, SymmetricPairSplitsEvenly) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {-10, 0}, 3));
  objs.push_back(Gauss(1, {10, 0}, 3));
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_NEAR(answers[0].probability, 0.5, 1e-3);
  EXPECT_NEAR(answers[1].probability, 0.5, 1e-3);
}

TEST(QualificationTest, CloserObjectWinsMore) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {5, 0}, 3));  // distances in [2, 8]
  objs.push_back(Gauss(1, {9, 0}, 3));  // distances in [6, 12]: overlaps
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0].id, 0);
  EXPECT_GT(answers[0].probability, 0.8);
  EXPECT_GT(answers[1].probability, 0.0);
}

TEST(QualificationTest, DominatedObjectExcluded) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {5, 0}, 1));    // dist_max = 6
  objs.push_back(Gauss(1, {50, 0}, 1));   // dist_min = 49: no chance
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, 0);
  EXPECT_DOUBLE_EQ(answers[0].probability, 1.0);
}

TEST(QualificationTest, MatchesMonteCarlo) {
  Rng rng(2024);
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {6, 2}, 4));
  objs.push_back(Gauss(1, {9, -3}, 5));
  objs.push_back(Gauss(2, {-8, 1}, 6));
  objs.push_back(Gauss(3, {12, 10}, 4));
  const geom::Point q{0, 0};
  const auto numeric = ComputeQualificationProbabilities(Refs(objs), q);
  const auto mc = MonteCarloQualification(Refs(objs), q, 400000, &rng);
  ASSERT_GE(numeric.size(), 2u);
  for (const PnnAnswer& a : numeric) {
    double mc_p = 0.0;
    for (const PnnAnswer& m : mc) {
      if (m.id == a.id) mc_p = m.probability;
    }
    EXPECT_NEAR(a.probability, mc_p, 0.01) << "object " << a.id;
  }
}

TEST(QualificationTest, PointObjectsClassicNearestWins) {
  // All radii zero: the nearest point gets probability 1.
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {3, 0}, 0));
  objs.push_back(Gauss(1, {5, 0}, 0));
  objs.push_back(Gauss(2, {-4, 0}, 0));
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, 0);
  EXPECT_DOUBLE_EQ(answers[0].probability, 1.0);
}

TEST(QualificationTest, EmptyCandidates) {
  const auto answers = ComputeQualificationProbabilities({}, {0, 0});
  EXPECT_TRUE(answers.empty());
}

TEST(QualificationTest, AnswersSortedByProbability) {
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {7, 0}, 3));
  objs.push_back(Gauss(1, {9, 0}, 3));
  objs.push_back(Gauss(2, {11, 0}, 3));
  const auto answers = ComputeQualificationProbabilities(Refs(objs), {0, 0});
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_GE(answers[i - 1].probability, answers[i].probability);
  }
}

TEST(QualificationTest, StatsTicker) {
  Stats stats;
  std::vector<UncertainObject> objs;
  objs.push_back(Gauss(0, {3, 0}, 1));
  objs.push_back(Gauss(1, {4, 0}, 1));
  ComputeQualificationProbabilities(Refs(objs), {0, 0}, {}, &stats);
  EXPECT_EQ(stats.Get(Ticker::kQualificationIntegrations), 1u);
}

// The O(c^2 * m) midpoint integral this library shipped before the row
// CDF, the batched lens areas and the prefix/suffix products: per-point
// CDFs from two std::acos lens areas per straddling bar, and the survival
// product re-multiplied over j != i for every candidate and grid cell.
// It is the oracle for the fine sum P_m of the two-level rule.
double ReferenceCdf(const UncertainObject& obj, const geom::Point& q, double d) {
  const double lower = obj.DistMin(q);
  const double upper = obj.DistMax(q);
  const double center_dist = geom::Distance(obj.center(), q);
  if (d <= lower) return d == upper ? 1.0 : 0.0;
  if (d >= upper) return 1.0;
  if (obj.radius() <= 0.0) return d >= center_dist ? 1.0 : 0.0;
  const RadialHistogramPdf& pdf = obj.pdf();
  double acc = 0.0;
  for (int b = 0; b < pdf.num_bars(); ++b) {
    const double mass = pdf.bars()[static_cast<size_t>(b)];
    if (mass == 0.0) continue;
    const double r_in = pdf.RingInner(b);
    const double r_out = pdf.RingOuter(b);
    if (center_dist + r_out <= d) {
      acc += mass;
      continue;
    }
    if (std::max(0.0, std::max(center_dist - r_out, r_in - center_dist)) >= d) continue;
    const double ring_area = M_PI * (r_out * r_out - r_in * r_in);
    acc += mass * (geom::AnnulusCircleIntersectionArea(q, d, obj.center(), r_in, r_out) /
                   ring_area);
  }
  return std::clamp(acc, 0.0, 1.0);
}

std::vector<PnnAnswer> ReferenceMidpoint(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q,
    int m) {
  std::vector<PnnAnswer> answers;
  const std::vector<const UncertainObject*> objs = FilterByDMinMax(candidates, q);
  if (objs.empty()) return answers;
  if (objs.size() == 1) return {{objs[0]->id(), 1.0}};
  double lo = std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  for (const UncertainObject* o : objs) {
    lo = std::min(lo, o->DistMin(q));
    hi = std::min(hi, o->DistMax(q));
  }
  const size_t c = objs.size();
  std::vector<std::vector<double>> cdf(c, std::vector<double>(m + 1));
  for (size_t i = 0; i < c; ++i) {
    for (int k = 0; k <= m; ++k) {
      cdf[i][static_cast<size_t>(k)] =
          ReferenceCdf(*objs[i], q, lo + (hi - lo) * static_cast<double>(k) / m);
    }
  }
  for (size_t i = 0; i < c; ++i) {
    double p = 0.0;
    for (size_t k = 0; k < static_cast<size_t>(m); ++k) {
      const double df = cdf[i][k + 1] - cdf[i][k];
      if (df <= 0.0) continue;
      double survive = 1.0;
      for (size_t j = 0; j < c; ++j) {
        if (j != i) survive *= 1.0 - 0.5 * (cdf[j][k] + cdf[j][k + 1]);
      }
      p += df * survive;
    }
    if (p > 0.0) answers.push_back({objs[i]->id(), p});
  }
  return answers;
}

double ProbabilityOf(const std::vector<PnnAnswer>& answers, int id) {
  for (const PnnAnswer& a : answers) {
    if (a.id == id) return a.probability;
  }
  return 0.0;
}

// The two-level rule on the reference midpoint sums: (4 P_m - P_{m/2}) / 3,
// P_m where that is <= 0, at most 1, for the candidates with P_m > 0.
std::vector<PnnAnswer> ReferenceQualification(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q,
    int m) {
  const std::vector<PnnAnswer> coarse = ReferenceMidpoint(candidates, q, m / 2);
  std::vector<PnnAnswer> answers = ReferenceMidpoint(candidates, q, m);
  if (answers.size() == 1 && answers[0].probability == 1.0) return answers;
  for (PnnAnswer& a : answers) {
    const double p = (4.0 * a.probability - ProbabilityOf(coarse, a.id)) / 3.0;
    a.probability = std::min(p > 0.0 ? p : a.probability, 1.0);
  }
  return answers;
}

// Every answer of `got` within `tol` of `want`, and the same answer set.
void ExpectSameAnswers(const std::vector<PnnAnswer>& got,
                       const std::vector<PnnAnswer>& want, double tol,
                       const std::string& label) {
  EXPECT_EQ(got.size(), want.size()) << label;
  for (const PnnAnswer& a : want) {
    EXPECT_NEAR(ProbabilityOf(got, a.id), a.probability, tol)
        << label << " object " << a.id;
  }
}

// A tight cluster: 17 candidates whose distance ranges all overlap the
// query's d_minmax (the clustered-PNN shape of the benchmark).
std::vector<UncertainObject> Cluster17() {
  std::vector<UncertainObject> objs;
  Rng rng(17);
  while (objs.size() < 17) {
    const double angle = rng.Uniform(0.0, 2.0 * M_PI);
    const double dist = rng.Uniform(18.0, 30.0);
    objs.push_back(Gauss(static_cast<int>(objs.size()),
                         {dist * std::cos(angle), dist * std::sin(angle)}, 20.0));
  }
  return objs;
}

TEST(QualificationTest, MatchesReferenceIntegral) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<UncertainObject> objs;
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 10));
    for (int i = 0; i < n; ++i) {
      objs.push_back(Gauss(i, {rng.Uniform(-40, 40), rng.Uniform(-40, 40)},
                           rng.Uniform(0.5, 20)));
    }
    const geom::Point q{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    ExpectSameAnswers(ComputeQualificationProbabilities(Refs(objs), q),
                      ReferenceQualification(Refs(objs), q, 120), 1e-12,
                      "trial " + std::to_string(trial));
  }
  const auto cluster = Cluster17();
  ASSERT_EQ(FilterByDMinMax(Refs(cluster), {0, 0}).size(), 17u);
  ExpectSameAnswers(ComputeQualificationProbabilities(Refs(cluster), {0, 0}),
                    ReferenceQualification(Refs(cluster), {0, 0}, 120), 1e-12,
                    "cluster");
}

TEST(QualificationTest, WithinMidpointErrorOfFineGrid) {
  // The two-level rule at m = 120 against m = 4096: the error the
  // benchmark reports as pnn_prob_err_max (~1e-5; the plain midpoint rule
  // at m = 240 was ~3e-5).
  QualificationOptions fine;
  fine.integration_steps = 4096;
  const auto cluster = Cluster17();
  ExpectSameAnswers(ComputeQualificationProbabilities(Refs(cluster), {0, 0}),
                    ComputeQualificationProbabilities(Refs(cluster), {0, 0}, fine),
                    2e-5, "cluster");
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<UncertainObject> objs;
    for (int i = 0; i < 6; ++i) {
      objs.push_back(Gauss(i, {rng.Uniform(-30, 30), rng.Uniform(-30, 30)},
                           rng.Uniform(5, 20)));
    }
    ExpectSameAnswers(ComputeQualificationProbabilities(Refs(objs), {0, 0}),
                      ComputeQualificationProbabilities(Refs(objs), {0, 0}, fine),
                      2e-5, "trial " + std::to_string(trial));
  }
}

// The answers are exactly the d_minmax survivors, each with 0 < p <= 1.
void ExpectAnswersAreFilterSurvivors(const std::vector<const UncertainObject*>& objs,
                                     const geom::Point& q,
                                     const QualificationOptions& options,
                                     const std::string& label) {
  const auto answers = ComputeQualificationProbabilities(objs, q, options);
  std::vector<int> got, want;
  for (const PnnAnswer& a : answers) {
    got.push_back(a.id);
    EXPECT_GT(a.probability, 0.0) << label << " object " << a.id;
    EXPECT_LE(a.probability, 1.0) << label << " object " << a.id;
  }
  for (const UncertainObject* o : FilterByDMinMax(objs, q)) want.push_back(o->id());
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << label;
}

// Three candidates whose distance ranges end together at d_minmax = 15,
// plus one far candidate whose range starts inside the last of the 120
// fine cells. Near d_minmax each survival factor 1 - F_j falls like
// (15 - r)^1.5, so the coarse cell's midpoint sees ~2.8x more survival per
// near candidate; with three of them P_{m/2} > 4 P_m and the extrapolated
// value of the far candidate is negative. With one near candidate it stays
// positive and tiny.
std::vector<UncertainObject> FarCandidateCase(int near_candidates) {
  std::vector<UncertainObject> objs;
  for (int i = 0; i < near_candidates; ++i) {
    const double angle = 2.0 * M_PI * i / 3.0;
    objs.push_back(Gauss(i, {10.0 * std::cos(angle), 10.0 * std::sin(angle)}, 5.0));
  }
  objs.push_back(Gauss(9, {-19.99, 0.5}, 5.0));
  return objs;
}

TEST(QualificationTest, AnswersAreTheFilterSurvivors) {
  const QualificationOptions defaults;
  Rng rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<UncertainObject> objs;
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < n; ++i) {
      objs.push_back(Gauss(i, {rng.Uniform(-40, 40), rng.Uniform(-40, 40)},
                           rng.Uniform(0.5, 20)));
    }
    const geom::Point q{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    ExpectAnswersAreFilterSurvivors(Refs(objs), q, defaults,
                                    "trial " + std::to_string(trial));
  }
  ExpectAnswersAreFilterSurvivors(Refs(Cluster17()), {0, 0}, defaults, "cluster");
  for (int near : {1, 3}) {
    const auto objs = FarCandidateCase(near);
    ExpectAnswersAreFilterSurvivors(Refs(objs), {0, 0}, defaults,
                                    "far candidate, near " + std::to_string(near));
  }
  QualificationOptions odd;
  for (int steps : {1, 3, 121}) {
    odd.integration_steps = steps;
    ExpectAnswersAreFilterSurvivors(Refs(Cluster17()), {0, 0}, odd,
                                    "steps " + std::to_string(steps));
  }
}

TEST(QualificationTest, FarCandidateKeepsFineSumWhereExtrapolationIsNotPositive) {
  for (int near : {1, 3}) {
    const auto objs = FarCandidateCase(near);
    const auto refs = Refs(objs);
    const geom::Point q{0, 0};
    const double p_fine = ProbabilityOf(ReferenceMidpoint(refs, q, 120), 9);
    const double p_coarse = ProbabilityOf(ReferenceMidpoint(refs, q, 60), 9);
    const double p = ProbabilityOf(ComputeQualificationProbabilities(refs, q), 9);
    ASSERT_GT(p_fine, 0.0);
    ASSERT_LT(p_fine, 1e-6) << "the far candidate's probability is tiny";
    if (near == 3) {
      // The case the fallback exists for: the extrapolation goes negative.
      ASSERT_LE(4.0 * p_fine - p_coarse, 0.0);
      EXPECT_NEAR(p, p_fine, 1e-9 * p_fine);
    } else {
      ASSERT_GT(4.0 * p_fine - p_coarse, 0.0);
      EXPECT_NEAR(p, (4.0 * p_fine - p_coarse) / 3.0, 1e-9 * p_fine);
    }
    ExpectSameAnswers(ComputeQualificationProbabilities(refs, q),
                      ReferenceQualification(refs, q, 120), 1e-12,
                      "far candidate, near " + std::to_string(near));
  }
}

TEST(QualificationTest, OddStepsRoundUpToEven) {
  const auto cluster = Cluster17();
  for (int steps : {1, 3, 121}) {
    QualificationOptions odd, even;
    odd.integration_steps = steps;
    even.integration_steps = std::max(2, steps + 1);
    const auto a = ComputeQualificationProbabilities(Refs(cluster), {0, 0}, odd);
    const auto b = ComputeQualificationProbabilities(Refs(cluster), {0, 0}, even);
    ASSERT_EQ(a.size(), b.size()) << "steps " << steps;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].probability, b[i].probability) << "steps " << steps;
    }
    ExpectSameAnswers(a, ReferenceQualification(Refs(cluster), {0, 0}, even.integration_steps),
                      1e-12, "steps " + std::to_string(steps));
  }
}

TEST(QualificationTest, ProductsOfOthersMatchesDirectProducts) {
  Rng rng(5);
  for (size_t c : {1u, 2u, 3u, 7u}) {
    const size_t g = 5;
    std::vector<double> factors(c * g);
    for (double& f : factors) f = rng.Uniform(0.0, 1.0) < 0.2 ? 0.0 : rng.Uniform(0.0, 1.0);
    const std::vector<double> out = ProductsOfOthers(factors, c, g);
    ASSERT_EQ(out.size(), c * g);
    for (size_t i = 0; i < c; ++i) {
      for (size_t k = 0; k < g; ++k) {
        double direct = 1.0;
        for (size_t j = 0; j < c; ++j) {
          if (j != i) direct *= factors[j * g + k];
        }
        EXPECT_NEAR(out[i * g + k], direct, 1e-15) << "c=" << c << " i=" << i;
      }
    }
  }
}

TEST(MonteCarloTest, SamplePositionsInsideRegion) {
  Rng rng(5);
  const auto obj = Gauss(0, {10, 10}, 7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LE(geom::Distance(SamplePosition(obj, &rng), obj.center()),
              7.0 + 1e-9);
  }
}

}  // namespace
}  // namespace uncertain
}  // namespace uvd
