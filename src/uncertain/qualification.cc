#include "uncertain/qualification.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "uncertain/distance_dist.h"

namespace uvd {
namespace uncertain {

std::vector<const UncertainObject*> FilterByDMinMax(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q) {
  double d_minmax = std::numeric_limits<double>::infinity();
  for (const UncertainObject* o : candidates) {
    d_minmax = std::min(d_minmax, o->DistMax(q));
  }
  std::vector<const UncertainObject*> out;
  out.reserve(candidates.size());
  for (const UncertainObject* o : candidates) {
    if (o->DistMin(q) <= d_minmax) out.push_back(o);
  }
  return out;
}

CdfGrid ComputeCdfGrid(const std::vector<const UncertainObject*>& objs,
                       const geom::Point& q, int steps) {
  UVD_DCHECK(!objs.empty());
  UVD_DCHECK_GE(steps, 1);
  // Integration domain: from the smallest possible NN distance to d_minmax
  // (beyond which some candidate is certainly closer).
  double lo = std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  for (const UncertainObject* o : objs) {
    lo = std::min(lo, o->DistMin(q));
    hi = std::min(hi, o->DistMax(q));
  }
  UVD_DCHECK_LE(lo, hi);
  const size_t width = static_cast<size_t>(steps) + 1;
  std::vector<double> radii(width);
  for (size_t k = 0; k < width; ++k) {
    radii[k] = lo + (hi - lo) * static_cast<double>(k) / steps;
  }
  const QueryRadii grid_radii(std::move(radii));
  CdfGrid grid;
  grid.steps = steps;
  grid.cdf.resize(objs.size() * width);
  for (size_t i = 0; i < objs.size(); ++i) {
    DistanceDistribution(*objs[i], q).CdfRow(grid_radii, grid.cdf.data() + i * width);
  }
  return grid;
}

std::vector<double> ProductsOfOthers(const std::vector<double>& factors, size_t c,
                                     size_t g) {
  UVD_DCHECK_EQ(factors.size(), c * g);
  std::vector<double> out(c * g, 1.0);
  if (c == 0) return out;
  // Suffix products first: out[i] = prod_{j > i} factors[j] ...
  for (size_t i = c - 1; i-- > 0;) {
    const double* next = factors.data() + (i + 1) * g;
    const double* after = out.data() + (i + 1) * g;
    double* row = out.data() + i * g;
    for (size_t k = 0; k < g; ++k) row[k] = after[k] * next[k];
  }
  // ... then times the running prefix prod_{j < i} factors[j].
  std::vector<double> prefix(g, 1.0);
  for (size_t i = 0; i < c; ++i) {
    const double* f = factors.data() + i * g;
    double* row = out.data() + i * g;
    for (size_t k = 0; k < g; ++k) {
      row[k] *= prefix[k];
      prefix[k] *= f[k];
    }
  }
  return out;
}

std::vector<PnnAnswer> ComputeQualificationProbabilities(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q,
    const QualificationOptions& options, Stats* stats) {
  std::vector<PnnAnswer> answers;
  const std::vector<const UncertainObject*> objs = FilterByDMinMax(candidates, q);
  if (objs.empty()) return answers;
  if (stats != nullptr) stats->Add(Ticker::kQualificationIntegrations);
  if (objs.size() == 1) {
    answers.push_back({objs[0]->id(), 1.0});
    return answers;
  }

  // m fine cells; the coarse rule uses the m / 2 double cells between the
  // even nodes of the same grid, so it needs no further CDF values.
  const int m = std::max(2, options.integration_steps + options.integration_steps % 2);
  const size_t fine = static_cast<size_t>(m);
  const size_t coarse = fine / 2;
  const size_t c = objs.size();
  const CdfGrid grid = ComputeCdfGrid(objs, q, m);

  // Midpoint survival of each candidate per cell: 1 - F_j(midpoint).
  std::vector<double> survive_fine(c * fine);
  std::vector<double> survive_coarse(c * coarse);
  for (size_t j = 0; j < c; ++j) {
    const double* f = grid.row(j);
    for (size_t k = 0; k < fine; ++k) {
      survive_fine[j * fine + k] = 1.0 - 0.5 * (f[k] + f[k + 1]);
    }
    for (size_t k = 0; k < coarse; ++k) {
      survive_coarse[j * coarse + k] = 1.0 - 0.5 * (f[2 * k] + f[2 * k + 2]);
    }
  }
  const std::vector<double> others_fine = ProductsOfOthers(survive_fine, c, fine);
  const std::vector<double> others_coarse = ProductsOfOthers(survive_coarse, c, coarse);

  // P = sum over cells of dF_i * prod_{j != i} (1 - F_j(midpoint)), on
  // both grids; the midpoint rule's error is O(h^2), so (4 P_m - P_{m/2}) / 3
  // cancels its leading term.
  answers.reserve(c);
  for (size_t i = 0; i < c; ++i) {
    const double* f = grid.row(i);
    const double* s = others_fine.data() + i * fine;
    double p_fine = 0.0;
    for (size_t k = 0; k < fine; ++k) {
      const double df = f[k + 1] - f[k];
      if (df > 0.0) p_fine += df * s[k];
    }
    if (!(p_fine > 0.0)) continue;
    const double* s2 = others_coarse.data() + i * coarse;
    double p_coarse = 0.0;
    for (size_t k = 0; k < coarse; ++k) {
      const double df = f[2 * k + 2] - f[2 * k];
      if (df > 0.0) p_coarse += df * s2[k];
    }
    // Far candidates with tiny probabilities can extrapolate to <= 0:
    // keep the fine sum there.
    const double p = (4.0 * p_fine - p_coarse) / 3.0;
    answers.push_back({objs[i]->id(), std::min(p > 0.0 ? p : p_fine, 1.0)});
  }

  std::sort(answers.begin(), answers.end(), [](const PnnAnswer& a, const PnnAnswer& b) {
    return a.probability > b.probability || (a.probability == b.probability && a.id < b.id);
  });
  return answers;
}

}  // namespace uncertain
}  // namespace uvd
