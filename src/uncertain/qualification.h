// Qualification-probability computation for PNN queries via numerical
// integration, following [14] (Cheng, Kalashnikov, Prabhakar, TKDE'04) as
// the paper's Sec. VI-A prescribes:
//
//   P_i = Integral f_i(r) * Prod_{j != i} (1 - F_j(r)) dr
//
// over r in [dist_min(O_i, q), d_minmax], where F_j is the distance CDF of
// candidate j and d_minmax = min_j dist_max(O_j, q) is the verification
// bound of [14]: objects with dist_min > d_minmax can never be the NN.
//
// Rule: two product-midpoint sums on one grid of m cells (m =
// integration_steps, default 120, odd values rounded up to even). P_m uses
// all m cells; P_{m/2} uses the m/2 double cells between the even nodes,
// whose radii are the same doubles, so it needs no further CDF values. The
// midpoint rule's error is O(h^2), so one Richardson step
//   P = (4 P_m - P_{m/2}) / 3
// cancels its leading term. An answer is kept iff P_m > 0; where the
// extrapolation is <= 0 (far candidates with tiny probabilities) P_m is
// returned instead, and every answer is clamped to <= 1.
//
// Cost: with c candidates left after the d_minmax filter, the CDF rows take
// c calls of DistanceDistribution::CdfRow on one QueryRadii grid, and the
// survival products over j != i come from prefix and suffix products on
// both grids, so the integral is O(c * m) = O(c * 120) on top of the rows.
// Accuracy: within ~1.3e-5 of the same rule at m = 4096 on the benchmark
// data (the plain midpoint rule at m = 240 was ~3.7e-5), and
// |P_m - P_{m/2}| / 3 estimates each answer's error. The lens areas of
// geom::batch::LensAreas are within ~1e-15 * pi * r^2 of the exact ones,
// which moves an answer probability by well under 1e-12.
#ifndef UVD_UNCERTAIN_QUALIFICATION_H_
#define UVD_UNCERTAIN_QUALIFICATION_H_

#include <vector>

#include "common/stats.h"
#include "geom/point.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace uncertain {

/// One PNN answer object with its qualification probability.
struct PnnAnswer {
  int id = -1;
  double probability = 0.0;
};

/// Options for the numerical integration.
struct QualificationOptions {
  int integration_steps = 120;  ///< Grid cells over [lo, d_minmax]; odd rounds up.
};

/// Applies the d_minmax verification filter of [14]: keeps exactly the
/// candidates with dist_min(O, q) <= min_j dist_max(O_j, q). The survivors
/// are the answer objects (all have non-zero probability).
std::vector<const UncertainObject*> FilterByDMinMax(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q);

/// Distance CDFs of candidates on the shared integration grid
/// r_k = lo + (hi - lo) * k / steps, k = 0..steps, where lo = min_i
/// dist_min(O_i, q) and hi = d_minmax. Row i holds objs[i]'s CDF.
struct CdfGrid {
  int steps = 0;
  std::vector<double> cdf;  ///< objs.size() rows of steps + 1 values.

  const double* row(size_t i) const {
    return cdf.data() + i * (static_cast<size_t>(steps) + 1);
  }
};

/// Fills the grid for `objs`, which must be non-empty and already pass
/// the d_minmax filter. `steps` must be >= 1.
CdfGrid ComputeCdfGrid(const std::vector<const UncertainObject*>& objs,
                       const geom::Point& q, int steps);

/// For c rows of g factors: out[i * g + k] = prod_{j != i} factors[j * g + k],
/// from prefix and suffix products over j in O(c * g).
std::vector<double> ProductsOfOthers(const std::vector<double>& factors, size_t c,
                                     size_t g);

/// Computes qualification probabilities for the given candidate set.
/// `candidates` must contain every object with dist_min <= d_minmax for the
/// probabilities to sum to 1 (the filter is applied internally as well).
/// Answers are sorted by descending probability; all probabilities > 0.
std::vector<PnnAnswer> ComputeQualificationProbabilities(
    const std::vector<const UncertainObject*>& candidates, const geom::Point& q,
    const QualificationOptions& options = {}, Stats* stats = nullptr);

}  // namespace uncertain
}  // namespace uvd

#endif  // UVD_UNCERTAIN_QUALIFICATION_H_
