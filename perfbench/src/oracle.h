// Output oracle: PNN answer ids by brute force over the whole current
// population, and qualification probabilities against a high-resolution
// reference integration.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <vector>

#include "geom/point.h"
#include "uncertain/qualification.h"
#include "uncertain/uncertain_object.h"

namespace perfbench {

/// Integration steps of the probability reference.
constexpr int kReferenceSteps = 4096;

/// Largest accepted |p_served - p_reference| at the default 240 steps; the
/// measured error is about 3e-5, so this catches a broken integral, not
/// the discretisation.
constexpr double kProbabilityErrorGate = 1e-3;

/// Sorted ids of every object with dist_min(O, q) <= min_j dist_max(O_j, q),
/// scanning all of `objects` (no index).
std::vector<int> BruteForceAnswerIds(const std::vector<uvd::uncertain::UncertainObject>& objects,
                                     const uvd::geom::Point& q);

/// Sorted ids of a PNN answer list.
std::vector<int> AnswerIdsOf(const std::vector<uvd::uncertain::PnnAnswer>& answers);

/// Largest |p_served - p_reference| over the union of both answer sets,
/// with the reference computed at kReferenceSteps over the brute-force
/// candidates.
double MaxProbabilityError(const std::vector<uvd::uncertain::PnnAnswer>& served,
                           const std::vector<uvd::uncertain::UncertainObject>& objects,
                           const uvd::geom::Point& q);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
