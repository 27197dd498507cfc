#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace perfbench {

using uvd::uncertain::PnnAnswer;
using uvd::uncertain::UncertainObject;

std::vector<int> BruteForceAnswerIds(const std::vector<UncertainObject>& objects,
                                     const uvd::geom::Point& q) {
  double d_minmax = std::numeric_limits<double>::infinity();
  for (const UncertainObject& o : objects) d_minmax = std::min(d_minmax, o.DistMax(q));
  std::vector<int> ids;
  for (const UncertainObject& o : objects) {
    if (o.DistMin(q) <= d_minmax) ids.push_back(o.id());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int> AnswerIdsOf(const std::vector<PnnAnswer>& answers) {
  std::vector<int> ids;
  ids.reserve(answers.size());
  for (const PnnAnswer& a : answers) ids.push_back(a.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

double MaxProbabilityError(const std::vector<PnnAnswer>& served,
                           const std::vector<UncertainObject>& objects,
                           const uvd::geom::Point& q) {
  std::vector<const UncertainObject*> candidates;
  for (int id : BruteForceAnswerIds(objects, q)) {
    candidates.push_back(&objects[static_cast<size_t>(id)]);
  }
  uvd::uncertain::QualificationOptions reference;
  reference.integration_steps = kReferenceSteps;
  std::map<int, double> diff;
  for (const PnnAnswer& a :
       uvd::uncertain::ComputeQualificationProbabilities(candidates, q, reference)) {
    diff[a.id] += a.probability;
  }
  for (const PnnAnswer& a : served) diff[a.id] -= a.probability;
  double worst = 0.0;
  for (const auto& [id, d] : diff) worst = std::max(worst, std::fabs(d));
  return worst;
}

}  // namespace perfbench
