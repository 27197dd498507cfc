// Distance distribution of an uncertain object from a fixed query point:
// the CDF F(d) = P(dist(q, X) <= d) obtained by intersecting the disk
// Cir(q, d) with the pdf's histogram rings. This is the kernel of the
// numerical-integration probability computation of [14] that the paper
// uses for PNN answers (Sec. VI-A).
#ifndef UVD_UNCERTAIN_DISTANCE_DIST_H_
#define UVD_UNCERTAIN_DISTANCE_DIST_H_

#include <cstddef>
#include <vector>

#include "geom/point.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace uncertain {

/// Query radii shared by every row of one CDF grid, with the per-radius
/// values the rows need, computed once per grid: 1 / d for the lens-area
/// kernel and pi * d * d, the lens area wherever the query disk lies inside
/// a ring boundary. Radii must be non-decreasing and >= 0.
struct QueryRadii {
  explicit QueryRadii(std::vector<double> radii);

  size_t size() const { return d.size(); }

  std::vector<double> d;
  std::vector<double> inv_d;
  std::vector<double> disk;
};

/// CDF of the Euclidean distance between a query point and an uncertain
/// object's (random) position.
class DistanceDistribution {
 public:
  DistanceDistribution(const UncertainObject& obj, geom::Point q);

  /// P(dist(q, X) <= d). Monotone, 0 below dist_min, 1 above dist_max.
  /// A one-point CdfRow: Cdf(d) and CdfRow's entry for d are bitwise equal.
  double Cdf(double d) const;

  /// out[k] = Cdf(radii.d[k]) for k < radii.size(), computed column by
  /// column. With ring boundaries R_0 = 0 < R_1 < ... < R_B and bar
  /// densities w_b = mass_b / ring area_b (w_{-1} = w_B = 0), the CDF is
  ///   F(d) = sum_{j=1..B} (w_{j-1} - w_j) * lens(d, R_j),
  /// where lens(d, R) is the area of Cir(q, d) intersected with
  /// Cir(center, R). On the sorted radii, the radii at which boundary j
  /// straddles the query circle form one contiguous run, evaluated in one
  /// geom::batch::LensAreas call; outside the run lens(d, R_j) is 0,
  /// pi * d^2 or pi * R_j^2 in closed form. Each boundary adds its terms
  /// straight into the row, so every entry sums the same terms in the
  /// same order whatever the other radii are.
  void CdfRow(const QueryRadii& radii, double* out) const;

  /// Support bounds: [dist_min(O, q), dist_max(O, q)].
  double lower() const { return lower_; }
  double upper() const { return upper_; }

 private:
  const UncertainObject& obj_;
  double center_dist_;
  double lower_;
  double upper_;
};

}  // namespace uncertain
}  // namespace uvd

#endif  // UVD_UNCERTAIN_DISTANCE_DIST_H_
