#include "uncertain/distance_dist.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "geom/batch/kernels.h"

namespace uvd {
namespace uncertain {

DistanceDistribution::DistanceDistribution(const UncertainObject& obj, geom::Point q)
    : obj_(obj),
      center_dist_(geom::Distance(obj.center(), q)),
      lower_(obj.DistMin(q)),
      upper_(obj.DistMax(q)) {}

QueryRadii::QueryRadii(std::vector<double> radii)
    : d(std::move(radii)), inv_d(d.size()), disk(d.size()) {
  for (size_t k = 0; k < d.size(); ++k) {
    inv_d[k] = 1.0 / d[k];
    disk[k] = M_PI * d[k] * d[k];
  }
}

double DistanceDistribution::Cdf(double d) const {
  double out = 0.0;
  CdfRow(QueryRadii(std::vector<double>{d}), &out);
  return out;
}

void DistanceDistribution::CdfRow(const QueryRadii& radii, double* out) const {
  const double* d = radii.d.data();
  const size_t n = radii.size();
  UVD_DCHECK(std::is_sorted(d, d + n));
  // Outside the support [lower, upper] the CDF is 0 or 1 (a point object
  // is a step at lower == upper); the interior radii are [k0, k1).
  const size_t k0 = static_cast<size_t>(
      std::partition_point(d, d + n, [&](double x) { return x <= lower_; }) - d);
  const size_t k1 = static_cast<size_t>(
      std::partition_point(d + k0, d + n, [&](double x) { return x < upper_; }) - d);
  for (size_t k = 0; k < k0; ++k) out[k] = d[k] == upper_ ? 1.0 : 0.0;
  std::fill(out + k0, out + k1, 0.0);
  std::fill(out + k1, out + n, 1.0);
  if (k0 == k1) return;

  const RadialHistogramPdf& pdf = obj_.pdf();
  const std::vector<double>& mass = pdf.bars();
  const int bars = pdf.num_bars();
  const double dc = center_dist_;
  if (obj_.radius() <= 0.0) {
    for (size_t k = k0; k < k1; ++k) out[k] = d[k] >= dc ? 1.0 : 0.0;
    return;
  }

  // Bar densities: mass per unit ring area, 0 outside the object.
  auto density = [&](int b) {
    if (b >= bars) return 0.0;
    const double r_in = pdf.RingInner(b);
    const double r_out = pdf.RingOuter(b);
    const double ring_area = M_PI * (r_out * r_out - r_in * r_in);
    return ring_area > 0.0 ? mass[static_cast<size_t>(b)] / ring_area : 0.0;
  };

  const double* first = d + k0;
  const double* last = d + k1;
  std::vector<double> lens(k1 - k0);
  double w_in = density(0);  // density of the bar just inside boundary j
  // Boundary 0 has radius 0 and lens area 0, so it adds nothing.
  for (int j = 1; j <= bars; ++j) {
    const double w_out = density(j);
    const double coef = w_in - w_out;
    w_in = w_out;
    if (coef == 0.0) continue;
    const double rj = pdf.RingInner(j);
    // Below the run Cir(q, d) is disjoint from Cir(center, R_j) (R_j <= dc:
    // lens 0) or inside it (R_j > dc: pi * d^2); above the run
    // Cir(center, R_j) is inside Cir(q, d) (pi * R_j^2). These are
    // geom::batch::LensAreas's own case tests, so the run holds exactly
    // the straddling radii.
    const bool inside_below = rj > dc;
    const double* a =
        inside_below
            ? std::partition_point(first, last, [&](double x) { return dc <= rj - x; })
            : std::partition_point(first, last, [&](double x) { return dc >= x + rj; });
    const double* b = std::partition_point(
        a, last, [&](double x) { return !(x > rj && dc <= x - rj); });
    const size_t ka = static_cast<size_t>(a - d);
    const size_t kb = static_cast<size_t>(b - d);
    if (inside_below) {
      for (size_t k = k0; k < ka; ++k) out[k] += coef * radii.disk[k];
    }
    geom::batch::LensAreas(dc, rj, a, radii.inv_d.data() + ka, kb - ka, lens.data());
    for (size_t k = ka; k < kb; ++k) out[k] += coef * lens[k - ka];
    const double disk_r = M_PI * rj * rj;
    for (size_t k = kb; k < k1; ++k) out[k] += coef * disk_r;
  }
  for (size_t k = k0; k < k1; ++k) out[k] = std::clamp(out[k], 0.0, 1.0);
}

}  // namespace uncertain
}  // namespace uvd
