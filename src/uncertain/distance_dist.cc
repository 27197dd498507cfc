#include "uncertain/distance_dist.h"

#include <algorithm>
#include <cmath>
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

double DistanceDistribution::Cdf(double d) const {
  double out = 0.0;
  CdfRow(&d, 1, &out);
  return out;
}

void DistanceDistribution::CdfRow(const double* radii, size_t n, double* out) const {
  const RadialHistogramPdf& pdf = obj_.pdf();
  const std::vector<double>& mass = pdf.bars();
  const int bars = pdf.num_bars();
  const double dc = center_dist_;

  // Per-bar geometry. boundary[j] is the radius between bars j - 1 and j
  // (RingInner(j) and RingOuter(j - 1) are the same double). nearest[b] is
  // the distance from q to the closest point of ring b; it falls, then
  // rises with b, so the bars with nearest < d are one contiguous range
  // that only widens as d grows. inside_mass[b] sums the masses of bars
  // 0..b-1, which lie wholly inside Cir(q, d) together.
  std::vector<double> boundary(static_cast<size_t>(bars) + 1);
  for (int j = 0; j <= bars; ++j) boundary[static_cast<size_t>(j)] = pdf.RingInner(j);
  std::vector<double> nearest(static_cast<size_t>(bars));
  std::vector<double> ring_area(static_cast<size_t>(bars));
  std::vector<double> weight(static_cast<size_t>(bars));  // mass per unit area
  std::vector<double> inside_mass(static_cast<size_t>(bars) + 1, 0.0);
  int valley = 0;
  for (int b = 0; b < bars; ++b) {
    const size_t ub = static_cast<size_t>(b);
    const double r_in = boundary[ub];
    const double r_out = boundary[ub + 1];
    nearest[ub] = std::max(0.0, std::max(dc - r_out, r_in - dc));
    if (nearest[ub] < nearest[static_cast<size_t>(valley)]) valley = b;
    ring_area[ub] = M_PI * (r_out * r_out - r_in * r_in);
    weight[ub] = ring_area[ub] > 0.0 ? mass[ub] / ring_area[ub] : 0.0;
    inside_mass[ub + 1] = inside_mass[ub] + mass[ub];
  }

  // Pass 1: classify each radius and queue the ring-boundary lens areas of
  // its straddling range [first, last) — last - first + 1 areas.
  struct Span {
    size_t k;
    int inside;
    int first;
    int last;
    size_t offset;
  };
  std::vector<Span> spans;
  spans.reserve(n);
  std::vector<double> lens_d;
  std::vector<double> lens_r;
  lens_d.reserve(n * (static_cast<size_t>(bars) + 1));
  lens_r.reserve(n * (static_cast<size_t>(bars) + 1));
  int inside = 0;
  int lo = valley;
  int hi = valley;  // [lo, hi): bars with nearest < d
  for (size_t k = 0; k < n; ++k) {
    const double d = radii[k];
    UVD_DCHECK(k == 0 || radii[k - 1] <= d);
    if (d <= lower_) {
      out[k] = d == upper_ ? 1.0 : 0.0;  // point object: step
      continue;
    }
    if (d >= upper_) {
      out[k] = 1.0;
      continue;
    }
    if (obj_.radius() <= 0.0) {
      out[k] = d >= dc ? 1.0 : 0.0;
      continue;
    }
    while (inside < bars && dc + boundary[static_cast<size_t>(inside) + 1] <= d) {
      ++inside;
    }
    if (lo == hi && nearest[static_cast<size_t>(valley)] < d) hi = valley + 1;
    if (lo < hi) {
      while (hi < bars && nearest[static_cast<size_t>(hi)] < d) ++hi;
      while (lo > 0 && nearest[static_cast<size_t>(lo) - 1] < d) --lo;
    }
    const int first = std::max(inside, lo);
    const int last = std::max(hi, first);
    spans.push_back({k, inside, first, last, lens_d.size()});
    if (first == last) continue;
    for (int j = first; j <= last; ++j) {
      lens_d.push_back(d);
      lens_r.push_back(boundary[static_cast<size_t>(j)]);
    }
  }

  std::vector<double> lens(lens_d.size());
  geom::batch::LensAreas(dc, lens_d.data(), lens_r.data(), lens.size(), lens.data());

  // Pass 2: inside prefix plus each straddling bar's share of its ring,
  // accumulated in bar order.
  for (const Span& s : spans) {
    double acc = inside_mass[static_cast<size_t>(s.inside)];
    const double* edge = lens.data() + s.offset;
    for (int b = s.first; b < s.last; ++b) {
      const size_t ub = static_cast<size_t>(b);
      if (mass[ub] == 0.0) continue;
      if (ring_area[ub] <= 0.0) {
        // Degenerate ring (zero width): treat as circle boundary mass.
        if (dc <= radii[s.k]) acc += mass[ub];
        continue;
      }
      const size_t e = ub - static_cast<size_t>(s.first);
      acc += weight[ub] * (edge[e + 1] - edge[e]);
    }
    out[s.k] = std::clamp(acc, 0.0, 1.0);
  }
}

}  // namespace uncertain
}  // namespace uvd
