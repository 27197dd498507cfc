#include "geom/batch/kernels.h"

#include <algorithm>
#include <cmath>

// The explicit intrinsics path. This translation unit is compiled with
// -mavx2 when the UVD_ENABLE_SIMD build option is on and the toolchain
// supports it (see CMakeLists.txt); NEON is unconditionally available on
// aarch64. Both paths use only individually-rounded sub/mul/add/sqrt/cmp
// operations — no FMA — so lane results are bitwise identical to the
// scalar fallback.
#if defined(UVD_ENABLE_SIMD) && defined(__AVX2__)
#include <immintrin.h>
#define UVD_SIMD_AVX2 1
#elif defined(UVD_ENABLE_SIMD) && defined(__ARM_NEON)
#include <arm_neon.h>
#define UVD_SIMD_NEON 1
#endif

namespace uvd {
namespace geom {

const char* KernelModeName(KernelMode m) {
  switch (m) {
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kBatch:
      return "batch";
  }
  return "unknown";
}

namespace batch {

bool SimdEnabled() {
#if defined(UVD_SIMD_AVX2) || defined(UVD_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

const char* SimdIsa() {
#if defined(UVD_SIMD_AVX2)
  return "avx2";
#elif defined(UVD_SIMD_NEON)
  return "neon";
#else
  return "blocks";
#endif
}

void CircleSoA::Clear() {
  xs.clear();
  ys.clear();
  rs.clear();
}

void CircleSoA::Assign(const Circle* circles, size_t n) {
  xs.resize(n);
  ys.resize(n);
  rs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = circles[i].center.x;
    ys[i] = circles[i].center.y;
    rs[i] = circles[i].radius;
  }
}

void AnyHullCircleContains(const double* xs, const double* ys, size_t n,
                           const Point* hull, const double* hull_dist2,
                           size_t hull_size, uint8_t* keep) {
  std::fill(keep, keep + n, uint8_t{0});
#if defined(UVD_SIMD_AVX2)
  for (size_t m = 0; m < hull_size; ++m) {
    const __m256d hx = _mm256_set1_pd(hull[m].x);
    const __m256d hy = _mm256_set1_pd(hull[m].y);
    const __m256d hd2 = _mm256_set1_pd(hull_dist2[m]);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), hx);
      const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), hy);
      const __m256d d2 =
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
      const int mask = _mm256_movemask_pd(_mm256_cmp_pd(d2, hd2, _CMP_LE_OQ));
      if (mask & 1) keep[i + 0] = 1;
      if (mask & 2) keep[i + 1] = 1;
      if (mask & 4) keep[i + 2] = 1;
      if (mask & 8) keep[i + 3] = 1;
    }
    for (; i < n; ++i) {
      const double dx = xs[i] - hull[m].x;
      const double dy = ys[i] - hull[m].y;
      if (dx * dx + dy * dy <= hull_dist2[m]) keep[i] = 1;
    }
  }
#else
  // Hull-outer / candidate-inner keeps the inner loop a pure independent-
  // lane map that -O3 (or NEON below a wider sweep) vectorizes.
  for (size_t m = 0; m < hull_size; ++m) {
    const double hx = hull[m].x;
    const double hy = hull[m].y;
    const double hd2 = hull_dist2[m];
    for (size_t i = 0; i < n; ++i) {
      const double dx = xs[i] - hx;
      const double dy = ys[i] - hy;
      if (dx * dx + dy * dy <= hd2) keep[i] = 1;
    }
  }
#endif
}

namespace {

/// Scalar tail for FindContainingOutsideRegion: exactly the per-corner
/// comparison of UVEdge::InOutsideRegion.
inline bool OutsideRegionContainsBox(double cx, double cy, double r,
                                     const double* corner_x,
                                     const double* corner_y,
                                     const double* corner_dmin) {
  for (int c = 0; c < 4; ++c) {
    const double dx = corner_x[c] - cx;
    const double dy = corner_y[c] - cy;
    const double dist_max = std::sqrt(dx * dx + dy * dy) + r;
    if (!(corner_dmin[c] > dist_max)) return false;
  }
  return true;
}

}  // namespace

ptrdiff_t FindContainingOutsideRegion(const CircleSoA& candidates,
                                      const double* corner_x,
                                      const double* corner_y,
                                      const double* corner_dmin,
                                      size_t* evaluated) {
  const size_t n = candidates.size();
  const double* xs = candidates.xs.data();
  const double* ys = candidates.ys.data();
  const double* rs = candidates.rs.data();
  size_t seen = 0;
  size_t i = 0;
#if defined(UVD_SIMD_AVX2)
  for (; i + 4 <= n; i += 4) {
    seen += 4;
    const __m256d vx = _mm256_loadu_pd(xs + i);
    const __m256d vy = _mm256_loadu_pd(ys + i);
    const __m256d vr = _mm256_loadu_pd(rs + i);
    int alive = 0xf;
    for (int c = 0; c < 4 && alive != 0; ++c) {
      const __m256d dx = _mm256_sub_pd(_mm256_set1_pd(corner_x[c]), vx);
      const __m256d dy = _mm256_sub_pd(_mm256_set1_pd(corner_y[c]), vy);
      const __m256d d2 =
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
      const __m256d dist_max = _mm256_add_pd(_mm256_sqrt_pd(d2), vr);
      alive &= _mm256_movemask_pd(
          _mm256_cmp_pd(_mm256_set1_pd(corner_dmin[c]), dist_max, _CMP_GT_OQ));
    }
    if (alive != 0) {
      if (evaluated != nullptr) *evaluated = seen;
      // Lowest surviving lane = first candidate in scan order.
      for (int lane = 0; lane < 4; ++lane) {
        if (alive & (1 << lane)) return static_cast<ptrdiff_t>(i) + lane;
      }
    }
  }
#else
  for (; i + kLanes <= n; i += kLanes) {
    seen += kLanes;
    uint8_t alive[kLanes];
    // Corner-outer over a fixed-width block: each corner pass is an
    // independent-lane map (sub/mul/add/sqrt/cmp) that autovectorizes.
    for (size_t l = 0; l < kLanes; ++l) alive[l] = 1;
    for (int c = 0; c < 4; ++c) {
      const double px = corner_x[c];
      const double py = corner_y[c];
      const double dmin = corner_dmin[c];
      for (size_t l = 0; l < kLanes; ++l) {
        const double dx = px - xs[i + l];
        const double dy = py - ys[i + l];
        const double dist_max = std::sqrt(dx * dx + dy * dy) + rs[i + l];
        alive[l] = static_cast<uint8_t>(alive[l] & (dmin > dist_max ? 1 : 0));
      }
    }
    for (size_t l = 0; l < kLanes; ++l) {
      if (alive[l]) {
        if (evaluated != nullptr) *evaluated = seen;
        return static_cast<ptrdiff_t>(i + l);
      }
    }
  }
#endif
  for (; i < n; ++i) {
    ++seen;
    if (OutsideRegionContainsBox(xs[i], ys[i], rs[i], corner_x, corner_y,
                                 corner_dmin)) {
      if (evaluated != nullptr) *evaluated = seen;
      return static_cast<ptrdiff_t>(i);
    }
  }
  if (evaluated != nullptr) *evaluated = seen;
  return -1;
}

namespace {

// fdlibm's (e_asin.c) rational approximation asin(t) = t + t * P(z) / Q(z),
// z = t^2, for t in [0, 1/2]; max error 1 ulp over [-1, 1] once combined
// with the reductions in AcosOfHalfGaps.
constexpr double kAsinP0 = 1.66666666666666657415e-01;
constexpr double kAsinP1 = -3.25565818622400915405e-01;
constexpr double kAsinP2 = 2.01212532134862925881e-01;
constexpr double kAsinP3 = -4.00555345006794114027e-02;
constexpr double kAsinP4 = 7.91534994289814532176e-04;
constexpr double kAsinP5 = 3.47933107596021167570e-05;
constexpr double kAsinQ1 = -2.40339491173441421878e+00;
constexpr double kAsinQ2 = 2.02094576023350569471e+00;
constexpr double kAsinQ3 = -6.88283971605453293030e-01;
constexpr double kAsinQ4 = 7.70381505559019352791e-02;
constexpr double kHalfPi = M_PI_2;

// min/max with the operand order of _mm256_min_pd / _mm256_max_pd, so the
// scalar lanes pick exactly what the intrinsics pick.
inline double LaneMin(double a, double b) { return a < b ? a : b; }
inline double LaneMax(double a, double b) { return a > b ? a : b; }

inline double AsinKernel(double t) {
  const double z = t * t;
  const double p =
      z * (kAsinP0 +
           z * (kAsinP1 + z * (kAsinP2 + z * (kAsinP3 + z * (kAsinP4 + z * kAsinP5)))));
  const double q = 1.0 + z * (kAsinQ1 + z * (kAsinQ2 + z * (kAsinQ3 + z * kAsinQ4)));
  return t + t * (p / q);
}

// acos(x) for x = hp - hm, given the half-gaps hm = (1 - x) / 2 and
// hp = (1 + x) / 2 (both >= 0, computed by the caller without
// cancellation): pi/2 - asin(x) for |x| <= 1/2, else the half-angle form
// 2 * asin(sqrt(hm)), reflected as pi - 2 * asin(sqrt(hp)) for x < 0.
// Near x = +-1 the half-gap keeps the digits that 1 - |x| would cancel.
inline double AcosOfHalfGaps(double hp, double hm) {
  const double x = hp - hm;
  const double a = std::fabs(x);
  if (a <= 0.5) {
    const double s = AsinKernel(a);
    return kHalfPi - (x < 0.0 ? -s : s);
  }
  const double y = 2.0 * AsinKernel(std::sqrt(x > 0.0 ? hm : hp));
  return x > 0.0 ? y : M_PI - y;
}

#if defined(UVD_SIMD_AVX2)
inline __m256d AsinKernel4(__m256d t) {
  const __m256d z = _mm256_mul_pd(t, t);
  __m256d p = _mm256_set1_pd(kAsinP5);
  p = _mm256_add_pd(_mm256_set1_pd(kAsinP4), _mm256_mul_pd(z, p));
  p = _mm256_add_pd(_mm256_set1_pd(kAsinP3), _mm256_mul_pd(z, p));
  p = _mm256_add_pd(_mm256_set1_pd(kAsinP2), _mm256_mul_pd(z, p));
  p = _mm256_add_pd(_mm256_set1_pd(kAsinP1), _mm256_mul_pd(z, p));
  p = _mm256_add_pd(_mm256_set1_pd(kAsinP0), _mm256_mul_pd(z, p));
  p = _mm256_mul_pd(z, p);
  __m256d q = _mm256_set1_pd(kAsinQ4);
  q = _mm256_add_pd(_mm256_set1_pd(kAsinQ3), _mm256_mul_pd(z, q));
  q = _mm256_add_pd(_mm256_set1_pd(kAsinQ2), _mm256_mul_pd(z, q));
  q = _mm256_add_pd(_mm256_set1_pd(kAsinQ1), _mm256_mul_pd(z, q));
  q = _mm256_add_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(z, q));
  return _mm256_add_pd(t, _mm256_mul_pd(t, _mm256_div_pd(p, q)));
}

// AcosOfHalfGaps on four lanes: both reductions are evaluated and
// blended, so each lane performs exactly the scalar branch it selects.
inline __m256d AcosOfHalfGaps4(__m256d hp, __m256d hm) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d x = _mm256_sub_pd(hp, hm);
  const __m256d a = _mm256_andnot_pd(sign, x);
  const __m256d small = _mm256_cmp_pd(a, half, _CMP_LE_OQ);
  const __m256d positive = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_GT_OQ);
  const __m256d t =
      _mm256_blendv_pd(_mm256_sqrt_pd(_mm256_blendv_pd(hp, hm, positive)), a, small);
  const __m256d s = AsinKernel4(t);
  // x < 0 ? -s : s, as a sign transfer (x = -0 gives -0, which pi/2 - s
  // maps to the same pi/2 as the scalar +0).
  const __m256d small_r =
      _mm256_sub_pd(_mm256_set1_pd(kHalfPi), _mm256_xor_pd(s, _mm256_and_pd(x, sign)));
  const __m256d y = _mm256_mul_pd(_mm256_set1_pd(2.0), s);
  const __m256d large_r = _mm256_blendv_pd(_mm256_sub_pd(_mm256_set1_pd(M_PI), y), y, positive);
  return _mm256_blendv_pd(large_r, small_r, small);
}
#endif

// The per-call constants of LensAreas, shared by the intrinsics path and
// the scalar lanes so both round them identically.
struct LensConstants {
  double dist, r, rs, quarter_inv_dist, inv_r;

  LensConstants(double dist_in, double r_in)
      : dist(dist_in),
        r(r_in),
        rs(r_in * r_in),
        quarter_inv_dist(0.25 / dist_in),
        inv_r(1.0 / r_in) {}
};

// Lens of Cir(q, d) and Cir(c, r), |q - c| = dist, from the factors
//   f1 = d + r - dist, f2 = dist + d - r, f3 = dist - d + r, f4 = dist + d + r,
// which are positive on the lens branch. The half-gaps of the cosines of
// the segment half-angles at q (a1) and at c (a2) are products of them:
//   (1 - cos a1) / 2 = f1 f3 / (4 dist d),  (1 + cos a1) / 2 = f2 f4 / (4 dist d),
//   (1 - cos a2) / 2 = f1 f2 / (4 dist r),  (1 + cos a2) / 2 = f3 f4 / (4 dist r),
// and the kite area is sqrt(f1 f2 f3 f4) / 2.
inline double LensLane(const LensConstants& k, double d, double inv_d) {
  const double dist = k.dist;
  const double r = k.r;
  if (d == 0.0 || dist >= d + r) return 0.0;
  const double rmin = LaneMin(d, r);
  if (dist <= std::fabs(d - r)) return M_PI * rmin * rmin;
  const double f1 = -dist + d + r;
  const double f2 = dist + d - r;
  const double f3 = dist - d + r;
  const double f4 = dist + d + r;
  const double p13 = f1 * f3;
  const double p24 = f2 * f4;
  const double hm1 = LaneMax(p13 * k.quarter_inv_dist * inv_d, 0.0);
  const double hp1 = LaneMax(p24 * k.quarter_inv_dist * inv_d, 0.0);
  const double hm2 = LaneMax(f1 * f2 * k.quarter_inv_dist * k.inv_r, 0.0);
  const double hp2 = LaneMax(f3 * f4 * k.quarter_inv_dist * k.inv_r, 0.0);
  const double tri = 0.5 * std::sqrt(LaneMax(p13 * p24, 0.0));
  // Near tangency the terms cancel and roundoff can go fractionally negative.
  return LaneMax(d * d * AcosOfHalfGaps(hp1, hm1) + k.rs * AcosOfHalfGaps(hp2, hm2) - tri,
                 0.0);
}

}  // namespace

double LensAreaLane(double dist, double r, double d, double inv_d) {
  if (r == 0.0) return 0.0;
  return LensLane(LensConstants(dist, r), d, inv_d);
}

void LensAreas(double dist, double r, const double* d, const double* inv_d, size_t n,
               double* out) {
  if (r == 0.0) {
    std::fill(out, out + n, 0.0);
    return;
  }
  const LensConstants k(dist, r);
  size_t i = 0;
#if defined(UVD_SIMD_AVX2)
  // Every lane evaluates all three cases of LensLane and blends, with the
  // scalar precedence: zero radius / disjoint, then containment.
  const __m256d vd = _mm256_set1_pd(dist);
  const __m256d neg_d = _mm256_xor_pd(vd, _mm256_set1_pd(-0.0));
  const __m256d vr = _mm256_set1_pd(r);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d rs = _mm256_set1_pd(k.rs);
  const __m256d quarter_inv_dist = _mm256_set1_pd(k.quarter_inv_dist);
  const __m256d inv_r = _mm256_set1_pd(k.inv_r);
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(d + i);
    const __m256d inv_a = _mm256_loadu_pd(inv_d + i);
    const __m256d none = _mm256_or_pd(_mm256_cmp_pd(a, zero, _CMP_EQ_OQ),
                                      _mm256_cmp_pd(vd, _mm256_add_pd(a, vr), _CMP_GE_OQ));
    const __m256d rmin = _mm256_min_pd(a, vr);
    const __m256d contained = _mm256_cmp_pd(
        vd, _mm256_andnot_pd(_mm256_set1_pd(-0.0), _mm256_sub_pd(a, vr)), _CMP_LE_OQ);
    const __m256d disk = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(M_PI), rmin), rmin);

    const __m256d f1 = _mm256_add_pd(_mm256_add_pd(neg_d, a), vr);
    const __m256d f2 = _mm256_sub_pd(_mm256_add_pd(vd, a), vr);
    const __m256d f3 = _mm256_add_pd(_mm256_sub_pd(vd, a), vr);
    const __m256d f4 = _mm256_add_pd(_mm256_add_pd(vd, a), vr);
    const __m256d p13 = _mm256_mul_pd(f1, f3);
    const __m256d p24 = _mm256_mul_pd(f2, f4);
    auto half_gap = [&](__m256d p, __m256d inv) {
      return _mm256_max_pd(_mm256_mul_pd(_mm256_mul_pd(p, quarter_inv_dist), inv), zero);
    };
    const __m256d hm1 = half_gap(p13, inv_a);
    const __m256d hp1 = half_gap(p24, inv_a);
    const __m256d hm2 = half_gap(_mm256_mul_pd(f1, f2), inv_r);
    const __m256d hp2 = half_gap(_mm256_mul_pd(f3, f4), inv_r);
    const __m256d tri = _mm256_mul_pd(
        _mm256_set1_pd(0.5), _mm256_sqrt_pd(_mm256_max_pd(_mm256_mul_pd(p13, p24), zero)));
    const __m256d lens = _mm256_max_pd(
        _mm256_sub_pd(_mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(a, a), AcosOfHalfGaps4(hp1, hm1)),
                                    _mm256_mul_pd(rs, AcosOfHalfGaps4(hp2, hm2))),
                      tri),
        zero);
    const __m256d area =
        _mm256_blendv_pd(_mm256_blendv_pd(lens, disk, contained), zero, none);
    _mm256_storeu_pd(out + i, area);
  }
#endif
  for (; i < n; ++i) out[i] = LensLane(k, d[i], inv_d[i]);
}

void BuildConstraintPrefilter(const Circle& anchor, const Circle* others,
                              size_t n, ConstraintPrefilter* out) {
  out->min_rho.resize(n);
  out->vacuous.resize(n);
  const double ax = anchor.center.x;
  const double ay = anchor.center.y;
  const double ar = anchor.radius;
  double* min_rho = out->min_rho.data();
  uint8_t* vacuous = out->vacuous.data();
  for (size_t j = 0; j < n; ++j) {
    const double wx = others[j].center.x - ax;
    const double wy = others[j].center.y - ay;
    const double s = ar + others[j].radius;
    const double n2 = wx * wx + wy * wy;
    vacuous[j] = n2 <= s * s ? 1 : 0;
    min_rho[j] = 0.5 * (std::sqrt(n2) + s);
  }
}

}  // namespace batch
}  // namespace geom
}  // namespace uvd
