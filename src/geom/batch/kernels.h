// SIMD batch kernels for the stage-1 hot path (ROADMAP "Raw-speed hot
// path") and for the lens areas of the PNN qualification integral
// (LensAreas below: one ring boundary against a run of query radii, the
// column-major unit of DistanceDistribution::CdfRow). Stage-1 cost concentrates in three per-candidate
// scalar tests — the C-pruning distance bound (Lemma 3), the 4-point
// corner test against outside regions (Algorithm 5), and the envelope
// insertions of Algorithm 1 — all embarrassingly lane-parallel across
// candidates. This layer
// restructures candidate sets struct-of-arrays and evaluates them in
// blocks: plain -O3-autovectorizable loops everywhere, with an explicit
// AVX2/NEON intrinsics path behind the UVD_ENABLE_SIMD build option for the
// two hottest masks.
//
// Determinism contract: every kernel performs the SAME per-lane
// floating-point operations, in the same per-lane order, as the scalar code
// it replaces (sub/mul/add/sqrt are individually correctly rounded, and no
// FMA contraction is enabled), so per-candidate DECISIONS are bitwise
// identical to the scalar path — serialized indexes and PNN/answer-id
// digests match across KernelMode and SIMD on/off, asserted by
// tests/core/kernel_mode_digest_test.cc. Only the scan-length tickers
// (kHyperbolaTests / kFourPointTests / kEnvelopeInsertions) may differ
// between modes, because block evaluation rounds early exits up to a block
// and the prefilter skips provably no-op insertions.
#ifndef UVD_GEOM_BATCH_KERNELS_H_
#define UVD_GEOM_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/circle.h"
#include "geom/point.h"

namespace uvd {
namespace geom {

/// Which implementation of the stage-1 candidate kernels runs. The scalar
/// path is the determinism oracle; the batch path must produce bitwise-
/// identical decisions (and therefore indexes and query answers).
enum class KernelMode {
  kScalar,  ///< Original per-candidate loops.
  kBatch,   ///< Struct-of-arrays block kernels (this layer). Default.
};

const char* KernelModeName(KernelMode m);

namespace batch {

/// True when the explicit intrinsics path was compiled in
/// (UVD_ENABLE_SIMD build option and a supported ISA).
bool SimdEnabled();

/// "avx2", "neon", or "blocks" (autovectorized fallback).
const char* SimdIsa();

/// Lane-block width: kernels evaluate candidates in blocks of this many
/// lanes, which is also the early-exit granularity of the mask kernels.
constexpr size_t kLanes = 8;

/// Struct-of-arrays circle set (candidate centers + radii).
struct CircleSoA {
  std::vector<double> xs, ys, rs;

  size_t size() const { return xs.size(); }
  bool empty() const { return xs.empty(); }
  void Clear();
  void Assign(const Circle* circles, size_t n);
  void Assign(const std::vector<Circle>& circles) {
    Assign(circles.data(), circles.size());
  }
};

/// C-pruning mask kernel (Lemma 3): keep[i] = 1 iff candidate center i lies
/// inside some d-bound circle Cir(hull[m], sqrt(hull_dist2[m])), i.e.
/// (xs[i]-hull[m].x)^2 + (ys[i]-hull[m].y)^2 <= hull_dist2[m] for some m.
/// With hull_size == 0 every keep[i] is 0 (degenerate region: the caller
/// decides — CrObjectFinder keeps everything). keep must hold n bytes.
void AnyHullCircleContains(const double* xs, const double* ys, size_t n,
                           const Point* hull, const double* hull_dist2,
                           size_t hull_size, uint8_t* keep);

/// Batched 4-point test (Algorithm 5): finds the first candidate k whose
/// outside region contains the whole box, i.e. for every corner c
///   corner_dmin[c] > sqrt((corner_x[c]-xs[k])^2 + (corner_y[c]-ys[k])^2) + rs[k]
/// where corner_dmin[c] = dist_min(anchor, corner c) is precomputed by the
/// caller (it does not depend on the candidate). Returns -1 when no
/// candidate contains the box. `evaluated`, if non-null, receives the
/// number of candidates actually evaluated (rounded up to whole blocks by
/// the early exit; ticker billing only — the answer never depends on it).
/// The per-lane comparison is exactly UVEdge::InOutsideRegion's
/// dist_min(O_i, p) > dist_max(O_j, p).
ptrdiff_t FindContainingOutsideRegion(const CircleSoA& candidates,
                                      const double* corner_x,
                                      const double* corner_y,
                                      const double* corner_dmin,
                                      size_t* evaluated);

/// Envelope-insertion prefilter for Algorithm 1 (UVCell batch subtraction).
/// For the constraint of O_j on the UV-cell of the anchor put
/// w = c_j - c_i, s = r_i + r_j; along any direction the UV-edge distance
/// satisfies rho_j(u) >= (|w| + s) / 2 (attained on the focal axis), so a
/// constraint whose min_rho exceeds the envelope's current maximum vertex
/// distance can never win a boundary arc and its insertion is a provable
/// no-op. vacuous[j] = 1 marks overlapping regions (X_i(j) empty).
struct ConstraintPrefilter {
  std::vector<double> min_rho;
  std::vector<uint8_t> vacuous;

  size_t size() const { return min_rho.size(); }
};

void BuildConstraintPrefilter(const Circle& anchor, const Circle* others,
                              size_t n, ConstraintPrefilter* out);

/// Conservative slack for comparing the prefilter's min_rho bound against
/// an envelope distance: both sides are computed with a handful of
/// correctly-rounded operations (relative error ~1e-15), so a 1e-9 margin
/// makes the skip decision safe while rejecting essentially nothing.
constexpr double kPrefilterSlack = 1e-9;

/// True iff the constraint with the given min_rho bound provably cannot
/// shrink an envelope whose maximum vertex distance is max_vertex_distance
/// (RadialEnvelope::Insert would return false and leave the envelope
/// bitwise unchanged).
inline bool PrefilterSkips(double min_rho, double max_vertex_distance) {
  return min_rho > max_vertex_distance * (1.0 + kPrefilterSlack);
}

/// Batched lens areas for the distance CDFs of the PNN qualification
/// integral, one ring boundary against a run of query radii: out[i] = area
/// of the intersection of the disks Cir(q, d[i]) and Cir(c, r) whose
/// centers are `dist` apart — geom::LensArea(dist, d[i], r), case for case
/// (zero radius and disjoint: 0; containment: pi * min(d[i], r)^2).
/// inv_d[i] must be 1 / d[i], precomputed once per grid of radii. The
/// segment angles come from the half-gaps (1 -+ cos a) / 2, which are
/// products of the lens factors d + r - dist, dist + d - r, dist - d + r,
/// dist + d + r times 0.25 / dist (per call) and 1 / d or 1 / r: no
/// per-lane division, and no cancellation near tangency. dist must be 0
/// or a normal double. acos is a fixed rational approximation (fdlibm's
/// asin kernel on [0, 1/2] plus the half-angle reduction; at most 1 ulp
/// from std::acos), so each area is within ~1e-15 * pi * max(d, r)^2 of
/// the exact one. The intrinsics path and the scalar fallback perform the
/// same per-lane operations, so the output is bitwise identical with
/// UVD_ENABLE_SIMD on or off. out must not alias d or inv_d.
void LensAreas(double dist, double r, const double* d, const double* inv_d, size_t n,
               double* out);

/// One lane of LensAreas (the scalar fallback), exposed so tests can pin
/// the intrinsics path against it bit for bit.
double LensAreaLane(double dist, double r, double d, double inv_d);

}  // namespace batch
}  // namespace geom
}  // namespace uvd

#endif  // UVD_GEOM_BATCH_KERNELS_H_
