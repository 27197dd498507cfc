// Circle/annulus intersection areas. These feed the distance CDFs used by
// the qualification-probability integration (paper Section VI-A: radial
// histogram pdfs over circular uncertainty regions).
#ifndef UVD_GEOM_CIRCLE_OPS_H_
#define UVD_GEOM_CIRCLE_OPS_H_

#include "geom/circle.h"
#include "geom/point.h"

namespace uvd {
namespace geom {

/// Area of the intersection (lens) of two disks with radii r1, r2 whose
/// centers are d apart. Handles containment and disjoint cases exactly;
/// the segment angles come from factored half-gaps (1 -+ cos a) / 2, so
/// the area keeps its digits near tangency. The test oracle of
/// geom::batch::LensAreas.
double LensArea(double d, double r1, double r2);

/// Area of the intersection of two disks.
double CircleIntersectionArea(const Circle& a, const Circle& b);

/// Area of the intersection of the disk Cir(q, d) with the annulus
/// {p : r_in <= |p - c| <= r_out}. Requires 0 <= r_in <= r_out.
double AnnulusCircleIntersectionArea(const Point& q, double d, const Point& c,
                                     double r_in, double r_out);

}  // namespace geom
}  // namespace uvd

#endif  // UVD_GEOM_CIRCLE_OPS_H_
