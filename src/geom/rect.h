#ifndef SJSEL_GEOM_RECT_H_
#define SJSEL_GEOM_RECT_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace sjsel {

/// A point in the 2-D spatial extent.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// An axis-parallel rectangle (Minimum Bounding Rectangle). Degenerate
/// rectangles (zero width and/or height) represent point and axis-parallel
/// segment data and are fully supported.
///
/// Intersection follows the closed-interval convention used by the paper's
/// filter step: rectangles that merely touch count as intersecting.
struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  Rect() = default;
  Rect(double min_x_in, double min_y_in, double max_x_in, double max_y_in)
      : min_x(min_x_in), min_y(min_y_in), max_x(max_x_in), max_y(max_y_in) {}

  /// A rectangle that is empty for union-building: Extend() of any rect into
  /// it yields that rect.
  static Rect Empty();

  /// The MBR of a single point.
  static Rect FromPoint(const Point& p) { return Rect(p.x, p.y, p.x, p.y); }

  double width() const { return max_x - min_x; }
  double height() const { return max_y - min_y; }
  double area() const { return width() * height(); }
  /// Half-perimeter; the classic R-tree "margin" measure.
  double margin() const { return width() + height(); }
  Point center() const {
    return Point{(min_x + max_x) * 0.5, (min_y + max_y) * 0.5};
  }

  /// True if min > max on either axis (an Empty() sentinel).
  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  /// True if the closed intervals overlap on both axes.
  bool Intersects(const Rect& o) const {
    return min_x <= o.max_x && o.min_x <= max_x && min_y <= o.max_y &&
           o.min_y <= max_y;
  }

  /// True if `o` lies fully inside this rectangle (boundary counts).
  bool Contains(const Rect& o) const {
    return min_x <= o.min_x && o.max_x <= max_x && min_y <= o.min_y &&
           o.max_y <= max_y;
  }

  /// True if `p` lies inside this rectangle (boundary counts).
  bool Contains(const Point& p) const {
    return min_x <= p.x && p.x <= max_x && min_y <= p.y && p.y <= max_y;
  }

  /// The intersection rectangle; IsEmpty() if the inputs do not intersect.
  Rect Intersection(const Rect& o) const {
    return Rect(std::max(min_x, o.min_x), std::max(min_y, o.min_y),
                std::min(max_x, o.max_x), std::min(max_y, o.max_y));
  }

  /// Squared Euclidean distance from `p` to the nearest point of this
  /// rectangle; 0 when `p` is inside. The R-tree k-NN search's MINDIST.
  double DistanceSqToPoint(const Point& p) const {
    const double dx = std::max({0.0, min_x - p.x, p.x - max_x});
    const double dy = std::max({0.0, min_y - p.y, p.y - max_y});
    return dx * dx + dy * dy;
  }

  /// Grows this rectangle to cover `o` (no-op for empty `o`).
  void Extend(const Rect& o) {
    if (o.IsEmpty()) return;
    if (IsEmpty()) {
      *this = o;
      return;
    }
    min_x = std::min(min_x, o.min_x);
    min_y = std::min(min_y, o.min_y);
    max_x = std::max(max_x, o.max_x);
    max_y = std::max(max_y, o.max_y);
  }

  /// Area growth needed to cover `o`; the Guttman insertion heuristic.
  double Enlargement(const Rect& o) const {
    Rect u = *this;
    u.Extend(o);
    return u.area() - area();
  }

  std::string ToString() const;

  friend bool operator==(const Rect&, const Rect&) = default;
};

/// How two intersecting rectangles intersect, expressed in the vocabulary of
/// the paper's Figure 2. The estimator correctness argument rests on every
/// intersection contributing exactly 4 "intersection points"; these
/// categories say where those points come from.
enum class IntersectionKind {
  kDisjoint,        ///< no intersection at all
  kCornerOverlap,   ///< 2 corner points inside + 2 edge crossings (cases 1-4)
  kEdgeThrough,     ///< one rect's slab crosses the other: 4 edge crossings
                    ///< (cases 5-6)
  kPartialContain,  ///< one side poking in: 2 corners + 2 crossings
                    ///< (cases 7-10)
  kContainment,     ///< one rect fully inside the other: 4 corners
                    ///< (cases 11-12)
};

/// Classifies the geometric relation of `a` and `b` (symmetric).
IntersectionKind ClassifyIntersection(const Rect& a, const Rect& b);

/// Number of corners of `a` strictly-or-boundary inside `b` plus corners of
/// `b` inside `a`.
int CountCornerContainments(const Rect& a, const Rect& b);

/// Number of crossings between a horizontal edge of one rect and a vertical
/// edge of the other (both directions). For rectangles in general position
/// this plus CountCornerContainments() is 4 whenever they intersect.
int CountEdgeCrossings(const Rect& a, const Rect& b);

}  // namespace sjsel

#endif  // SJSEL_GEOM_RECT_H_
