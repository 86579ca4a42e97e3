#ifndef SJSEL_JOIN_JOIN_H_
#define SJSEL_JOIN_JOIN_H_

#include <cstdint>
#include <functional>

namespace sjsel {

// Every join here (nested loop, plane sweep, PBSM, R-tree join) counts the
// pairs that Rect::Intersects accepts, closed intervals included. They
// accept non-finite rects: a rect with a NaN coordinate intersects nothing
// under Rect::Intersects, and each join counts it so; a rect with an
// infinite coordinate joins as Rect::Intersects says.

/// Receives one result pair of a spatial join: the indices of the
/// intersecting rectangles in the first and second input dataset.
using PairCallback = std::function<void(int64_t, int64_t)>;

}  // namespace sjsel

#endif  // SJSEL_JOIN_JOIN_H_
