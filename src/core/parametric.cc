#include "core/parametric.h"

namespace sjsel {

double ParametricJoinPairs(const DatasetStats& s1, const DatasetStats& s2) {
  const double n1 = static_cast<double>(s1.n);
  const double n2 = static_cast<double>(s2.n);
  if (s1.extent_area <= 0.0) return 0.0;
  return n1 * s2.coverage + s1.coverage * n2 +
         n1 * n2 *
             (s1.avg_width * s2.avg_height + s2.avg_width * s1.avg_height) /
             s1.extent_area;
}

}  // namespace sjsel
