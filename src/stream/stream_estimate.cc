#include "stream/stream_estimate.h"

#include <algorithm>

namespace sjsel {
namespace stream {

Result<StreamJoinEstimate> EstimateStreamJoin(const GhHistogram& stream_gh,
                                              const PreparedInput& b) {
  const Dataset& rects = b.rects();
  const auto bh = GhHistogram::Build(rects, stream_gh.grid().extent(),
                                     stream_gh.grid().level());
  if (!bh.ok()) return bh.status();
  const auto pairs = EstimateGhJoinPairs(stream_gh, *bh);
  if (!pairs.ok()) return pairs.status();

  // Add/remove churn leaves rounding residuals in the stream's cells, so
  // the raw estimate can fall just below zero as well as above N1 * N2.
  const double bound = static_cast<double>(stream_gh.dataset_size()) *
                       static_cast<double>(rects.size());
  StreamJoinEstimate out;
  out.estimated_pairs = std::clamp(*pairs, 0.0, bound);
  out.clamped = out.estimated_pairs != *pairs;
  out.selectivity = bound > 0.0 ? out.estimated_pairs / bound : 0.0;
  out.validation_b = b.counters;
  return out;
}

}  // namespace stream
}  // namespace sjsel
