#include "stream/stream_estimate.h"

namespace sjsel {
namespace stream {

Result<StreamJoinEstimate> EstimateStreamJoin(const GhHistogram& stream_gh,
                                              const PreparedInput& b,
                                              const GhHistogram& b_gh) {
  const auto pairs = EstimateGhJoinPairs(stream_gh, b_gh);
  if (!pairs.ok()) return pairs.status();

  // Add/remove churn leaves rounding residuals in the stream's cells, so
  // the raw estimate can fall just below zero as well as above N1 * N2.
  StreamJoinEstimate out;
  const EstimateOutcome clamped =
      ClampPairCount(*pairs, static_cast<double>(stream_gh.dataset_size()),
                     static_cast<double>(b.rects().size()), &out.clamped);
  out.estimated_pairs = clamped.estimated_pairs;
  out.selectivity = clamped.selectivity;
  out.validation_b = b.counters;
  return out;
}

}  // namespace stream
}  // namespace sjsel
