#ifndef SJSEL_STREAM_STREAM_ESTIMATE_H_
#define SJSEL_STREAM_STREAM_ESTIMATE_H_

#include "core/gh_histogram.h"
#include "core/guarded_estimator.h"
#include "geom/validate.h"
#include "util/result.h"

namespace sjsel {
namespace stream {

/// A stream-join estimate with the provenance `estimate` reports.
struct StreamJoinEstimate {
  double estimated_pairs = 0.0;
  /// estimated_pairs / (N1 * N2); 0 when either side is empty.
  double selectivity = 0.0;
  /// True if the raw GH estimate was pulled back into [0, N1 * N2].
  bool clamped = false;
  /// Validation tallies of `b` (its PreparedInput's counters).
  RobustnessCounters validation_b;
};

/// Estimates the join of a stream state with dataset `b`. `stream_gh` is
/// the stream's GH histogram: a snapshot's, or MaterializeState()'s. It is
/// combined with `b_gh`, b's histogram on the stream's grid, which every
/// state of the stream shares: b.GhHistogramOn(stream_gh.grid().extent(),
/// stream_gh.grid().level()), so b's summary slot keeps it for the next
/// call. The answer is clamped into [0, N1 * N2], where N1 is the stream's
/// rect count and N2 the count of b's validated rects. Under kReject a
/// defective `b` fails earlier, in PrepareInput, with the error `estimate`
/// gives. The server's `stream_estimate` op, its audit and `sjsel ingest
/// --estimate` all answer through this function.
Result<StreamJoinEstimate> EstimateStreamJoin(const GhHistogram& stream_gh,
                                              const PreparedInput& b,
                                              const GhHistogram& b_gh);

}  // namespace stream
}  // namespace sjsel

#endif  // SJSEL_STREAM_STREAM_ESTIMATE_H_
