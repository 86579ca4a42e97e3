#ifndef SJSEL_CORE_ESTIMATOR_H_
#define SJSEL_CORE_ESTIMATOR_H_

#include <memory>
#include <string>

#include "core/sampling.h"
#include "geom/dataset.h"
#include "util/result.h"

namespace sjsel {

/// One selectivity estimate with its cost breakdown.
struct EstimateOutcome {
  double estimated_pairs = 0.0;
  double selectivity = 0.0;
  /// Building auxiliary structures (histograms / samples / sample trees).
  double prepare_seconds = 0.0;
  /// Evaluating the estimate from the prepared structures.
  double estimate_seconds = 0.0;
};

/// Uniform facade over every estimation technique in the library, used by
/// the benches and the examples. Implementations are one-shot and
/// stateless across calls.
class SelectivityEstimator {
 public:
  virtual ~SelectivityEstimator() = default;

  /// Human-readable technique name, e.g. "GH(level=7)" or "RSWR(10%/10%)".
  virtual std::string Name() const = 0;

  /// Estimates the join selectivity of `a` with `b` (intersection
  /// predicate on MBRs).
  virtual Result<EstimateOutcome> Estimate(const Dataset& a,
                                           const Dataset& b) = 0;

  /// The same estimate for a caller that already knows `extent`, the
  /// bounding box of both inputs (what Estimate computes with two extent
  /// passes). Techniques that need no extent ignore it.
  virtual Result<EstimateOutcome> EstimateWithin(const Dataset& a,
                                                 const Dataset& b,
                                                 const Rect& extent) {
    (void)extent;
    return Estimate(a, b);
  }
};

/// Geometric Histogram estimator at the given gridding level.
std::unique_ptr<SelectivityEstimator> MakeGhEstimator(int level);

/// Parametric Histogram estimator at the given gridding level.
std::unique_ptr<SelectivityEstimator> MakePhEstimator(int level);

/// The prior parametric model [2] (equivalent to PH at level 0).
std::unique_ptr<SelectivityEstimator> MakeParametricEstimator();

/// Sampling estimator with the given method and fractions.
std::unique_ptr<SelectivityEstimator> MakeSamplingEstimator(
    const SamplingOptions& options);

/// MinSkew-histogram estimator with the given bucket budget (extension).
std::unique_ptr<SelectivityEstimator> MakeMinSkewEstimator(int num_buckets);

/// Picks a GH gridding level for a dataset of `n` objects with average
/// extents (avg_w, avg_h) over `extent`, subject to an optional histogram
/// space budget in bytes (0 = unlimited).
///
/// Heuristic distilled from the Figure 7 sweeps: since GH error only
/// improves with level, choose the finest level whose cells still hold
/// enough objects for the within-cell uniformity assumption (~4 per
/// occupied cell) and do not drop far below the object size (finer cells
/// stop helping once objects span many cells), then clamp to the budget.
int RecommendGhLevel(size_t n, const Rect& extent, double avg_w, double avg_h,
                     uint64_t space_budget_bytes = 0);

}  // namespace sjsel

#endif  // SJSEL_CORE_ESTIMATOR_H_
