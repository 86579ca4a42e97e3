#ifndef SJSEL_PLANNER_JOIN_PLANNER_H_
#define SJSEL_PLANNER_JOIN_PLANNER_H_

// Selectivity-driven multi-way spatial join planning (docs/PLANNER.md).
//
// This is the first real *consumer* of the estimator stack: given k
// datasets, it asks the guarded fallback chain (GH → PH → sampling →
// parametric, src/core/guarded_estimator.h) for every pairwise join
// selectivity and searches join trees with dynamic programming over
// dataset subsets, minimizing the classic C_out cost — the sum of
// estimated intermediate-result cardinalities. Per-pair provenance
// (answering rung, degradation_reason) rides along into the plan, so a
// plan built on degraded estimates says so.
//
// It targets the clique multi-way spatial join — every result tuple
// intersects pairwise — costs bushy trees, and runs on the guarded chain
// so it degrades instead of failing.

#include <cstddef>
#include <string>
#include <vector>

#include "core/guarded_estimator.h"
#include "geom/dataset.h"
#include "util/json.h"
#include "util/result.h"

namespace sjsel {

struct PlannerOptions {
  /// Options handed verbatim to GuardedEstimator for every pair. The
  /// defaults match the CLI `estimate` command, so a plan's per-pair
  /// numbers are bit-for-bit the standalone estimates.
  GuardedEstimatorOptions estimator;
  /// Fan-out for pairwise estimation. Never changes any output — pair
  /// results are merged by pair index, not completion order.
  int threads = 1;
  /// Inputs up to this count get exhaustive bushy DP (optimal under the
  /// cost model); beyond it the planner switches to greedy pairing.
  int dp_limit = 12;
};

/// One pairwise estimate, with the guarded chain's provenance.
struct PairSelectivity {
  /// Indices into MultiJoinPlan::inputs, i < j.
  size_t i = 0;
  size_t j = 0;
  double estimated_pairs = 0.0;
  double selectivity = 0.0;
  EstimatorRung rung = EstimatorRung::kGh;
  std::string rung_label;
  /// Same contract as EstimateResult::degradation_reason; empty when the
  /// GH rung answered.
  std::string degradation_reason;
  bool clamped = false;
};

/// One join in bottom-up execution order.
struct PlanStep {
  std::string left;   ///< rendered subtree, e.g. "(TS * TCB)" or "CAS"
  std::string right;
  /// Estimated rows out of this join under the clique independence model.
  double output_cardinality = 0.0;
};

/// One planner input: the dataset plus the label the plan refers to it
/// by. Labels (CLI and server pass the dataset file path) must be unique
/// and non-empty — Dataset::name() is not required to be either.
struct PlannerInput {
  std::string label;
  const Dataset* dataset = nullptr;
};

struct MultiJoinPlan {
  /// Input labels in caller order (what pair indices refer to).
  std::vector<std::string> inputs;
  /// Each input's validated rect count, taken from the first pair the
  /// input is in. That is the N every pair's selectivity divides by,
  /// except under clamp with inverted rects, where a pair re-validates
  /// each side against its own frame and the count can differ by pair.
  std::vector<size_t> input_sizes;
  /// All k*(k-1)/2 pairs, ordered by (i, j).
  std::vector<PairSelectivity> pairs;
  /// The chosen tree rendered as a parenthesized expression,
  /// e.g. "((TS * TCB) * CAS)".
  std::string tree;
  /// Joins of the chosen tree, bottom-up, left subtree first.
  std::vector<PlanStep> steps;
  /// Sum of step output cardinalities (C_out).
  double cost = 0.0;
  /// "dp" (exhaustive over bushy trees) or "greedy".
  std::string algorithm;

  /// True when any pair's estimate came from below the GH rung.
  bool degraded() const;
};

/// Checks planner inputs: 2 to 24 of them, each with a dataset and a
/// unique non-empty label.
Status CheckPlanInputs(const std::vector<PlannerInput>& inputs);

/// The join-order search over pair estimates the caller already has.
/// `pair_estimates` holds the guarded estimate of inputs i * j for every
/// i < j, in (i, j) order: (0,1), (0,2), ..., (1,2), ... The first failed
/// estimate in that order fails the plan. `options.estimator` and
/// `options.threads` are not used here. The server runs this search over
/// its cached pair estimates.
Result<MultiJoinPlan> PlanFromPairEstimates(
    const std::vector<PlannerInput>& inputs,
    const std::vector<Result<EstimateResult>>& pair_estimates,
    const PlannerOptions& options = {});

/// Plans a multi-way spatial join over `inputs` (datasets borrowed; see
/// CheckPlanInputs): prepares each input once, estimates every pair with
/// the guarded chain, then runs PlanFromPairEstimates. Deterministic:
/// identical inputs and options produce an identical plan for every
/// `threads` value.
Result<MultiJoinPlan> PlanMultiJoin(const std::vector<PlannerInput>& inputs,
                                    const PlannerOptions& options = {});

/// Human-readable rendering. Per-pair numbers use the same formatting as
/// the CLI `estimate` command (pairs to 1 decimal, selectivity to 6), so
/// the two outputs can be diffed directly.
std::string RenderPlanText(const MultiJoinPlan& plan);

/// Machine-readable form (deterministic; numbers round-trip at full
/// precision). Schema in docs/PLANNER.md. The server nests it in its
/// response as is.
JsonValue PlanJson(const MultiJoinPlan& plan);

/// PlanJson, dumped.
std::string RenderPlanJson(const MultiJoinPlan& plan);

}  // namespace sjsel

#endif  // SJSEL_PLANNER_JOIN_PLANNER_H_
