#ifndef SJSEL_CORE_GUARDED_ESTIMATOR_H_
#define SJSEL_CORE_GUARDED_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sampling.h"
#include "geom/dataset.h"
#include "geom/validate.h"
#include "util/result.h"

namespace sjsel {

class GhHistogram;
struct GhSummarySlot;

/// Grids an input keeps a GH summary for: its pairs' common grid plus one
/// more (a partner off the common extent, an explain at another level or
/// a stream's grid), so the other grid does not evict the common one.
inline constexpr size_t kGhSummaryGrids = 2;

/// One pair-count estimate.
struct EstimateOutcome {
  double estimated_pairs = 0.0;
  /// estimated_pairs / (N1 * N2); 0 when either input is empty.
  double selectivity = 0.0;
};

/// `raw_pairs` clamped into [0, n1 * n2], the range of a pair count of
/// inputs of n1 and n2 rects, with its selectivity; *clamped tells whether
/// the clamp moved it. The chain, the stream estimate and `estimate` on
/// histogram files bound their answers here.
EstimateOutcome ClampPairCount(double raw_pairs, double n1, double n2,
                               bool* clamped);

/// The rungs of the guarded fallback chain, in descending preference:
/// GH (the paper's headline estimator) → PH → sampling → the Aref–Samet
/// parametric model (Eq. 1), which needs only aggregate statistics and
/// cannot fail on finite input.
enum class EstimatorRung {
  kGh = 0,
  kPh,
  kSampling,
  kParametric,
};

/// Short stable name used in degradation reasons: "gh", "ph", "sampling",
/// "parametric".
const char* EstimatorRungName(EstimatorRung rung);

/// The machine-readable cause vocabulary of degradation_reason entries and
/// of the estimator.failed.<rung>.<cause> metric names. These strings are
/// a stable contract for downstream parsers and the explain report;
/// tests/degradation_reason_test.cc pins every one of them literally.
inline constexpr char kDegradeCauseInjected[] = "injected";
inline constexpr char kDegradeCauseException[] = "exception";
inline constexpr char kDegradeCauseNonFinite[] = "guard:non_finite";
inline constexpr char kDegradeCauseNegative[] = "guard:negative";
inline constexpr char kDegradeCauseEmptyInput[] = "empty_input";
inline constexpr char kDegradeCauseFloorZero[] = "floor:zero";
/// error causes are kDegradeCauseErrorPrefix + StatusCodeName(code),
/// e.g. "error:INVALID_ARGUMENT".
inline constexpr char kDegradeCauseErrorPrefix[] = "error:";

/// One attempted rung of the fallback chain, recorded in order for
/// introspection (the explain report renders these verbatim).
struct RungTrial {
  EstimatorRung rung = EstimatorRung::kGh;
  /// Technique label once the rung ran ("GH(level=7)"); empty for rungs
  /// skipped before they ran (injected faults). The empty-input and
  /// zero-floor pseudo-rungs use "Empty" / "Zero".
  std::string label;
  /// True when this rung's estimate was accepted as the answer.
  bool answered = false;
  /// Failure (or pseudo-rung) cause from the vocabulary above; empty for
  /// an ordinarily answered rung.
  std::string cause;
  /// The rung's raw pre-clamp estimate, when it produced a finite value
  /// (also filled for guard-tripped values, so reports can show what was
  /// rejected). Valid only when has_raw_pairs.
  double raw_pairs = 0.0;
  bool has_raw_pairs = false;
  /// Wall-clock of the attempt. Not deterministic — renderers that
  /// promise byte-identical output must omit it.
  uint64_t elapsed_us = 0;
};

/// A sanity-checked estimate plus the provenance a production caller needs:
/// which rung answered, why better rungs were skipped, and how much of the
/// input was repaired or quarantined before estimation.
struct EstimateResult {
  EstimateOutcome outcome;
  /// The rung whose estimate was accepted.
  EstimatorRung rung = EstimatorRung::kGh;
  /// Human-readable technique name of that rung, e.g. "GH(level=7)".
  std::string rung_label;
  /// True if the raw estimate was pulled back into [0, N1*N2].
  bool clamped = false;
  /// Machine-readable, ';'-joined trail of "<rung>:<cause>" entries, one
  /// per skipped rung, oldest first. Causes:
  ///   injected              an armed fault rule fired for the rung
  ///   error:<StatusCode>    the rung returned a non-OK Status
  ///   exception             the rung threw (injected worker fault, ...)
  ///   guard:non_finite      the rung produced NaN or +-Inf
  ///   guard:negative        the rung produced a negative pair count
  /// Empty when the primary (GH) rung answered.
  std::string degradation_reason;
  /// Validation tallies for the two inputs under the configured policy.
  RobustnessCounters validation_a;
  RobustnessCounters validation_b;
  /// Every rung attempt in chain order, answering one last. Joining the
  /// trials with a non-empty cause as ';'-separated "<rung>:<cause>"
  /// entries reproduces degradation_reason exactly.
  std::vector<RungTrial> trials;

  bool degraded() const { return !degradation_reason.empty(); }
};

/// Configuration of the chain. The defaults mirror the paper's headline
/// settings (GH level 7, PH level 5, 10%/10% RSWR sampling).
struct GuardedEstimatorOptions {
  int gh_level = 7;
  int ph_level = 5;
  SamplingOptions sampling;
  /// Applied to both inputs before any histogram build. kReject makes
  /// Estimate fail on the first defective rect; the lenient policies
  /// repair or drop and keep going.
  ValidationPolicy policy = ValidationPolicy::kQuarantine;
};

/// One input of pair estimates, validated by itself once (PrepareInput),
/// so that each pair it takes part in only joins two stored extents
/// instead of re-validating and re-scanning both datasets.
///
/// Under kQuarantine and kReject every well-formed rect lies inside any
/// pair's joint extent, so validating against the dataset's own rects
/// gives the answer per-pair validation would. The one exception is
/// kClampToExtent with inverted rects: their repair clips to the pair's
/// joint extent, so GuardedEstimator re-validates such an input per pair
/// from `source` (see PairDependent).
///
/// An input also carries one GH summary slot, which GhHistogramOn fills
/// and reads for the chain's GH rung, explain's GH table and the stream
/// estimate: the GH histograms of rects() on the last kGhSummaryGrids
/// grids asked for, so every later pair on one of those grids skips the
/// build.
struct PreparedInput {
  /// The dataset as given. Borrowed: it must outlive this object.
  const Dataset* source = nullptr;
  /// The validated copy, present only when validation dropped or repaired
  /// a rect; a clean input is used in place.
  std::optional<Dataset> validated;
  /// Bounding box of the well-formed (finite, not inverted) rects of
  /// `source`, which is also the bounding box of the validated rects
  /// unless PairDependent().
  Rect extent = Rect::Empty();
  /// Validation tallies of the pass against the dataset's own rects.
  RobustnessCounters counters;
  ValidationPolicy policy = ValidationPolicy::kQuarantine;
  /// The GH summary slot, created by PrepareInput. Copies of this input
  /// share it, since they have the same rects. Null on a default-constructed
  /// input, which then keeps no summary.
  std::shared_ptr<GhSummarySlot> gh_slot;

  /// The rects the estimators consume.
  const Dataset& rects() const { return validated ? *validated : *source; }

  /// True when the validated rects depend on the partner: a clamp repair
  /// of an inverted rect clips it to the pair's joint extent.
  bool PairDependent() const {
    return policy == ValidationPolicy::kClampToExtent && counters.inverted > 0;
  }

  /// The GH summaries the slot holds now, most recently used first.
  std::vector<std::shared_ptr<const GhHistogram>> GhSummaries() const;

  /// The most recently used GH summary, or null.
  std::shared_ptr<const GhHistogram> GhSummary() const;

  /// The GH histogram of rects() on the (extent, level) grid: a summary
  /// built on that grid (extent compared bitwise), else a build, stored
  /// sparse when that is smaller (GhHistogram::Compact) and kept as the
  /// most recently used summary. A build on a grid beyond the
  /// kGhSummaryGrids held evicts the least recently used one
  /// (hist.gh.summary_evictions). A failed build is never kept. An input
  /// without a slot builds and keeps nothing. The slot's lock is held
  /// across a build, so concurrent callers wait for one build.
  Result<std::shared_ptr<const GhHistogram>> GhHistogramOn(const Rect& extent,
                                                           int level) const;
};

/// Validates `dataset` by itself under `policy`, with one classification
/// pass and no copy when it is clean. Fails under kReject with the same
/// error ValidateDataset gives for the first defective rect.
Result<PreparedInput> PrepareInput(const Dataset& dataset,
                                   ValidationPolicy policy);

/// A pair of prepared inputs as the chain estimates it: the frame every
/// rung grids on and, on each side, the input whose rects() are
/// estimated. PreparePair is the one place that decides both; the chain,
/// obs::BuildEstimateExplain, the server's accuracy audit and CLI
/// `estimate --verify` all read them from here, so each describes the data
/// the estimate read.
struct PreparedPair {
  /// The inputs given to PreparePair. Borrowed: they must outlive the pair.
  const PreparedInput* input_a = nullptr;
  const PreparedInput* input_b = nullptr;
  /// Copies of both inputs re-validated against the frame, present only
  /// when either input is PairDependent(). A copy has no summary slot.
  std::optional<PreparedInput> copy_a;
  std::optional<PreparedInput> copy_b;
  /// The joint extent of both sides' rects.
  Rect frame = Rect::Empty();

  const PreparedInput& a() const { return copy_a ? *copy_a : *input_a; }
  const PreparedInput& b() const { return copy_b ? *copy_b : *input_b; }
};

/// Joins the two prepared extents into the pair's frame. When either input
/// is PairDependent(), both are validated again against that frame, under
/// their own policies, and the frame is recomputed from the copies.
Result<PreparedPair> PreparePair(const PreparedInput& a,
                                 const PreparedInput& b);

/// The one way to ask for a pair estimate: runs the rungs, each a plain
/// call into its technique's module, in chain order. Every estimate is
/// validated before use: non-finite, negative and out-of-range values trip
/// a guard, and any guard trip, error Status, injected fault or exception
/// degrades to the next rung instead of surfacing garbage. The final
/// parametric rung is computed from aggregate statistics of the validated
/// inputs and is clamped rather than failed, so Estimate only returns a
/// non-OK Status for kReject policy violations or inputs that are empty
/// after validation... and even the latter yields a well-defined zero
/// estimate, not an error (an empty side joins with nothing).
///
/// The GH rung takes each side's histogram from PreparedInput::GhHistogramOn
/// on the pair's frame at gh_level. A GH histogram is a pure function of
/// (rects, extent, level), so answers are bit-identical whether or not a
/// summary was reused. A pair with a PairDependent() input consumes
/// per-pair copies of the rects, which have no slot. The rung takes the
/// two sides' slots one at a time, never both locks at once.
class GuardedEstimator {
 public:
  explicit GuardedEstimator(GuardedEstimatorOptions options = {})
      : options_(options) {}

  /// Prepares both inputs (a first, so a kReject error names a's rect
  /// when both are defective) and estimates them.
  Result<EstimateResult> Estimate(const Dataset& a, const Dataset& b) const;

  /// PreparePair, then Estimate(pair). Both inputs must have been prepared
  /// under options().policy. Bit-identical to validating both datasets
  /// against their joint extent and running the chain on the result.
  Result<EstimateResult> Estimate(const PreparedInput& a,
                                  const PreparedInput& b) const;

  /// The estimation path: runs the chain on the pair's rects and frame.
  Result<EstimateResult> Estimate(const PreparedPair& pair) const;

  const GuardedEstimatorOptions& options() const { return options_; }

 private:
  GuardedEstimatorOptions options_;
};

}  // namespace sjsel

#endif  // SJSEL_CORE_GUARDED_ESTIMATOR_H_
