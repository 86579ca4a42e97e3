#ifndef SJSEL_CORE_GUARDED_ESTIMATOR_H_
#define SJSEL_CORE_GUARDED_ESTIMATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/sampling.h"
#include "geom/dataset.h"
#include "geom/validate.h"
#include "util/result.h"

namespace sjsel {

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
  /// Technique label once the rung was constructed ("GH(level=7)"); empty
  /// for rungs skipped before construction (injected faults). The
  /// empty-input and zero-floor pseudo-rungs use "Empty" / "Zero".
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

  /// The rects the estimators consume.
  const Dataset& rects() const { return validated ? *validated : *source; }

  /// True when the validated rects depend on the partner: a clamp repair
  /// of an inverted rect clips it to the pair's joint extent.
  bool PairDependent() const {
    return policy == ValidationPolicy::kClampToExtent && counters.inverted > 0;
  }
};

/// Validates `dataset` by itself under `policy`, with one classification
/// pass and no copy when it is clean. Fails under kReject with the same
/// error ValidateDataset gives for the first defective rect.
Result<PreparedInput> PrepareInput(const Dataset& dataset,
                                   ValidationPolicy policy);

/// Guardrailed facade over the whole estimator family. Every estimate is
/// validated before use: non-finite, negative and out-of-range values trip
/// a guard, and any guard trip, error Status, injected fault or exception
/// degrades to the next rung instead of surfacing garbage. The final
/// parametric rung is computed from aggregate statistics of the validated
/// inputs and is clamped rather than failed, so Estimate only returns a
/// non-OK Status for kReject policy violations or inputs that are empty
/// after validation... and even the latter yields a well-defined zero
/// estimate, not an error (an empty side joins with nothing).
class GuardedEstimator {
 public:
  explicit GuardedEstimator(GuardedEstimatorOptions options = {})
      : options_(options) {}

  /// Prepares both inputs (a first, so a kReject error names a's rect
  /// when both are defective) and estimates them.
  Result<EstimateResult> Estimate(const Dataset& a, const Dataset& b) const;

  /// The estimation path: both inputs must have been prepared under
  /// options().policy. Bit-identical to validating both datasets against
  /// their joint extent and running the chain on the result.
  Result<EstimateResult> Estimate(const PreparedInput& a,
                                  const PreparedInput& b) const;

  const GuardedEstimatorOptions& options() const { return options_; }

 private:
  GuardedEstimatorOptions options_;
};

}  // namespace sjsel

#endif  // SJSEL_CORE_GUARDED_ESTIMATOR_H_
