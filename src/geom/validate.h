#ifndef SJSEL_GEOM_VALIDATE_H_
#define SJSEL_GEOM_VALIDATE_H_

#include <cstdint>
#include <string>

#include "geom/dataset.h"
#include "geom/rect.h"
#include "util/result.h"

namespace sjsel {

/// What to do with defective geometry found during validation.
enum class ValidationPolicy {
  /// Fail the whole operation on the first defect (strict ingestion).
  kReject,
  /// Repair what is repairable: inverted rects get min/max swapped,
  /// out-of-extent rects are clamped into the extent. Non-finite
  /// coordinates cannot be repaired and are quarantined even here.
  kClampToExtent,
  /// Drop every defective rect and count it (serve-what-we-can default).
  kQuarantine,
};

/// "reject" / "clamp" / "quarantine".
const char* ValidationPolicyName(ValidationPolicy policy);

/// Parses a policy name as spelled by ValidationPolicyName.
Result<ValidationPolicy> ParseValidationPolicy(const std::string& name);

/// Defect classes, in severity order. A rect has the most severe defect
/// that applies (NaN anywhere trumps inversion trumps placement).
enum class RectDefect : uint8_t {
  kNone = 0,
  kNonFinite,    ///< any coordinate NaN or +-Inf
  kInverted,     ///< min > max on either axis (includes Rect::Empty())
  kOutOfExtent,  ///< finite, well-formed, but not contained in the extent
};

/// Classifies one rect. An empty `extent` (Rect::Empty()) skips the
/// containment check — structural validation only.
RectDefect ClassifyRect(const Rect& r, const Rect& extent);

/// Tallies of what a validation pass saw and did. Surfaced through
/// EstimateResult so callers of the guarded estimator can see how much of
/// the input was repaired or dropped before the estimate they are trusting.
struct RobustnessCounters {
  uint64_t checked = 0;        ///< rects examined
  uint64_t non_finite = 0;     ///< defects by class
  uint64_t inverted = 0;
  uint64_t out_of_extent = 0;
  uint64_t clamped = 0;        ///< repaired in place (kClampToExtent)
  uint64_t quarantined = 0;    ///< dropped from the output

  uint64_t Defects() const { return non_finite + inverted + out_of_extent; }
  /// Rects in the validated output.
  uint64_t Kept() const { return checked - quarantined; }
  void Merge(const RobustnessCounters& other);
  /// Machine-readable "checked=N non_finite=N inverted=N out_of_extent=N
  /// clamped=N quarantined=N".
  std::string ToString() const;
};

/// Validates `ds` against `extent` under `policy` and returns the dataset
/// the estimators should actually consume.
///
/// - A clean dataset passes through unchanged (same rects, same order), so
///   validation never perturbs results on well-formed input.
/// - kReject returns InvalidArgument naming the first defective rect's
///   index and defect class.
/// - kClampToExtent repairs inverted/out-of-extent rects (counted in
///   `clamped`) and quarantines non-finite ones.
/// - kQuarantine drops every defective rect (counted in `quarantined`).
/// - An out-of-extent rect that does not even intersect the extent cannot
///   be meaningfully clamped and is quarantined under both lenient
///   policies.
///
/// `extent` may be Rect::Empty() to skip containment checks (structural
/// validation only, e.g. at dataset load before any extent is known).
/// `counters`, when non-null, receives the tallies (always written).
Result<Dataset> ValidateDataset(const Dataset& ds, const Rect& extent,
                                ValidationPolicy policy,
                                RobustnessCounters* counters);

}  // namespace sjsel

#endif  // SJSEL_GEOM_VALIDATE_H_
