#include "core/guarded_estimator.h"

#include <bit>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "core/gh_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace sjsel {

// One input's GH summary: the histogram of its rects on the grid it was
// last built for, which is also its key. `mu` guards `hist` and is held
// across a build.
struct GhSummarySlot {
  std::mutex mu;
  std::shared_ptr<const GhHistogram> hist;
};

namespace {

// Span names must be string literals (the tracer keeps the pointer), so
// each rung gets its own.
const char* RungSpanName(EstimatorRung rung) {
  switch (rung) {
    case EstimatorRung::kGh:
      return "estimate.rung.gh";
    case EstimatorRung::kPh:
      return "estimate.rung.ph";
    case EstimatorRung::kSampling:
      return "estimate.rung.sampling";
    case EstimatorRung::kParametric:
      return "estimate.rung.parametric";
  }
  return "estimate.rung.unknown";
}

// Books one rung failure as a labeled counter, e.g.
// estimator.failed.gh.error:INTERNAL.
void CountRungFailure(EstimatorRung rung, const std::string& cause) {
  SJSEL_METRIC_INC(std::string("estimator.failed.") +
                   EstimatorRungName(rung) + "." + cause);
}

const char* RungFaultSite(EstimatorRung rung) {
  switch (rung) {
    case EstimatorRung::kGh:
      return kFaultSiteEstimatorGh;
    case EstimatorRung::kPh:
      return kFaultSiteEstimatorPh;
    case EstimatorRung::kSampling:
      return kFaultSiteEstimatorSampling;
    case EstimatorRung::kParametric:
      return kFaultSiteEstimatorParametric;
  }
  return "estimator.unknown";
}

void AppendReason(std::string* reason, EstimatorRung rung,
                  const std::string& cause) {
  if (!reason->empty()) reason->push_back(';');
  reason->append(EstimatorRungName(rung));
  reason->push_back(':');
  reason->append(cause);
}

std::unique_ptr<SelectivityEstimator> MakeRung(
    EstimatorRung rung, const GuardedEstimatorOptions& options) {
  switch (rung) {
    case EstimatorRung::kGh:
      return MakeGhEstimator(options.gh_level);
    case EstimatorRung::kPh:
      return MakePhEstimator(options.ph_level);
    case EstimatorRung::kSampling:
      return MakeSamplingEstimator(options.sampling);
    case EstimatorRung::kParametric:
      return MakeParametricEstimator();
  }
  return nullptr;
}

bool SameBits(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

// Grids match only on bitwise-equal extents, so two extents that merely
// compare equal (0.0 and -0.0) never share a summary.
bool SameGrid(const Rect& x, const Rect& y) {
  return SameBits(x.min_x, y.min_x) && SameBits(x.min_y, y.min_y) &&
         SameBits(x.max_x, y.max_x) && SameBits(x.max_y, y.max_y);
}

// A summary is kept only when it is no larger than the rects it
// summarizes: 4^level cells of four doubles each, against rects of four
// doubles each. The level check only keeps the shift defined; Build
// rejects levels above 15, and a failed build is never stored.
bool WorthKeeping(size_t rects, int level) {
  return level >= 0 && level < 32 &&
         rects >= (uint64_t{1} << (2 * level));
}

Result<std::shared_ptr<const GhHistogram>> BuildGh(const Dataset& rects,
                                                   const Rect& extent,
                                                   int level) {
  auto built = GhHistogram::Build(rects, extent, level);
  if (!built.ok()) return built.status();
  return std::make_shared<const GhHistogram>(std::move(built).value());
}

// The GH histogram of `rects` on the (extent, level) grid: the slot's
// summary when it was built on that grid, else a build, which replaces
// the summary when the input is WorthKeeping. A null `slot` (rects that
// are not the input's own) builds and keeps nothing.
Result<std::shared_ptr<const GhHistogram>> GhHistogramOf(
    GhSummarySlot* slot, const Dataset& rects, const Rect& extent,
    int level) {
  if (slot == nullptr || !WorthKeeping(rects.size(), level)) {
    return BuildGh(rects, extent, level);
  }
  std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->hist != nullptr && slot->hist->grid().level() == level &&
      SameGrid(slot->hist->grid().extent(), extent)) {
    SJSEL_METRIC_INC("hist.gh.summary_hits");
    return slot->hist;
  }
  auto built = BuildGh(rects, extent, level);
  if (built.ok()) slot->hist = *built;
  return built;
}

// The GH rung: GhEstimator's estimate, with each side's histogram from
// GhHistogramOf. The slots are taken one at a time. The chain sets the
// selectivity from the range-checked pair count.
Result<EstimateOutcome> EstimateGh(const Dataset& a, GhSummarySlot* slot_a,
                                   const Dataset& b, GhSummarySlot* slot_b,
                                   const Rect& extent, int level) {
  EstimateOutcome out;
  Timer timer;
  std::shared_ptr<const GhHistogram> ha;
  SJSEL_ASSIGN_OR_RETURN(ha, GhHistogramOf(slot_a, a, extent, level));
  std::shared_ptr<const GhHistogram> hb;
  SJSEL_ASSIGN_OR_RETURN(hb, GhHistogramOf(slot_b, b, extent, level));
  out.prepare_seconds = timer.ElapsedSeconds();

  timer.Reset();
  SJSEL_ASSIGN_OR_RETURN(out.estimated_pairs, EstimateGhJoinPairs(*ha, *hb));
  out.estimate_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace

std::shared_ptr<const GhHistogram> PreparedInput::GhSummary() const {
  if (gh_slot == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(gh_slot->mu);
  return gh_slot->hist;
}

const char* EstimatorRungName(EstimatorRung rung) {
  switch (rung) {
    case EstimatorRung::kGh:
      return "gh";
    case EstimatorRung::kPh:
      return "ph";
    case EstimatorRung::kSampling:
      return "sampling";
    case EstimatorRung::kParametric:
      return "parametric";
  }
  return "unknown";
}

Result<PreparedInput> PrepareInput(const Dataset& dataset,
                                   ValidationPolicy policy) {
  SJSEL_TRACE_SPAN("estimate.prepare", "dataset=%s rects=%zu policy=%s",
                   dataset.name().c_str(), dataset.size(),
                   ValidationPolicyName(policy));
  PreparedInput in;
  in.source = &dataset;
  in.policy = policy;
  in.gh_slot = std::make_shared<GhSummarySlot>();
  // The extent comes from finite, well-formed rects only, so a handful of
  // NaN/Inf rects cannot poison the frame the clean ones are judged in.
  bool clean = true;
  for (const Rect& r : dataset.rects()) {
    if (ClassifyRect(r, Rect::Empty()) == RectDefect::kNone) {
      in.extent.Extend(r);
    } else {
      clean = false;
    }
  }
  if (clean) {
    in.counters.checked = dataset.size();
    SJSEL_METRIC_ADD("validate.checked", dataset.size());
    return in;
  }
  Dataset validated;
  SJSEL_ASSIGN_OR_RETURN(validated, ValidateDataset(dataset, in.extent, policy,
                                                    &in.counters));
  in.validated = std::move(validated);
  return in;
}

Result<EstimateResult> GuardedEstimator::Estimate(const Dataset& a,
                                                  const Dataset& b) const {
  PreparedInput pa;
  SJSEL_ASSIGN_OR_RETURN(pa, PrepareInput(a, options_.policy));
  PreparedInput pb;
  SJSEL_ASSIGN_OR_RETURN(pb, PrepareInput(b, options_.policy));
  return Estimate(pa, pb);
}

Result<EstimateResult> GuardedEstimator::Estimate(
    const PreparedInput& a, const PreparedInput& b) const {
  if (a.policy != options_.policy || b.policy != options_.policy) {
    return Status::InvalidArgument(
        std::string("inputs prepared under another validation policy than "
                    "the estimator's '") +
        ValidationPolicyName(options_.policy) + "'");
  }
  SJSEL_TRACE_SPAN("estimate.guarded", "n_a=%zu n_b=%zu policy=%s",
                   a.source->size(), b.source->size(),
                   ValidationPolicyName(options_.policy));
  SJSEL_METRIC_INC("estimator.estimates");
  EstimateResult result;
  result.validation_a = a.counters;
  result.validation_b = b.counters;

  // The frame every rung shares: the joint extent of both inputs.
  Rect extent = a.extent;
  extent.Extend(b.extent);
  const Dataset* va_ptr = &a.rects();
  const Dataset* vb_ptr = &b.rects();
  // A clamped inverted rect is clipped to the pair's joint extent, so such
  // an input is validated again here, against this pair's frame.
  Dataset pair_a;
  Dataset pair_b;
  const bool per_pair = a.PairDependent() || b.PairDependent();
  if (per_pair) {
    SJSEL_ASSIGN_OR_RETURN(pair_a,
                           ValidateDataset(*a.source, extent, options_.policy,
                                           &result.validation_a));
    SJSEL_ASSIGN_OR_RETURN(pair_b,
                           ValidateDataset(*b.source, extent, options_.policy,
                                           &result.validation_b));
    va_ptr = &pair_a;
    vb_ptr = &pair_b;
    extent = pair_a.ComputeExtent();
    extent.Extend(pair_b.ComputeExtent());
  }
  const Dataset& va = *va_ptr;
  const Dataset& vb = *vb_ptr;
  // Per-pair copies are not the inputs' own rects, so they use no slot.
  GhSummarySlot* const slot_a = per_pair ? nullptr : a.gh_slot.get();
  GhSummarySlot* const slot_b = per_pair ? nullptr : b.gh_slot.get();

  // An input that is empty (or empty after quarantine) joins with nothing;
  // a zero estimate is the correct, finite, in-range answer.
  if (va.empty() || vb.empty()) {
    result.rung = EstimatorRung::kParametric;
    result.rung_label = "Empty";
    AppendReason(&result.degradation_reason, EstimatorRung::kParametric,
                 kDegradeCauseEmptyInput);
    RungTrial trial;
    trial.rung = EstimatorRung::kParametric;
    trial.label = result.rung_label;
    trial.answered = true;
    trial.cause = kDegradeCauseEmptyInput;
    trial.raw_pairs = 0.0;
    trial.has_raw_pairs = true;
    result.trials.push_back(std::move(trial));
    return result;
  }

  // Every rung's estimate must land in [0, N1*N2] — there are at most
  // N1*N2 joined pairs, whatever the data looks like.
  const double n1 = static_cast<double>(va.size());
  const double n2 = static_cast<double>(vb.size());
  const double bound = n1 * n2;

  constexpr EstimatorRung kChain[] = {
      EstimatorRung::kGh, EstimatorRung::kPh, EstimatorRung::kSampling,
      EstimatorRung::kParametric};
  for (const EstimatorRung rung : kChain) {
    SJSEL_TRACE_SPAN(RungSpanName(rung));
    SJSEL_METRIC_INC(std::string("estimator.attempts.") +
                     EstimatorRungName(rung));
    RungTrial trial;
    trial.rung = rung;
    const Timer rung_timer;
    // Books a failed attempt: degradation trail, metrics and the recorded
    // trial all see the same cause string.
    const auto fail = [&](const std::string& cause) {
      AppendReason(&result.degradation_reason, rung, cause);
      CountRungFailure(rung, cause);
      trial.cause = cause;
      trial.elapsed_us = static_cast<uint64_t>(rung_timer.ElapsedMicros());
      result.trials.push_back(std::move(trial));
    };
    if (FaultInjector::GloballyArmed() &&
        FaultInjector::Global().ShouldFail(RungFaultSite(rung))) {
      fail(kDegradeCauseInjected);
      continue;
    }
    const std::unique_ptr<SelectivityEstimator> estimator =
        MakeRung(rung, options_);
    trial.label = estimator->Name();
    Result<EstimateOutcome> outcome = Status::Internal("rung not run");
    try {
      // The GH rung computes GhEstimator's estimate through the inputs'
      // summary slots; its estimator object only names the trial.
      outcome = rung == EstimatorRung::kGh
                    ? EstimateGh(va, slot_a, vb, slot_b, extent,
                                 options_.gh_level)
                    : estimator->EstimateWithin(va, vb, extent);
    } catch (const std::exception&) {
      // Injected worker faults surface here as FaultInjectedError rethrown
      // by ParallelFor; treat any rung exception as that rung failing.
      fail(kDegradeCauseException);
      continue;
    }
    if (!outcome.ok()) {
      fail(std::string(kDegradeCauseErrorPrefix) +
           StatusCodeName(outcome.status().code()));
      continue;
    }
    const double pairs = outcome->estimated_pairs;
    if (std::isfinite(pairs)) {
      trial.raw_pairs = pairs;
      trial.has_raw_pairs = true;
    }
    if (!std::isfinite(pairs)) {
      fail(kDegradeCauseNonFinite);
      continue;
    }
    if (pairs < 0.0) {
      fail(kDegradeCauseNegative);
      continue;
    }
    result.outcome = std::move(outcome).value();
    if (result.outcome.estimated_pairs > bound) {
      result.outcome.estimated_pairs = bound;
      result.clamped = true;
      SJSEL_METRIC_INC("estimator.clamped");
    }
    result.outcome.selectivity = result.outcome.estimated_pairs / bound;
    result.rung = rung;
    result.rung_label = estimator->Name();
    trial.answered = true;
    trial.elapsed_us = static_cast<uint64_t>(rung_timer.ElapsedMicros());
    result.trials.push_back(std::move(trial));
    SJSEL_METRIC_INC(std::string("estimator.answered.") +
                     EstimatorRungName(rung));
    if (!result.degradation_reason.empty()) {
      SJSEL_METRIC_INC("estimator.degraded");
      SJSEL_TRACE_INSTANT("estimator.degraded");
    }
    return result;
  }

  // Even the parametric floor tripped (it can only do so on pathological
  // extents). Degrade to the one estimate that is always safe: zero.
  AppendReason(&result.degradation_reason, EstimatorRung::kParametric,
               kDegradeCauseFloorZero);
  SJSEL_METRIC_INC("estimator.degraded");
  SJSEL_TRACE_INSTANT("estimator.degraded");
  result.rung = EstimatorRung::kParametric;
  result.rung_label = "Zero";
  result.outcome = EstimateOutcome{};
  RungTrial floor_trial;
  floor_trial.rung = EstimatorRung::kParametric;
  floor_trial.label = result.rung_label;
  floor_trial.answered = true;
  floor_trial.cause = kDegradeCauseFloorZero;
  floor_trial.raw_pairs = 0.0;
  floor_trial.has_raw_pairs = true;
  result.trials.push_back(std::move(floor_trial));
  return result;
}

}  // namespace sjsel
