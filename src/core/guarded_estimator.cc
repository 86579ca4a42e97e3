#include "core/guarded_estimator.h"

#include <cmath>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace sjsel {
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

}  // namespace

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
  if (a.PairDependent() || b.PairDependent()) {
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
      outcome = estimator->EstimateWithin(va, vb, extent);
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
