#include "core/guarded_estimator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "core/gh_histogram.h"
#include "core/parametric.h"
#include "core/ph_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/dataset_stats.h"
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

// Each rung's stable name, trace span and fault site, in chain order.
// Span names must be string literals (the tracer keeps the pointer).
struct RungNames {
  const char* name;
  const char* span;
  const char* fault_site;
};
constexpr RungNames kRungNames[] = {
    {"gh", "estimate.rung.gh", kFaultSiteEstimatorGh},
    {"ph", "estimate.rung.ph", kFaultSiteEstimatorPh},
    {"sampling", "estimate.rung.sampling", kFaultSiteEstimatorSampling},
    {"parametric", "estimate.rung.parametric",
     kFaultSiteEstimatorParametric},
};

const RungNames& NamesOf(EstimatorRung rung) {
  return kRungNames[static_cast<int>(rung)];
}

// Books one rung failure as a labeled counter, e.g.
// estimator.failed.gh.error:INTERNAL.
void CountRungFailure(EstimatorRung rung, const std::string& cause) {
  SJSEL_METRIC_INC(std::string("estimator.failed.") +
                   EstimatorRungName(rung) + "." + cause);
}

void AppendReason(std::string* reason, EstimatorRung rung,
                  const std::string& cause) {
  if (!reason->empty()) reason->push_back(';');
  reason->append(EstimatorRungName(rung));
  reason->push_back(':');
  reason->append(cause);
}

// Answers zero pairs from a pseudo-rung below the chain ("Empty" for an
// empty input, "Zero" when even the parametric floor tripped), booked as
// the answering trial.
void AnswerZero(const char* label, const char* cause, EstimateResult* result) {
  AppendReason(&result->degradation_reason, EstimatorRung::kParametric, cause);
  result->rung = EstimatorRung::kParametric;
  result->rung_label = label;
  result->outcome = EstimateOutcome{};
  RungTrial trial;
  trial.rung = EstimatorRung::kParametric;
  trial.label = label;
  trial.answered = true;
  trial.cause = cause;
  trial.has_raw_pairs = true;
  result->trials.push_back(std::move(trial));
}

// The rung's technique label, e.g. "GH(level=7)" or "RSWR(10%/10%)".
std::string RungLabel(EstimatorRung rung,
                      const GuardedEstimatorOptions& options) {
  switch (rung) {
    case EstimatorRung::kGh:
      return "GH(level=" + std::to_string(options.gh_level) + ")";
    case EstimatorRung::kPh:
      return "PH(level=" + std::to_string(options.ph_level) + ")";
    case EstimatorRung::kSampling: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s(%.3g%%/%.3g%%)",
                    SamplingMethodName(options.sampling.method).c_str(),
                    options.sampling.frac_a * 100.0,
                    options.sampling.frac_b * 100.0);
      return buf;
    }
    case EstimatorRung::kParametric:
      return "Parametric[AS94]";
  }
  return "unknown";
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

// The rung's raw pair count on the pair's rects and frame. The GH rung
// takes each side's histogram from GhHistogramOn; the others call their
// technique's module directly.
Result<double> RungPairs(EstimatorRung rung, const PreparedPair& pair,
                         const GuardedEstimatorOptions& options) {
  const Dataset& a = pair.a().rects();
  const Dataset& b = pair.b().rects();
  switch (rung) {
    case EstimatorRung::kGh: {
      std::shared_ptr<const GhHistogram> ha;
      SJSEL_ASSIGN_OR_RETURN(
          ha, pair.a().GhHistogramOn(pair.frame, options.gh_level));
      std::shared_ptr<const GhHistogram> hb;
      SJSEL_ASSIGN_OR_RETURN(
          hb, pair.b().GhHistogramOn(pair.frame, options.gh_level));
      return EstimateGhJoinPairs(*ha, *hb);
    }
    case EstimatorRung::kPh: {
      const auto ha = PhHistogram::Build(a, pair.frame, options.ph_level);
      if (!ha.ok()) return ha.status();
      const auto hb = PhHistogram::Build(b, pair.frame, options.ph_level);
      if (!hb.ok()) return hb.status();
      return EstimatePhJoinPairs(*ha, *hb);
    }
    case EstimatorRung::kSampling: {
      SamplingEstimate est;
      SJSEL_ASSIGN_OR_RETURN(est, EstimateBySampling(a, b, options.sampling));
      return est.estimated_pairs;
    }
    case EstimatorRung::kParametric:
      return ParametricJoinPairs(DatasetStats::Compute(a, pair.frame),
                                 DatasetStats::Compute(b, pair.frame));
  }
  return Status::Internal("unknown rung");
}

// `in` validated again against `frame`, as a copy with no summary slot.
Result<PreparedInput> RevalidatedCopy(const PreparedInput& in,
                                      const Rect& frame) {
  PreparedInput copy;
  copy.source = in.source;
  copy.policy = in.policy;
  Dataset validated;
  SJSEL_ASSIGN_OR_RETURN(validated, ValidateDataset(*in.source, frame,
                                                    in.policy, &copy.counters));
  copy.extent = validated.ComputeExtent();
  copy.validated = std::move(validated);
  return copy;
}

}  // namespace

EstimateOutcome ClampPairCount(double raw_pairs, double n1, double n2,
                               bool* clamped) {
  const double bound = n1 * n2;
  EstimateOutcome out;
  out.estimated_pairs = std::clamp(raw_pairs, 0.0, bound);
  *clamped = raw_pairs < 0.0 || raw_pairs > bound;
  out.selectivity = bound > 0.0 ? out.estimated_pairs / bound : 0.0;
  return out;
}

std::shared_ptr<const GhHistogram> PreparedInput::GhSummary() const {
  if (gh_slot == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(gh_slot->mu);
  return gh_slot->hist;
}

Result<std::shared_ptr<const GhHistogram>> PreparedInput::GhHistogramOn(
    const Rect& extent, int level) const {
  if (gh_slot == nullptr || !WorthKeeping(rects().size(), level)) {
    return BuildGh(rects(), extent, level);
  }
  std::lock_guard<std::mutex> lock(gh_slot->mu);
  if (gh_slot->hist != nullptr && gh_slot->hist->grid().level() == level &&
      SameGrid(gh_slot->hist->grid().extent(), extent)) {
    SJSEL_METRIC_INC("hist.gh.summary_hits");
    return gh_slot->hist;
  }
  auto built = BuildGh(rects(), extent, level);
  if (built.ok()) gh_slot->hist = *built;
  return built;
}

const char* EstimatorRungName(EstimatorRung rung) {
  return NamesOf(rung).name;
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

Result<PreparedPair> PreparePair(const PreparedInput& a,
                                 const PreparedInput& b) {
  PreparedPair pair;
  pair.input_a = &a;
  pair.input_b = &b;
  pair.frame = a.extent;
  pair.frame.Extend(b.extent);
  if (!a.PairDependent() && !b.PairDependent()) return pair;
  // A clamped inverted rect is clipped to the pair's joint extent, so both
  // inputs are validated again here, against this pair's frame.
  SJSEL_ASSIGN_OR_RETURN(pair.copy_a, RevalidatedCopy(a, pair.frame));
  SJSEL_ASSIGN_OR_RETURN(pair.copy_b, RevalidatedCopy(b, pair.frame));
  pair.frame = pair.copy_a->extent;
  pair.frame.Extend(pair.copy_b->extent);
  return pair;
}

Result<EstimateResult> GuardedEstimator::Estimate(
    const PreparedInput& a, const PreparedInput& b) const {
  PreparedPair pair;
  SJSEL_ASSIGN_OR_RETURN(pair, PreparePair(a, b));
  return Estimate(pair);
}

Result<EstimateResult> GuardedEstimator::Estimate(
    const PreparedPair& pair) const {
  if (pair.a().policy != options_.policy ||
      pair.b().policy != options_.policy) {
    return Status::InvalidArgument(
        std::string("inputs prepared under another validation policy than "
                    "the estimator's '") +
        ValidationPolicyName(options_.policy) + "'");
  }
  const Dataset& va = pair.a().rects();
  const Dataset& vb = pair.b().rects();
  SJSEL_TRACE_SPAN("estimate.guarded", "n_a=%zu n_b=%zu policy=%s",
                   pair.a().source->size(), pair.b().source->size(),
                   ValidationPolicyName(options_.policy));
  SJSEL_METRIC_INC("estimator.estimates");
  EstimateResult result;
  result.validation_a = pair.a().counters;
  result.validation_b = pair.b().counters;

  // An input that is empty (or empty after quarantine) joins with nothing;
  // a zero estimate is the correct, finite, in-range answer.
  if (va.empty() || vb.empty()) {
    AnswerZero("Empty", kDegradeCauseEmptyInput, &result);
    return result;
  }

  // Every rung's estimate must land in [0, N1*N2] — there are at most
  // N1*N2 joined pairs, whatever the data looks like.
  const double n1 = static_cast<double>(va.size());
  const double n2 = static_cast<double>(vb.size());

  constexpr EstimatorRung kChain[] = {
      EstimatorRung::kGh, EstimatorRung::kPh, EstimatorRung::kSampling,
      EstimatorRung::kParametric};
  for (const EstimatorRung rung : kChain) {
    SJSEL_TRACE_SPAN(NamesOf(rung).span);
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
        FaultInjector::Global().ShouldFail(NamesOf(rung).fault_site)) {
      fail(kDegradeCauseInjected);
      continue;
    }
    trial.label = RungLabel(rung, options_);
    Result<double> raw = Status::Internal("rung not run");
    try {
      raw = RungPairs(rung, pair, options_);
    } catch (const std::exception&) {
      // Injected worker faults surface here as FaultInjectedError rethrown
      // by ParallelFor; treat any rung exception as that rung failing.
      fail(kDegradeCauseException);
      continue;
    }
    if (!raw.ok()) {
      fail(std::string(kDegradeCauseErrorPrefix) +
           StatusCodeName(raw.status().code()));
      continue;
    }
    const double pairs = *raw;
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
    result.outcome = ClampPairCount(pairs, n1, n2, &result.clamped);
    if (result.clamped) SJSEL_METRIC_INC("estimator.clamped");
    result.rung = rung;
    result.rung_label = trial.label;
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
  SJSEL_METRIC_INC("estimator.degraded");
  SJSEL_TRACE_INSTANT("estimator.degraded");
  AnswerZero("Zero", kDegradeCauseFloorZero, &result);
  return result;
}

}  // namespace sjsel
