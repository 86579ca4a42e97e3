// Pins the guarded estimator's machine-readable degradation vocabulary:
// every cause constant literally, every rung name, the end-to-end
// "<rung>:<cause>" reasons produced by each failure path, and the
// invariant that the recorded RungTrials reproduce degradation_reason
// exactly. Downstream parsers (CI greps, the explain report, metric names
// like estimator.failed.gh.injected) depend on these exact strings — a
// change here is a breaking contract change, not a refactor.

#include <gtest/gtest.h>

#include <string>

#include "core/guarded_estimator.h"
#include "datagen/generators.h"
#include "util/fault_injection.h"

namespace sjsel {
namespace {

Dataset MakeData(const std::string& name, size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  return gen::UniformRects(name, n, Rect(0, 0, 1, 1), size, seed);
}

// Joining the trials that carry a cause as "<rung>:<cause>" must rebuild
// degradation_reason byte for byte — the explain report renders trials,
// scripted consumers parse the reason, and the two must never diverge.
std::string ReasonFromTrials(const EstimateResult& result) {
  std::string reason;
  for (const RungTrial& trial : result.trials) {
    if (trial.cause.empty()) continue;
    if (!reason.empty()) reason.push_back(';');
    reason += EstimatorRungName(trial.rung);
    reason.push_back(':');
    reason += trial.cause;
  }
  return reason;
}

TEST(DegradationVocabularyTest, CauseConstantsArePinnedLiterally) {
  EXPECT_STREQ(kDegradeCauseInjected, "injected");
  EXPECT_STREQ(kDegradeCauseException, "exception");
  EXPECT_STREQ(kDegradeCauseNonFinite, "guard:non_finite");
  EXPECT_STREQ(kDegradeCauseNegative, "guard:negative");
  EXPECT_STREQ(kDegradeCauseEmptyInput, "empty_input");
  EXPECT_STREQ(kDegradeCauseFloorZero, "floor:zero");
  EXPECT_STREQ(kDegradeCauseErrorPrefix, "error:");
}

TEST(DegradationVocabularyTest, RungNamesArePinnedLiterally) {
  EXPECT_STREQ(EstimatorRungName(EstimatorRung::kGh), "gh");
  EXPECT_STREQ(EstimatorRungName(EstimatorRung::kPh), "ph");
  EXPECT_STREQ(EstimatorRungName(EstimatorRung::kSampling), "sampling");
  EXPECT_STREQ(EstimatorRungName(EstimatorRung::kParametric), "parametric");
}

class DegradationReasonTest : public ::testing::Test {
 protected:
  DegradationReasonTest()
      : a_(MakeData("deg_a", 900, 11)), b_(MakeData("deg_b", 900, 12)) {}

  EstimateResult Run(const GuardedEstimatorOptions& options = {}) {
    const auto result = GuardedEstimator(options).Estimate(a_, b_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value();
  }

  Dataset a_;
  Dataset b_;
};

TEST_F(DegradationReasonTest, CleanRunHasNoReasonAndOneAnsweredTrial) {
  const EstimateResult result = Run();
  EXPECT_EQ(result.degradation_reason, "");
  ASSERT_EQ(result.trials.size(), 1u);
  EXPECT_TRUE(result.trials[0].answered);
  EXPECT_EQ(result.trials[0].cause, "");
  EXPECT_EQ(result.trials[0].rung, EstimatorRung::kGh);
  EXPECT_TRUE(result.trials[0].has_raw_pairs);
  EXPECT_EQ(ReasonFromTrials(result), "");
}

TEST_F(DegradationReasonTest, InjectedGh) {
  ScopedFaultInjection arm("estimator.gh=always");
  ASSERT_TRUE(arm.status().ok());
  const EstimateResult result = Run();
  EXPECT_EQ(result.degradation_reason, "gh:injected");
  EXPECT_EQ(ReasonFromTrials(result), result.degradation_reason);
  // The injected rung is skipped before it runs: no label.
  ASSERT_EQ(result.trials.size(), 2u);
  EXPECT_EQ(result.trials[0].label, "");
  EXPECT_FALSE(result.trials[0].answered);
  EXPECT_TRUE(result.trials[1].answered);
}

TEST_F(DegradationReasonTest, InjectedGhAndPh) {
  ScopedFaultInjection arm("estimator.gh=always,estimator.ph=always");
  ASSERT_TRUE(arm.status().ok());
  const EstimateResult result = Run();
  EXPECT_EQ(result.degradation_reason, "gh:injected;ph:injected");
  EXPECT_EQ(result.rung, EstimatorRung::kSampling);
  EXPECT_EQ(ReasonFromTrials(result), result.degradation_reason);
}

TEST_F(DegradationReasonTest, InjectedThroughSampling) {
  ScopedFaultInjection arm(
      "estimator.gh=always,estimator.ph=always,estimator.sampling=always");
  ASSERT_TRUE(arm.status().ok());
  const EstimateResult result = Run();
  EXPECT_EQ(result.degradation_reason,
            "gh:injected;ph:injected;sampling:injected");
  EXPECT_EQ(result.rung, EstimatorRung::kParametric);
  EXPECT_EQ(ReasonFromTrials(result), result.degradation_reason);
}

TEST_F(DegradationReasonTest, WorkerExceptionInSamplingRung) {
  GuardedEstimatorOptions options;
  options.sampling.threads = 2;
  ScopedFaultInjection arm(
      "estimator.gh=always,estimator.ph=always,pool.task=always");
  ASSERT_TRUE(arm.status().ok());
  const EstimateResult result = Run(options);
  EXPECT_EQ(result.degradation_reason,
            "gh:injected;ph:injected;sampling:exception");
  EXPECT_EQ(ReasonFromTrials(result), result.degradation_reason);
  // The exception arrived while the rung ran: the trial keeps the label.
  ASSERT_EQ(result.trials.size(), 4u);
  EXPECT_NE(result.trials[2].label, "");
  EXPECT_EQ(result.trials[2].cause, kDegradeCauseException);
}

TEST_F(DegradationReasonTest, RungStatusErrorUsesErrorPrefixAndCodeName) {
  // A sampling fraction outside (0, 1] makes the sampling rung return
  // InvalidArgument; the chain must book it as error:<StatusCodeName>.
  GuardedEstimatorOptions options;
  options.sampling.frac_a = 2.0;
  ScopedFaultInjection arm("estimator.gh=always,estimator.ph=always");
  ASSERT_TRUE(arm.status().ok());
  const EstimateResult result = Run(options);
  EXPECT_EQ(result.degradation_reason,
            "gh:injected;ph:injected;sampling:error:InvalidArgument");
  EXPECT_EQ(result.rung, EstimatorRung::kParametric);
  EXPECT_EQ(ReasonFromTrials(result), result.degradation_reason);
}

TEST_F(DegradationReasonTest, AllRungsInjectedFallToZeroFloor) {
  ScopedFaultInjection arm(
      "estimator.gh=always,estimator.ph=always,estimator.sampling=always,"
      "estimator.parametric=always");
  ASSERT_TRUE(arm.status().ok());
  const EstimateResult result = Run();
  EXPECT_EQ(result.degradation_reason,
            "gh:injected;ph:injected;sampling:injected;parametric:injected;"
            "parametric:floor:zero");
  EXPECT_EQ(result.rung, EstimatorRung::kParametric);
  EXPECT_EQ(result.rung_label, "Zero");
  EXPECT_EQ(result.outcome.estimated_pairs, 0.0);
  EXPECT_EQ(ReasonFromTrials(result), result.degradation_reason);
  // The floor pseudo-rung is an answered trial that still carries a cause.
  const RungTrial& floor = result.trials.back();
  EXPECT_TRUE(floor.answered);
  EXPECT_EQ(floor.cause, kDegradeCauseFloorZero);
  EXPECT_EQ(floor.label, "Zero");
}

TEST(DegradationReasonEmptyTest, EmptyInputIsItsOwnPseudoRung) {
  const Dataset empty("empty", {});
  const Dataset some = MakeData("deg_c", 50, 13);
  const auto result = GuardedEstimator().Estimate(empty, some);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->degradation_reason, "parametric:empty_input");
  EXPECT_EQ(result->rung, EstimatorRung::kParametric);
  EXPECT_EQ(result->rung_label, "Empty");
  EXPECT_EQ(result->outcome.estimated_pairs, 0.0);
  ASSERT_EQ(result->trials.size(), 1u);
  EXPECT_TRUE(result->trials[0].answered);
  EXPECT_EQ(result->trials[0].cause, kDegradeCauseEmptyInput);
  EXPECT_EQ(result->trials[0].label, "Empty");
  EXPECT_EQ(ReasonFromTrials(*result), result->degradation_reason);
}

}  // namespace
}  // namespace sjsel
