// Tests of the prepared estimation path (src/core/guarded_estimator.h):
// GuardedEstimator::Estimate over inputs each validated once by
// PrepareInput must give exactly the answer of validating both datasets
// against their joint extent and running the GH rung — the per-pair path,
// written out below as the reference — under every validation policy, on
// clean inputs and on inputs with NaN, Inf and inverted rects.

#include "core/guarded_estimator.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "datagen/generators.h"
#include "geom/validate.h"

namespace sjsel {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr ValidationPolicy kPolicies[] = {ValidationPolicy::kReject,
                                          ValidationPolicy::kClampToExtent,
                                          ValidationPolicy::kQuarantine};

Dataset Uniform(const std::string& name, size_t n, const Rect& extent,
                uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.02, 0.02, 0.5};
  return gen::UniformRects(name, n, extent, size, seed);
}

Dataset Clustered(const std::string& name, size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.02, 0.02, 0.5};
  return gen::GaussianClusterRects(name, n, Rect(0, 0, 1, 1),
                                   {{0.4, 0.7}, 0.1, 0.1, 1.0}, size, seed);
}

// `ds` with `defects` inserted after its first rect, so that a defect is
// never the rect a kReject error would name by position alone.
Dataset WithDefects(const Dataset& ds, const std::vector<Rect>& defects) {
  Dataset out(ds.name() + "_defective");
  out.Add(ds[0]);
  for (const Rect& r : defects) out.Add(r);
  for (size_t i = 1; i < ds.size(); ++i) out.Add(ds[i]);
  return out;
}

// The per-pair path: both inputs validated against the joint extent of
// their well-formed rects, then the GH rung at the default level, with
// the chain's [0, N1*N2] clamp and provenance.
Result<EstimateResult> Reference(const Dataset& a, const Dataset& b,
                                 ValidationPolicy policy) {
  Rect extent = Rect::Empty();
  for (const Dataset* ds : {&a, &b}) {
    for (const Rect& r : ds->rects()) {
      if (ClassifyRect(r, Rect::Empty()) == RectDefect::kNone) extent.Extend(r);
    }
  }
  EstimateResult ref;
  Dataset va;
  SJSEL_ASSIGN_OR_RETURN(va,
                         ValidateDataset(a, extent, policy, &ref.validation_a));
  Dataset vb;
  SJSEL_ASSIGN_OR_RETURN(vb,
                         ValidateDataset(b, extent, policy, &ref.validation_b));
  SJSEL_ASSIGN_OR_RETURN(ref.outcome, MakeGhEstimator(7)->Estimate(va, vb));
  RungTrial trial;
  trial.rung = EstimatorRung::kGh;
  trial.label = "GH(level=7)";
  trial.answered = true;
  trial.raw_pairs = ref.outcome.estimated_pairs;
  trial.has_raw_pairs = true;
  ref.trials.push_back(trial);
  const double bound =
      static_cast<double>(va.size()) * static_cast<double>(vb.size());
  if (ref.outcome.estimated_pairs > bound) {
    ref.outcome.estimated_pairs = bound;
    ref.clamped = true;
  }
  ref.outcome.selectivity = ref.outcome.estimated_pairs / bound;
  ref.rung = EstimatorRung::kGh;
  ref.rung_label = trial.label;
  return ref;
}

void ExpectSameCounters(const RobustnessCounters& actual,
                        const RobustnessCounters& expected) {
  EXPECT_EQ(actual.checked, expected.checked);
  EXPECT_EQ(actual.non_finite, expected.non_finite);
  EXPECT_EQ(actual.inverted, expected.inverted);
  EXPECT_EQ(actual.out_of_extent, expected.out_of_extent);
  EXPECT_EQ(actual.clamped, expected.clamped);
  EXPECT_EQ(actual.quarantined, expected.quarantined);
}

// Every EstimateResult field except the timings, doubles bit for bit.
void ExpectSameResult(const EstimateResult& actual,
                      const EstimateResult& expected) {
  EXPECT_EQ(actual.outcome.estimated_pairs, expected.outcome.estimated_pairs);
  EXPECT_EQ(actual.outcome.selectivity, expected.outcome.selectivity);
  EXPECT_EQ(actual.rung, expected.rung);
  EXPECT_EQ(actual.rung_label, expected.rung_label);
  EXPECT_EQ(actual.clamped, expected.clamped);
  EXPECT_EQ(actual.degradation_reason, expected.degradation_reason);
  ExpectSameCounters(actual.validation_a, expected.validation_a);
  ExpectSameCounters(actual.validation_b, expected.validation_b);
  ASSERT_EQ(actual.trials.size(), expected.trials.size());
  for (size_t i = 0; i < actual.trials.size(); ++i) {
    EXPECT_EQ(actual.trials[i].rung, expected.trials[i].rung);
    EXPECT_EQ(actual.trials[i].label, expected.trials[i].label);
    EXPECT_EQ(actual.trials[i].answered, expected.trials[i].answered);
    EXPECT_EQ(actual.trials[i].cause, expected.trials[i].cause);
    EXPECT_EQ(actual.trials[i].raw_pairs, expected.trials[i].raw_pairs);
    EXPECT_EQ(actual.trials[i].has_raw_pairs,
              expected.trials[i].has_raw_pairs);
  }
}

Result<EstimateResult> EstimatePrepared(const Dataset& a, const Dataset& b,
                                        ValidationPolicy policy) {
  PreparedInput pa;
  SJSEL_ASSIGN_OR_RETURN(pa, PrepareInput(a, policy));
  PreparedInput pb;
  SJSEL_ASSIGN_OR_RETURN(pb, PrepareInput(b, policy));
  GuardedEstimatorOptions options;
  options.policy = policy;
  return GuardedEstimator(options).Estimate(pa, pb);
}

struct Pair {
  const char* label;
  Dataset a;
  Dataset b;
};

std::vector<Pair> Pairs() {
  const Dataset uniform = Uniform("u", 1500, Rect(0, 0, 1, 1), 4);
  const Dataset clustered = Clustered("c", 1500, 3);
  // An inverted rect whose normalized form (0.7..0.9) lies outside its own
  // dataset's extent (within 0..0.5) but inside the partner's: the clamp
  // repair keeps it whole only when it is judged against the pair.
  const Dataset corner = Uniform("corner", 800, Rect(0, 0, 0.5, 0.5), 5);
  std::vector<Pair> pairs;
  pairs.push_back({"clean", clustered, uniform});
  pairs.push_back({"defective_a",
                   WithDefects(clustered, {Rect(kNaN, 0.1, 0.2, 0.2),
                                           Rect(0.3, 0.3, kInf, 0.4),
                                           Rect(0.8, 0.8, 0.2, 0.2)}),
                   uniform});
  pairs.push_back({"defective_b", clustered,
                   WithDefects(uniform, {Rect(0.6, 0.1, 0.4, 0.3),
                                         Rect(0.1, kNaN, 0.2, 0.2)})});
  pairs.push_back(
      {"defective_both",
       WithDefects(clustered, {Rect(0.5, 0.5, 0.4, 0.6), Rect(0, 0, 0, kNaN)}),
       WithDefects(uniform, {Rect(kInf, 0, 1, 1), Rect(0.9, 0.2, 0.8, 0.1)})});
  pairs.push_back({"inverted_inside_partner",
                   WithDefects(corner, {Rect(0.9, 0.9, 0.7, 0.7)}), uniform});
  pairs.push_back({"inverted_outside_both",
                   WithDefects(corner, {Rect(1.5, 1.5, 0.8, 0.8)}), uniform});
  return pairs;
}

TEST(PreparedInputTest, PreparedEstimateEqualsPerPairValidation) {
  for (const Pair& pair : Pairs()) {
    for (const ValidationPolicy policy : kPolicies) {
      SCOPED_TRACE(std::string(pair.label) + " " +
                   ValidationPolicyName(policy));
      const auto expected = Reference(pair.a, pair.b, policy);
      const auto prepared = EstimatePrepared(pair.a, pair.b, policy);
      GuardedEstimatorOptions options;
      options.policy = policy;
      const auto direct = GuardedEstimator(options).Estimate(pair.a, pair.b);
      ASSERT_EQ(prepared.ok(), expected.ok());
      ASSERT_EQ(direct.ok(), expected.ok());
      if (!expected.ok()) {
        EXPECT_EQ(prepared.status().message(), expected.status().message());
        EXPECT_EQ(direct.status().message(), expected.status().message());
        continue;
      }
      ExpectSameResult(*prepared, *expected);
      ExpectSameResult(*direct, *expected);
    }
  }
}

TEST(PreparedInputTest, ClampKeepsAnInvertedRectThePartnerCovers) {
  // The reference the test above pins, spelled out for the partner-
  // dependent case: judged against the pair, the normalized rect is kept
  // (clamped, not quarantined).
  const Pair pair = Pairs()[4];
  const auto result =
      EstimatePrepared(pair.a, pair.b, ValidationPolicy::kClampToExtent);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->validation_a.inverted, 1u);
  EXPECT_EQ(result->validation_a.clamped, 1u);
  EXPECT_EQ(result->validation_a.quarantined, 0u);
}

TEST(PreparedInputTest, RejectNamesTheFirstDefectOfAThenB) {
  const Dataset clean = Uniform("clean", 500, Rect(0, 0, 1, 1), 7);
  const Dataset bad_a = WithDefects(Uniform("bad_a", 500, Rect(0, 0, 1, 1), 8),
                                    {Rect(0.5, 0.5, 0.4, 0.4)});
  const Dataset bad_b = WithDefects(Uniform("bad_b", 500, Rect(0, 0, 1, 1), 9),
                                    {Rect(0.2, kNaN, 0.3, 0.3)});
  const auto first_defect = [](const Dataset& ds) {
    return ValidateDataset(ds, Rect::Empty(), ValidationPolicy::kReject,
                           nullptr)
        .status()
        .message();
  };
  ASSERT_NE(first_defect(bad_a), first_defect(bad_b));
  const auto both = EstimatePrepared(bad_a, bad_b, ValidationPolicy::kReject);
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(both.status().message(), first_defect(bad_a));
  const auto only_b = EstimatePrepared(clean, bad_b, ValidationPolicy::kReject);
  ASSERT_FALSE(only_b.ok());
  EXPECT_EQ(only_b.status().message(), first_defect(bad_b));
}

TEST(PreparedInputTest, CleanInputIsUsedInPlace) {
  const Dataset ds = Uniform("u", 300, Rect(0, 0, 1, 1), 11);
  for (const ValidationPolicy policy : kPolicies) {
    const auto prepared = PrepareInput(ds, policy);
    ASSERT_TRUE(prepared.ok());
    EXPECT_FALSE(prepared->validated.has_value());
    EXPECT_EQ(&prepared->rects(), &ds);
    EXPECT_EQ(prepared->counters.checked, ds.size());
    EXPECT_EQ(prepared->counters.Defects(), 0u);
    const Rect extent = ds.ComputeExtent();
    EXPECT_EQ(prepared->extent.min_x, extent.min_x);
    EXPECT_EQ(prepared->extent.min_y, extent.min_y);
    EXPECT_EQ(prepared->extent.max_x, extent.max_x);
    EXPECT_EQ(prepared->extent.max_y, extent.max_y);
  }
}

TEST(PreparedInputTest, InputsPreparedUnderAnotherPolicyAreRefused) {
  const Dataset ds = Uniform("u", 300, Rect(0, 0, 1, 1), 12);
  const auto prepared = PrepareInput(ds, ValidationPolicy::kClampToExtent);
  ASSERT_TRUE(prepared.ok());
  const auto result = GuardedEstimator().Estimate(*prepared, *prepared);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sjsel
