// Each estimation technique as the guarded chain runs it: the chain is
// forced one rung further down per step with fault injection, so every
// rung answers once on the same pair. The GH level advisor is checked
// through its module.

#include "core/guarded_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "core/gh_histogram.h"
#include "core/sampling.h"
#include "datagen/generators.h"
#include "join/nested_loop.h"
#include "stats/dataset_stats.h"
#include "util/fault_injection.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);

Dataset MakeUniform(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.02, 0.02, 0.5};
  return gen::UniformRects("u", n, kUnit, size, seed);
}

Dataset MakeClustered(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.02, 0.02, 0.5};
  return gen::GaussianClusterRects("c", n, kUnit,
                                   {{0.35, 0.6}, 0.08, 0.08, 1.0}, size,
                                   seed);
}

// Skips the chain's rungs above `answering` with fault injection.
std::optional<ScopedFaultInjection> SkipRungsAbove(EstimatorRung answering) {
  std::string spec;
  for (int i = 0; i < static_cast<int>(answering); ++i) {
    spec += std::string(spec.empty() ? "" : ",") + "estimator." +
            EstimatorRungName(static_cast<EstimatorRung>(i)) + "=always";
  }
  if (spec.empty()) return std::nullopt;
  return std::optional<ScopedFaultInjection>(std::in_place, spec);
}

TEST(ChainRungTest, EveryRungGivesALabeledFiniteEstimateNearExact) {
  const Dataset a = MakeUniform(1500, 31);
  const Dataset b = MakeClustered(1500, 32);
  const double actual = static_cast<double>(NestedLoopJoinCount(a, b));
  ASSERT_GT(actual, 0.0);

  // The labels of the default options, which every served answer carries.
  const char* const kLabels[] = {"GH(level=7)", "PH(level=5)",
                                 "RSWR(10%/10%)", "Parametric[AS94]"};
  for (int i = 0; i < 4; ++i) {
    const auto skip = SkipRungsAbove(static_cast<EstimatorRung>(i));
    const auto result = GuardedEstimator().Estimate(a, b);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string label = kLabels[i];
    EXPECT_EQ(result->rung, static_cast<EstimatorRung>(i)) << label;
    EXPECT_EQ(result->rung_label, label);
    EXPECT_GE(result->outcome.estimated_pairs, 0.0) << label;
    EXPECT_TRUE(std::isfinite(result->outcome.estimated_pairs)) << label;
    EXPECT_NEAR(result->outcome.selectivity,
                result->outcome.estimated_pairs / (1500.0 * 1500.0), 1e-12)
        << label;
    // Every technique should be within an order of magnitude here; GH
    // should be tight.
    EXPECT_LT(RelativeError(result->outcome.estimated_pairs, actual), 3.0)
        << label;
  }
}

TEST(ChainRungTest, LabelsFollowTheOptions) {
  const Dataset a = MakeUniform(1500, 31);
  const Dataset b = MakeClustered(1500, 32);
  GuardedEstimatorOptions options;
  options.gh_level = 6;
  options.ph_level = 4;
  options.sampling.frac_b = 0.01;
  const char* const kLabels[] = {"GH(level=6)", "PH(level=4)",
                                 "RSWR(10%/1%)"};
  for (int i = 0; i < 3; ++i) {
    const auto skip = SkipRungsAbove(static_cast<EstimatorRung>(i));
    const auto result = GuardedEstimator(options).Estimate(a, b);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rung, static_cast<EstimatorRung>(i)) << kLabels[i];
    EXPECT_EQ(result->rung_label, kLabels[i]);
  }
}

TEST(ChainRungTest, GhIsMoreAccurateThanParametricOnSkewedData) {
  const Dataset a = MakeClustered(2500, 41);
  const Dataset b = MakeClustered(2500, 42);
  const double actual = static_cast<double>(NestedLoopJoinCount(a, b));
  ASSERT_GT(actual, 0.0);
  const auto gh = GuardedEstimator().Estimate(a, b);
  ASSERT_TRUE(gh.ok());
  ASSERT_EQ(gh->rung, EstimatorRung::kGh);
  const auto skip = SkipRungsAbove(EstimatorRung::kParametric);
  const auto parametric = GuardedEstimator().Estimate(a, b);
  ASSERT_TRUE(parametric.ok());
  ASSERT_EQ(parametric->rung, EstimatorRung::kParametric);
  const double gh_err = RelativeError(gh->outcome.estimated_pairs, actual);
  const double par_err =
      RelativeError(parametric->outcome.estimated_pairs, actual);
  EXPECT_LT(gh_err, 0.10);
  EXPECT_LT(gh_err, par_err);
}

TEST(ChainRungTest, SamplingRejectsAnEmptyInput) {
  const Dataset a = MakeUniform(100, 51);
  const Dataset empty("empty");
  EXPECT_FALSE(EstimateBySampling(empty, a, SamplingOptions{}).ok());
}

TEST(RecommendGhLevelTest, EdgeCases) {
  const Rect unit(0, 0, 1, 1);
  EXPECT_EQ(RecommendGhLevel(0, unit, 0.01, 0.01), 0);
  EXPECT_EQ(RecommendGhLevel(100, Rect::Empty(), 0.01, 0.01), 0);
}

TEST(RecommendGhLevelTest, GrowsWithCardinality) {
  const Rect unit(0, 0, 1, 1);
  const int small = RecommendGhLevel(100, unit, 0.01, 0.01);
  const int medium = RecommendGhLevel(100000, unit, 0.01, 0.01);
  EXPECT_GE(medium, small);
  EXPECT_GE(medium, 5);
  EXPECT_LE(medium, 12);
}

TEST(RecommendGhLevelTest, SmallObjectsAllowFinerGrids) {
  const Rect unit(0, 0, 1, 1);
  const int coarse_objects = RecommendGhLevel(1000000, unit, 0.2, 0.2);
  const int fine_objects = RecommendGhLevel(1000000, unit, 0.0005, 0.0005);
  EXPECT_GT(fine_objects, coarse_objects);
}

TEST(RecommendGhLevelTest, BudgetCapsTheLevel) {
  const Rect unit(0, 0, 1, 1);
  const int unlimited = RecommendGhLevel(1000000, unit, 0.001, 0.001, 0);
  const int capped =
      RecommendGhLevel(1000000, unit, 0.001, 0.001, /*bytes=*/32 << 4);
  EXPECT_LT(capped, unlimited);
  // The capped level's histogram fits the budget.
  EXPECT_LE(uint64_t{32} << (2 * capped), uint64_t{32} << 4);
}

TEST(RecommendGhLevelTest, RecommendationIsAccurateInPractice) {
  // The advisor's pick should land within the flat part of the GH error
  // curve: within 2x of the best error over levels 0..8.
  const Dataset a = MakeClustered(3000, 81);
  const Dataset b = MakeUniform(3000, 82);
  const double actual = static_cast<double>(NestedLoopJoinCount(a, b));
  const Rect extent = kUnit;
  const DatasetStats stats = DatasetStats::Compute(a, extent);
  const int pick =
      RecommendGhLevel(a.size(), extent, stats.avg_width, stats.avg_height);

  double best_err = 1e9;
  double pick_err = 1e9;
  for (int level = 0; level <= 8; ++level) {
    const auto ha = GhHistogram::Build(a, extent, level);
    const auto hb = GhHistogram::Build(b, extent, level);
    const double err = RelativeError(
        EstimateGhJoinPairs(*ha, *hb).value_or(0), actual);
    best_err = std::min(best_err, err);
    if (level == pick) pick_err = err;
  }
  EXPECT_LE(pick, 8);
  EXPECT_LT(pick_err, std::max(2.0 * best_err, 0.05));
}

}  // namespace
}  // namespace sjsel
