// Statistical robustness sweep: the paper's headline accuracy claims must
// hold across many random workloads, not one lucky seed. Each case draws
// fresh datasets and checks the estimator error bands.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/gh_histogram.h"
#include "core/ph_histogram.h"
#include "datagen/generators.h"
#include "join/plane_sweep.h"
#include "stats/dataset_stats.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);

struct SweepCase {
  const char* label;
  int workload_a;
  int workload_b;
};

Dataset MakeWorkload(int which, size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.015, 0.015, 0.5};
  switch (which) {
    case 0:
      return gen::UniformRects("u", n, kUnit, size, seed);
    case 1:
      return gen::GaussianClusterRects(
          "c", n, kUnit, {{0.4, 0.7}, 0.1, 0.1, 1.0}, size, seed);
    case 2: {
      gen::PolylineSpec spec;
      spec.steps = 12;
      spec.step_len = 0.006;
      return gen::RandomWalkPolylines("l", n, kUnit, spec, seed);
    }
    default: {
      gen::SizeDist mixed{gen::SizeDist::Kind::kExponential, 0.01, 0.01, 0};
      return gen::MultiClusterRects(
          "m", n, kUnit,
          {{{0.2, 0.2}, 0.05, 0.05, 1.0}, {{0.7, 0.6}, 0.08, 0.08, 1.0}},
          0.3, mixed, seed);
    }
  }
}

class SeedSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SeedSweepTest, GhLevel6ErrorBandsHoldAcrossSeeds) {
  const SweepCase& c = GetParam();
  std::vector<double> errors;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Dataset a = MakeWorkload(c.workload_a, 2000, seed * 17 + 1);
    const Dataset b = MakeWorkload(c.workload_b, 2000, seed * 31 + 5);
    const double actual =
        static_cast<double>(PlaneSweepJoinCount(a, b));
    if (actual < 200) continue;  // skip statistically fragile draws
    const auto ha = GhHistogram::Build(a, kUnit, 6);
    const auto hb = GhHistogram::Build(b, kUnit, 6);
    ASSERT_TRUE(ha.ok());
    ASSERT_TRUE(hb.ok());
    errors.push_back(RelativeError(
        EstimateGhJoinPairs(*ha, *hb).value_or(0), actual));
  }
  ASSERT_GE(errors.size(), 5u) << c.label;
  std::sort(errors.begin(), errors.end());
  const double median = errors[errors.size() / 2];
  const double worst = errors.back();
  EXPECT_LT(median, 0.06) << c.label;   // paper band: <5% typical
  EXPECT_LT(worst, 0.20) << c.label;    // no catastrophic outliers
}

TEST_P(SeedSweepTest, GhNeverLosesToParametricBadly) {
  // Across seeds, GH at level 6 should essentially never be meaningfully
  // worse than the level-0 parametric model.
  const SweepCase& c = GetParam();
  int gh_worse = 0;
  int trials = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Dataset a = MakeWorkload(c.workload_a, 1500, seed * 13 + 2);
    const Dataset b = MakeWorkload(c.workload_b, 1500, seed * 19 + 7);
    const double actual =
        static_cast<double>(PlaneSweepJoinCount(a, b));
    if (actual < 200) continue;
    ++trials;
    const auto g6a = GhHistogram::Build(a, kUnit, 6);
    const auto g6b = GhHistogram::Build(b, kUnit, 6);
    const auto g0a = GhHistogram::Build(a, kUnit, 0);
    const auto g0b = GhHistogram::Build(b, kUnit, 0);
    const double gh_err = RelativeError(
        EstimateGhJoinPairs(*g6a, *g6b).value_or(0), actual);
    const double par_err = RelativeError(
        EstimateGhJoinPairs(*g0a, *g0b).value_or(0), actual);
    if (gh_err > par_err + 0.02) ++gh_worse;
  }
  ASSERT_GE(trials, 4) << c.label;
  EXPECT_LE(gh_worse, trials / 4) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SeedSweepTest,
    ::testing::Values(SweepCase{"uniform_uniform", 0, 0},
                      SweepCase{"clustered_uniform", 1, 0},
                      SweepCase{"clustered_clustered", 1, 1},
                      SweepCase{"polylines_multicluster", 2, 3}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace sjsel
