// Tests of the multi-way join planner (src/planner/join_planner.h):
// determinism across thread counts, per-pair agreement with the
// standalone guarded estimator, DP optimality against an independent
// exhaustive enumeration, greedy fallback, degradation surfacing, and
// one GH build per input when every pair shares a grid.

#include "planner/join_planner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/guarded_estimator.h"
#include "datagen/generators.h"
#include "obs/metrics.h"
#include "util/fault_injection.h"

namespace sjsel {
namespace {

Dataset MakeUniform(const std::string& name, size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  return gen::UniformRects(name, n, Rect(0, 0, 1, 1), size, seed);
}

Dataset MakeClustered(const std::string& name, size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  return gen::GaussianClusterRects(name, n, Rect(0, 0, 1, 1),
                                   {{0.4, 0.7}, 0.1, 0.1, 1.0}, size, seed);
}

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    datasets_.push_back(MakeUniform("pa", 1200, 1));
    datasets_.push_back(MakeClustered("pb", 900, 2));
    datasets_.push_back(MakeUniform("pc", 600, 3));
    datasets_.push_back(MakeClustered("pd", 400, 4));
  }

  std::vector<PlannerInput> Inputs(size_t k) const {
    static const char* kLabels[] = {"a.ds", "b.ds", "c.ds", "d.ds"};
    std::vector<PlannerInput> inputs;
    for (size_t i = 0; i < k; ++i) {
      inputs.push_back(PlannerInput{kLabels[i], &datasets_[i]});
    }
    return inputs;
  }

  std::vector<Dataset> datasets_;
};

TEST(PlannerSizesTest, TwoWayCardinalityIsThePairEstimateOnValidatedSizes) {
  // 600 NaN rects after 3,000 uniform ones: the selectivity divides by the
  // validated 3,000, so the plan must multiply it by 3,000 too.
  Dataset a = MakeUniform("u_nan", 3000, 3);
  for (int i = 0; i < 600; ++i) {
    a.Add(Rect(std::numeric_limits<double>::quiet_NaN(), 0.1, 0.2, 0.2));
  }
  const Dataset b = MakeClustered("c", 3000, 4);
  const auto plan =
      PlanMultiJoin({PlannerInput{"a.ds", &a}, PlannerInput{"b.ds", &b}});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->input_sizes, (std::vector<size_t>{3000, 3000}));
  ASSERT_EQ(plan->steps.size(), 1u);
  EXPECT_EQ(plan->steps[0].output_cardinality, plan->pairs[0].estimated_pairs);
}

TEST_F(PlannerTest, PairEstimatesMatchStandaloneEstimatorBitForBit) {
  PlannerOptions options;
  const auto plan = PlanMultiJoin(Inputs(3), options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->pairs.size(), 3u);

  const GuardedEstimator estimator(options.estimator);
  for (const PairSelectivity& pair : plan->pairs) {
    const auto standalone =
        estimator.Estimate(datasets_[pair.i], datasets_[pair.j]);
    ASSERT_TRUE(standalone.ok());
    // Bit-for-bit, not approximately: the plan must be explainable by
    // running `estimate` on the same inputs.
    EXPECT_EQ(pair.estimated_pairs, standalone->outcome.estimated_pairs);
    EXPECT_EQ(pair.selectivity, standalone->outcome.selectivity);
    EXPECT_EQ(pair.rung, standalone->rung);
    EXPECT_EQ(pair.degradation_reason, standalone->degradation_reason);
  }
}

TEST_F(PlannerTest, SearchOverGivenPairsEqualsPlanMultiJoin) {
  PlannerOptions options;
  const std::vector<PlannerInput> inputs = Inputs(4);
  const GuardedEstimator estimator(options.estimator);
  std::vector<Result<EstimateResult>> pair_estimates;
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (size_t j = i + 1; j < inputs.size(); ++j) {
      pair_estimates.push_back(
          estimator.Estimate(*inputs[i].dataset, *inputs[j].dataset));
    }
  }
  const auto searched = PlanFromPairEstimates(inputs, pair_estimates, options);
  ASSERT_TRUE(searched.ok()) << searched.status().ToString();
  for (const int threads : {1, 2, 4}) {
    options.threads = threads;
    const auto planned = PlanMultiJoin(inputs, options);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(RenderPlanJson(*searched), RenderPlanJson(*planned))
        << "threads=" << threads;
  }

  // The first failed pair in (i, j) order fails the plan, named.
  pair_estimates[4] = Status::InvalidArgument("bad pair");
  pair_estimates[5] = Status::Internal("later pair");
  const auto failed = PlanFromPairEstimates(inputs, pair_estimates, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(failed.status().message(), "pair b.ds * d.ds: bad pair");
  pair_estimates.pop_back();
  EXPECT_FALSE(PlanFromPairEstimates(inputs, pair_estimates, options).ok());
}

TEST_F(PlannerTest, RejectPolicyNamesTheFirstDefectivePair) {
  // Input c carries a NaN rect: pair (a, b) is fine, (a, c) is the first
  // pair in (i, j) order to fail, with c's validation error.
  Dataset defective = datasets_[2];
  defective.Add(Rect(std::numeric_limits<double>::quiet_NaN(), 0, 1, 1));
  std::vector<PlannerInput> inputs = Inputs(4);
  inputs[2].dataset = &defective;
  PlannerOptions options;
  options.estimator.policy = ValidationPolicy::kReject;
  const auto direct = GuardedEstimator(options.estimator)
                          .Estimate(*inputs[0].dataset, defective);
  ASSERT_FALSE(direct.ok());
  for (const int threads : {1, 4}) {
    options.threads = threads;
    const auto plan = PlanMultiJoin(inputs, options);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().message(),
              "pair a.ds * c.ds: " + direct.status().message());
  }
}

TEST_F(PlannerTest, InputsOnOneGridAreSummarizedOncePerInput) {
  // Four inputs whose pairs all share the [0,1]^2 grid, each with at
  // least 4^level rects: every input's GH histogram is built once and its
  // summary answers the input's other two pairs.
  PlannerOptions options;
  options.estimator.gh_level = 4;
  std::vector<Dataset> framed;
  for (const Dataset& ds : datasets_) {
    Dataset copy = ds;
    copy.Add(Rect(0, 0, 0, 0));
    copy.Add(Rect(1, 1, 1, 1));
    ASSERT_GE(copy.size(), 256u);
    framed.push_back(std::move(copy));
  }
  std::vector<PlannerInput> inputs = Inputs(4);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i].dataset = &framed[i];
  const GuardedEstimator estimator(options.estimator);
  std::vector<Result<EstimateResult>> per_pair;
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (size_t j = i + 1; j < inputs.size(); ++j) {
      per_pair.push_back(estimator.Estimate(framed[i], framed[j]));
    }
  }
  const auto reference = PlanFromPairEstimates(inputs, per_pair, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  obs::MetricsRegistry::Arm();
  obs::Counter* builds =
      obs::MetricsRegistry::Global().GetCounter("hist.gh.builds");
  for (const int threads : {1, 2, 4}) {
    options.threads = threads;
    const uint64_t before = builds->value();
    const auto plan = PlanMultiJoin(inputs, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(builds->value() - before, inputs.size())
        << "threads=" << threads;
    EXPECT_EQ(RenderPlanJson(*plan), RenderPlanJson(*reference))
        << "threads=" << threads;
  }
  obs::MetricsRegistry::Disarm();
}

TEST_F(PlannerTest, IdenticalPlanJsonForEveryThreadCount) {
  PlannerOptions options;
  options.threads = 1;
  const auto reference = PlanMultiJoin(Inputs(4), options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string reference_json = RenderPlanJson(*reference);
  const std::string reference_text = RenderPlanText(*reference);

  for (const int threads : {2, 3, 8}) {
    options.threads = threads;
    const auto plan = PlanMultiJoin(Inputs(4), options);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(RenderPlanJson(*plan), reference_json)
        << "threads=" << threads;
    EXPECT_EQ(RenderPlanText(*plan), reference_text)
        << "threads=" << threads;
  }
}

// Independent check of DP optimality: enumerate every bushy join tree
// over the 4 inputs by recursive bipartition and compute its C_out cost
// from the plan's own pairwise selectivities; the planner's cost must be
// the minimum.
double CliqueCardinality(unsigned mask, const MultiJoinPlan& plan) {
  double card = 1.0;
  for (size_t i = 0; i < plan.input_sizes.size(); ++i) {
    if (mask & (1u << i)) card *= static_cast<double>(plan.input_sizes[i]);
  }
  for (const PairSelectivity& pair : plan.pairs) {
    if ((mask & (1u << pair.i)) && (mask & (1u << pair.j))) {
      card *= pair.selectivity;
    }
  }
  return card;
}

double BestCostExhaustive(unsigned mask, const MultiJoinPlan& plan) {
  if ((mask & (mask - 1)) == 0) return 0.0;  // single input: no join
  double best = std::numeric_limits<double>::infinity();
  for (unsigned sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
    const unsigned rest = mask & ~sub;
    if (rest == 0) continue;
    const double cost = BestCostExhaustive(sub, plan) +
                        BestCostExhaustive(rest, plan) +
                        CliqueCardinality(mask, plan);
    if (cost < best) best = cost;
  }
  return best;
}

TEST_F(PlannerTest, DpCostIsOptimalUnderTheCostModel) {
  const auto plan = PlanMultiJoin(Inputs(4));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->algorithm, "dp");
  const double best = BestCostExhaustive((1u << 4) - 1, *plan);
  EXPECT_NEAR(plan->cost, best, best * 1e-12 + 1e-12);
  // The steps must add up to the reported cost.
  double total = 0.0;
  for (const PlanStep& step : plan->steps) total += step.output_cardinality;
  EXPECT_NEAR(plan->cost, total, total * 1e-12 + 1e-12);
  ASSERT_EQ(plan->steps.size(), 3u);  // k-1 joins
}

TEST_F(PlannerTest, GreedyFallbackBeyondDpLimit) {
  PlannerOptions options;
  options.dp_limit = 2;  // force greedy for k=4
  const auto greedy = PlanMultiJoin(Inputs(4), options);
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(greedy->algorithm, "greedy");
  ASSERT_EQ(greedy->steps.size(), 3u);
  // Greedy can't beat DP under the same cost model.
  const auto dp = PlanMultiJoin(Inputs(4));
  ASSERT_TRUE(dp.ok());
  EXPECT_GE(greedy->cost, dp->cost * (1.0 - 1e-12));
  // And is itself deterministic across thread counts.
  options.threads = 4;
  const auto greedy_mt = PlanMultiJoin(Inputs(4), options);
  ASSERT_TRUE(greedy_mt.ok());
  EXPECT_EQ(RenderPlanJson(*greedy_mt), RenderPlanJson(*greedy));
}

TEST_F(PlannerTest, DegradedPairsSurfaceInPlanAndJson) {
  ScopedFaultInjection arm("estimator.gh=always");
  ASSERT_TRUE(arm.status().ok());
  const auto plan = PlanMultiJoin(Inputs(3));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->degraded());
  for (const PairSelectivity& pair : plan->pairs) {
    EXPECT_NE(pair.rung, EstimatorRung::kGh);
    EXPECT_NE(pair.degradation_reason.find("gh:injected"), std::string::npos);
  }
  const std::string json = RenderPlanJson(*plan);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("gh:injected"), std::string::npos);
}

TEST_F(PlannerTest, CleanPlanIsNotDegraded) {
  const auto plan = PlanMultiJoin(Inputs(3));
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->degraded());
  EXPECT_NE(RenderPlanJson(*plan).find("\"degraded\":false"),
            std::string::npos);
}

TEST_F(PlannerTest, TreeAndStepsAgree) {
  const auto plan = PlanMultiJoin(Inputs(3));
  ASSERT_TRUE(plan.ok());
  // The last step's rendering is the whole tree.
  ASSERT_FALSE(plan->steps.empty());
  const PlanStep& root = plan->steps.back();
  EXPECT_EQ("(" + root.left + " * " + root.right + ")", plan->tree);
}

TEST_F(PlannerTest, InputValidation) {
  EXPECT_FALSE(PlanMultiJoin({}).ok());
  EXPECT_FALSE(PlanMultiJoin(Inputs(1)).ok());

  auto dup = Inputs(2);
  dup[1].label = dup[0].label;
  EXPECT_FALSE(PlanMultiJoin(dup).ok());

  auto null_ds = Inputs(2);
  null_ds[1].dataset = nullptr;
  EXPECT_FALSE(PlanMultiJoin(null_ds).ok());

  auto empty_label = Inputs(2);
  empty_label[1].label = "";
  EXPECT_FALSE(PlanMultiJoin(empty_label).ok());
}

}  // namespace
}  // namespace sjsel
