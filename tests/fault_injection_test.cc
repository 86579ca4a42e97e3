#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/gh_histogram.h"
#include "core/guarded_estimator.h"
#include "datagen/generators.h"
#include "geom/dataset.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace sjsel {
namespace {

Dataset MakeData(const std::string& name, size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  return gen::UniformRects(name, n, Rect(0, 0, 1, 1), size, seed);
}

std::string TempPath(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

TEST(FaultSpecTest, ParsesEveryTriggerForm) {
  const auto rules = FaultInjector::ParseSpec(
      "io.read=always,io.corrupt=nth:3,pool.task=every:2,"
      "estimator.gh=prob:0.25/99");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 4u);
  EXPECT_EQ((*rules)[0].site, "io.read");
  EXPECT_EQ((*rules)[0].trigger, FaultInjector::Trigger::kAlways);
  EXPECT_EQ((*rules)[1].trigger, FaultInjector::Trigger::kNth);
  EXPECT_EQ((*rules)[1].n, 3u);
  EXPECT_EQ((*rules)[2].trigger, FaultInjector::Trigger::kEvery);
  EXPECT_EQ((*rules)[2].n, 2u);
  EXPECT_EQ((*rules)[3].trigger, FaultInjector::Trigger::kProb);
  EXPECT_DOUBLE_EQ((*rules)[3].probability, 0.25);
  EXPECT_EQ((*rules)[3].seed, 99u);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "bogus", "=always", "io.read=", "io.read=sometimes",
        "io.read=nth:", "io.read=nth:0", "io.read=nth:2junk",
        "io.read=prob:1.5", "io.read=prob:-0.1", "io.read=prob:0.5/abc",
        "io.read=always,,io.corrupt=always"}) {
    const auto rules = FaultInjector::ParseSpec(bad);
    EXPECT_FALSE(rules.ok()) << "spec '" << bad << "' should not parse";
  }
}

TEST(FaultInjectorTest, DisarmedIsInertAndCountsNothing) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();
  EXPECT_FALSE(FaultInjector::GloballyArmed());
  EXPECT_FALSE(injector.ShouldFail(kFaultSiteIoRead));
  injector.ThrowIfTriggered(kFaultSitePoolTask);  // must not throw
}

TEST(FaultInjectorTest, NthAndEverySchedulesAreExact) {
  ScopedFaultInjection arm("io.read=nth:3,io.corrupt=every:2");
  ASSERT_TRUE(arm.status().ok());
  FaultInjector& injector = FaultInjector::Global();

  std::vector<bool> nth;
  std::vector<bool> every;
  for (int i = 0; i < 6; ++i) {
    nth.push_back(injector.ShouldFail(kFaultSiteIoRead));
    every.push_back(injector.ShouldFail(kFaultSiteIoCorrupt));
  }
  EXPECT_EQ(nth, (std::vector<bool>{false, false, true, false, false, false}));
  EXPECT_EQ(every, (std::vector<bool>{false, true, false, true, false, true}));
  EXPECT_EQ(injector.CallCount(kFaultSiteIoRead), 6u);
  EXPECT_EQ(injector.TriggerCount(kFaultSiteIoRead), 1u);
  EXPECT_EQ(injector.TriggerCount(kFaultSiteIoCorrupt), 3u);
}

TEST(FaultInjectorTest, ProbabilityScheduleReplaysExactly) {
  std::vector<bool> first;
  {
    ScopedFaultInjection arm("io.read=prob:0.5/42");
    ASSERT_TRUE(arm.status().ok());
    for (int i = 0; i < 64; ++i) {
      first.push_back(FaultInjector::Global().ShouldFail(kFaultSiteIoRead));
    }
  }
  std::vector<bool> second;
  {
    ScopedFaultInjection arm("io.read=prob:0.5/42");
    ASSERT_TRUE(arm.status().ok());
    for (int i = 0; i < 64; ++i) {
      second.push_back(FaultInjector::Global().ShouldFail(kFaultSiteIoRead));
    }
  }
  EXPECT_EQ(first, second);
  // A 0.5 draw over 64 calls should fire at least once and not always —
  // deterministic given the seed, so this cannot flake.
  const size_t fired = static_cast<size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 64u);
}

TEST(FaultInjectorTest, ScopedArmingDisarmsOnExit) {
  {
    ScopedFaultInjection arm("io.read=always");
    ASSERT_TRUE(arm.status().ok());
    EXPECT_TRUE(FaultInjector::GloballyArmed());
  }
  EXPECT_FALSE(FaultInjector::GloballyArmed());

  ScopedFaultInjection bad("not-a-spec");
  EXPECT_FALSE(bad.status().ok());
  EXPECT_FALSE(FaultInjector::GloballyArmed());
}

TEST(FaultSiteTest, IoReadFailsAsIoError) {
  const std::string path = TempPath("fault_io_read.bin");
  ASSERT_TRUE(WriteFile(path, "payload").ok());
  ScopedFaultInjection arm("io.read=always");
  ASSERT_TRUE(arm.status().ok());
  const auto read = ReadFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find("io.read"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FaultSiteTest, IoCorruptionIsCaughtByDatasetCrc) {
  const std::string path = TempPath("fault_io_corrupt.ds");
  ASSERT_TRUE(MakeData("victim", 500, 3).Save(path).ok());
  {
    ScopedFaultInjection arm("io.corrupt=always");
    ASSERT_TRUE(arm.status().ok());
    const auto loaded = Dataset::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
  // Same file, injection gone: loads fine — the flip never reached disk.
  EXPECT_TRUE(Dataset::Load(path).ok());
  std::remove(path.c_str());
}

TEST(FaultSiteTest, PoolTaskThrowsFromParallelForAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  {
    ScopedFaultInjection arm("pool.task=nth:2");
    ASSERT_TRUE(arm.status().ok());
    EXPECT_THROW(
        ParallelFor(&pool, 64, 8,
                    [&ran](int64_t, int64_t, int64_t) { ++ran; }),
        FaultInjectedError);
  }
  // One of eight blocks was killed before its body ran; the rest completed
  // and the pool is reusable afterwards.
  EXPECT_EQ(ran.load(), 7);
  ran = 0;
  ParallelFor(&pool, 64, 8, [&ran](int64_t, int64_t, int64_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(FaultSiteTest, InlineParallelForAlsoConsultsPoolTask) {
  ScopedFaultInjection arm("pool.task=always");
  ASSERT_TRUE(arm.status().ok());
  EXPECT_THROW(
      ParallelFor(nullptr, 10, 5, [](int64_t, int64_t, int64_t) {}),
      FaultInjectedError);
}

class GuardedChainTest : public ::testing::Test {
 protected:
  GuardedChainTest()
      : a_(MakeData("chain_a", 1200, 5)), b_(MakeData("chain_b", 1200, 6)) {}

  Dataset a_;
  Dataset b_;
};

TEST_F(GuardedChainTest, CleanInputAnswersAtGh) {
  const GuardedEstimator estimator;
  const auto result = estimator.Estimate(a_, b_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rung, EstimatorRung::kGh);
  EXPECT_FALSE(result->degraded());
  EXPECT_TRUE(std::isfinite(result->outcome.estimated_pairs));
}

TEST_F(GuardedChainTest, GhFaultDegradesToPh) {
  ScopedFaultInjection arm("estimator.gh=always");
  ASSERT_TRUE(arm.status().ok());
  const auto result = GuardedEstimator().Estimate(a_, b_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rung, EstimatorRung::kPh);
  EXPECT_EQ(result->degradation_reason, "gh:injected");
}

TEST_F(GuardedChainTest, GhAndPhFaultsDegradeToSampling) {
  ScopedFaultInjection arm("estimator.gh=always,estimator.ph=always");
  ASSERT_TRUE(arm.status().ok());
  const auto result = GuardedEstimator().Estimate(a_, b_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rung, EstimatorRung::kSampling);
  EXPECT_EQ(result->degradation_reason, "gh:injected;ph:injected");
}

TEST_F(GuardedChainTest, ParametricAnchorsTheChain) {
  ScopedFaultInjection arm(
      "estimator.gh=always,estimator.ph=always,estimator.sampling=always");
  ASSERT_TRUE(arm.status().ok());
  const auto result = GuardedEstimator().Estimate(a_, b_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rung, EstimatorRung::kParametric);
  EXPECT_EQ(result->degradation_reason,
            "gh:injected;ph:injected;sampling:injected");
  const double bound = static_cast<double>(a_.size()) *
                       static_cast<double>(b_.size());
  EXPECT_GE(result->outcome.estimated_pairs, 0.0);
  EXPECT_LE(result->outcome.estimated_pairs, bound);
}

TEST_F(GuardedChainTest, WorkerFaultInSamplingRungDegradesNotCrashes) {
  // With threaded sampling, pool.task fires inside the sampling rung's
  // ParallelFor; GuardedEstimator must catch the rethrown
  // FaultInjectedError and degrade to the parametric rung instead of
  // crashing or surfacing the exception.
  GuardedEstimatorOptions options;
  options.sampling.threads = 2;
  ScopedFaultInjection arm(
      "estimator.gh=always,estimator.ph=always,pool.task=always");
  ASSERT_TRUE(arm.status().ok());
  const auto result = GuardedEstimator(options).Estimate(a_, b_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rung, EstimatorRung::kParametric);
  EXPECT_EQ(result->degradation_reason,
            "gh:injected;ph:injected;sampling:exception");
  EXPECT_TRUE(std::isfinite(result->outcome.estimated_pairs));
}

TEST(ThreadedBuildFaultTest, WorkerFaultEscapesGhBuildDeterministically) {
  // A threaded histogram build is a plain ParallelFor consumer: an armed
  // pool.task fault surfaces as FaultInjectedError on the calling thread.
  const Dataset data = MakeData("threaded", 3000, 9);
  ScopedFaultInjection arm("pool.task=always");
  ASSERT_TRUE(arm.status().ok());
  EXPECT_THROW(GhHistogram::Build(data, Rect(0, 0, 1, 1), 7,
                                  GhVariant::kRevised, 4),
               FaultInjectedError);
}

TEST_F(GuardedChainTest, InjectionDisabledMatchesDirectEstimate) {
  // The guarded facade must not perturb the primary path: with no faults
  // armed and clean input, its estimate equals the direct GH estimate.
  const auto guarded = GuardedEstimator().Estimate(a_, b_);
  ASSERT_TRUE(guarded.ok());
  const auto direct = MakeGhEstimator(7)->Estimate(a_, b_);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(guarded->outcome.estimated_pairs, direct->estimated_pairs);
}

}  // namespace
}  // namespace sjsel
