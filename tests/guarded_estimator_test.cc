// Tests of the prepared estimation path (src/core/guarded_estimator.h):
// GuardedEstimator::Estimate over inputs each validated once by
// PrepareInput must give exactly the answer of validating both datasets
// against their joint extent and running the GH rung — the per-pair path,
// written out below as the reference — under every validation policy, on
// clean inputs and on inputs with NaN, Inf and inverted rects. The GH
// summary tests pin when an input's summary is kept and reused (counted
// through hist.gh.builds / hist.gh.summary_hits) and that reuse never
// changes an answer, from one thread or several.

#include "core/guarded_estimator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gh_histogram.h"
#include "datagen/generators.h"
#include "geom/validate.h"
#include "obs/metrics.h"

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
                                 ValidationPolicy policy, int level = 7) {
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
  Rect frame = va.ComputeExtent();
  frame.Extend(vb.ComputeExtent());
  const auto ha = GhHistogram::Build(va, frame, level);
  if (!ha.ok()) return ha.status();
  const auto hb = GhHistogram::Build(vb, frame, level);
  if (!hb.ok()) return hb.status();
  SJSEL_ASSIGN_OR_RETURN(ref.outcome.estimated_pairs,
                         EstimateGhJoinPairs(*ha, *hb));
  RungTrial trial;
  trial.rung = EstimatorRung::kGh;
  trial.label = "GH(level=" + std::to_string(level) + ")";
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

// ---------------------------------------------------------------------------
// GH summaries. Level 4 has 256 cells, so inputs of a few hundred rects
// reach the 4^level size rule.

constexpr int kLevel = 4;

// `ds` with two point rects at opposite corners of `frame`, which make
// `frame` its extent when its rects lie inside it.
Dataset Framed(const Dataset& ds, const Rect& frame) {
  Dataset out = ds;
  out.Add(Rect(frame.min_x, frame.min_y, frame.min_x, frame.min_y));
  out.Add(Rect(frame.max_x, frame.max_y, frame.max_x, frame.max_y));
  return out;
}

class GhSummaryTest : public ::testing::Test {
 protected:
  GhSummaryTest()
      : a_(Framed(Uniform("a", 600, Rect(0, 0, 1, 1), 21), Rect(0, 0, 1, 1))),
        b_(Framed(Clustered("b", 500, 22), Rect(0, 0, 1, 1))),
        c_(Framed(Uniform("c", 400, Rect(0.2, 0.2, 0.8, 0.8), 23),
                  Rect(0, 0, 1, 1))),
        wide_(Framed(Uniform("wide", 300, Rect(0, 0, 2, 2), 24),
                     Rect(0, 0, 2, 2))) {
    options_.gh_level = kLevel;
    obs::MetricsRegistry::Arm();
  }
  ~GhSummaryTest() override { obs::MetricsRegistry::Disarm(); }

  static uint64_t Count(const char* name) {
    return obs::MetricsRegistry::Global().GetCounter(name)->value();
  }
  static uint64_t Builds() { return Count("hist.gh.builds"); }
  static uint64_t Hits() { return Count("hist.gh.summary_hits"); }

  PreparedInput Prepare(const Dataset& ds) const {
    auto prepared = PrepareInput(ds, options_.policy);
    EXPECT_TRUE(prepared.ok());
    return std::move(prepared).value();
  }

  EstimateResult Estimate(const PreparedInput& a,
                          const PreparedInput& b) const {
    auto result = GuardedEstimator(options_).Estimate(a, b);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : EstimateResult{};
  }

  // The answer with no summary in play: fresh inputs through the Dataset
  // overload, and the written-out per-pair reference.
  void ExpectUnsummarized(const EstimateResult& actual, const Dataset& a,
                          const Dataset& b) const {
    const auto fresh = GuardedEstimator(options_).Estimate(a, b);
    ASSERT_TRUE(fresh.ok());
    ExpectSameResult(actual, *fresh);
    const auto reference =
        Reference(a, b, options_.policy, options_.gh_level);
    ASSERT_TRUE(reference.ok());
    ExpectSameResult(actual, *reference);
  }

  static Rect Joint(const Dataset& a, const Dataset& b) {
    Rect extent = a.ComputeExtent();
    extent.Extend(b.ComputeExtent());
    return extent;
  }

  static void ExpectSummaryOn(const PreparedInput& input, const Rect& extent,
                              int level) {
    const auto summary = input.GhSummary();
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->grid().level(), level);
    EXPECT_EQ(summary->grid().extent().min_x, extent.min_x);
    EXPECT_EQ(summary->grid().extent().min_y, extent.min_y);
    EXPECT_EQ(summary->grid().extent().max_x, extent.max_x);
    EXPECT_EQ(summary->grid().extent().max_y, extent.max_y);
    EXPECT_EQ(summary->dataset_size(), input.rects().size());
  }

  GuardedEstimatorOptions options_;
  Dataset a_, b_, c_, wide_;
};

TEST_F(GhSummaryTest, PartnerOnTheSameGridReusesTheSummary) {
  ASSERT_EQ(Joint(a_, b_).max_x, Joint(a_, c_).max_x);
  const PreparedInput a = Prepare(a_);
  const PreparedInput b = Prepare(b_);
  const PreparedInput c = Prepare(c_);
  const uint64_t builds = Builds();
  Estimate(a, b);
  EXPECT_EQ(Builds(), builds + 2);
  ExpectSummaryOn(a, Joint(a_, b_), kLevel);
  ExpectSummaryOn(b, Joint(a_, b_), kLevel);

  const uint64_t hits = Hits();
  const EstimateResult second = Estimate(a, c);
  EXPECT_EQ(Builds(), builds + 3);  // c only
  EXPECT_EQ(Hits(), hits + 1);      // a's summary
  ExpectUnsummarized(second, a_, c_);
}

TEST_F(GhSummaryTest, PartnerOnAnotherGridReplacesTheSummary) {
  const PreparedInput a = Prepare(a_);
  const PreparedInput b = Prepare(b_);
  const PreparedInput wide = Prepare(wide_);
  Estimate(a, b);
  uint64_t builds = Builds();
  const EstimateResult moved = Estimate(a, wide);
  EXPECT_EQ(Builds(), builds + 2);
  ExpectUnsummarized(moved, a_, wide_);
  // The slot holds one summary, the latest grid's: going back to b's grid
  // rebuilds a while b still has its own.
  ExpectSummaryOn(a, Joint(a_, wide_), kLevel);
  builds = Builds();
  const uint64_t hits = Hits();
  const EstimateResult back = Estimate(a, b);
  EXPECT_EQ(Builds(), builds + 1);
  EXPECT_EQ(Hits(), hits + 1);
  ExpectSummaryOn(a, Joint(a_, b_), kLevel);
  ExpectUnsummarized(back, a_, b_);
}

TEST_F(GhSummaryTest, AnotherLevelNeverReusesTheSummary) {
  const PreparedInput a = Prepare(a_);
  const PreparedInput b = Prepare(b_);
  Estimate(a, b);
  options_.gh_level = kLevel - 1;
  const uint64_t builds = Builds();
  const uint64_t hits = Hits();
  const EstimateResult coarser = Estimate(a, b);
  EXPECT_EQ(Builds(), builds + 2);
  EXPECT_EQ(Hits(), hits);
  ExpectSummaryOn(a, Joint(a_, b_), kLevel - 1);
  ExpectUnsummarized(coarser, a_, b_);
}

TEST_F(GhSummaryTest, InputsBelowTheCellCountKeepNoSummary) {
  const Dataset small_a = Framed(Uniform("sa", 200, Rect(0, 0, 1, 1), 25),
                                 Rect(0, 0, 1, 1));
  const Dataset small_b = Framed(Uniform("sb", 100, Rect(0, 0, 1, 1), 26),
                                 Rect(0, 0, 1, 1));
  ASSERT_LT(small_a.size(), 256u);
  const PreparedInput pa = Prepare(small_a);
  const PreparedInput pb = Prepare(small_b);
  for (int round = 0; round < 2; ++round) {
    const uint64_t builds = Builds();
    const uint64_t hits = Hits();
    const EstimateResult result = Estimate(pa, pb);
    EXPECT_EQ(Builds(), builds + 2);
    EXPECT_EQ(Hits(), hits);
    ExpectUnsummarized(result, small_a, small_b);
  }
  EXPECT_EQ(pa.GhSummary(), nullptr);
  EXPECT_EQ(pb.GhSummary(), nullptr);
}

TEST_F(GhSummaryTest, PairDependentInputKeepsNoSummary) {
  options_.policy = ValidationPolicy::kClampToExtent;
  const Dataset inverted = WithDefects(a_, {Rect(0.9, 0.9, 0.7, 0.7)});
  const PreparedInput pa = Prepare(inverted);
  const PreparedInput pb = Prepare(b_);
  ASSERT_TRUE(pa.PairDependent());
  for (int round = 0; round < 2; ++round) {
    const uint64_t builds = Builds();
    const uint64_t hits = Hits();
    const EstimateResult result = Estimate(pa, pb);
    EXPECT_EQ(Builds(), builds + 2);
    EXPECT_EQ(Hits(), hits);
    ExpectUnsummarized(result, inverted, b_);
  }
  EXPECT_EQ(pa.GhSummary(), nullptr);
  EXPECT_EQ(pb.GhSummary(), nullptr);
}

TEST_F(GhSummaryTest, SelfPairBuildsOnce) {
  const PreparedInput a = Prepare(a_);
  const uint64_t builds = Builds();
  const uint64_t hits = Hits();
  const EstimateResult self = Estimate(a, a);
  EXPECT_EQ(Builds(), builds + 1);
  EXPECT_EQ(Hits(), hits + 1);
  ExpectUnsummarized(self, a_, a_);
}

TEST_F(GhSummaryTest, ConcurrentPairsMatchTheSerialAnswers) {
  // Five inputs, two grids ([0,1]^2 and [0,2]^2 once `wide` joins), and
  // every ordered pair asked by six threads in different orders, so
  // threads wait on, reuse and replace each other's summaries.
  const Dataset d = Framed(Clustered("d", 700, 27), Rect(0, 0, 1, 1));
  const std::vector<const Dataset*> all = {&a_, &b_, &c_, &wide_, &d};
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = 0; j < all.size(); ++j) pairs.emplace_back(i, j);
  }
  std::vector<EstimateResult> serial;
  for (const auto& [i, j] : pairs) {
    const auto result = GuardedEstimator(options_).Estimate(*all[i], *all[j]);
    ASSERT_TRUE(result.ok());
    serial.push_back(*result);
  }

  std::vector<PreparedInput> prepared;
  for (const Dataset* ds : all) prepared.push_back(Prepare(*ds));
  constexpr int kThreads = 6;
  constexpr int kRounds = 3;
  std::vector<std::vector<EstimateResult>> answers(
      kThreads, std::vector<EstimateResult>(pairs.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const GuardedEstimator estimator(options_);
      for (int round = 0; round < kRounds; ++round) {
        for (size_t n = 0; n < pairs.size(); ++n) {
          const size_t idx = (n * 7 + static_cast<size_t>(t) * 5) %
                             pairs.size();
          const auto [i, j] = pairs[idx];
          auto result = estimator.Estimate(prepared[i], prepared[j]);
          if (result.ok()) answers[t][idx] = std::move(result).value();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t idx = 0; idx < pairs.size(); ++idx) {
      SCOPED_TRACE("thread " + std::to_string(t) + " pair " +
                   std::to_string(idx));
      ExpectSameResult(answers[t][idx], serial[idx]);
    }
  }
}

}  // namespace
}  // namespace sjsel
