// Tests for the explain report (src/obs/explain.h): per-cell GH
// contributions summing to the scalar estimate bit for bit, PH per-cell
// sums matching up to final-rounding order, exact error attribution
// partitioning the plane-sweep join count, ranking/skew invariants,
// renderer determinism across runs and thread counts, and the heatmap
// CSV shape.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/gh_histogram.h"
#include "datagen/generators.h"
#include "join/plane_sweep.h"
#include "obs/explain.h"
#include "util/fault_injection.h"

namespace sjsel {
namespace {

using obs::BuildEstimateExplain;
using obs::EstimateExplain;
using obs::ExplainOptions;
using obs::ExplainScheme;

Dataset MakeData(const std::string& name, size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.004, 0.004, 0.5};
  return gen::UniformRects(name, n, Rect(0, 0, 1, 1), size, seed);
}

Dataset MakeClustered(const std::string& name, size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.004, 0.004, 0.5};
  gen::Cluster cluster;
  cluster.center = {0.4, 0.7};
  return gen::GaussianClusterRects(name, n, Rect(0, 0, 1, 1), cluster, size,
                                   seed);
}

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest()
      : a_(MakeData("exp_a", 1500, 21)), b_(MakeClustered("exp_b", 1500, 22)) {}

  Dataset a_;
  Dataset b_;
};

TEST_F(ExplainTest, GhCellContributionsSumToScalarEstimateBitForBit) {
  ExplainOptions options;
  options.level = 5;
  const auto report = BuildEstimateExplain(a_, b_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(static_cast<int64_t>(report->cells.size()), report->num_cells);
  double sum = 0.0;
  for (const auto& cell : report->cells) sum += cell.estimated_pairs;
  // Summing cell pairs (each ip/4, an exact power-of-two division) in
  // flat order reproduces the scalar loop exactly — not approximately.
  EXPECT_EQ(sum, report->estimated_pairs);
  for (const auto& cell : report->cells) {
    EXPECT_EQ(cell.estimated_pairs,
              (cell.terms[0] + cell.terms[1] + cell.terms[2] +
               cell.terms[3]) /
                  4.0);
  }
}

TEST_F(ExplainTest, PhCellContributionsMatchScalarUpToRoundingOrder) {
  ExplainOptions options;
  options.scheme = ExplainScheme::kPh;
  options.level = 5;
  const auto report = BuildEstimateExplain(a_, b_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  double sum = 0.0;
  for (const auto& cell : report->cells) sum += cell.estimated_pairs;
  // PH divides the Sd sum by the mean span once in the scalar path but
  // per cell here, so the totals agree only up to rounding order.
  EXPECT_NEAR(sum, report->estimated_pairs,
              1e-9 * std::abs(report->estimated_pairs) + 1e-9);
}

TEST_F(ExplainTest, ExactAttributionPartitionsThePlaneSweepCount) {
  ExplainOptions options;
  options.level = 4;
  options.with_exact = true;
  const auto report = BuildEstimateExplain(a_, b_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->has_exact);
  EXPECT_EQ(report->actual_pairs, PlaneSweepJoinCount(a_, b_));
  // Quarter corner-counts are exact in binary: the per-cell shares sum to
  // the join count with no FP slack at all.
  double attributed = 0.0;
  for (const auto& cell : report->cells) attributed += cell.actual_pairs;
  EXPECT_EQ(attributed, static_cast<double>(report->actual_pairs));
  const double expected_rel =
      (report->estimated_pairs - static_cast<double>(report->actual_pairs)) /
      static_cast<double>(report->actual_pairs);
  EXPECT_DOUBLE_EQ(report->relative_error, expected_rel);
}

TEST_F(ExplainTest, RankingsAndSkewAreConsistent) {
  ExplainOptions options;
  options.level = 5;
  options.top_k = 7;
  options.with_exact = true;
  const auto report = BuildEstimateExplain(a_, b_, options);
  ASSERT_TRUE(report.ok());
  ASSERT_LE(report->top_contributors.size(), 7u);
  ASSERT_GE(report->top_contributors.size(), 1u);
  for (size_t i = 1; i < report->top_contributors.size(); ++i) {
    const auto& prev = report->cells[report->top_contributors[i - 1]];
    const auto& cur = report->cells[report->top_contributors[i]];
    EXPECT_GE(prev.estimated_pairs, cur.estimated_pairs);
  }
  for (size_t i = 1; i < report->top_errors.size(); ++i) {
    const auto& prev = report->cells[report->top_errors[i - 1]];
    const auto& cur = report->cells[report->top_errors[i]];
    EXPECT_GE(std::abs(prev.error()), std::abs(cur.error()));
  }
  EXPECT_GT(report->skew.nonzero_cells, 0);
  EXPECT_LE(report->skew.nonzero_cells, report->num_cells);
  EXPECT_GE(report->skew.top1pct_share, report->skew.max_cell_share);
  EXPECT_GE(report->skew.top10pct_share, report->skew.top1pct_share);
  EXPECT_LE(report->skew.top10pct_share, 1.0 + 1e-12);
}

TEST_F(ExplainTest, ReportIsByteIdenticalAcrossRunsAndThreadCounts) {
  ExplainOptions options;
  options.level = 5;
  options.with_exact = true;
  const auto r1 = BuildEstimateExplain(a_, b_, options);
  const auto r2 = BuildEstimateExplain(a_, b_, options);
  options.threads = 4;
  const auto r4 = BuildEstimateExplain(a_, b_, options);
  ASSERT_TRUE(r1.ok() && r2.ok() && r4.ok());
  EXPECT_EQ(obs::RenderExplainText(*r1), obs::RenderExplainText(*r2));
  EXPECT_EQ(obs::RenderExplainText(*r1), obs::RenderExplainText(*r4));
  EXPECT_EQ(obs::RenderExplainJson(*r1), obs::RenderExplainJson(*r4));
}

TEST_F(ExplainTest, ChainTrialsReproduceDegradationTrail) {
  ScopedFaultInjection arm("estimator.gh=always");
  ASSERT_TRUE(arm.status().ok());
  ExplainOptions options;
  options.level = 4;
  const auto report = BuildEstimateExplain(a_, b_, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->chain.degradation_reason, "gh:injected");
  ASSERT_EQ(report->chain.trials.size(), 2u);
  EXPECT_FALSE(report->chain.trials[0].answered);
  EXPECT_EQ(report->chain.trials[0].cause, kDegradeCauseInjected);
  EXPECT_TRUE(report->chain.trials[1].answered);
  // The per-cell breakdown is unaffected: it reads the histograms
  // directly, not the (faulted) chain.
  EXPECT_GT(report->estimated_pairs, 0.0);
  const std::string text = obs::RenderExplainText(*report);
  EXPECT_NE(text.find("gh         failed"), std::string::npos);
  EXPECT_NE(text.find("cause=injected"), std::string::npos);
}

TEST_F(ExplainTest, HeatmapCsvHasOneRowPerCell) {
  ExplainOptions options;
  options.level = 3;
  options.with_exact = true;
  const auto report = BuildEstimateExplain(a_, b_, options);
  ASSERT_TRUE(report.ok());
  const std::string path = ::testing::TempDir() + "/explain_heatmap.csv";
  ASSERT_TRUE(obs::WriteExplainHeatmapCsv(*report, path).ok());
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "cx,cy,estimated_pairs,actual_pairs,error");
  int64_t rows = 0;
  double est_sum = 0.0;
  while (std::getline(in, line)) {
    ++rows;
    std::istringstream fields(line);
    std::string cx, cy, est;
    ASSERT_TRUE(std::getline(fields, cx, ','));
    ASSERT_TRUE(std::getline(fields, cy, ','));
    ASSERT_TRUE(std::getline(fields, est, ','));
    est_sum += std::stod(est);
  }
  EXPECT_EQ(rows, report->num_cells);
  // %.17g round-trips doubles exactly, so the CSV re-sums to the scalar
  // estimate with zero error.
  EXPECT_EQ(est_sum, report->estimated_pairs);
  std::remove(path.c_str());
}

TEST(ExplainEmptyTest, EmptyInputYieldsChainOnlyReport) {
  const Dataset empty("empty", {});
  const Dataset some = MakeData("exp_c", 40, 23);
  ExplainOptions options;
  options.with_exact = true;
  const auto report = BuildEstimateExplain(empty, some, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_cells, 0);
  EXPECT_TRUE(report->cells.empty());
  EXPECT_EQ(report->estimated_pairs, 0.0);
  EXPECT_EQ(report->chain.degradation_reason, "parametric:empty_input");
  const std::string text = obs::RenderExplainText(*report);
  EXPECT_NE(text.find("empty input after validation"), std::string::npos);
}

TEST_F(ExplainTest, JsonCarriesTheContractFields) {
  ExplainOptions options;
  options.level = 4;
  options.with_exact = true;
  const auto report = BuildEstimateExplain(a_, b_, options);
  ASSERT_TRUE(report.ok());
  const std::string json = obs::RenderExplainJson(*report);
  for (const char* key :
       {"\"scheme\":\"gh\"", "\"estimated_pairs\":", "\"chain\":",
        "\"trials\":", "\"term_labels\":[\"c1*o2\",\"o1*c2\",\"h1*v2\","
        "\"v1*h2\"]",
        "\"skew\":", "\"top_contributors\":", "\"exact\":",
        "\"top_errors\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ExplainLongNameTest, EveryLineKeepsItsKeyAndCounts) {
  // A 300-character name: each key/value line is whole, with its counts
  // and its newline, and the next key starts a line of its own.
  const std::string name(300, 'n');
  const Dataset rects = MakeData("x", 500, 24);
  const Dataset a(name, rects.rects());
  const Dataset b = MakeData("exp_b", 400, 25);
  ExplainOptions options;
  options.level = 3;
  const auto report = BuildEstimateExplain(a, b, options);
  ASSERT_TRUE(report.ok());
  const std::string text = obs::RenderExplainText(*report);
  EXPECT_NE(text.find("dataset a            : " + name +
                      " (500 rects, 500 validated)\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\ndataset b            : exp_b (400 rects, 400 "
                      "validated)\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nextent               : "), std::string::npos);
}

}  // namespace
}  // namespace sjsel
