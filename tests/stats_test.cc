#include "stats/dataset_stats.h"

#include <gtest/gtest.h>

#include "core/parametric.h"

namespace sjsel {
namespace {

TEST(DatasetStatsTest, HandComputedValues) {
  Dataset ds("d");
  ds.Add(Rect(0.0, 0.0, 0.2, 0.1));  // area .02, w .2, h .1
  ds.Add(Rect(0.5, 0.5, 0.9, 0.9));  // area .16, w .4, h .4
  const Rect extent(0, 0, 1, 1);
  const DatasetStats s = DatasetStats::Compute(ds, extent);
  EXPECT_EQ(s.name, "d");
  EXPECT_EQ(s.n, 2u);
  EXPECT_DOUBLE_EQ(s.extent_area, 1.0);
  EXPECT_NEAR(s.total_area, 0.18, 1e-12);
  EXPECT_NEAR(s.coverage, 0.18, 1e-12);
  EXPECT_NEAR(s.avg_width, 0.3, 1e-12);
  EXPECT_NEAR(s.avg_height, 0.25, 1e-12);
  EXPECT_NEAR(s.max_width, 0.4, 1e-12);
  EXPECT_NEAR(s.max_height, 0.4, 1e-12);
}

TEST(DatasetStatsTest, EmptyDataset) {
  const DatasetStats s =
      DatasetStats::Compute(Dataset("e"), Rect(0, 0, 2, 2));
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.extent_area, 4.0);
  EXPECT_DOUBLE_EQ(s.coverage, 0.0);
  EXPECT_DOUBLE_EQ(s.avg_width, 0.0);
}

TEST(DatasetStatsTest, NonUnitExtentNormalizesCoverage) {
  Dataset ds("d");
  ds.Add(Rect(0, 0, 1, 1));  // area 1 within a 4-area extent
  const DatasetStats s = DatasetStats::Compute(ds, Rect(0, 0, 2, 2));
  EXPECT_DOUBLE_EQ(s.coverage, 0.25);
}

TEST(RelativeErrorTest, Basics) {
  EXPECT_DOUBLE_EQ(RelativeError(110, 100), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(90, 100), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(RelativeError(5, 0), 5.0);  // zero-actual convention
  EXPECT_DOUBLE_EQ(RelativeError(0, 0), 0.0);
}

TEST(ParametricTest, HandComputedEquationOne) {
  // Two singleton datasets in the unit square:
  //   Size = N1*C2 + C1*N2 + N1*N2*(W1*H2 + W2*H1)/A.
  Dataset a("a");
  a.Add(Rect(0.0, 0.0, 0.2, 0.1));  // w .2 h .1 area .02
  Dataset b("b");
  b.Add(Rect(0.3, 0.3, 0.7, 0.5));  // w .4 h .2 area .08
  const Rect extent(0, 0, 1, 1);
  const DatasetStats sa = DatasetStats::Compute(a, extent);
  const DatasetStats sb = DatasetStats::Compute(b, extent);
  const double expected =
      1 * 0.08 + 0.02 * 1 + 1 * 1 * (0.2 * 0.2 + 0.4 * 0.1) / 1.0;
  EXPECT_NEAR(ParametricJoinPairs(sa, sb), expected, 1e-12);
}

TEST(ParametricTest, SymmetricInArguments) {
  Dataset a("a");
  a.Add(Rect(0.1, 0.1, 0.3, 0.2));
  a.Add(Rect(0.4, 0.4, 0.8, 0.9));
  Dataset b("b");
  b.Add(Rect(0.2, 0.5, 0.5, 0.6));
  const Rect extent(0, 0, 1, 1);
  const DatasetStats sa = DatasetStats::Compute(a, extent);
  const DatasetStats sb = DatasetStats::Compute(b, extent);
  EXPECT_DOUBLE_EQ(ParametricJoinPairs(sa, sb), ParametricJoinPairs(sb, sa));
}

TEST(ParametricTest, EmptyInputsGiveZero) {
  const Rect extent(0, 0, 1, 1);
  const DatasetStats e = DatasetStats::Compute(Dataset("e"), extent);
  Dataset a("a");
  a.Add(Rect(0, 0, 1, 1));
  const DatasetStats sa = DatasetStats::Compute(a, extent);
  EXPECT_DOUBLE_EQ(ParametricJoinPairs(e, sa), 0.0);
  EXPECT_DOUBLE_EQ(ParametricJoinPairs(sa, e), 0.0);
}

TEST(ParametricTest, ExactForUniformIndependentRects) {
  // For genuinely uniform data the Aref–Samet model is asymptotically
  // right: compare against the analytic expectation on a big sample.
  // (Probabilistic check: expectation of |join| for uniformly placed
  // rects of fixed size w x h is ~ N1*N2*(w1+w2)*(h1+h2) for small sizes,
  // which Equation 1 reproduces up to boundary effects.)
  const double w = 0.01;
  const double h = 0.01;
  DatasetStats sa;
  sa.n = 10000;
  sa.coverage = 10000 * w * h;
  sa.avg_width = w;
  sa.avg_height = h;
  sa.extent_area = 1.0;
  DatasetStats sb = sa;
  const double model = ParametricJoinPairs(sa, sb);
  const double analytic = 1e8 * ((w + w) * (h + h));
  // Model: N1*C2 + C1*N2 + N1*N2*(wh + wh) = 1e8*(2wh) + 1e8*(2wh)... both
  // expand to 4e8*w*h.
  EXPECT_NEAR(model, analytic, analytic * 1e-9);
}

}  // namespace
}  // namespace sjsel
