// Tests for the MinSkew histogram extension: the ProbWithin kernel, the
// partitioner, estimation accuracy and file round-trips.

#include "core/minskew.h"

#include <gtest/gtest.h>

#include <cmath>

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "core/gh_histogram.h"
#include "datagen/generators.h"
#include "join/nested_loop.h"
#include "rtree/rtree.h"
#include "stats/dataset_stats.h"
#include "util/random.h"
#include "util/serialize.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);

Dataset MakeClustered(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.02, 0.02, 0.5};
  return gen::GaussianClusterRects("c", n, kUnit,
                                   {{0.4, 0.7}, 0.1, 0.1, 1.0}, size, seed);
}

Dataset MakeUniform(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.02, 0.02, 0.5};
  return gen::UniformRects("u", n, kUnit, size, seed);
}

TEST(ProbWithinTest, PointMasses) {
  using internal::ProbWithin;
  EXPECT_DOUBLE_EQ(ProbWithin(0.5, 0.5, 0.6, 0.6, 0.05), 0.0);
  EXPECT_DOUBLE_EQ(ProbWithin(0.5, 0.5, 0.6, 0.6, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(ProbWithin(0.5, 0.5, 0.6, 0.6, 0.2), 1.0);
}

TEST(ProbWithinTest, OneDegenerateInterval) {
  using internal::ProbWithin;
  // X = 0.5 fixed; Y uniform on [0, 1]; |X-Y| <= 0.25 covers half of it.
  EXPECT_NEAR(ProbWithin(0.5, 0.5, 0.0, 1.0, 0.25), 0.5, 1e-12);
  EXPECT_NEAR(ProbWithin(0.0, 1.0, 0.5, 0.5, 0.25), 0.5, 1e-12);
}

TEST(ProbWithinTest, IdenticalUnitIntervalsClosedForm) {
  // For X, Y ~ U[0,1], P(|X-Y| <= t) = 2t - t^2.
  using internal::ProbWithin;
  for (double t : {0.0, 0.1, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_NEAR(ProbWithin(0, 1, 0, 1, t), 2 * t - t * t, 1e-12) << t;
  }
}

TEST(ProbWithinTest, MatchesMonteCarloOnRandomIntervals) {
  using internal::ProbWithin;
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const double a1 = rng.NextDouble();
    const double b1 = a1 + rng.NextDouble() * 0.5 + 0.01;
    const double a2 = rng.NextDouble();
    const double b2 = a2 + rng.NextDouble() * 0.5 + 0.01;
    const double t = rng.NextDouble() * 0.4;
    const double exact = ProbWithin(a1, b1, a2, b2, t);
    int hits = 0;
    const int samples = 20000;
    for (int i = 0; i < samples; ++i) {
      const double x = rng.NextDouble(a1, b1);
      const double y = rng.NextDouble(a2, b2);
      if (std::fabs(x - y) <= t) ++hits;
    }
    EXPECT_NEAR(exact, static_cast<double>(hits) / samples, 0.02)
        << "trial " << trial;
  }
}

TEST(ProbWithinTest, MonotoneInThreshold) {
  using internal::ProbWithin;
  double prev = -1.0;
  for (double t = 0.0; t <= 1.2; t += 0.1) {
    const double p = ProbWithin(0.2, 0.7, 0.4, 1.0, t);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_NEAR(prev, 1.0, 1e-12);  // large t covers everything
}

TEST(MinSkewBuildTest, ValidatesInputAndPartitions) {
  const Dataset ds = MakeClustered(500, 3);
  EXPECT_FALSE(MinSkewHistogram::Build(ds, kUnit, 0).ok());
  const auto hist = MinSkewHistogram::Build(ds, kUnit, 32);
  ASSERT_TRUE(hist.ok());
  EXPECT_LE(hist->buckets().size(), 32u);
  EXPECT_GE(hist->buckets().size(), 2u);
  // Buckets tile the extent: areas sum to the extent area and counts sum
  // to N.
  double area = 0.0;
  double n = 0.0;
  for (const auto& bucket : hist->buckets()) {
    area += bucket.rect.area();
    n += bucket.n;
  }
  EXPECT_NEAR(area, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(n, 500.0);
}

TEST(MinSkewBuildTest, BucketsConcentrateOnTheCluster) {
  const Dataset ds = MakeClustered(5000, 5);
  const auto hist = MinSkewHistogram::Build(ds, kUnit, 64);
  ASSERT_TRUE(hist.ok());
  // Most buckets should land near the cluster at (0.4, 0.7): count the
  // buckets whose center is within 0.25 of it.
  int near = 0;
  for (const auto& bucket : hist->buckets()) {
    const Point c = bucket.rect.center();
    if (std::fabs(c.x - 0.4) < 0.25 && std::fabs(c.y - 0.7) < 0.25) ++near;
  }
  EXPECT_GT(near, static_cast<int>(hist->buckets().size()) / 3);
}

TEST(MinSkewEstimateTest, UniformJoinIsAccurateWithFewBuckets) {
  const Dataset a = MakeUniform(3000, 7);
  const Dataset b = MakeUniform(3000, 8);
  const double actual = static_cast<double>(NestedLoopJoinCount(a, b));
  const auto ha = MinSkewHistogram::Build(a, kUnit, 16);
  const auto hb = MinSkewHistogram::Build(b, kUnit, 16);
  const auto est = EstimateMinSkewJoinPairs(*ha, *hb);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(RelativeError(est.value(), actual), 0.15);
}

TEST(MinSkewEstimateTest, SkewedJoinImprovesWithBuckets) {
  const Dataset a = MakeClustered(3000, 9);
  const Dataset b = MakeClustered(3000, 10);
  const double actual = static_cast<double>(NestedLoopJoinCount(a, b));
  ASSERT_GT(actual, 0.0);
  double err_few = 0.0;
  double err_many = 0.0;
  for (int buckets : {1, 256}) {
    const auto ha = MinSkewHistogram::Build(a, kUnit, buckets);
    const auto hb = MinSkewHistogram::Build(b, kUnit, buckets);
    const auto est = EstimateMinSkewJoinPairs(*ha, *hb);
    ASSERT_TRUE(est.ok());
    const double err = RelativeError(est.value(), actual);
    if (buckets == 1) {
      err_few = err;
    } else {
      err_many = err;
    }
  }
  EXPECT_LT(err_many, err_few);
  EXPECT_LT(err_many, 0.30);
}

// The combine as it read before it skipped far-apart bucket pairs: every
// pair visited, in ascending (p, q) order.
double EveryPairSum(const MinSkewHistogram& a, const MinSkewHistogram& b) {
  double pairs = 0.0;
  for (const auto& p : a.buckets()) {
    if (p.n <= 0.0) continue;
    for (const auto& q : b.buckets()) {
      if (q.n <= 0.0) continue;
      const double tx = (p.avg_w + q.avg_w) / 2.0;
      const double ty = (p.avg_h + q.avg_h) / 2.0;
      const double px = internal::ProbWithin(p.rect.min_x, p.rect.max_x,
                                             q.rect.min_x, q.rect.max_x, tx);
      if (px == 0.0) continue;
      const double py = internal::ProbWithin(p.rect.min_y, p.rect.max_y,
                                             q.rect.min_y, q.rect.max_y, ty);
      pairs += p.n * q.n * px * py;
    }
  }
  return pairs;
}

TEST(MinSkewEstimateTest, SkippingFarPairsIsBitIdentical) {
  // Clustered, uniform, wide and degenerate (points, segments) inputs,
  // both orders, from a few buckets to many.
  const auto points = [](size_t n, uint64_t seed) {
    return gen::UniformRects(
        "pts", n, kUnit, {gen::SizeDist::Kind::kFixed, 0.0, 0.0, 0.0}, seed);
  };
  const auto wide = [](size_t n, uint64_t seed) {
    return gen::UniformRects(
        "wide", n, kUnit, {gen::SizeDist::Kind::kExponential, 0.1, 0.01, 0.0},
        seed);
  };
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<Dataset> inputs = {
        MakeClustered(1500, seed), MakeUniform(1200, seed + 10),
        wide(800, seed + 20), points(900, seed + 30)};
    for (const int buckets : {8, 64, 400}) {
      std::vector<MinSkewHistogram> hists;
      for (const Dataset& ds : inputs) {
        auto hist = MinSkewHistogram::Build(ds, kUnit, buckets);
        ASSERT_TRUE(hist.ok());
        hists.push_back(std::move(hist).value());
      }
      for (const MinSkewHistogram& a : hists) {
        for (const MinSkewHistogram& b : hists) {
          const double got = EstimateMinSkewJoinPairs(a, b).value();
          const double want = EveryPairSum(a, b);
          EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
              << a.dataset_name() << " x " << b.dataset_name() << " seed "
              << seed << " buckets " << buckets << ": " << got << " vs "
              << want;
        }
      }
    }
  }
}

TEST(MinSkewEstimateTest, MismatchedExtentsRejected) {
  const Dataset ds = MakeUniform(100, 11);
  const auto h1 = MinSkewHistogram::Build(ds, kUnit, 8);
  const auto h2 = MinSkewHistogram::Build(ds, Rect(0, 0, 2, 2), 8);
  EXPECT_FALSE(EstimateMinSkewJoinPairs(*h1, *h2).ok());
  EXPECT_FALSE(EstimateMinSkewJoinSelectivity(*h1, *h2).ok());
}

TEST(MinSkewRangeTest, TracksExactCounts) {
  const Dataset ds = MakeClustered(5000, 13);
  const auto hist = MinSkewHistogram::Build(ds, kUnit, 128);
  const RTree tree = RTree::BulkLoadStr(RTree::DatasetEntries(ds));
  const Rect hot(0.3, 0.6, 0.5, 0.8);
  const Rect cold(0.75, 0.05, 0.95, 0.25);
  const double exact_hot = static_cast<double>(tree.CountRange(hot));
  ASSERT_GT(exact_hot, 100.0);
  EXPECT_LT(RelativeError(EstimateMinSkewRangeCount(*hist, hot), exact_hot),
            0.20);
  EXPECT_LT(EstimateMinSkewRangeCount(*hist, cold), 0.05 * exact_hot);
}

TEST(MinSkewFileTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/minskew.hist";
  const Dataset ds = MakeClustered(800, 15);
  const auto hist = MinSkewHistogram::Build(ds, kUnit, 32);
  ASSERT_TRUE(hist->Save(path).ok());
  const auto loaded = MinSkewHistogram::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->buckets().size(), hist->buckets().size());
  EXPECT_EQ(loaded->dataset_size(), 800u);
  for (size_t i = 0; i < hist->buckets().size(); ++i) {
    EXPECT_EQ(loaded->buckets()[i].rect, hist->buckets()[i].rect);
    EXPECT_DOUBLE_EQ(loaded->buckets()[i].n, hist->buckets()[i].n);
  }
  std::remove(path.c_str());
}

TEST(MinSkewFileTest, CorruptionDetected) {
  const std::string path = ::testing::TempDir() + "/minskew_bad.hist";
  const Dataset ds = MakeUniform(200, 17);
  const auto hist = MinSkewHistogram::Build(ds, kUnit, 16);
  ASSERT_TRUE(hist->Save(path).ok());
  auto bytes = ReadFile(path).value();
  bytes[bytes.size() / 3] ^= 0x04;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  EXPECT_FALSE(MinSkewHistogram::Load(path).ok());
  std::remove(path.c_str());
}

TEST(MinSkewVsGhTest, GhWinsAtEqualSpaceOnSkewedJoin) {
  // The comparison that motivates keeping GH: at equal byte budget, GH's
  // intersection-point bookkeeping beats MinSkew's uniform-bucket model on
  // a clustered join of extended objects. (Not a paper claim — an
  // extension experiment; see bench/ext_minskew.)
  const Dataset a = MakeClustered(4000, 19);
  const Dataset b = MakeUniform(4000, 20);
  const double actual = static_cast<double>(NestedLoopJoinCount(a, b));

  const auto gh_a = GhHistogram::Build(a, kUnit, 5);  // 1024 cells * 32 B
  const auto gh_b = GhHistogram::Build(b, kUnit, 5);
  // Equal space: GH level 5 = 32 KiB -> MinSkew 32 KiB / 56 B ≈ 585
  // buckets.
  const int buckets =
      static_cast<int>(gh_a->NominalBytes() / (7 * 8));
  const auto ms_a = MinSkewHistogram::Build(a, kUnit, buckets, 6);
  const auto ms_b = MinSkewHistogram::Build(b, kUnit, buckets, 6);

  const double gh_err =
      RelativeError(EstimateGhJoinPairs(*gh_a, *gh_b).value(), actual);
  const double ms_err =
      RelativeError(EstimateMinSkewJoinPairs(*ms_a, *ms_b).value(), actual);
  EXPECT_LT(gh_err, ms_err + 0.02);
}

}  // namespace
}  // namespace sjsel
