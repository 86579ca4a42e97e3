#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "datagen/generators.h"
#include "join/nested_loop.h"
#include "join/pbsm.h"
#include "join/plane_sweep.h"
#include "join/rtree_join.h"
#include "rtree/rtree.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);

Dataset MakeWorkload(int which, size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.015, 0.015, 0.5};
  switch (which) {
    case 0:
      return gen::UniformRects("uniform", n, kUnit, size, seed);
    case 1:
      return gen::GaussianClusterRects(
          "clustered", n, kUnit, {{0.4, 0.7}, 0.08, 0.08, 1.0}, size, seed);
    case 2:
      return gen::ClusteredPoints("points", n, kUnit,
                                  {{{0.4, 0.6}, 0.15, 0.15, 1.0}}, 0.3, seed);
    case 3: {
      gen::PolylineSpec spec;
      return gen::RandomWalkPolylines("lines", n, kUnit, spec, seed);
    }
    default: {
      gen::SizeDist big{gen::SizeDist::Kind::kExponential, 0.05, 0.05, 0.0};
      return gen::UniformRects("bigrects", n, kUnit, big, seed);
    }
  }
}

using PairSet = std::set<std::pair<int64_t, int64_t>>;

PairSet CollectNestedLoop(const Dataset& a, const Dataset& b) {
  PairSet pairs;
  NestedLoopJoin(a, b, [&pairs](int64_t x, int64_t y) {
    pairs.emplace(x, y);
  });
  return pairs;
}

struct JoinCase {
  int workload_a;
  int workload_b;
  size_t na;
  size_t nb;
};

class JoinEquivalenceTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinEquivalenceTest, AllAlgorithmsAgreeWithNestedLoop) {
  const JoinCase& c = GetParam();
  const Dataset a = MakeWorkload(c.workload_a, c.na, 101 + c.workload_a);
  const Dataset b = MakeWorkload(c.workload_b, c.nb, 202 + c.workload_b);

  const uint64_t expected = NestedLoopJoinCount(a, b);
  EXPECT_EQ(PlaneSweepJoinCount(a, b), expected);
  EXPECT_EQ(PbsmJoinCount(a, b), expected);

  const RTree ta = RTree::BuildByInsertion(a);
  const RTree tb = RTree::BulkLoadStr(RTree::DatasetEntries(b));
  EXPECT_EQ(RTreeJoinCount(ta, tb), expected);
}

TEST_P(JoinEquivalenceTest, EmittedPairSetsAreIdentical) {
  const JoinCase& c = GetParam();
  const Dataset a = MakeWorkload(c.workload_a, std::min<size_t>(c.na, 400),
                                 303 + c.workload_a);
  const Dataset b = MakeWorkload(c.workload_b, std::min<size_t>(c.nb, 400),
                                 404 + c.workload_b);
  const PairSet expected = CollectNestedLoop(a, b);

  PairSet sweep;
  PlaneSweepJoin(a, b, [&sweep](int64_t x, int64_t y) {
    EXPECT_TRUE(sweep.emplace(x, y).second) << "duplicate pair from sweep";
  });
  EXPECT_EQ(sweep, expected);

  PairSet pbsm;
  PbsmJoin(a, b, [&pbsm](int64_t x, int64_t y) {
    EXPECT_TRUE(pbsm.emplace(x, y).second) << "duplicate pair from PBSM";
  });
  EXPECT_EQ(pbsm, expected);

  PairSet rtree;
  const RTree ta = RTree::BuildByInsertion(a);
  const RTree tb = RTree::BuildByInsertion(b);
  RTreeJoin(ta, tb, [&rtree](int64_t x, int64_t y) {
    EXPECT_TRUE(rtree.emplace(x, y).second) << "duplicate pair from R-tree";
  });
  EXPECT_EQ(rtree, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, JoinEquivalenceTest,
    ::testing::Values(JoinCase{0, 0, 1500, 1500},   // uniform x uniform
                      JoinCase{0, 1, 1500, 1500},   // uniform x clustered
                      JoinCase{1, 1, 1500, 1500},   // clustered x clustered
                      JoinCase{2, 4, 1500, 800},    // points x big rects
                      JoinCase{3, 0, 1000, 1500},   // polylines x uniform
                      JoinCase{3, 3, 1000, 1000},   // polylines x polylines
                      JoinCase{0, 0, 2000, 100},    // lopsided cardinality
                      JoinCase{4, 4, 600, 600}),    // big x big (dense)
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      return "wA" + std::to_string(info.param.workload_a) + "wB" +
             std::to_string(info.param.workload_b) + "n" +
             std::to_string(info.param.na) + "x" +
             std::to_string(info.param.nb);
    });

TEST(JoinEdgeCaseTest, EmptyInputs) {
  const Dataset a = MakeWorkload(0, 100, 1);
  const Dataset empty("empty");
  EXPECT_EQ(NestedLoopJoinCount(a, empty), 0u);
  EXPECT_EQ(PlaneSweepJoinCount(a, empty), 0u);
  EXPECT_EQ(PbsmJoinCount(a, empty), 0u);
  EXPECT_EQ(PlaneSweepJoinCount(empty, empty), 0u);
  const RTree ta = RTree::BuildByInsertion(a);
  const RTree te = RTree::BuildByInsertion(empty);
  EXPECT_EQ(RTreeJoinCount(ta, te), 0u);
}

TEST(JoinEdgeCaseTest, TouchingRectanglesCount) {
  // Closed-interval semantics: rects sharing only a boundary are a result
  // pair in every algorithm.
  Dataset a("a");
  a.Add(Rect(0, 0, 0.5, 0.5));
  Dataset b("b");
  b.Add(Rect(0.5, 0.5, 1, 1));  // touches at one corner point
  b.Add(Rect(0.5, 0, 1, 0.5));  // shares an edge
  b.Add(Rect(0.6, 0.6, 1, 1));  // disjoint
  EXPECT_EQ(NestedLoopJoinCount(a, b), 2u);
  EXPECT_EQ(PlaneSweepJoinCount(a, b), 2u);
  EXPECT_EQ(PbsmJoinCount(a, b), 2u);
  const RTree ta = RTree::BuildByInsertion(a);
  const RTree tb = RTree::BuildByInsertion(b);
  EXPECT_EQ(RTreeJoinCount(ta, tb), 2u);
}

TEST(JoinEdgeCaseTest, IdenticalDatasetsSelfJoin) {
  const Dataset a = MakeWorkload(1, 800, 55);
  const uint64_t expected = NestedLoopJoinCount(a, a);
  EXPECT_GE(expected, a.size());  // every rect intersects itself
  EXPECT_EQ(PlaneSweepJoinCount(a, a), expected);
  EXPECT_EQ(PbsmJoinCount(a, a), expected);
}

TEST(JoinEdgeCaseTest, PbsmPartitionCountIsRespected) {
  const Dataset a = MakeWorkload(0, 1000, 66);
  const Dataset b = MakeWorkload(1, 1000, 77);
  const uint64_t expected = NestedLoopJoinCount(a, b);
  for (int p : {1, 2, 3, 8, 17}) {
    PbsmOptions options;
    options.partitions_per_axis = p;
    EXPECT_EQ(PbsmJoinCount(a, b, options), expected) << "p=" << p;
  }
}

TEST(JoinEdgeCaseTest, RTreesOfVeryDifferentHeights) {
  const Dataset big = MakeWorkload(0, 5000, 88);
  Dataset tiny("tiny");
  tiny.Add(Rect(0.2, 0.2, 0.8, 0.8));
  tiny.Add(Rect(0.0, 0.0, 0.1, 0.1));
  const RTree tb = RTree::BuildByInsertion(big);
  const RTree tt = RTree::BuildByInsertion(tiny);
  const uint64_t expected = NestedLoopJoinCount(big, tiny);
  EXPECT_EQ(RTreeJoinCount(tb, tt), expected);
  EXPECT_EQ(RTreeJoinCount(tt, tb), expected);
}

TEST(JoinEdgeCaseTest, NonFiniteRectsJoinAsRectIntersectsSays) {
  // NaN rects, first and interleaved, sit in min_x and in other
  // coordinates; they intersect nothing. Infinite rects reach the frame's
  // edges and join as Rect::Intersects says.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Dataset clean_a = MakeWorkload(0, 1500, 91);
  const Dataset clean_b = MakeWorkload(1, 1500, 92);
  Dataset a("a");
  a.Add(Rect(nan, 0.1, 0.5, 0.6));
  for (size_t i = 0; i < clean_a.size(); ++i) {
    a.Add(clean_a[i]);
    if (i % 300 == 0) a.Add(Rect(nan, 0.2, 0.4, 0.3));
  }
  a.Add(Rect(0.2, nan, 0.4, 0.5));
  a.Add(Rect(0.2, 0.2, nan, 0.5));
  a.Add(Rect(-inf, 0.4, 0.3, 0.45));
  Dataset b("b");
  for (const Rect& r : clean_b.rects()) b.Add(r);
  b.Add(Rect(0.5, 0.5, 0.6, nan));
  b.Add(Rect(0.7, 0.1, inf, 0.15));

  const uint64_t expected = NestedLoopJoinCount(a, b);
  EXPECT_GT(expected, NestedLoopJoinCount(clean_a, clean_b));
  EXPECT_EQ(PlaneSweepJoinCount(a, b), expected);
  EXPECT_EQ(PlaneSweepJoinCount(b, a), expected);
  EXPECT_EQ(PbsmJoinCount(a, b), expected);
  EXPECT_EQ(PbsmJoinCount(b, a), expected);
  PbsmOptions options;
  options.partitions_per_axis = 7;
  EXPECT_EQ(PbsmJoinCount(a, b, options), expected);
  const RTree ta = RTree::BulkLoadStr(RTree::DatasetEntries(a));
  const RTree tb = RTree::BulkLoadStr(RTree::DatasetEntries(b));
  EXPECT_EQ(RTreeJoinCount(ta, tb), expected);

  const PairSet pairs = CollectNestedLoop(a, b);
  PairSet sweep;
  PlaneSweepJoin(a, b, [&sweep](int64_t x, int64_t y) {
    sweep.emplace(x, y);
  });
  EXPECT_EQ(sweep, pairs);
  PairSet pbsm;
  PbsmJoin(a, b, [&pbsm](int64_t x, int64_t y) { pbsm.emplace(x, y); });
  EXPECT_EQ(pbsm, pairs);
}

TEST(PbsmPickPartitionsTest, HonorsRequestUpToTheCap) {
  EXPECT_EQ(PbsmPickPartitions(1000, 1000, 7), 7);
  EXPECT_EQ(PbsmPickPartitions(0, 0, 1), 1);
  EXPECT_EQ(PbsmPickPartitions(1000, 1000, kPbsmMaxPartitionsPerAxis),
            kPbsmMaxPartitionsPerAxis);
  // Requests beyond the cap clamp instead of exploding the cell table.
  EXPECT_EQ(PbsmPickPartitions(1000, 1000, kPbsmMaxPartitionsPerAxis + 1),
            kPbsmMaxPartitionsPerAxis);
  EXPECT_EQ(PbsmPickPartitions(10, 10, 1 << 20), kPbsmMaxPartitionsPerAxis);
}

TEST(PbsmPickPartitionsTest, HeuristicClampsAtTinyInputs) {
  // Inputs far under one target-occupancy partition still get one cell.
  EXPECT_EQ(PbsmPickPartitions(0, 0, 0), 1);
  EXPECT_EQ(PbsmPickPartitions(1, 0, 0), 1);
  EXPECT_EQ(PbsmPickPartitions(10, 10, 0), 1);
  const size_t target = static_cast<size_t>(kPbsmTargetRectsPerPartition);
  EXPECT_EQ(PbsmPickPartitions(target / 2, target / 2, 0), 1);
}

TEST(PbsmPickPartitionsTest, HeuristicTracksOccupancyTargetAndCap) {
  const size_t target = static_cast<size_t>(kPbsmTargetRectsPerPartition);
  // 100x the target over p*p partitions -> p = 10 per axis.
  EXPECT_EQ(PbsmPickPartitions(50 * target, 50 * target, 0), 10);
  // Monotone in the input size.
  int prev = 0;
  for (size_t n = 1; n <= (size_t{1} << 30); n *= 4) {
    const int p = PbsmPickPartitions(n, n, 0);
    EXPECT_GE(p, prev) << "n=" << n;
    EXPECT_GE(p, 1);
    EXPECT_LE(p, kPbsmMaxPartitionsPerAxis);
    prev = p;
  }
  // Huge inputs saturate at the cap.
  EXPECT_EQ(PbsmPickPartitions(size_t{1} << 32, size_t{1} << 32, 0),
            kPbsmMaxPartitionsPerAxis);
}

TEST(JoinEdgeCaseTest, PointOnPartitionBoundaryNotDuplicated) {
  // Force rects whose intersection's reference point lies exactly on a
  // PBSM partition boundary; the owner rule must count it exactly once.
  Dataset a("a");
  a.Add(Rect(0.0, 0.0, 0.5, 0.5));
  Dataset b("b");
  b.Add(Rect(0.5, 0.5, 1.0, 1.0));
  PbsmOptions options;
  options.partitions_per_axis = 2;  // boundary exactly at 0.5
  EXPECT_EQ(PbsmJoinCount(a, b, options), 1u);
}

}  // namespace
}  // namespace sjsel
