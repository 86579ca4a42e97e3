// E6 — google-benchmark micro-benchmarks of every substrate: geometry,
// Hilbert encoding, R-tree construction/query, the exact join algorithms,
// and histogram build/estimate throughput.

#include <benchmark/benchmark.h>

#include "core/gh_histogram.h"
#include "core/ph_histogram.h"
#include "core/sampling.h"
#include "datagen/generators.h"
#include "hilbert/hilbert.h"
#include "hilbert/morton.h"
#include "join/pbsm.h"
#include "join/plane_sweep.h"
#include "join/rtree_join.h"
#include "rtree/rtree.h"
#include "util/random.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);

Dataset MakeUniform(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  return gen::UniformRects("u", n, kUnit, size, seed);
}

Dataset MakeClustered(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  return gen::GaussianClusterRects("c", n, kUnit,
                                   {{0.4, 0.7}, 0.1, 0.1, 1.0}, size, seed);
}

void BM_RectIntersects(benchmark::State& state) {
  Rng rng(1);
  std::vector<Rect> rects;
  for (int i = 0; i < 1024; ++i) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    rects.emplace_back(x, y, x + 0.1, y + 0.1);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rects[i & 1023].Intersects(rects[(i + 7) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_RectIntersects);

void BM_HilbertEncode(benchmark::State& state) {
  const HilbertCurve curve(16);
  uint32_t x = 12345;
  uint32_t y = 54321;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.XyToD(x, y));
    x = (x * 1103515245 + 12345) & 0xffff;
    y = (y * 69069 + 1) & 0xffff;
  }
}
BENCHMARK(BM_HilbertEncode);

void BM_MortonEncode(benchmark::State& state) {
  const MortonCurve curve(16);
  uint32_t x = 12345;
  uint32_t y = 54321;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.XyToD(x, y));
    x = (x * 1103515245 + 12345) & 0xffff;
    y = (y * 69069 + 1) & 0xffff;
  }
}
BENCHMARK(BM_MortonEncode);

void BM_RTreeBuildInsertion(benchmark::State& state) {
  const Dataset ds = MakeUniform(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    const RTree tree = RTree::BuildByInsertion(ds);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBuildInsertion)->Arg(10000);

void BM_RTreeBuildStr(benchmark::State& state) {
  const Dataset ds = MakeUniform(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    const RTree tree = RTree::BulkLoadStr(RTree::DatasetEntries(ds));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBuildStr)->Arg(10000);

void BM_RTreeBuildHilbert(benchmark::State& state) {
  const Dataset ds = MakeUniform(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    const RTree tree = RTree::BulkLoadHilbert(RTree::DatasetEntries(ds));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBuildHilbert)->Arg(10000);

void BM_RTreeRangeQuery(benchmark::State& state) {
  const Dataset ds = MakeClustered(50000, 5);
  const RTree tree = RTree::BulkLoadStr(RTree::DatasetEntries(ds));
  Rng rng(7);
  for (auto _ : state) {
    const double x = rng.NextDouble() * 0.9;
    const double y = rng.NextDouble() * 0.9;
    benchmark::DoNotOptimize(tree.CountRange(Rect(x, y, x + 0.05, y + 0.05)));
  }
}
BENCHMARK(BM_RTreeRangeQuery);

void BM_JoinPlaneSweep(benchmark::State& state) {
  const Dataset a = MakeUniform(static_cast<size_t>(state.range(0)), 11);
  const Dataset b = MakeClustered(static_cast<size_t>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlaneSweepJoinCount(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_JoinPlaneSweep)->Arg(20000);

void BM_JoinPbsm(benchmark::State& state) {
  const Dataset a = MakeUniform(static_cast<size_t>(state.range(0)), 11);
  const Dataset b = MakeClustered(static_cast<size_t>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PbsmJoinCount(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_JoinPbsm)->Arg(20000);

void BM_JoinRTree(benchmark::State& state) {
  const Dataset a = MakeUniform(static_cast<size_t>(state.range(0)), 11);
  const Dataset b = MakeClustered(static_cast<size_t>(state.range(0)), 12);
  const RTree ta = RTree::BulkLoadStr(RTree::DatasetEntries(a));
  const RTree tb = RTree::BulkLoadStr(RTree::DatasetEntries(b));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RTreeJoinCount(ta, tb));
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_JoinRTree)->Arg(20000);

void BM_GhBuild(benchmark::State& state) {
  const Dataset ds = MakeClustered(20000, 13);
  const int level = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto hist = GhHistogram::Build(ds, kUnit, level);
    benchmark::DoNotOptimize(hist.ok());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_GhBuild)->Arg(5)->Arg(7)->Arg(9);

void BM_GhEstimate(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  const auto ha = GhHistogram::Build(MakeClustered(20000, 13), kUnit, level);
  const auto hb = GhHistogram::Build(MakeUniform(20000, 14), kUnit, level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateGhJoinPairs(*ha, *hb).value_or(0));
  }
}
BENCHMARK(BM_GhEstimate)->Arg(5)->Arg(7)->Arg(9);

void BM_PhBuild(benchmark::State& state) {
  const Dataset ds = MakeClustered(20000, 13);
  const int level = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto hist = PhHistogram::Build(ds, kUnit, level);
    benchmark::DoNotOptimize(hist.ok());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_PhBuild)->Arg(5)->Arg(7);

void BM_PhEstimate(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  const auto ha = PhHistogram::Build(MakeClustered(20000, 13), kUnit, level);
  const auto hb = PhHistogram::Build(MakeUniform(20000, 14), kUnit, level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimatePhJoinPairs(*ha, *hb).value_or(0));
  }
}
BENCHMARK(BM_PhEstimate)->Arg(5)->Arg(7);

void BM_SampleDraw(benchmark::State& state) {
  const Dataset ds = MakeClustered(100000, 15);
  const auto method = static_cast<SamplingMethod>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DrawSampleIndices(ds.size(), 0.1, method, 1, &ds).size());
  }
}
BENCHMARK(BM_SampleDraw)
    ->Arg(static_cast<int>(SamplingMethod::kRegular))
    ->Arg(static_cast<int>(SamplingMethod::kRandomWithReplacement))
    ->Arg(static_cast<int>(SamplingMethod::kSorted));

}  // namespace
}  // namespace sjsel

BENCHMARK_MAIN();
