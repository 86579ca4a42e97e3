// Bit-identity of the batch/SIMD kernel layer (src/core/kernels.h): every
// backend must produce the same IEEE-754 doubles as the scalar reference —
// not approximately equal, EQ on the bits — both at the kernel level (lane
// by lane) and composed through the histogram builds, join filters and the
// sampling estimator at several thread counts. This is the contract that
// lets the SoA fast paths slot under the tile-parallel builds
// (src/core/tile_build.h; docs/ARCHITECTURE.md, "Data-level parallelism").
//
// Backend matrix: each lane test diffs the scalar kernel against the AVX2
// backend where this machine can run it; CI additionally forces
// SJSEL_KERNEL_BACKEND=scalar through the whole suite so the scalar paths
// get a full run on AVX2 machines too.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/gh_histogram.h"
#include "core/grid.h"
#include "core/kernels.h"
#include "core/ph_histogram.h"
#include "core/sampling.h"
#include "datagen/generators.h"
#include "geom/soa_dataset.h"
#include "join/nested_loop.h"
#include "join/pbsm.h"
#include "join/plane_sweep.h"
#include "util/aligned.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);

// The non-scalar backend this machine can run, if any. Empty on a
// plain-SSE x86 or non-x86 build — the lane tests skip, and the composed
// tests still cover the scalar paths.
std::vector<KernelBackend> AvailableSimdBackends() {
  if (!KernelBackendAvailable(KernelBackend::kAvx2)) return {};
  return {KernelBackend::kAvx2};
}

// Restores runtime dispatch after every test, pass or fail.
class KernelEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearKernelBackendOverride(); }
};

Dataset UniformData(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.01, 0.01, 0.5};
  return gen::UniformRects("uniform", n, kUnit, size, seed);
}

Dataset SkewedData(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kExponential, 0.02, 0.02, 0.0};
  return gen::GaussianClusterRects("skewed", n, kUnit,
                                   {{0.2, 0.8}, 0.05, 0.05, 1.0}, size, seed);
}

// Adds the adversarial cases: degenerate rects, rects exactly on grid-cell
// boundaries of every level up to 4, negative zeros, touching pairs.
Dataset WithBoundaryCases(Dataset ds) {
  ds.Add(Rect(0.25, 0.25, 0.25, 0.25));      // point on a cell boundary
  ds.Add(Rect(0.5, 0.0, 0.5, 1.0));          // full-height boundary segment
  ds.Add(Rect(0.0, 0.0, 1.0, 1.0));          // the whole extent
  ds.Add(Rect(-0.0, 0.125, 0.375, 0.625));   // negative zero coordinate
  ds.Add(Rect(0.75, 0.75, 1.0, 1.0));        // touches the extent corner
  ds.Add(Rect(0.125, 0.25, 0.375, 0.5));     // spans cells, edges on lines
  return ds;
}

// --- Kernel-level: lane-by-lane diff of scalar vs every SIMD backend.

TEST_F(KernelEquivalenceTest, CellRangeBatchLaneExact) {
  const std::vector<KernelBackend> simd = AvailableSimdBackends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const Dataset ds = WithBoundaryCases(UniformData(1003, 11));
  const SoaDataset soa = SoaDataset::FromDataset(ds);
  const size_t n = soa.size();
  for (int level : {0, 1, 3, 7}) {
    const auto grid = Grid::Create(kUnit, level);
    const GridGeom g{grid->extent().min_x, grid->extent().min_y,
                     grid->cell_width(), grid->cell_height(),
                     grid->per_axis()};
    AlignedVector<int32_t> sx0(n), sy0(n), sx1(n), sy1(n);
    AlignedVector<int32_t> vx0(n), vy0(n), vx1(n), vy1(n);
    SetKernelBackendOverride(KernelBackend::kScalar);
    CellRangeBatch(g, soa.Slice(), sx0.data(), sy0.data(), sx1.data(),
                   sy1.data());
    for (const KernelBackend backend : simd) {
      SetKernelBackendOverride(backend);
      CellRangeBatch(g, soa.Slice(), vx0.data(), vy0.data(), vx1.data(),
                     vy1.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(sx0[i], vx0[i]) << KernelBackendName(backend) << " level "
                                  << level << " lane " << i;
        ASSERT_EQ(sy0[i], vy0[i]) << KernelBackendName(backend) << " lane "
                                  << i;
        ASSERT_EQ(sx1[i], vx1[i]) << KernelBackendName(backend) << " lane "
                                  << i;
        ASSERT_EQ(sy1[i], vy1[i]) << KernelBackendName(backend) << " lane "
                                  << i;
      }
    }
    // ... and the scalar kernel agrees with the Grid the histograms use.
    for (size_t i = 0; i < n; ++i) {
      int x0, y0, x1, y1;
      grid->CellRange(ds[i], &x0, &y0, &x1, &y1);
      ASSERT_EQ(sx0[i], x0) << "lane " << i;
      ASSERT_EQ(sy0[i], y0) << "lane " << i;
      ASSERT_EQ(sx1[i], x1) << "lane " << i;
      ASSERT_EQ(sy1[i], y1) << "lane " << i;
    }
  }
}

TEST_F(KernelEquivalenceTest, GhEntryTermsBatchBitwise) {
  const std::vector<KernelBackend> simd = AvailableSimdBackends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const auto grid = Grid::Create(kUnit, 6);
  const GridGeom g{grid->extent().min_x, grid->extent().min_y,
                   grid->cell_width(), grid->cell_height(),
                   grid->per_axis()};
  // Synthetic clip overlaps including zeros, denormal-adjacent tiny values
  // and full-cell widths — everything the expansion loop can produce.
  const size_t n = 777;
  AlignedVector<double> w(n), h(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = (i % 7 == 0) ? 0.0 : g.cell_w * (static_cast<double>(i % 11) / 10);
    h[i] = (i % 5 == 0) ? g.cell_h : 1e-14 * static_cast<double>(i);
  }
  AlignedVector<double> sa(n), shf(n), svf(n), va(n), vhf(n), vvf(n);
  SetKernelBackendOverride(KernelBackend::kScalar);
  GhEntryTermsBatch(g, n, w.data(), h.data(), sa.data(), shf.data(),
                    svf.data());
  for (const KernelBackend backend : simd) {
    SetKernelBackendOverride(backend);
    GhEntryTermsBatch(g, n, w.data(), h.data(), va.data(), vhf.data(),
                      vvf.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(sa[i], va[i]) << KernelBackendName(backend) << " lane " << i;
      ASSERT_EQ(shf[i], vhf[i]) << KernelBackendName(backend) << " lane "
                                << i;
      ASSERT_EQ(svf[i], vvf[i]) << KernelBackendName(backend) << " lane "
                                << i;
    }
  }
}

// The fused serial-build kernels (GhRectTermsBatch / PhRectClipBatch) read
// AoS rects directly; their 12/8 output arrays must match the scalar
// kernel bit for bit on every backend, at several grid levels, including
// the boundary-touching cases.

struct GhTermsArrays {
  explicit GhTermsArrays(size_t n)
      : x0(n), y0(n), x1(n), y1(n), a00(n), a01(n), a10(n), a11(n), hf0(n),
        hf1(n), vf0(n), vf1(n) {}
  GhRectTermsOut Out() {
    return GhRectTermsOut{x0.data(),  y0.data(),  x1.data(),  y1.data(),
                          a00.data(), a01.data(), a10.data(), a11.data(),
                          hf0.data(), hf1.data(), vf0.data(), vf1.data()};
  }
  AlignedVector<int32_t> x0, y0, x1, y1;
  AlignedVector<double> a00, a01, a10, a11, hf0, hf1, vf0, vf1;
};

TEST_F(KernelEquivalenceTest, GhRectTermsBatchBitwise) {
  const std::vector<KernelBackend> simd = AvailableSimdBackends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const Dataset ds = WithBoundaryCases(SkewedData(1009, 47));
  const size_t n = ds.size();
  for (int level : {1, 4, 7}) {
    const auto grid = Grid::Create(kUnit, level);
    const GridGeom g{grid->extent().min_x, grid->extent().min_y,
                     grid->cell_width(), grid->cell_height(),
                     grid->per_axis()};
    GhTermsArrays s(n), v(n);
    SetKernelBackendOverride(KernelBackend::kScalar);
    GhRectTermsBatch(g, ds.rects().data(), n, s.Out());
    // The cell range must agree with the Grid the builds use.
    for (size_t i = 0; i < n; ++i) {
      int x0, y0, x1, y1;
      grid->CellRange(ds[i], &x0, &y0, &x1, &y1);
      ASSERT_EQ(s.x0[i], x0) << "level " << level << " lane " << i;
      ASSERT_EQ(s.y0[i], y0) << "lane " << i;
      ASSERT_EQ(s.x1[i], x1) << "lane " << i;
      ASSERT_EQ(s.y1[i], y1) << "lane " << i;
    }
    for (const KernelBackend backend : simd) {
      SetKernelBackendOverride(backend);
      GhRectTermsBatch(g, ds.rects().data(), n, v.Out());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(s.x0[i], v.x0[i]) << KernelBackendName(backend) << " level "
                                    << level << " lane " << i;
        ASSERT_EQ(s.y0[i], v.y0[i]) << KernelBackendName(backend);
        ASSERT_EQ(s.x1[i], v.x1[i]) << KernelBackendName(backend);
        ASSERT_EQ(s.y1[i], v.y1[i]) << KernelBackendName(backend);
        ASSERT_EQ(s.a00[i], v.a00[i]) << KernelBackendName(backend)
                                      << " level " << level << " lane " << i;
        ASSERT_EQ(s.a01[i], v.a01[i]) << KernelBackendName(backend);
        ASSERT_EQ(s.a10[i], v.a10[i]) << KernelBackendName(backend);
        ASSERT_EQ(s.a11[i], v.a11[i]) << KernelBackendName(backend);
        ASSERT_EQ(s.hf0[i], v.hf0[i]) << KernelBackendName(backend);
        ASSERT_EQ(s.hf1[i], v.hf1[i]) << KernelBackendName(backend);
        ASSERT_EQ(s.vf0[i], v.vf0[i]) << KernelBackendName(backend);
        ASSERT_EQ(s.vf1[i], v.vf1[i]) << KernelBackendName(backend);
      }
    }
  }
}

TEST_F(KernelEquivalenceTest, PhRectClipBatchBitwise) {
  const std::vector<KernelBackend> simd = AvailableSimdBackends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const Dataset ds = WithBoundaryCases(UniformData(1013, 53));
  const size_t n = ds.size();
  for (int level : {1, 4, 7}) {
    const auto grid = Grid::Create(kUnit, level);
    const GridGeom g{grid->extent().min_x, grid->extent().min_y,
                     grid->cell_width(), grid->cell_height(),
                     grid->per_axis()};
    AlignedVector<int32_t> sx0(n), sy0(n), sx1(n), sy1(n);
    AlignedVector<double> sw0(n), sw1(n), sh0(n), sh1(n);
    AlignedVector<int32_t> vx0(n), vy0(n), vx1(n), vy1(n);
    AlignedVector<double> vw0(n), vw1(n), vh0(n), vh1(n);
    SetKernelBackendOverride(KernelBackend::kScalar);
    PhRectClipBatch(g, ds.rects().data(), n,
                    PhRectClipOut{sx0.data(), sy0.data(), sx1.data(),
                                  sy1.data(), sw0.data(), sw1.data(),
                                  sh0.data(), sh1.data()});
    // Scalar semantics: the overlaps are OverlapLen against columns
    // x0/x0+1 and rows y0/y0+1 of the Grid.
    for (size_t i = 0; i < n; ++i) {
      const Rect& r = ds[i];
      const double col_lo = g.min_x + sx0[i] * g.cell_w;
      const double col_mid = g.min_x + (sx0[i] + 1) * g.cell_w;
      const double col_hi = g.min_x + (sx0[i] + 2) * g.cell_w;
      ASSERT_EQ(sw0[i], OverlapLen(r.min_x, r.max_x, col_lo, col_mid))
          << "level " << level << " lane " << i;
      ASSERT_EQ(sw1[i], OverlapLen(r.min_x, r.max_x, col_mid, col_hi))
          << "level " << level << " lane " << i;
    }
    for (const KernelBackend backend : simd) {
      SetKernelBackendOverride(backend);
      PhRectClipBatch(g, ds.rects().data(), n,
                      PhRectClipOut{vx0.data(), vy0.data(), vx1.data(),
                                    vy1.data(), vw0.data(), vw1.data(),
                                    vh0.data(), vh1.data()});
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(sx0[i], vx0[i]) << KernelBackendName(backend) << " level "
                                  << level << " lane " << i;
        ASSERT_EQ(sy0[i], vy0[i]) << KernelBackendName(backend);
        ASSERT_EQ(sx1[i], vx1[i]) << KernelBackendName(backend);
        ASSERT_EQ(sy1[i], vy1[i]) << KernelBackendName(backend);
        ASSERT_EQ(sw0[i], vw0[i]) << KernelBackendName(backend) << " level "
                                  << level << " lane " << i;
        ASSERT_EQ(sw1[i], vw1[i]) << KernelBackendName(backend);
        ASSERT_EQ(sh0[i], vh0[i]) << KernelBackendName(backend);
        ASSERT_EQ(sh1[i], vh1[i]) << KernelBackendName(backend);
      }
    }
  }
}

TEST_F(KernelEquivalenceTest, IntersectMask64MatchesRectIntersects) {
  const std::vector<KernelBackend> simd = AvailableSimdBackends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  Dataset ds = WithBoundaryCases(UniformData(200, 19));
  const SoaDataset soa = SoaDataset::FromDataset(ds);
  const std::vector<Rect> probes = {
      Rect(0.2, 0.2, 0.4, 0.4),    Rect(0.0, 0.0, 1.0, 1.0),
      Rect(0.25, 0.25, 0.25, 0.25), Rect(0.5, 0.0, 0.5, 1.0),
      Rect(0.9, 0.9, 0.95, 0.95),  Rect(-0.0, -0.0, 0.0, 0.0)};
  for (const Rect& probe : probes) {
    for (size_t begin = 0; begin < soa.size(); begin += 37) {
      const size_t n = std::min<size_t>(64, soa.size() - begin);
      SetKernelBackendOverride(KernelBackend::kScalar);
      const uint64_t scalar = IntersectMask64(soa.Slice(), begin, n, probe);
      for (const KernelBackend backend : simd) {
        SetKernelBackendOverride(backend);
        ASSERT_EQ(scalar, IntersectMask64(soa.Slice(), begin, n, probe))
            << KernelBackendName(backend) << " begin " << begin;
      }
      for (size_t k = 0; k < n; ++k) {
        ASSERT_EQ((scalar >> k) & 1,
                  probe.Intersects(ds[begin + k]) ? 1u : 0u)
            << "begin " << begin << " bit " << k;
      }
    }
  }
}

TEST_F(KernelEquivalenceTest, SortedPrefixLeqMatchesScalarScan) {
  const std::vector<KernelBackend> simd = AvailableSimdBackends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  AlignedVector<double> keys;
  for (int i = 0; i < 301; ++i) keys.push_back(std::floor(i / 3.0) * 0.01);
  keys.push_back(-0.0);  // unsorted tail values exercise the early stop
  keys.push_back(0.5);
  keys.push_back(0.25);
  for (double bound : {-1.0, -0.0, 0.0, 0.005, 0.3, 0.5, 2.0}) {
    for (size_t begin : {size_t{0}, size_t{1}, size_t{77}, keys.size() - 2}) {
      SetKernelBackendOverride(KernelBackend::kScalar);
      const size_t s = SortedPrefixLeq(keys.data(), begin, keys.size(), bound);
      for (const KernelBackend backend : simd) {
        SetKernelBackendOverride(backend);
        ASSERT_EQ(s, SortedPrefixLeq(keys.data(), begin, keys.size(), bound))
            << KernelBackendName(backend) << " bound " << bound << " begin "
            << begin;
      }
      // Reference semantics: count up to the first violating key.
      size_t expected = 0;
      for (size_t k = begin; k < keys.size() && keys[k] <= bound; ++k) {
        ++expected;
      }
      ASSERT_EQ(s, expected) << "bound " << bound << " begin " << begin;
    }
  }
}

// --- Dispatch plumbing: name/parse round-trips and override precedence.

TEST_F(KernelEquivalenceTest, ParseAndNameRoundTrip) {
  for (const KernelBackend b : {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    KernelBackend parsed = KernelBackend::kScalar;
    ASSERT_TRUE(ParseKernelBackend(KernelBackendName(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
  KernelBackend parsed = KernelBackend::kAvx2;
  EXPECT_FALSE(ParseKernelBackend("sse9", &parsed));
  EXPECT_FALSE(ParseKernelBackend("neon", &parsed));
  EXPECT_FALSE(ParseKernelBackend("avx512", &parsed));
  EXPECT_FALSE(ParseKernelBackend("", &parsed));
  EXPECT_EQ(parsed, KernelBackend::kAvx2);  // unknown names leave *out alone
  EXPECT_TRUE(KernelBackendAvailable(KernelBackend::kScalar));
}

TEST_F(KernelEquivalenceTest, DispatchInfoReportsOverrideSource) {
  ClearKernelBackendOverride();
  const KernelDispatchInfo detected = GetKernelDispatchInfo();
  EXPECT_EQ(detected.detected, DetectKernelBackend());
  // With no programmatic override the source is env or detection —
  // whichever this process was launched with (CI's forced drill runs the
  // whole suite under SJSEL_KERNEL_BACKEND).
  EXPECT_TRUE(std::string(detected.source) == "detected" ||
              std::string(detected.source) == "env");

  SetKernelBackendOverride(KernelBackend::kScalar);
  const KernelDispatchInfo forced = GetKernelDispatchInfo();
  EXPECT_EQ(forced.active, KernelBackend::kScalar);
  EXPECT_EQ(std::string(forced.source), "override");
  EXPECT_EQ(forced.detected, detected.detected);

  ClearKernelBackendOverride();
  EXPECT_EQ(GetKernelDispatchInfo().active, detected.active);
}

// --- Composed: histogram builds are bitwise equal to the per-rect AddRect
// reference for every backend x thread count x variant x data shape.

struct BuildCase {
  bool skewed;
  int threads;
};

class BuildEquivalenceTest
    : public ::testing::TestWithParam<BuildCase> {
 protected:
  void TearDown() override { ClearKernelBackendOverride(); }
};

std::vector<KernelBackend> BackendsToTest() {
  std::vector<KernelBackend> backends = {KernelBackend::kScalar};
  for (const KernelBackend b : AvailableSimdBackends()) {
    backends.push_back(b);
  }
  return backends;
}

TEST_P(BuildEquivalenceTest, GhBuildBitIdenticalToAddRectLoop) {
  const BuildCase& c = GetParam();
  const Dataset ds = WithBoundaryCases(c.skewed ? SkewedData(4000, 23)
                                               : UniformData(4000, 23));
  for (const GhVariant variant : {GhVariant::kRevised, GhVariant::kBasic}) {
    auto reference = GhHistogram::CreateEmpty(kUnit, 6, variant);
    ASSERT_TRUE(reference.ok());
    for (size_t i = 0; i < ds.size(); ++i) reference->AddRect(ds[i]);
    for (const KernelBackend backend : BackendsToTest()) {
      SetKernelBackendOverride(backend);
      const auto hist = GhHistogram::Build(ds, kUnit, 6, variant, c.threads);
      ASSERT_TRUE(hist.ok());
      // EXPECT_EQ on the double vectors: bitwise equality, not tolerance.
      EXPECT_EQ(hist->c(), reference->c())
          << KernelBackendName(backend) << " threads " << c.threads;
      EXPECT_EQ(hist->o(), reference->o()) << KernelBackendName(backend);
      EXPECT_EQ(hist->h(), reference->h()) << KernelBackendName(backend);
      EXPECT_EQ(hist->v(), reference->v()) << KernelBackendName(backend);
    }
  }
}

TEST_P(BuildEquivalenceTest, PhBuildBitIdenticalToAddRectLoop) {
  const BuildCase& c = GetParam();
  const Dataset ds = WithBoundaryCases(c.skewed ? SkewedData(4000, 29)
                                               : UniformData(4000, 29));
  for (const PhVariant variant :
       {PhVariant::kSplitCrossing, PhVariant::kNaive}) {
    auto reference = PhHistogram::CreateEmpty(kUnit, 6, variant);
    ASSERT_TRUE(reference.ok());
    for (size_t i = 0; i < ds.size(); ++i) reference->AddRect(ds[i]);
    for (const KernelBackend backend : BackendsToTest()) {
      SetKernelBackendOverride(backend);
      const auto hist = PhHistogram::Build(ds, kUnit, 6, variant, c.threads);
      ASSERT_TRUE(hist.ok());
      EXPECT_EQ(hist->avg_span(), reference->avg_span())
          << KernelBackendName(backend) << " threads " << c.threads;
      ASSERT_EQ(hist->cells().size(), reference->cells().size());
      for (size_t i = 0; i < hist->cells().size(); ++i) {
        const auto& x = hist->cells()[i];
        const auto& y = reference->cells()[i];
        ASSERT_EQ(x.num, y.num) << "cell " << i;
        ASSERT_EQ(x.area_sum, y.area_sum) << "cell " << i;
        ASSERT_EQ(x.w_sum, y.w_sum) << "cell " << i;
        ASSERT_EQ(x.h_sum, y.h_sum) << "cell " << i;
        ASSERT_EQ(x.num_x, y.num_x) << "cell " << i;
        ASSERT_EQ(x.area_sum_x, y.area_sum_x) << "cell " << i;
        ASSERT_EQ(x.w_sum_x, y.w_sum_x) << "cell " << i;
        ASSERT_EQ(x.h_sum_x, y.h_sum_x) << "cell " << i;
      }
    }
  }
}

// The serial fused fast path (small grids), the blocked-by-size engine
// (level 9: 8MB of GH stats, 16MB of PH cells) and the blocked-by-threads
// engine must all reproduce the AddRect stream bit for bit. This pins the
// regime boundary itself: whichever side of the cache threshold a grid
// lands on, the numbers cannot change.
TEST_P(BuildEquivalenceTest, BuildRegimesAgreeAcrossGridLevels) {
  const BuildCase& c = GetParam();
  const Dataset ds = WithBoundaryCases(c.skewed ? SkewedData(2500, 59)
                                               : UniformData(2500, 59));
  for (const int level : {0, 2, 9}) {
    auto gh_ref = GhHistogram::CreateEmpty(kUnit, level, GhVariant::kRevised);
    auto ph_ref =
        PhHistogram::CreateEmpty(kUnit, level, PhVariant::kSplitCrossing);
    ASSERT_TRUE(gh_ref.ok());
    ASSERT_TRUE(ph_ref.ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      gh_ref->AddRect(ds[i]);
      ph_ref->AddRect(ds[i]);
    }
    for (const KernelBackend backend : BackendsToTest()) {
      SetKernelBackendOverride(backend);
      const auto gh = GhHistogram::Build(ds, kUnit, level, GhVariant::kRevised,
                                         c.threads);
      ASSERT_TRUE(gh.ok());
      EXPECT_EQ(gh->c(), gh_ref->c()) << KernelBackendName(backend)
                                      << " level " << level << " threads "
                                      << c.threads;
      EXPECT_EQ(gh->o(), gh_ref->o()) << KernelBackendName(backend);
      EXPECT_EQ(gh->h(), gh_ref->h()) << KernelBackendName(backend);
      EXPECT_EQ(gh->v(), gh_ref->v()) << KernelBackendName(backend);
      const auto ph = PhHistogram::Build(ds, kUnit, level,
                                         PhVariant::kSplitCrossing, c.threads);
      ASSERT_TRUE(ph.ok());
      EXPECT_EQ(ph->avg_span(), ph_ref->avg_span())
          << KernelBackendName(backend) << " level " << level;
      ASSERT_EQ(ph->cells().size(), ph_ref->cells().size());
      for (size_t i = 0; i < ph->cells().size(); ++i) {
        const auto& x = ph->cells()[i];
        const auto& y = ph_ref->cells()[i];
        ASSERT_EQ(x.num, y.num) << "level " << level << " cell " << i;
        ASSERT_EQ(x.area_sum, y.area_sum) << "cell " << i;
        ASSERT_EQ(x.num_x, y.num_x) << "cell " << i;
        ASSERT_EQ(x.area_sum_x, y.area_sum_x) << "cell " << i;
        ASSERT_EQ(x.w_sum_x, y.w_sum_x) << "cell " << i;
        ASSERT_EQ(x.h_sum_x, y.h_sum_x) << "cell " << i;
      }
    }
  }
}

TEST_P(BuildEquivalenceTest, JoinsExactAcrossBackendsAndThreads) {
  const BuildCase& c = GetParam();
  const Dataset a = WithBoundaryCases(UniformData(1500, 31));
  const Dataset b = WithBoundaryCases(c.skewed ? SkewedData(1500, 37)
                                               : UniformData(1500, 37));
  const uint64_t expected = NestedLoopJoinCount(a, b);

  // The reference pair sequence (scalar backend, serial PBSM).
  SetKernelBackendOverride(KernelBackend::kScalar);
  std::vector<std::pair<int64_t, int64_t>> reference;
  PbsmOptions serial;
  PbsmJoin(a, b, [&](int64_t x, int64_t y) { reference.emplace_back(x, y); },
           serial);
  ASSERT_EQ(reference.size(), expected);

  for (const KernelBackend backend : BackendsToTest()) {
    SetKernelBackendOverride(backend);
    EXPECT_EQ(PlaneSweepJoinCount(a, b), expected)
        << KernelBackendName(backend);
    PbsmOptions options;
    options.threads = c.threads;
    EXPECT_EQ(PbsmJoinCount(a, b, options), expected)
        << KernelBackendName(backend);
    // The emitted sequence — not just the set — is invariant.
    std::vector<std::pair<int64_t, int64_t>> got;
    PbsmJoin(a, b, [&](int64_t x, int64_t y) { got.emplace_back(x, y); },
             options);
    EXPECT_EQ(got, reference)
        << KernelBackendName(backend) << " threads " << c.threads;
  }
}

TEST_P(BuildEquivalenceTest, SamplingPlaneSweepMatchesRTreeJoin) {
  const BuildCase& c = GetParam();
  const Dataset a = UniformData(3000, 41);
  const Dataset b = c.skewed ? SkewedData(3000, 43) : UniformData(3000, 43);
  SamplingOptions options;
  options.frac_a = 0.2;
  options.frac_b = 0.2;
  options.threads = c.threads;
  const auto rtree = EstimateBySampling(a, b, options);
  ASSERT_TRUE(rtree.ok());
  for (const KernelBackend backend : BackendsToTest()) {
    SetKernelBackendOverride(backend);
    options.join_algo = SampleJoinAlgo::kPlaneSweep;
    const auto sweep = EstimateBySampling(a, b, options);
    ASSERT_TRUE(sweep.ok());
    // Same drawn samples, exact filters: identical raw pair count and
    // therefore a bit-identical estimate.
    EXPECT_EQ(sweep->sample_pairs, rtree->sample_pairs)
        << KernelBackendName(backend);
    EXPECT_EQ(sweep->estimated_pairs, rtree->estimated_pairs);
    EXPECT_EQ(sweep->sample_a_size, rtree->sample_a_size);
    EXPECT_EQ(sweep->sample_b_size, rtree->sample_b_size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BuildEquivalenceTest,
    ::testing::Values(BuildCase{false, 1}, BuildCase{false, 4},
                      BuildCase{false, 8}, BuildCase{true, 1},
                      BuildCase{true, 4}, BuildCase{true, 8}));

}  // namespace
}  // namespace sjsel
