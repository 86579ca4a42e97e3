// Tests for the sparse GH histogram file format, file-size accounting,
// self-join estimation, and sparse in-memory storage (GhHistogram::Compact):
// a seeded property test checks that a compacted histogram combines, breaks
// down, counts and saves exactly as the dense one it came from.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/gh_histogram.h"
#include "datagen/generators.h"
#include "join/nested_loop.h"
#include "stats/dataset_stats.h"
#include "util/serialize.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);

Dataset MakeTightCluster(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.004, 0.004, 0.5};
  return gen::GaussianClusterRects("tight", n, kUnit,
                                   {{0.3, 0.3}, 0.02, 0.02, 1.0}, size, seed);
}

TEST(GhSparseTest, SparseRoundTripIsLossless) {
  const std::string path = ::testing::TempDir() + "/gh_sparse.hist";
  const Dataset ds = MakeTightCluster(800, 3);
  const auto hist = GhHistogram::Build(ds, kUnit, 7);
  ASSERT_TRUE(hist.ok());
  ASSERT_TRUE(hist->Save(path, GhHistogram::FileFormat::kSparse).ok());
  const auto loaded = GhHistogram::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->c(), hist->c());
  EXPECT_EQ(loaded->o(), hist->o());
  EXPECT_EQ(loaded->h(), hist->h());
  EXPECT_EQ(loaded->v(), hist->v());
  EXPECT_EQ(loaded->dataset_size(), 800u);
  std::remove(path.c_str());
}

TEST(GhSparseTest, SparseFileMuchSmallerForSkewedData) {
  const std::string dense_path = ::testing::TempDir() + "/gh_dense.hist";
  const std::string sparse_path = ::testing::TempDir() + "/gh_sp.hist";
  const Dataset ds = MakeTightCluster(800, 5);
  const auto hist = GhHistogram::Build(ds, kUnit, 8);  // 65536 cells
  ASSERT_TRUE(hist->Save(dense_path, GhHistogram::FileFormat::kDense).ok());
  ASSERT_TRUE(hist->Save(sparse_path, GhHistogram::FileFormat::kSparse).ok());
  const auto dense_bytes = ReadFile(dense_path).value().size();
  const auto sparse_bytes = ReadFile(sparse_path).value().size();
  // A tight cluster occupies a tiny fraction of a 256x256 grid.
  EXPECT_LT(sparse_bytes * 10, dense_bytes);
  // FileBytes() predicts the actual file sizes exactly.
  EXPECT_EQ(hist->FileBytes(GhHistogram::FileFormat::kDense), dense_bytes);
  EXPECT_EQ(hist->FileBytes(GhHistogram::FileFormat::kSparse), sparse_bytes);
  std::remove(dense_path.c_str());
  std::remove(sparse_path.c_str());
}

TEST(GhSparseTest, NonEmptyCellsCountsExactly) {
  auto hist = GhHistogram::CreateEmpty(kUnit, 3);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->NonEmptyCells(), 0u);
  hist->AddRect(Rect(0.1, 0.1, 0.11, 0.11));  // contained in one cell
  EXPECT_EQ(hist->NonEmptyCells(), 1u);
}

TEST(GhSparseTest, SparseCorruptionDetected) {
  const std::string path = ::testing::TempDir() + "/gh_sp_bad.hist";
  const Dataset ds = MakeTightCluster(200, 7);
  const auto hist = GhHistogram::Build(ds, kUnit, 6);
  ASSERT_TRUE(hist->Save(path, GhHistogram::FileFormat::kSparse).ok());
  auto bytes = ReadFile(path).value();
  bytes[bytes.size() / 2] ^= 0x20;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  EXPECT_FALSE(GhHistogram::Load(path).ok());
  std::remove(path.c_str());
}

TEST(GhSparseTest, EstimatesIdenticalAcrossFormats) {
  const std::string dense_path = ::testing::TempDir() + "/gh_fd.hist";
  const std::string sparse_path = ::testing::TempDir() + "/gh_fs.hist";
  const Dataset a = MakeTightCluster(500, 9);
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.01, 0.01, 0.5};
  const Dataset b = gen::UniformRects("u", 500, kUnit, size, 10);
  const auto ha = GhHistogram::Build(a, kUnit, 6);
  const auto hb = GhHistogram::Build(b, kUnit, 6);
  ASSERT_TRUE(ha->Save(dense_path, GhHistogram::FileFormat::kDense).ok());
  ASSERT_TRUE(ha->Save(sparse_path, GhHistogram::FileFormat::kSparse).ok());
  const auto dense = GhHistogram::Load(dense_path);
  const auto sparse = GhHistogram::Load(sparse_path);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(sparse.ok());
  EXPECT_DOUBLE_EQ(EstimateGhJoinPairs(*dense, *hb).value(),
                   EstimateGhJoinPairs(*sparse, *hb).value());
  std::remove(dense_path.c_str());
  std::remove(sparse_path.c_str());
}

// --- sparse storage (GhHistogram::Compact) ---

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

gen::SizeDist Fixed(double w, double h) {
  return {gen::SizeDist::Kind::kFixed, w, h, 0.0};
}

Dataset Concat(const std::string& name, const std::vector<Dataset>& parts) {
  Dataset out(name);
  for (const Dataset& part : parts) {
    for (const Rect& r : part.rects()) out.Add(r);
  }
  return out;
}

// Points, zero-width and zero-height segments, rects whose edges lie on
// cell borders at every level up to 7, and one rect covering the middle
// quarter of the extent.
Dataset Degenerate(uint64_t seed) {
  Dataset ds = Concat(
      "degenerate",
      {gen::UniformRects("p", 150, kUnit, Fixed(0, 0), seed),
       gen::UniformRects("v", 100, kUnit, Fixed(0, 0.03), seed + 1),
       gen::UniformRects("h", 100, kUnit, Fixed(0.03, 0), seed + 2)});
  for (int k = 0; k < 8; ++k) {
    const double x = k / 8.0;
    ds.Add(Rect(x, x, x + 0.125, x + 0.125));
    ds.Add(Rect(x, 0.0, x, 1.0));
  }
  ds.Add(Rect(0.25, 0.25, 0.75, 0.75));
  return ds;
}

GhHistogram Built(const Dataset& ds, int level) {
  auto hist = GhHistogram::Build(ds, kUnit, level);
  EXPECT_TRUE(hist.ok());
  return std::move(hist).value();
}

// A stream's histogram after churn: rects added, then most removed in
// another order, which leaves rounding residuals (tiny negatives) in the
// cells the removed rects touched.
GhHistogram StreamResidual(uint64_t seed, int level) {
  auto hist = GhHistogram::CreateEmpty(kUnit, level);
  EXPECT_TRUE(hist.ok());
  const Dataset kept = gen::UniformRects(
      "kept", 200, kUnit, {gen::SizeDist::Kind::kUniform, 0.02, 0.02, 0.5},
      seed);
  const Dataset churn = gen::GaussianClusterRects(
      "churn", 400, kUnit, {{0.6, 0.4}, 0.1, 0.1, 1.0},
      {gen::SizeDist::Kind::kUniform, 0.03, 0.03, 0.5}, seed + 1);
  for (const Rect& r : churn.rects()) hist->AddRect(r);
  for (const Rect& r : kept.rects()) hist->AddRect(r);
  for (size_t i = churn.size(); i-- > 0;) hist->RemoveRect(churn[i]);
  return std::move(hist).value();
}

// One seed's dense histograms at `level`: clustered, uniform, degenerate
// and stream residual.
std::vector<GhHistogram> DenseKinds(uint64_t seed, int level) {
  std::vector<GhHistogram> out;
  out.push_back(Built(gen::GaussianClusterRects(
                          "clustered", 500, kUnit,
                          {{0.3 + 0.05 * (seed % 5), 0.6}, 0.05, 0.08, 1.0},
                          {gen::SizeDist::Kind::kUniform, 0.01, 0.01, 0.5},
                          seed),
                      level));
  out.push_back(Built(gen::UniformRects(
                          "uniform", 400, kUnit,
                          {gen::SizeDist::Kind::kUniform, 0.01, 0.02, 0.5},
                          seed + 10),
                      level));
  out.push_back(Built(Degenerate(seed + 20), level));
  out.push_back(StreamResidual(seed + 30, level));
  return out;
}

std::shared_ptr<const GhHistogram> Compacted(const GhHistogram& dense) {
  return GhHistogram::Compact(GhHistogram(dense));
}

void ExpectSameCombine(const GhHistogram& a, const GhHistogram& b,
                       double reference) {
  const auto ip = EstimateGhIntersectionPoints(a, b);
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(Bits(*ip), Bits(reference))
      << "sparse " << a.sparse() << "x" << b.sparse() << ": " << *ip
      << " vs " << reference;
}

void ExpectSameBreakdown(const GhHistogram& a, const GhHistogram& b,
                         const std::vector<GhCellContribution>& reference) {
  const auto cells = GhPerCellContributions(a, b);
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(Bits((*cells)[i].c1_o2), Bits(reference[i].c1_o2)) << i;
    ASSERT_EQ(Bits((*cells)[i].o1_c2), Bits(reference[i].o1_c2)) << i;
    ASSERT_EQ(Bits((*cells)[i].h1_v2), Bits(reference[i].h1_v2)) << i;
    ASSERT_EQ(Bits((*cells)[i].v1_h2), Bits(reference[i].v1_h2)) << i;
  }
}

std::string Saved(const GhHistogram& hist, GhHistogram::FileFormat format) {
  const std::string path = ::testing::TempDir() + "/gh_compact.hist";
  EXPECT_TRUE(hist.Save(path, format).ok());
  std::string bytes = ReadFile(path).value();
  std::remove(path.c_str());
  return bytes;
}

// Everything a reader can ask of a compacted histogram equals the dense
// one's: NonEmptyCells, FileBytes and Save in both formats, and every
// cell through Cell().
void ExpectSameSummary(const GhHistogram& dense, const GhHistogram& sparse) {
  EXPECT_EQ(sparse.NonEmptyCells(), dense.NonEmptyCells());
  EXPECT_EQ(sparse.dataset_size(), dense.dataset_size());
  for (const auto format :
       {GhHistogram::FileFormat::kDense, GhHistogram::FileFormat::kSparse}) {
    EXPECT_EQ(sparse.FileBytes(format), dense.FileBytes(format));
    EXPECT_EQ(Saved(sparse, format), Saved(dense, format));
  }
  for (int64_t i = 0; i < dense.grid().num_cells(); ++i) {
    const GhCellStats x = sparse.Cell(i);
    const GhCellStats y = dense.Cell(i);
    ASSERT_EQ(Bits(x.c), Bits(y.c)) << i;
    ASSERT_EQ(Bits(x.o), Bits(y.o)) << i;
    ASSERT_EQ(Bits(x.h), Bits(y.h)) << i;
    ASSERT_EQ(Bits(x.v), Bits(y.v)) << i;
  }
}

// Every ordered pair of `dense`, self-pairs included, under the four
// storage pairings: the combine's bits and the per-cell breakdown equal
// the dense × dense ones.
void ExpectEveryPairingIdentical(
    const std::vector<GhHistogram>& dense,
    const std::vector<const GhHistogram*>& sparse) {
  for (size_t i = 0; i < dense.size(); ++i) {
    for (size_t j = 0; j < dense.size(); ++j) {
      SCOPED_TRACE("pair " + std::to_string(i) + "," + std::to_string(j));
      const auto reference = EstimateGhIntersectionPoints(dense[i], dense[j]);
      ASSERT_TRUE(reference.ok());
      ExpectSameCombine(*sparse[i], dense[j], *reference);
      ExpectSameCombine(dense[i], *sparse[j], *reference);
      ExpectSameCombine(*sparse[i], *sparse[j], *reference);
      const auto cells = GhPerCellContributions(dense[i], dense[j]);
      ASSERT_TRUE(cells.ok());
      ExpectSameBreakdown(*sparse[i], dense[j], *cells);
      ExpectSameBreakdown(dense[i], *sparse[j], *cells);
      ExpectSameBreakdown(*sparse[i], *sparse[j], *cells);
    }
  }
}

TEST(GhCompactTest, EveryStoragePairingCombinesBitIdentically) {
  size_t sparse_seen = 0;
  size_t dense_seen = 0;
  bool residual_negative = false;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const int level : {3, 5, 7}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " level " +
                   std::to_string(level));
      const std::vector<GhHistogram> dense = DenseKinds(seed, level);
      std::vector<std::shared_ptr<const GhHistogram>> held;
      std::vector<const GhHistogram*> compacted;
      for (const GhHistogram& hist : dense) {
        held.push_back(Compacted(hist));
        compacted.push_back(held.back().get());
        if (level == 7) {
          EXPECT_TRUE(held.back()->sparse());
        }
        (held.back()->sparse() ? sparse_seen : dense_seen) += 1;
        ExpectSameSummary(hist, *held.back());
      }
      for (const double o : dense.back().o()) residual_negative |= o < 0.0;
      ExpectEveryPairingIdentical(dense, compacted);
    }
  }
  // Level 7 compacts every kind; coarser levels keep some dense.
  EXPECT_GT(sparse_seen, 6u * 4u);
  EXPECT_GT(dense_seen, 0u);
  EXPECT_TRUE(residual_negative);
}

TEST(GhCompactTest, StoresTheSmallerLayout) {
  const GhHistogram sparse_input = Built(Degenerate(3), 7);
  const auto sparse = Compacted(sparse_input);
  ASSERT_TRUE(sparse->sparse());
  EXPECT_EQ(sparse->stored_cells().size(), sparse_input.NonEmptyCells());
  EXPECT_EQ(sparse->StoredBytes(), sparse->stored_cells().size() * 36);
  EXPECT_LT(sparse->StoredBytes(), sparse_input.NominalBytes());

  // Every cell of a level-2 grid is occupied: the histogram stays dense
  // and its arrays are moved into the summary, not copied.
  GhHistogram full = Built(
      gen::UniformRects("full", 300, kUnit,
                        {gen::SizeDist::Kind::kUniform, 0.05, 0.05, 0.5}, 4),
      2);
  ASSERT_EQ(full.NonEmptyCells(), 16u);
  const double* cells = full.c().data();
  const auto kept = GhHistogram::Compact(std::move(full));
  EXPECT_FALSE(kept->sparse());
  EXPECT_EQ(kept->c().data(), cells);
  EXPECT_EQ(kept->StoredBytes(), kept->NominalBytes());
}

TEST(GhCompactTest, NegativeZeroCellsAreStored) {
  // Build never leaves a -0.0 statistic, but a histogram file can hold
  // one: a level-2 GH file (magic "SGHG", version 3) written field by
  // field, with -0.0, a tiny negative and +0.0 cells.
  std::vector<double> c(16, 0.0), o(16, 0.0), h(16, 0.0), v(16, 0.0);
  c[1] = -0.0;
  o[6] = 1.5;
  h[6] = -1e-17;
  v[9] = -0.0;
  c[15] = 2.0;
  BinaryWriter w;
  w.BeginEnvelope(0x53474847, 3);
  w.PutU8(0);  // revised variant
  w.PutU8(0);  // dense payload
  w.PutU32(2);
  for (const double d : {kUnit.min_x, kUnit.min_y, kUnit.max_x, kUnit.max_y}) {
    w.PutDouble(d);
  }
  w.PutU64(3);
  w.PutString("signed_zeros");
  for (const auto* stat : {&c, &o, &h, &v}) w.PutDoubleVector(*stat);
  const std::string path = ::testing::TempDir() + "/gh_signed_zeros.hist";
  ASSERT_TRUE(WriteFile(path, w.SealEnvelope()).ok());
  const auto loaded = GhHistogram::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const auto sparse = Compacted(*loaded);
  ASSERT_TRUE(sparse->sparse());
  EXPECT_EQ(sparse->stored_cells(), (std::vector<uint32_t>{1, 6, 9, 15}));
  EXPECT_EQ(sparse->NonEmptyCells(), 2u);  // -0.0 == 0.0
  ExpectSameSummary(*loaded, *sparse);

  std::vector<GhHistogram> dense = DenseKinds(7, 2);
  dense.push_back(*loaded);
  std::vector<std::shared_ptr<const GhHistogram>> held;
  std::vector<const GhHistogram*> compacted;
  for (const GhHistogram& hist : dense) {
    held.push_back(Compacted(hist));
    compacted.push_back(held.back().get());
  }
  ExpectEveryPairingIdentical(dense, compacted);
}

TEST(GhCompactTest, RangeAndWindowEstimatesReadEitherStorage) {
  const GhHistogram a = Built(Degenerate(5), 6);
  const GhHistogram b = StreamResidual(6, 6);
  const auto sa = Compacted(a);
  const auto sb = Compacted(b);
  ASSERT_TRUE(sa->sparse() && sb->sparse());
  for (const Rect& q : {Rect(0.1, 0.2, 0.4, 0.5), Rect(0.5, 0.5, 0.5, 0.9),
                        kUnit}) {
    EXPECT_EQ(Bits(EstimateGhRangeCount(*sa, q)),
              Bits(EstimateGhRangeCount(a, q)));
    EXPECT_EQ(Bits(EstimateGhJoinPairsInWindow(*sa, *sb, q).value()),
              Bits(EstimateGhJoinPairsInWindow(a, b, q).value()));
  }
  GhHistogram copy(a);
  EXPECT_FALSE(copy.Merge(*sb).ok());  // sparse histograms are read-only
}

TEST(GhSelfJoinTest, MatchesExactSelfJoinOnDenseData) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.03, 0.03, 0.5};
  const Dataset ds = gen::UniformRects("u", 3000, kUnit, size, 11);
  const double n = static_cast<double>(ds.size());
  // Distinct unordered intersecting pairs, self-pairs excluded.
  const double exact =
      (static_cast<double>(NestedLoopJoinCount(ds, ds)) - n) / 2.0;
  ASSERT_GT(exact, 1000.0);
  const auto hist = GhHistogram::Build(ds, kUnit, 6);
  const auto est = EstimateGhSelfJoinPairs(*hist);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(RelativeError(est.value(), exact), 0.10)
      << "est " << est.value() << " exact " << exact;
}

TEST(GhSelfJoinTest, SparseDataClampsAtZero) {
  // Two far-apart tiny rects: no real pairs; the estimate must not go
  // negative.
  Dataset ds("two");
  ds.Add(Rect(0.1, 0.1, 0.1001, 0.1001));
  ds.Add(Rect(0.9, 0.9, 0.9001, 0.9001));
  const auto hist = GhHistogram::Build(ds, kUnit, 7);
  const auto est = EstimateGhSelfJoinPairs(*hist);
  ASSERT_TRUE(est.ok());
  EXPECT_GE(est.value(), 0.0);
  EXPECT_LT(est.value(), 0.1);
}

}  // namespace
}  // namespace sjsel
