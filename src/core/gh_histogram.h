#ifndef SJSEL_CORE_GH_HISTOGRAM_H_
#define SJSEL_CORE_GH_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/grid.h"
#include "geom/dataset.h"
#include "util/result.h"
#include "util/status.h"

namespace sjsel {

/// Which GH formulation a histogram stores (paper Section 3.2).
enum class GhVariant {
  /// Section 3.2.2 — fractional per-cell statistics (C, O, H, V as counts /
  /// area ratios / length ratios). This is the paper's headline scheme.
  kRevised,
  /// Section 3.2.1 — plain integer counts (C, I, H, V). Suffers the false /
  /// multiple counting of Figure 4; kept for the ablation benchmark.
  kBasic,
};

/// The Geometric Histogram: per grid cell, enough information to estimate
/// the number of *intersection points* contributed by this dataset when
/// joined with another GH histogram over the same grid.
///
/// Revised variant, for cell (i, j) of area CW x CH:
///  - c: number of MBR corner points falling in the cell,
///  - o: sum over MBRs intersecting the cell of area(MBR ∩ cell) / (CW*CH),
///  - h: sum over horizontal MBR edges of len(edge ∩ cell) / CW,
///  - v: sum over vertical MBR edges of len(edge ∩ cell) / CH.
///
/// Basic variant: o holds the MBR-intersects-cell count I, and h / v hold
/// plain edge-through-cell counts.
///
/// Degenerate MBRs are handled naturally: a point contributes 4 coincident
/// corners and nothing else; a horizontal segment contributes 2 coincident
/// horizontal edges — exactly what keeps "intersection points per pair = 4"
/// true for degenerate intersections.
///
/// Thread-safety: GhHistogram is a value type with no hidden shared state.
/// Concurrent const access (estimates, accessors, Save) is safe; AddRect /
/// RemoveRect / Merge are mutations and need external synchronization. The
/// multi-threaded Build path gives each worker whole tiles of grid cells,
/// which no other worker writes (src/core/tile_build.h; see
/// docs/ARCHITECTURE.md, "Threading model").
class GhHistogram {
 public:
  /// Builds the histogram of `ds` on a `level`-deep grid over `extent`.
  /// Every MBR should lie within `extent` (out-of-extent geometry is
  /// clamped by cell ownership and clipped contributions).
  ///
  /// `threads` > 1 bins the MBRs by 32x32-cell tile and accumulates the
  /// tiles in parallel. Each tile sees its MBRs in dataset order, so every
  /// cell sums in the serial order and the result is bit-identical to the
  /// serial build for any thread count (asserted by
  /// tests/par_determinism_test.cc).
  /// `threads` <= 1 is the serial path; 0 and negative values mean serial
  /// too, never "auto".
  static Result<GhHistogram> Build(const Dataset& ds, const Rect& extent,
                                   int level,
                                   GhVariant variant = GhVariant::kRevised,
                                   int threads = 1);

  /// Creates an empty histogram (no data) for incremental population with
  /// AddRect.
  static Result<GhHistogram> CreateEmpty(
      const Rect& extent, int level,
      GhVariant variant = GhVariant::kRevised);

  /// Incremental maintenance: folds one MBR into the histogram. All GH
  /// cell statistics are plain sums, so insertions commute with Build —
  /// CreateEmpty + AddRect over a dataset is bit-identical to Build.
  void AddRect(const Rect& r);

  /// Incremental maintenance: removes one previously added MBR. The caller
  /// must pass an MBR that is actually in the underlying dataset;
  /// removing a never-added rect silently corrupts the statistics (the
  /// histogram keeps no per-object record, exactly like the paper's file
  /// format).
  void RemoveRect(const Rect& r);

  /// Merges another histogram of the same grid/variant into this one —
  /// the histogram of the union (bag semantics) of the two datasets.
  /// GH statistics are additive, so this is exact, enabling per-partition
  /// builds that are folded together afterwards.
  Status Merge(const GhHistogram& other);

  const Grid& grid() const { return grid_; }
  GhVariant variant() const { return variant_; }
  uint64_t dataset_size() const { return n_; }
  const std::string& dataset_name() const { return name_; }

  const std::vector<double>& c() const { return c_; }
  const std::vector<double>& o() const { return o_; }
  const std::vector<double>& h() const { return h_; }
  const std::vector<double>& v() const { return v_; }

  /// Histogram-file footprint: 4 doubles per cell (the paper's space-cost
  /// numerator).
  uint64_t NominalBytes() const { return grid_.num_cells() * 4 * 8; }

  /// On-disk layout of the cell payload. At fine gridding levels most
  /// cells of a skewed dataset are empty (the paper notes the histogram
  /// file outgrowing memory at high levels); the sparse layout stores only
  /// non-empty cells as (index, c, o, h, v) records.
  enum class FileFormat { kDense, kSparse };

  /// Writes the histogram file (magic + header + cell payload + CRC).
  Status Save(const std::string& path,
              FileFormat format = FileFormat::kDense) const;

  /// Number of cells with any non-zero statistic (the sparse-file record
  /// count).
  uint64_t NonEmptyCells() const;

  /// Bytes a Save() in the given format produces for this histogram.
  uint64_t FileBytes(FileFormat format) const;

  /// Loads and validates a histogram file written by Save().
  static Result<GhHistogram> Load(const std::string& path);

 private:
  GhHistogram(Grid grid, GhVariant variant)
      : grid_(grid), variant_(variant) {}

  Grid grid_;
  GhVariant variant_;
  uint64_t n_ = 0;
  std::string name_;
  std::vector<double> c_;
  std::vector<double> o_;
  std::vector<double> h_;
  std::vector<double> v_;
};

/// Estimated number of intersection points between the datasets behind `a`
/// and `b` (Equation 5 / Equation 4 of the paper). The histograms must have
/// compatible grids and the same variant.
Result<double> EstimateGhIntersectionPoints(const GhHistogram& a,
                                            const GhHistogram& b);

/// One cell's share of the Equation 5 estimate: the four cross terms
/// C1·O2, O1·C2, H1·V2, V1·H2 evaluated on that cell. The explain report
/// (src/obs/explain.h) renders these per cell.
struct GhCellContribution {
  double c1_o2 = 0.0;
  double o1_c2 = 0.0;
  double h1_v2 = 0.0;
  double v1_h2 = 0.0;

  /// Intersection points this cell contributes. The association mirrors
  /// the accumulation in EstimateGhIntersectionPoints exactly (both call
  /// the same per-cell helper), so summing these in flat-index order
  /// reproduces the scalar estimate bit for bit.
  double intersection_points() const {
    return c1_o2 + o1_c2 + h1_v2 + v1_h2;
  }
  /// Join pairs attributed to the cell (points / 4 — exact in binary FP).
  double pairs() const { return intersection_points() / 4.0; }
};

/// Per-cell breakdown of EstimateGhIntersectionPoints: element i is cell
/// i's share (flat row-major index). Same compatibility requirements as
/// the scalar estimate.
Result<std::vector<GhCellContribution>> GhPerCellContributions(
    const GhHistogram& a, const GhHistogram& b);

/// Window-restricted estimate: join pairs whose intersection falls inside
/// `window` — the paper's "approximate number of bridges in a given spatial
/// extent" query. Sums per-cell contributions only over cells overlapping
/// the window, weighting boundary cells by their overlapped area fraction.
Result<double> EstimateGhJoinPairsInWindow(const GhHistogram& a,
                                           const GhHistogram& b,
                                           const Rect& window);

/// Spatial correlation of the two datasets (the paper's Section 1 third
/// use-case, after Faloutsos et al. [8]): the ratio of the GH-estimated
/// join selectivity to the selectivity the uniformity model (Equation 1,
/// evaluated from the same histograms' aggregate statistics) would predict
/// for independently placed data.
///   > 1  the datasets co-locate (joins are denser than independence),
///   ~ 1  spatially independent,
///   < 1  the datasets avoid each other.
Result<double> EstimateGhSpatialCorrelation(const GhHistogram& a,
                                            const GhHistogram& b);

/// Estimated self-join size of the histogram's own dataset: distinct
/// unordered intersecting pairs, excluding each rectangle's trivial
/// intersection with itself — the quantity of the fractal self-join work
/// the paper cites [6]. Computed as (ordered estimate - N) / 2, clamped at
/// 0.
Result<double> EstimateGhSelfJoinPairs(const GhHistogram& hist);

/// Estimated number of MBRs of the histogram's dataset that intersect
/// `query` — range-query selectivity from the same histogram file. The
/// query window is treated as a singleton GH dataset; only the cells it
/// overlaps are visited, so this is O(cells under the query).
double EstimateGhRangeCount(const GhHistogram& hist, const Rect& query);

/// Estimated join result size: intersection points / 4.
Result<double> EstimateGhJoinPairs(const GhHistogram& a, const GhHistogram& b);

/// Estimated join selectivity: pairs / (N1 * N2).
Result<double> EstimateGhJoinSelectivity(const GhHistogram& a,
                                         const GhHistogram& b);

/// Picks a GH gridding level for a dataset of `n` objects with average
/// extents (avg_w, avg_h) over `extent`, subject to an optional histogram
/// space budget in bytes (0 = unlimited).
///
/// Heuristic distilled from the Figure 7 sweeps: since GH error only
/// improves with level, choose the finest level whose cells still hold
/// enough objects for the within-cell uniformity assumption (~4 per
/// occupied cell) and do not drop far below the object size (finer cells
/// stop helping once objects span many cells), then clamp to the budget.
int RecommendGhLevel(size_t n, const Rect& extent, double avg_w, double avg_h,
                     uint64_t space_budget_bytes = 0);

}  // namespace sjsel

#endif  // SJSEL_CORE_GH_HISTOGRAM_H_
