#ifndef SJSEL_CORE_PH_HISTOGRAM_H_
#define SJSEL_CORE_PH_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/grid.h"
#include "geom/dataset.h"
#include "util/result.h"
#include "util/status.h"

namespace sjsel {

/// How PH buckets MBRs that span cell boundaries (paper Section 3.1.2).
enum class PhVariant {
  /// The paper's PH: crossing MBRs are clipped at cell boundaries and kept
  /// in a separate Isect population per cell.
  kSplitCrossing,
  /// Ablation baseline: every overlapped cell counts the full, unclipped
  /// MBR in its Cont population ("naive gridding" — the multiple-counting
  /// strawman PH was designed to improve on).
  kNaive,
};

/// The Parametric Histogram: per grid cell, the Aref–Samet parameters of
/// Table 1, split into MBRs fully contained in the cell (Num/Cov/Xavg/Yavg)
/// and MBRs crossing the cell boundary, clipped to the cell
/// (Num'/Cov'/Xavg'/Yavg'), plus the dataset-global AvgSpan used to damp
/// multiple counting of crossing-crossing intersections.
///
/// Level 0 reproduces the prior parametric model [2] exactly (one cell =
/// the whole extent, everything contained, Equation 1).
///
/// Thread-safety: value type, no hidden shared state. Concurrent const
/// access (estimates, accessors, Save) is safe; AddRect / RemoveRect /
/// Merge need external synchronization. The multi-threaded Build gives
/// each worker whole tiles of grid cells, as the GH build does
/// (src/core/tile_build.h; see docs/ARCHITECTURE.md, "Threading model").
class PhHistogram {
 public:
  /// Sums kept per cell; averages and ratios are derived at estimate time.
  struct Cell {
    double num = 0.0;       ///< |Cont|
    double area_sum = 0.0;  ///< Σ area of contained MBRs
    double w_sum = 0.0;     ///< Σ width of contained MBRs
    double h_sum = 0.0;     ///< Σ height of contained MBRs
    double num_x = 0.0;     ///< |Isect| (crossing MBRs touching the cell)
    double area_sum_x = 0.0;  ///< Σ area of MBR ∩ cell over Isect
    double w_sum_x = 0.0;     ///< Σ width of MBR ∩ cell over Isect
    double h_sum_x = 0.0;     ///< Σ height of MBR ∩ cell over Isect
  };

  /// Builds the histogram of `ds` on a `level`-deep grid over `extent`.
  /// `threads` > 1 bins the MBRs by tile and accumulates the tiles in
  /// parallel, each in dataset order, so the result is bit-identical to
  /// the serial build for any thread count; `threads` <= 1 is the serial
  /// path.
  static Result<PhHistogram> Build(
      const Dataset& ds, const Rect& extent, int level,
      PhVariant variant = PhVariant::kSplitCrossing, int threads = 1);

  /// Creates an empty histogram for incremental population with AddRect.
  static Result<PhHistogram> CreateEmpty(
      const Rect& extent, int level,
      PhVariant variant = PhVariant::kSplitCrossing);

  /// Incremental maintenance: folds one MBR in. All PH statistics —
  /// including the AvgSpan numerator/denominator — are kept as sums, so
  /// insertions commute with Build.
  void AddRect(const Rect& r);

  /// Incremental maintenance: removes one previously added MBR (which must
  /// actually be in the underlying dataset; see GhHistogram::RemoveRect).
  void RemoveRect(const Rect& r);

  /// Merges another histogram of the same grid/variant — the histogram of
  /// the bag-union of the two datasets. Exact, since all fields are sums.
  Status Merge(const PhHistogram& other);

  const Grid& grid() const { return grid_; }
  PhVariant variant() const { return variant_; }
  uint64_t dataset_size() const { return n_; }
  const std::string& dataset_name() const { return name_; }
  /// Average number of cells a boundary-crossing MBR spans (1.0 when the
  /// dataset has no crossing MBRs, e.g. at level 0).
  double avg_span() const {
    return crossing_count_ > 0.0 ? span_sum_ / crossing_count_ : 1.0;
  }
  /// Number of MBRs that cross cell boundaries.
  double crossing_count() const { return crossing_count_; }
  const std::vector<Cell>& cells() const { return cells_; }

  /// Histogram-file footprint: 8 doubles per cell.
  uint64_t NominalBytes() const { return grid_.num_cells() * 8 * 8; }

  Status Save(const std::string& path) const;
  static Result<PhHistogram> Load(const std::string& path);

 private:
  PhHistogram(Grid grid, PhVariant variant)
      : grid_(grid), variant_(variant) {}

  void Apply(const Rect& r, double weight);

  Grid grid_;
  PhVariant variant_;
  uint64_t n_ = 0;
  double span_sum_ = 0.0;       ///< Σ cells spanned over crossing MBRs
  double crossing_count_ = 0.0; ///< number of crossing MBRs
  std::string name_;
  std::vector<Cell> cells_;
};

/// Options for the PH join estimate.
struct PhEstimateOptions {
  /// Divide the Sd sum by mean(AvgSpan1, AvgSpan2) as in Equation 3.
  /// Disabled only by the ablation benchmark.
  bool apply_span_correction = true;
};

/// Estimated join result size Σ Sa + Σ Sb + Σ Sc + Σ Sd / mean(AvgSpan)
/// (Equation 3). Histograms must share grid and variant.
Result<double> EstimatePhJoinPairs(const PhHistogram& a, const PhHistogram& b,
                                   PhEstimateOptions options = {});

/// One cell's share of the Equation 3 estimate, split into the four
/// population pairings: Sa (Cont×Cont), Sb (Cont×Isect), Sc (Isect×Cont)
/// and the *raw* Sd (Isect×Isect) before the global AvgSpan damping.
struct PhCellContribution {
  double sa = 0.0;
  double sb = 0.0;
  double sc = 0.0;
  double sd_raw = 0.0;

  /// Join pairs attributed to the cell once `mean_span` (PhMeanSpan of
  /// the two histograms) is applied to the crossing-crossing term.
  double pairs(double mean_span) const {
    return sa + sb + sc + sd_raw / mean_span;
  }
};

/// Per-cell breakdown of EstimatePhJoinPairs: element i is cell i's share
/// (flat row-major index). The scalar estimate accumulates exactly these
/// terms in this order (both paths share one per-cell helper), so
/// Σ sa + Σ sb + Σ sc interleaved per cell plus Σ sd_raw / PhMeanSpan
/// reproduces EstimatePhJoinPairs bit for bit. Same compatibility
/// requirements as the scalar estimate.
Result<std::vector<PhCellContribution>> PhPerCellContributions(
    const PhHistogram& a, const PhHistogram& b);

/// The Sd divisor the scalar estimate uses for this histogram pair: the
/// mean of the two AvgSpans when options.apply_span_correction (and that
/// mean is positive), else 1.0.
double PhMeanSpan(const PhHistogram& a, const PhHistogram& b,
                  PhEstimateOptions options = {});

/// Estimated join selectivity: pairs / (N1 * N2).
Result<double> EstimatePhJoinSelectivity(const PhHistogram& a,
                                         const PhHistogram& b,
                                         PhEstimateOptions options = {});

}  // namespace sjsel

#endif  // SJSEL_CORE_PH_HISTOGRAM_H_
