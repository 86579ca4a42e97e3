#ifndef SJSEL_OBS_EXPLAIN_H_
#define SJSEL_OBS_EXPLAIN_H_

// Estimator introspection: structured "explain" reports that break a join
// selectivity estimate down to the grid cells it came from, attribute
// per-cell error against an exact partitioned join count, and expose the
// guarded chain's per-rung decisions.
//
// Unlike obs/trace.h and obs/metrics.h — which sit below src/util in the
// module map and depend only on the standard library — this is the
// reporting layer *over* the estimators: it depends on core/, geom/ and
// join/. The shared contract is determinism: every rendering here is a
// pure function of the inputs (no timestamps, no pointers, no iteration
// over unordered containers), so explain output is byte-identical across
// runs and thread counts. Per-rung wall-clock is recorded in the chain
// trials but rendered only on request (ExplainRenderOptions::include_timing)
// because it breaks that guarantee.

#include <cstdint>
#include <string>
#include <vector>

#include "core/guarded_estimator.h"
#include "geom/dataset.h"
#include "geom/rect.h"
#include "geom/validate.h"
#include "util/json.h"
#include "util/result.h"

namespace sjsel {
namespace obs {

/// Which histogram scheme supplies the per-cell breakdown.
enum class ExplainScheme { kGh, kPh };

/// "gh" / "ph".
const char* ExplainSchemeName(ExplainScheme scheme);

struct ExplainOptions {
  ExplainScheme scheme = ExplainScheme::kGh;
  /// Gridding level of the per-cell breakdown (also overrides the matching
  /// rung level of the guarded chain run, so the chain's answer and the
  /// breakdown describe the same histogram).
  int level = 7;
  /// Rows kept in the ranked top-cell tables.
  int top_k = 10;
  /// Run the exact plane-sweep join and attribute actual pairs to cells.
  bool with_exact = false;
  /// Worker threads for the PH builds. Never changes any value (builds
  /// are bit-identical for any thread count). GH histograms come from the
  /// inputs' summaries, which the chain builds single-threaded.
  int threads = 1;
  /// Options of the guarded chain run recorded in the report. Its policy
  /// applies only to the Dataset overload of BuildEstimateExplain, which
  /// prepares both inputs under it; prepared inputs carry their own.
  GuardedEstimatorOptions guarded;
};

/// One grid cell's row of the report. `terms` holds the scheme's four
/// per-cell quantities: GH C1·O2, O1·C2, H1·V2, V1·H2 — PH Sa, Sb, Sc and
/// the raw (pre-span-correction) Sd. ExplainTermLabels names them.
struct ExplainCell {
  int64_t index = 0;  ///< flat row-major cell index
  int cx = 0;
  int cy = 0;
  double terms[4] = {0.0, 0.0, 0.0, 0.0};
  /// Join pairs this cell contributes to the estimate.
  double estimated_pairs = 0.0;
  /// Exact pairs attributed to the cell: each joined pair's intersection
  /// rectangle drops one count on the cell owning each of its four
  /// corners, and the cell's share is count/4 — so degenerate overlaps
  /// partition exactly and the cells sum to the exact join count.
  /// Meaningful only when the report has_exact.
  double actual_pairs = 0.0;

  double error() const { return estimated_pairs - actual_pairs; }
};

/// The four `terms` labels of a scheme, e.g. "c1*o2" or "sa".
const char* const* ExplainTermLabels(ExplainScheme scheme);

/// How concentrated the estimate is over the grid (the Min-Skew-style
/// skew summary): cells ranked by estimated pairs descending, flat index
/// ascending on ties.
struct ContributionSkew {
  /// Cells with a non-zero estimated contribution.
  int64_t nonzero_cells = 0;
  /// Share of the total estimate carried by the top 1% / 10% of cells
  /// (at least one cell). 0 when the estimate is 0.
  double top1pct_share = 0.0;
  double top10pct_share = 0.0;
  /// Largest single-cell share.
  double max_cell_share = 0.0;
};

/// The full introspection report of one estimate.
struct EstimateExplain {
  std::string dataset_a;
  std::string dataset_b;
  /// Raw input sizes and the sizes after validation (what the estimate
  /// and the exact count actually consume).
  uint64_t raw_a = 0;
  uint64_t raw_b = 0;
  uint64_t n1 = 0;
  uint64_t n2 = 0;
  RobustnessCounters validation_a;
  RobustnessCounters validation_b;

  ExplainScheme scheme = ExplainScheme::kGh;
  int level = 0;
  Rect extent = Rect::Empty();
  int per_axis = 0;
  int64_t num_cells = 0;

  /// The scheme's scalar estimate — what the per-cell contributions sum
  /// to (bit-for-bit for GH; PH per-cell values differ from the scalar
  /// accumulation only in final-rounding order).
  double estimated_pairs = 0.0;
  double selectivity = 0.0;

  /// The guarded fallback chain run on the same inputs (rung trials,
  /// degradation trail, clamping, its own answer).
  EstimateResult chain;

  /// Dense per-cell view in flat row-major order (cells[i].index == i).
  std::vector<ExplainCell> cells;
  ContributionSkew skew;
  /// Flat indices of the top-K cells by estimated contribution (zeros
  /// excluded) and, when has_exact, by |error| (exact zeros excluded).
  std::vector<int64_t> top_contributors;
  std::vector<int64_t> top_errors;

  bool has_exact = false;
  uint64_t actual_pairs = 0;
  /// (estimated - actual) / actual; 0 when actual == 0.
  double relative_error = 0.0;
};

/// Builds the report from the chain's pair (PreparePair): its rects,
/// validation tallies and frame. Runs the guarded chain on that pair,
/// takes the scheme's histograms at options.level (GH from the inputs'
/// summaries through PreparedInput::GhHistogramOn, PH built), computes the
/// scalar estimate and per-cell contributions, and (with
/// options.with_exact) attributes the exact plane-sweep join over the
/// pair's rects per cell. Fails on inputs prepared under different
/// policies or an invalid level.
Result<EstimateExplain> BuildEstimateExplain(const PreparedInput& a,
                                             const PreparedInput& b,
                                             const ExplainOptions& options);

/// Prepares both datasets under options.guarded.policy, as
/// GuardedEstimator::Estimate(Dataset, Dataset) does, and builds their
/// report. Fails also on kReject policy violations.
Result<EstimateExplain> BuildEstimateExplain(const Dataset& a,
                                             const Dataset& b,
                                             const ExplainOptions& options);

struct ExplainRenderOptions {
  /// Adds per-rung wall-clock to the chain section. Off by default: the
  /// renderings are byte-identical across runs only without it.
  bool include_timing = false;
};

/// The chain section alone ("chain:" plus one line per rung trial and the
/// degradation/clamp summary) — shared by the explain report and the CLI's
/// `estimate --explain`.
std::string RenderChainText(const EstimateResult& result,
                            const ExplainRenderOptions& options = {});

/// Deterministic human-readable report.
std::string RenderExplainText(const EstimateExplain& report,
                              const ExplainRenderOptions& options = {});

/// The report as a JSON document: {"explain": {...}}, keys in a fixed
/// order. The server nests it in its `explain` response.
JsonValue ExplainJson(const EstimateExplain& report,
                      const ExplainRenderOptions& options = {});

/// ExplainJson, dumped: compact, deterministic, doubles as %.17g so values
/// round-trip.
std::string RenderExplainJson(const EstimateExplain& report,
                              const ExplainRenderOptions& options = {});

/// Writes the full cell grid as CSV for offline heatmaps: header
/// "cx,cy,estimated_pairs[,actual_pairs,error]" (exact columns only when
/// the report has_exact), one row per cell in flat row-major order.
Status WriteExplainHeatmapCsv(const EstimateExplain& report,
                              const std::string& path);

}  // namespace obs
}  // namespace sjsel

#endif  // SJSEL_OBS_EXPLAIN_H_
