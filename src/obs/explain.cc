#include "obs/explain.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "core/gh_histogram.h"
#include "core/grid.h"
#include "core/ph_histogram.h"
#include "join/plane_sweep.h"
#include "util/json.h"
#include "util/table.h"

namespace sjsel {
namespace obs {
namespace {

const char* const kGhTermLabels[4] = {"c1*o2", "o1*c2", "h1*v2", "v1*h2"};
const char* const kPhTermLabels[4] = {"sa", "sb", "sc", "sd_raw"};

// Cells ranked by estimated contribution, descending, flat index ascending
// on ties — the one deterministic order every ranked view derives from.
std::vector<int64_t> RankByContribution(const std::vector<ExplainCell>& cells) {
  std::vector<int64_t> order(cells.size());
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(), [&](int64_t lhs, int64_t rhs) {
    const double le = cells[static_cast<size_t>(lhs)].estimated_pairs;
    const double re = cells[static_cast<size_t>(rhs)].estimated_pairs;
    if (le != re) return le > re;
    return lhs < rhs;
  });
  return order;
}

ContributionSkew ComputeSkew(const std::vector<ExplainCell>& cells,
                             const std::vector<int64_t>& ranked) {
  ContributionSkew skew;
  double total = 0.0;
  for (const ExplainCell& cell : cells) {
    if (cell.estimated_pairs != 0.0) ++skew.nonzero_cells;
    total += cell.estimated_pairs;
  }
  if (total <= 0.0 || ranked.empty()) return skew;
  const auto share_of_top = [&](int64_t k) {
    double sum = 0.0;
    for (int64_t i = 0; i < k && i < static_cast<int64_t>(ranked.size());
         ++i) {
      sum += cells[static_cast<size_t>(ranked[static_cast<size_t>(i)])]
                 .estimated_pairs;
    }
    return sum / total;
  };
  const int64_t n = static_cast<int64_t>(cells.size());
  skew.top1pct_share = share_of_top(std::max<int64_t>(1, n / 100));
  skew.top10pct_share = share_of_top(std::max<int64_t>(1, n / 10));
  skew.max_cell_share = share_of_top(1);
  return skew;
}

JsonValue CellJson(const EstimateExplain& report, int64_t index) {
  const ExplainCell& cell = report.cells[static_cast<size_t>(index)];
  JsonValue terms = JsonValue::Array();
  for (const double term : cell.terms) terms.Append(JsonValue::Number(term));
  JsonValue out = JsonValue::Object();
  out.Set("index", JsonValue::Int(cell.index))
      .Set("cx", JsonValue::Int(cell.cx))
      .Set("cy", JsonValue::Int(cell.cy))
      .Set("terms", std::move(terms))
      .Set("estimated_pairs", JsonValue::Number(cell.estimated_pairs));
  if (report.has_exact) {
    out.Set("actual_pairs", JsonValue::Number(cell.actual_pairs))
        .Set("error", JsonValue::Number(cell.error()));
  }
  return out;
}

JsonValue CellsJson(const EstimateExplain& report,
                    const std::vector<int64_t>& indices) {
  JsonValue out = JsonValue::Array();
  for (const int64_t index : indices) out.Append(CellJson(report, index));
  return out;
}

JsonValue DatasetJson(const std::string& name, uint64_t rects,
                      uint64_t validated) {
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::String(name))
      .Set("rects", JsonValue::Int(static_cast<long long>(rects)))
      .Set("validated", JsonValue::Int(static_cast<long long>(validated)));
  return out;
}

std::string TrialStatusLine(const RungTrial& trial,
                            const ExplainRenderOptions& options) {
  char head[64];
  std::snprintf(head, sizeof(head), "  %-10s %-8s", EstimatorRungName(trial.rung),
                trial.answered ? "answered" : "failed");
  std::string line = head;
  if (!trial.label.empty()) line += " " + trial.label;
  if (!trial.cause.empty()) line += " cause=" + trial.cause;
  if (trial.has_raw_pairs) {
    line += " raw_pairs=" + FormatDouble(trial.raw_pairs, 6);
  }
  if (options.include_timing) {
    line += " [" + std::to_string(trial.elapsed_us) + "us]";
  }
  return line;
}

}  // namespace

const char* ExplainSchemeName(ExplainScheme scheme) {
  return scheme == ExplainScheme::kGh ? "gh" : "ph";
}

const char* const* ExplainTermLabels(ExplainScheme scheme) {
  return scheme == ExplainScheme::kGh ? kGhTermLabels : kPhTermLabels;
}

Result<EstimateExplain> BuildEstimateExplain(const Dataset& a,
                                             const Dataset& b,
                                             const ExplainOptions& options) {
  PreparedInput pa;
  SJSEL_ASSIGN_OR_RETURN(pa, PrepareInput(a, options.guarded.policy));
  PreparedInput pb;
  SJSEL_ASSIGN_OR_RETURN(pb, PrepareInput(b, options.guarded.policy));
  return BuildEstimateExplain(pa, pb, options);
}

Result<EstimateExplain> BuildEstimateExplain(const PreparedInput& a,
                                             const PreparedInput& b,
                                             const ExplainOptions& options) {
  // The chain's pair: the rects, tallies and frame of the estimate this
  // report describes.
  PreparedPair pair;
  SJSEL_ASSIGN_OR_RETURN(pair, PreparePair(a, b));
  const Dataset& va = pair.a().rects();
  const Dataset& vb = pair.b().rects();
  const Rect& extent = pair.frame;
  EstimateExplain report;
  report.scheme = options.scheme;
  report.level = options.level;
  report.dataset_a = a.source->name();
  report.dataset_b = b.source->name();
  report.raw_a = a.source->size();
  report.raw_b = b.source->size();
  report.validation_a = pair.a().counters;
  report.validation_b = pair.b().counters;
  report.n1 = va.size();
  report.n2 = vb.size();
  report.extent = extent;

  // The guarded chain run recorded in the report, under the inputs'
  // policy, with the rung matching the breakdown scheme pinned to the
  // breakdown level.
  GuardedEstimatorOptions guarded = options.guarded;
  guarded.policy = a.policy;
  if (options.scheme == ExplainScheme::kGh) {
    guarded.gh_level = options.level;
  } else {
    guarded.ph_level = options.level;
  }
  SJSEL_ASSIGN_OR_RETURN(report.chain, GuardedEstimator(guarded).Estimate(pair));

  // Empty input after validation: the estimate is zero and there is no
  // grid to attribute anything to.
  if (va.empty() || vb.empty()) {
    if (options.with_exact) report.has_exact = true;
    return report;
  }

  Result<Grid> created = Grid::Create(extent, options.level);
  if (!created.ok()) return created.status();
  const Grid& grid = created.value();
  report.per_axis = grid.per_axis();
  report.num_cells = grid.num_cells();
  report.cells.resize(static_cast<size_t>(grid.num_cells()));
  for (int64_t i = 0; i < grid.num_cells(); ++i) {
    ExplainCell& cell = report.cells[static_cast<size_t>(i)];
    cell.index = i;
    cell.cx = static_cast<int>(i % grid.per_axis());
    cell.cy = static_cast<int>(i / grid.per_axis());
  }

  if (options.scheme == ExplainScheme::kGh) {
    // The histograms the chain's GH rung reads: the inputs' summaries.
    std::shared_ptr<const GhHistogram> ha;
    SJSEL_ASSIGN_OR_RETURN(ha, pair.a().GhHistogramOn(extent, options.level));
    std::shared_ptr<const GhHistogram> hb;
    SJSEL_ASSIGN_OR_RETURN(hb, pair.b().GhHistogramOn(extent, options.level));
    std::vector<GhCellContribution> terms;
    SJSEL_ASSIGN_OR_RETURN(terms, GhPerCellContributions(*ha, *hb));
    SJSEL_ASSIGN_OR_RETURN(report.estimated_pairs,
                           EstimateGhJoinPairs(*ha, *hb));
    for (size_t i = 0; i < terms.size(); ++i) {
      ExplainCell& cell = report.cells[i];
      cell.terms[0] = terms[i].c1_o2;
      cell.terms[1] = terms[i].o1_c2;
      cell.terms[2] = terms[i].h1_v2;
      cell.terms[3] = terms[i].v1_h2;
      cell.estimated_pairs = terms[i].pairs();
    }
  } else {
    Result<PhHistogram> ra = PhHistogram::Build(
        va, extent, options.level, PhVariant::kSplitCrossing, options.threads);
    if (!ra.ok()) return ra.status();
    Result<PhHistogram> rb = PhHistogram::Build(
        vb, extent, options.level, PhVariant::kSplitCrossing, options.threads);
    if (!rb.ok()) return rb.status();
    const PhHistogram& ha = ra.value();
    const PhHistogram& hb = rb.value();
    std::vector<PhCellContribution> terms;
    SJSEL_ASSIGN_OR_RETURN(terms, PhPerCellContributions(ha, hb));
    SJSEL_ASSIGN_OR_RETURN(report.estimated_pairs,
                           EstimatePhJoinPairs(ha, hb));
    const double mean_span = PhMeanSpan(ha, hb);
    for (size_t i = 0; i < terms.size(); ++i) {
      ExplainCell& cell = report.cells[i];
      cell.terms[0] = terms[i].sa;
      cell.terms[1] = terms[i].sb;
      cell.terms[2] = terms[i].sc;
      cell.terms[3] = terms[i].sd_raw;
      cell.estimated_pairs = terms[i].pairs(mean_span);
    }
  }
  report.selectivity = report.estimated_pairs / (static_cast<double>(report.n1) *
                                                 static_cast<double>(report.n2));

  if (options.with_exact) {
    // Partitioned exact count: every joined pair drops one integer count
    // on the cell owning each corner of its intersection rectangle, so a
    // cell's exact share is count/4 and the shares sum to the join count
    // whatever cells the intersection touches (integer sums, order
    // independent — deterministic for any join order).
    std::vector<uint64_t> corner_counts(
        static_cast<size_t>(grid.num_cells()), 0);
    uint64_t total = 0;
    PlaneSweepJoin(va, vb, [&](int64_t ia, int64_t ib) {
      const Rect isect = va[static_cast<size_t>(ia)].Intersection(
          vb[static_cast<size_t>(ib)]);
      ++corner_counts[static_cast<size_t>(
          grid.CellOf({isect.min_x, isect.min_y}))];
      ++corner_counts[static_cast<size_t>(
          grid.CellOf({isect.max_x, isect.min_y}))];
      ++corner_counts[static_cast<size_t>(
          grid.CellOf({isect.min_x, isect.max_y}))];
      ++corner_counts[static_cast<size_t>(
          grid.CellOf({isect.max_x, isect.max_y}))];
      ++total;
    });
    for (size_t i = 0; i < corner_counts.size(); ++i) {
      report.cells[i].actual_pairs =
          static_cast<double>(corner_counts[i]) / 4.0;
    }
    report.has_exact = true;
    report.actual_pairs = total;
    if (total > 0) {
      report.relative_error =
          (report.estimated_pairs - static_cast<double>(total)) /
          static_cast<double>(total);
    }
  }

  const std::vector<int64_t> ranked = RankByContribution(report.cells);
  report.skew = ComputeSkew(report.cells, ranked);
  const int64_t top_k = std::max(0, options.top_k);
  for (const int64_t index : ranked) {
    if (static_cast<int64_t>(report.top_contributors.size()) >= top_k) break;
    if (report.cells[static_cast<size_t>(index)].estimated_pairs == 0.0) break;
    report.top_contributors.push_back(index);
  }
  if (report.has_exact) {
    std::vector<int64_t> by_error(report.cells.size());
    std::iota(by_error.begin(), by_error.end(), int64_t{0});
    std::sort(by_error.begin(), by_error.end(),
              [&](int64_t lhs, int64_t rhs) {
                const double le =
                    std::fabs(report.cells[static_cast<size_t>(lhs)].error());
                const double re =
                    std::fabs(report.cells[static_cast<size_t>(rhs)].error());
                if (le != re) return le > re;
                return lhs < rhs;
              });
    for (const int64_t index : by_error) {
      if (static_cast<int64_t>(report.top_errors.size()) >= top_k) break;
      if (report.cells[static_cast<size_t>(index)].error() == 0.0) break;
      report.top_errors.push_back(index);
    }
  }
  return report;
}

std::string RenderChainText(const EstimateResult& result,
                            const ExplainRenderOptions& options) {
  std::string out = "chain:\n";
  for (const RungTrial& trial : result.trials) {
    out += TrialStatusLine(trial, options);
    out += "\n";
  }
  return out;
}

std::string RenderExplainText(const EstimateExplain& report,
                              const ExplainRenderOptions& options) {
  std::string out;
  // Keys are padded to a fixed column; values are appended whole, so a
  // long dataset name cannot cut a line short.
  const auto pad = [](const char* key, size_t width) {
    std::string padded = key;
    if (padded.size() < width) padded.resize(width, ' ');
    return padded;
  };
  const auto kv = [&](const char* key, const std::string& value) {
    out += pad(key, 21) + ": " + value + "\n";
  };
  kv("explain", std::string(ExplainSchemeName(report.scheme)) + " level " +
                    std::to_string(report.level));
  kv("dataset a", report.dataset_a + " (" + std::to_string(report.raw_a) +
                      " rects, " + std::to_string(report.n1) + " validated)");
  kv("dataset b", report.dataset_b + " (" + std::to_string(report.raw_b) +
                      " rects, " + std::to_string(report.n2) + " validated)");
  kv("extent", report.extent.ToString());
  kv("grid", std::to_string(report.per_axis) + " x " +
                 std::to_string(report.per_axis) + " = " +
                 std::to_string(report.num_cells) + " cells");
  kv("estimated pairs", FormatDouble(report.estimated_pairs, 1));
  kv("estimated selectivity", FormatDouble(report.selectivity, 6));
  kv("validation (a)", report.validation_a.ToString());
  kv("validation (b)", report.validation_b.ToString());
  out += RenderChainText(report.chain, options);
  kv("rung", std::string(EstimatorRungName(report.chain.rung)) + " (" +
                 report.chain.rung_label + ")");
  kv("degradation_reason", report.chain.degraded()
                               ? report.chain.degradation_reason
                               : "none");
  kv("clamped", report.chain.clamped ? "yes" : "no");

  if (report.cells.empty()) {
    kv("per-cell breakdown", "unavailable (empty input after validation)");
    return out;
  }

  out += "contribution skew:\n";
  out += "  " + pad("nonzero cells", 19) + ": " +
         std::to_string(report.skew.nonzero_cells) + " of " +
         std::to_string(report.num_cells) + "\n";
  const auto skew_kv = [&](const char* key, double share) {
    out += "  " + pad(key, 19) + ": " + FormatPercent(share) + " of estimate\n";
  };
  skew_kv("top 1% of cells", report.skew.top1pct_share);
  skew_kv("top 10% of cells", report.skew.top10pct_share);
  skew_kv("max single cell", report.skew.max_cell_share);

  const char* const* labels = ExplainTermLabels(report.scheme);
  const auto cell_table = [&](const std::vector<int64_t>& indices) {
    TextTable table;
    std::vector<std::string> header = {"cell", "cx", "cy"};
    for (int t = 0; t < 4; ++t) header.push_back(labels[t]);
    header.push_back("est_pairs");
    if (report.has_exact) {
      header.push_back("actual_pairs");
      header.push_back("error");
    }
    table.SetHeader(std::move(header));
    for (const int64_t index : indices) {
      const ExplainCell& cell = report.cells[static_cast<size_t>(index)];
      std::vector<std::string> row = {std::to_string(cell.index),
                                      std::to_string(cell.cx),
                                      std::to_string(cell.cy)};
      for (int t = 0; t < 4; ++t) row.push_back(FormatDouble(cell.terms[t], 4));
      row.push_back(FormatDouble(cell.estimated_pairs, 6));
      if (report.has_exact) {
        row.push_back(FormatDouble(cell.actual_pairs, 6));
        row.push_back(FormatDouble(cell.error(), 4));
      }
      table.AddRow(std::move(row));
    }
    return table.ToString();
  };

  out += "top contributing cells:\n";
  out += cell_table(report.top_contributors);
  if (report.has_exact) {
    kv("actual pairs", std::to_string(report.actual_pairs));
    kv("relative error", FormatDouble(report.relative_error, 4));
    out += "top erring cells:\n";
    out += cell_table(report.top_errors);
  }
  return out;
}

JsonValue ExplainJson(const EstimateExplain& report,
                      const ExplainRenderOptions& options) {
  JsonValue extent = JsonValue::Array();
  for (const double v : {report.extent.min_x, report.extent.min_y,
                         report.extent.max_x, report.extent.max_y}) {
    extent.Append(JsonValue::Number(v));
  }
  JsonValue trials = JsonValue::Array();
  for (const RungTrial& trial : report.chain.trials) {
    JsonValue t = JsonValue::Object();
    t.Set("rung", JsonValue::String(EstimatorRungName(trial.rung)))
        .Set("label", JsonValue::String(trial.label))
        .Set("answered", JsonValue::Bool(trial.answered))
        .Set("cause", JsonValue::String(trial.cause));
    if (trial.has_raw_pairs) {
      t.Set("raw_pairs", JsonValue::Number(trial.raw_pairs));
    }
    if (options.include_timing) {
      t.Set("elapsed_us",
            JsonValue::Int(static_cast<long long>(trial.elapsed_us)));
    }
    trials.Append(std::move(t));
  }
  JsonValue chain = JsonValue::Object();
  chain.Set("rung", JsonValue::String(EstimatorRungName(report.chain.rung)))
      .Set("label", JsonValue::String(report.chain.rung_label))
      .Set("degradation_reason",
           JsonValue::String(report.chain.degradation_reason))
      .Set("clamped", JsonValue::Bool(report.chain.clamped))
      .Set("trials", std::move(trials));
  JsonValue labels = JsonValue::Array();
  const char* const* term_labels = ExplainTermLabels(report.scheme);
  for (int t = 0; t < 4; ++t) labels.Append(JsonValue::String(term_labels[t]));
  JsonValue skew = JsonValue::Object();
  skew.Set("nonzero_cells", JsonValue::Int(report.skew.nonzero_cells))
      .Set("top1pct_share", JsonValue::Number(report.skew.top1pct_share))
      .Set("top10pct_share", JsonValue::Number(report.skew.top10pct_share))
      .Set("max_cell_share", JsonValue::Number(report.skew.max_cell_share));
  JsonValue grid = JsonValue::Object();
  grid.Set("per_axis", JsonValue::Int(report.per_axis))
      .Set("cells", JsonValue::Int(report.num_cells));

  JsonValue body = JsonValue::Object();
  body.Set("scheme", JsonValue::String(ExplainSchemeName(report.scheme)))
      .Set("level", JsonValue::Int(report.level))
      .Set("dataset_a", DatasetJson(report.dataset_a, report.raw_a, report.n1))
      .Set("dataset_b", DatasetJson(report.dataset_b, report.raw_b, report.n2))
      .Set("extent", std::move(extent))
      .Set("grid", std::move(grid))
      .Set("estimated_pairs", JsonValue::Number(report.estimated_pairs))
      .Set("selectivity", JsonValue::Number(report.selectivity))
      .Set("chain", std::move(chain))
      .Set("term_labels", std::move(labels))
      .Set("skew", std::move(skew))
      .Set("top_contributors", CellsJson(report, report.top_contributors));
  if (report.has_exact) {
    JsonValue exact = JsonValue::Object();
    exact
        .Set("actual_pairs",
             JsonValue::Int(static_cast<long long>(report.actual_pairs)))
        .Set("relative_error", JsonValue::Number(report.relative_error));
    body.Set("exact", std::move(exact))
        .Set("top_errors", CellsJson(report, report.top_errors));
  }
  JsonValue root = JsonValue::Object();
  root.Set("explain", std::move(body));
  return root;
}

std::string RenderExplainJson(const EstimateExplain& report,
                              const ExplainRenderOptions& options) {
  return ExplainJson(report, options).Dump();
}

Status WriteExplainHeatmapCsv(const EstimateExplain& report,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  std::fprintf(f, "cx,cy,estimated_pairs%s\n",
               report.has_exact ? ",actual_pairs,error" : "");
  for (const ExplainCell& cell : report.cells) {
    if (report.has_exact) {
      std::fprintf(f, "%d,%d,%.17g,%.17g,%.17g\n", cell.cx, cell.cy,
                   cell.estimated_pairs, cell.actual_pairs, cell.error());
    } else {
      std::fprintf(f, "%d,%d,%.17g\n", cell.cx, cell.cy,
                   cell.estimated_pairs);
    }
  }
  if (std::fclose(f) != 0) {
    return Status::IoError("failed writing " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace sjsel
