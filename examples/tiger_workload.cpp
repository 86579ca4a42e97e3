// TIGER-style workload: the paper's motivating query — "find all the major
// highways that cross a major river" — as a filter-step join between a
// stream layer and a census-block layer, with every estimation technique in
// the library compared side by side.
//
// Usage: tiger_workload [scale]   (default scale 0.05 of paper cardinality;
//                                  also honours SJSEL_SCALE / SJSEL_FULL)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/gh_histogram.h"
#include "core/minskew.h"
#include "core/parametric.h"
#include "core/ph_histogram.h"
#include "core/sampling.h"
#include "datagen/workloads.h"
#include "join/plane_sweep.h"
#include "stats/dataset_stats.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace sjsel;

  double scale = gen::ExperimentScaleFromEnv(0.05);
  if (argc > 1) scale = std::atof(argv[1]);

  std::printf("Generating TIGER-like layers at %.0f%% of paper size...\n",
              scale * 100);
  const Dataset streams =
      gen::MakePaperDataset(gen::PaperDataset::kTS, scale, /*seed=*/7);
  const Dataset blocks =
      gen::MakePaperDataset(gen::PaperDataset::kTCB, scale, 7);
  std::printf("  %s: %zu stream MBRs, %s: %zu census-block MBRs\n\n",
              streams.name().c_str(), streams.size(), blocks.name().c_str(),
              blocks.size());

  Timer join_timer;
  const uint64_t actual = PlaneSweepJoinCount(streams, blocks);
  const double join_seconds = join_timer.ElapsedSeconds();
  std::printf("Exact filter-step join: %llu pairs in %.3f s\n\n",
              static_cast<unsigned long long>(actual), join_seconds);

  TextTable table;
  // "est. time" follows the paper's Estimation Time metric: the cost of
  // consulting prebuilt structures, relative to the actual join. For the
  // sampling schemes the sample join IS the consult step; histogram/sample
  // construction is the separate "prepare" column.
  table.SetHeader({"technique", "est. pairs", "error", "prepare s",
                   "estimate s", "est. time vs join"});
  const auto add_row = [&](const std::string& name,
                           const Result<double>& pairs, double prepare_s,
                           double estimate_s) {
    if (!pairs.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                   pairs.status().ToString().c_str());
      return;
    }
    const double err = RelativeError(*pairs, static_cast<double>(actual));
    table.AddRow({name, FormatDouble(*pairs, 0), FormatPercent(err),
                  FormatDouble(prepare_s, 4), FormatDouble(estimate_s, 5),
                  FormatPercent(estimate_s / join_seconds)});
  };

  // Summary techniques build one summary per layer on the joint extent
  // (prepare), then combine the two (estimate).
  Rect extent = streams.ComputeExtent();
  extent.Extend(blocks.ComputeExtent());
  const auto add_summary_row = [&](const std::string& name, auto build,
                                   auto combine) {
    Timer timer;
    const auto sa = build(streams);
    const auto sb = build(blocks);
    const double prepare_s = timer.ElapsedSeconds();
    if (!sa.ok() || !sb.ok()) {
      return add_row(name, !sa.ok() ? sa.status() : sb.status(), 0.0, 0.0);
    }
    timer.Reset();
    const auto pairs = combine(*sa, *sb);
    add_row(name, pairs, prepare_s, timer.ElapsedSeconds());
  };

  add_summary_row(
      "Parametric[AS94]",
      [&](const Dataset& d) -> Result<DatasetStats> {
        return DatasetStats::Compute(d, extent);
      },
      [](const DatasetStats& a, const DatasetStats& b) -> Result<double> {
        return ParametricJoinPairs(a, b);
      });
  add_summary_row(
      "PH(level=5)",
      [&](const Dataset& d) { return PhHistogram::Build(d, extent, 5); },
      [](const PhHistogram& a, const PhHistogram& b) {
        return EstimatePhJoinPairs(a, b);
      });
  add_summary_row(
      "GH(level=7)",
      [&](const Dataset& d) { return GhHistogram::Build(d, extent, 7); },
      EstimateGhJoinPairs);
  add_summary_row(
      "MinSkew(buckets=1024)",
      [&](const Dataset& d) {
        return MinSkewHistogram::Build(d, extent, 1024);
      },
      EstimateMinSkewJoinPairs);

  for (const SamplingMethod method :
       {SamplingMethod::kRegular, SamplingMethod::kRandomWithReplacement,
        SamplingMethod::kSorted}) {
    SamplingOptions options;  // 10%/10% samples by default
    options.method = method;
    const std::string name = SamplingMethodName(method) + "(10%/10%)";
    const auto est = EstimateBySampling(streams, blocks, options);
    if (!est.ok()) {
      add_row(name, est.status(), 0.0, 0.0);
      continue;
    }
    add_row(name, est->estimated_pairs,
            est->select_seconds + est->build_seconds, est->join_seconds);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Reading the table: GH at level 7 should sit within a few percent of\n"
      "the exact count at a tiny fraction of the join cost; the parametric\n"
      "model mis-estimates because these layers are clustered, and sampling\n"
      "pays its cost in sample-join time.\n");
  return 0;
}
