// E14 — robustness drill: estimation accuracy before and after
// quarantining injected degenerate rectangles. Pollutes each workload's
// first input with NaN / Inf / inverted MBRs at growing rates and
// compares the raw GH estimator (which ingests the garbage) against the
// guarded chain under --validate=quarantine. The exact join is immune to
// the defects (NaN comparisons are false, inverted rects intersect
// nothing), so the clean actual stays the reference throughout. Exits 1
// unless the guarded estimate at every defect rate equals the clean one
// bit for bit.

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench/bench_common.h"
#include "core/gh_histogram.h"
#include "core/guarded_estimator.h"
#include "stats/dataset_stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sjsel;
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const double scale = smoke ? 0.02 : gen::ExperimentScaleFromEnv(0.1);
  bench::PrintHeader(
      "E14: estimate accuracy with injected degenerate rects, "
      "raw GH vs guarded+quarantine",
      scale);
  bench::DatasetCache cache(scale);

  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();

  auto pairs = gen::Figure7Pairs();
  if (smoke) pairs.resize(1);
  for (const auto& pair : pairs) {
    const Dataset& a = cache.Get(pair.first);
    const Dataset& b = cache.Get(pair.second);
    const bench::PairBaseline baseline = bench::ComputeBaseline(a, b);
    const double actual = static_cast<double>(baseline.actual_pairs);
    std::printf("--- %s (actual %.0f pairs) ---\n", pair.Label().c_str(),
                actual);

    TextTable table;
    table.SetHeader({"defect rate", "raw GH estimate", "raw GH error",
                     "guarded estimate", "guarded error", "quarantined"});
    double clean_guarded = 0.0;
    for (const double rate : {0.0, 0.001, 0.01, 0.05}) {
      // Pollute input A: cycle NaN / Inf / inverted defects.
      Dataset polluted(a.name() + "_polluted");
      polluted.Reserve(a.size());
      for (const Rect& r : a.rects()) polluted.Add(r);
      const size_t defects =
          static_cast<size_t>(rate * static_cast<double>(a.size()));
      for (size_t i = 0; i < defects; ++i) {
        switch (i % 3) {
          case 0:
            polluted.Add(Rect(kNaN, 0.1, 0.2, 0.2));
            break;
          case 1:
            polluted.Add(Rect(0.3, 0.3, kInf, 0.4));
            break;
          default:
            polluted.Add(Rect(0.9, 0.9, 0.1, 0.1));
            break;
        }
      }

      // Raw GH: level-7 histograms of the unvalidated rects over their
      // raw joint extent, which one non-finite rect poisons.
      Rect raw_extent = polluted.ComputeExtent();
      raw_extent.Extend(b.ComputeExtent());
      const auto raw_a = GhHistogram::Build(polluted, raw_extent, 7);
      const auto raw_b = GhHistogram::Build(b, raw_extent, 7);
      const double raw_est =
          raw_a.ok() && raw_b.ok()
              ? EstimateGhJoinPairs(*raw_a, *raw_b).value_or(kNaN)
              : kNaN;

      GuardedEstimatorOptions options;
      options.policy = ValidationPolicy::kQuarantine;
      const auto guarded = GuardedEstimator(options).Estimate(polluted, b);
      if (!guarded.ok()) return 1;
      const double guarded_est = guarded->outcome.estimated_pairs;
      if (rate == 0.0) clean_guarded = guarded_est;
      if (std::bit_cast<uint64_t>(guarded_est) !=
          std::bit_cast<uint64_t>(clean_guarded)) {
        std::fprintf(stderr, "%s: guarded estimate at %g defects differs\n",
                     pair.Label().c_str(), rate);
        return 1;
      }

      table.AddRow(
          {FormatPercent(rate), FormatDouble(raw_est, 1),
           std::isfinite(raw_est) ? FormatPercent(RelativeError(raw_est, actual))
                                  : "n/a (non-finite)",
           FormatDouble(guarded_est, 1),
           FormatPercent(RelativeError(guarded_est, actual)),
           std::to_string(guarded->validation_a.quarantined)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  std::printf(
      "Reading: a single non-finite MBR poisons the raw GH histogram (the\n"
      "joint extent and every touched cell go NaN/Inf), so raw error is\n"
      "undefined at any non-zero defect rate. The guarded chain quarantines\n"
      "the defects and reproduces the clean estimate exactly — accuracy is\n"
      "a function of the estimator, not of input hygiene.\n");
  return 0;
}
