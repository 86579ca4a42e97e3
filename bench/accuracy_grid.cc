// Accuracy drift gate: GH / PH / sampling relative error over the
// evaluation pair x gridding-level grid, written to BENCH_accuracy.json
// so scripts/check_bench.py can diff a fresh run against the checked-in
// baseline. The datasets and the sampling seed are fixed, so the accuracy
// numbers are deterministic for a given scale (only last-bit FP noise from
// compiler FMA choices moves them — check_bench.py allows 1e-6 for that);
// the build-time entries are wall-clock and get the loose perf band.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/gh_histogram.h"
#include "core/ph_histogram.h"
#include "core/sampling.h"
#include "join/plane_sweep.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

// BENCH_accuracy.json entries carry accuracy fields, not the
// ns_per_op/speedup shape of BenchJsonWriter, so this bench writes its own
// file with the same top-level layout ("bench", "run", "entries").
struct AccuracyEntry {
  std::string name;
  double rel_error = 0.0;
  double estimated_pairs = 0.0;
  double actual_pairs = 0.0;
};

struct PerfEntry {
  std::string name;
  double ns_per_op = 0.0;
};

bool WriteAccuracyJson(const std::string& path, double scale,
                       const std::vector<AccuracyEntry>& accuracy,
                       const std::vector<PerfEntry>& perf) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "accuracy_grid: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"accuracy\",\n");
  std::fprintf(f, "  \"run\": {\n");
  std::fprintf(f, "    \"build_type\": \"%s\",\n",
#ifdef NDEBUG
               "release"
#else
               "debug"
#endif
  );
  std::fprintf(f, "    \"scale\": \"%.6g\"\n  },\n", scale);
  std::fprintf(f, "  \"entries\": [");
  bool first = true;
  for (const AccuracyEntry& e : accuracy) {
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"rel_error\": %.17g, "
                 "\"estimated_pairs\": %.17g, \"actual_pairs\": %.17g}",
                 first ? "" : ",", e.name.c_str(), e.rel_error,
                 e.estimated_pairs, e.actual_pairs);
    first = false;
  }
  for (const PerfEntry& e : perf) {
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"ns_per_op\": %.3f}",
                 first ? "" : ",", e.name.c_str(), e.ns_per_op);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu accuracy + %zu perf entries)\n", path.c_str(),
              accuracy.size(), perf.size());
  return true;
}

// A histogram scheme's estimate of a * b on `extent`. The two builds are
// the technique's prepare cost, returned in *prepare_seconds.
template <typename Hist, typename Combine>
sjsel::Result<double> HistogramEstimate(const sjsel::Dataset& a,
                                        const sjsel::Dataset& b,
                                        const sjsel::Rect& extent, int level,
                                        Combine combine,
                                        double* prepare_seconds) {
  sjsel::Timer timer;
  const auto ha = Hist::Build(a, extent, level);
  if (!ha.ok()) return ha.status();
  const auto hb = Hist::Build(b, extent, level);
  if (!hb.ok()) return hb.status();
  *prepare_seconds = timer.ElapsedSeconds();
  return combine(*ha, *hb);
}

}  // namespace

int main() {
  using namespace sjsel;
  const double scale = gen::ExperimentScaleFromEnv(0.05);
  bench::PrintHeader(
      "Accuracy grid: GH / PH / sampling relative error per pair and level",
      scale);
  bench::DatasetCache cache(scale);

  const int kLevels[] = {1, 3, 5, 7};
  std::vector<AccuracyEntry> accuracy;
  std::vector<PerfEntry> perf;

  for (const auto& pair : gen::Figure7Pairs()) {
    const Dataset& a = cache.Get(pair.first);
    const Dataset& b = cache.Get(pair.second);
    const std::string pair_name = gen::PaperDatasetName(pair.first) + "-" +
                                  gen::PaperDatasetName(pair.second);
    const double actual = static_cast<double>(PlaneSweepJoinCount(a, b));
    std::printf("--- %s: actual %.0f pairs ---\n", pair.Label().c_str(),
                actual);

    TextTable table;
    table.SetHeader({"estimator", "est pairs", "rel error", "prepare ms"});
    const auto record = [&](const std::string& name,
                            const Result<double>& pairs,
                            double prepare_seconds) {
      if (!pairs.ok()) {
        std::fprintf(stderr, "%s on %s: %s\n", name.c_str(),
                     pair_name.c_str(), pairs.status().ToString().c_str());
        return false;
      }
      AccuracyEntry entry;
      entry.name = pair_name + "/" + name;
      entry.estimated_pairs = *pairs;
      entry.actual_pairs = actual;
      entry.rel_error = actual > 0.0 ? (*pairs - actual) / actual : 0.0;
      accuracy.push_back(entry);
      PerfEntry timing;
      timing.name = entry.name + "/prepare";
      timing.ns_per_op = prepare_seconds * 1e9;
      perf.push_back(timing);
      table.AddRow({name, FormatDouble(*pairs, 1),
                    FormatPercent(entry.rel_error),
                    FormatDouble(prepare_seconds * 1e3, 2)});
      return true;
    };

    Rect extent = a.ComputeExtent();
    extent.Extend(b.ComputeExtent());
    for (const int level : kLevels) {
      const std::string suffix = "/L" + std::to_string(level);
      double prepare = 0.0;
      const auto gh = HistogramEstimate<GhHistogram>(
          a, b, extent, level, EstimateGhJoinPairs, &prepare);
      if (!record("gh" + suffix, gh, prepare)) return 1;
      const auto ph = HistogramEstimate<PhHistogram>(
          a, b, extent, level,
          [](const PhHistogram& x, const PhHistogram& y) {
            return EstimatePhJoinPairs(x, y);
          },
          &prepare);
      if (!record("ph" + suffix, ph, prepare)) return 1;
    }
    SamplingOptions sampling;  // RSWR 10%/10%, seed 1 — all defaults, fixed
    const auto sampled = EstimateBySampling(a, b, sampling);
    if (!record("sampling/rswr10",
                sampled.ok() ? Result<double>(sampled->estimated_pairs)
                             : sampled.status(),
                sampled.ok() ? sampled->select_seconds + sampled->build_seconds
                             : 0.0)) {
      return 1;
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  if (!WriteAccuracyJson("BENCH_accuracy.json", scale, accuracy, perf)) {
    return 1;
  }
  std::printf(
      "Gate: scripts/check_bench.py compares this file against the\n"
      "checked-in baseline — tight tolerance on rel_error/estimated_pairs/"
      "actual_pairs\n(deterministic), loose on ns_per_op (wall-clock).\n");
  return 0;
}
