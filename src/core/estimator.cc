#include "core/estimator.h"

#include <cstdio>

#include <algorithm>
#include <cmath>

#include "core/gh_histogram.h"
#include "core/minskew.h"
#include "core/parametric.h"
#include "core/ph_histogram.h"
#include "stats/dataset_stats.h"
#include "util/timer.h"

namespace sjsel {
namespace {

// Techniques whose per-dataset structures share the pair's joint extent:
// Estimate computes it, EstimateWithin takes it from the caller.
class JointExtentEstimator : public SelectivityEstimator {
 public:
  Result<EstimateOutcome> Estimate(const Dataset& a,
                                   const Dataset& b) final {
    Rect extent = a.ComputeExtent();
    extent.Extend(b.ComputeExtent());
    return EstimateWithin(a, b, extent);
  }
};

class GhEstimator : public JointExtentEstimator {
 public:
  explicit GhEstimator(int level) : level_(level) {}

  std::string Name() const override {
    return "GH(level=" + std::to_string(level_) + ")";
  }

  Result<EstimateOutcome> EstimateWithin(const Dataset& a, const Dataset& b,
                                         const Rect& extent) override {
    EstimateOutcome out;
    Timer timer;
    auto ha = GhHistogram::Build(a, extent, level_);
    if (!ha.ok()) return ha.status();
    auto hb = GhHistogram::Build(b, extent, level_);
    if (!hb.ok()) return hb.status();
    out.prepare_seconds = timer.ElapsedSeconds();

    timer.Reset();
    SJSEL_ASSIGN_OR_RETURN(out.estimated_pairs,
                           EstimateGhJoinPairs(*ha, *hb));
    out.estimate_seconds = timer.ElapsedSeconds();
    out.selectivity = out.estimated_pairs / (static_cast<double>(a.size()) *
                                             static_cast<double>(b.size()));
    return out;
  }

 private:
  int level_;
};

class PhEstimator : public JointExtentEstimator {
 public:
  explicit PhEstimator(int level) : level_(level) {}

  std::string Name() const override {
    return "PH(level=" + std::to_string(level_) + ")";
  }

  Result<EstimateOutcome> EstimateWithin(const Dataset& a, const Dataset& b,
                                         const Rect& extent) override {
    EstimateOutcome out;
    Timer timer;
    auto ha = PhHistogram::Build(a, extent, level_);
    if (!ha.ok()) return ha.status();
    auto hb = PhHistogram::Build(b, extent, level_);
    if (!hb.ok()) return hb.status();
    out.prepare_seconds = timer.ElapsedSeconds();

    timer.Reset();
    SJSEL_ASSIGN_OR_RETURN(out.estimated_pairs,
                           EstimatePhJoinPairs(*ha, *hb));
    out.estimate_seconds = timer.ElapsedSeconds();
    out.selectivity = out.estimated_pairs / (static_cast<double>(a.size()) *
                                             static_cast<double>(b.size()));
    return out;
  }

 private:
  int level_;
};

class ParametricEstimator : public JointExtentEstimator {
 public:
  std::string Name() const override { return "Parametric[AS94]"; }

  Result<EstimateOutcome> EstimateWithin(const Dataset& a, const Dataset& b,
                                         const Rect& extent) override {
    if (a.empty() || b.empty()) {
      return Status::InvalidArgument("empty dataset");
    }
    EstimateOutcome out;
    Timer timer;
    const DatasetStats sa = DatasetStats::Compute(a, extent);
    const DatasetStats sb = DatasetStats::Compute(b, extent);
    out.prepare_seconds = timer.ElapsedSeconds();
    timer.Reset();
    out.estimated_pairs = ParametricJoinPairs(sa, sb);
    out.selectivity = ParametricJoinSelectivity(sa, sb);
    out.estimate_seconds = timer.ElapsedSeconds();
    return out;
  }
};

class SamplingSelectivityEstimator : public SelectivityEstimator {
 public:
  explicit SamplingSelectivityEstimator(const SamplingOptions& options)
      : options_(options) {}

  std::string Name() const override {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s(%.3g%%/%.3g%%)",
                  SamplingMethodName(options_.method).c_str(),
                  options_.frac_a * 100.0, options_.frac_b * 100.0);
    return buf;
  }

  Result<EstimateOutcome> Estimate(const Dataset& a,
                                   const Dataset& b) override {
    SamplingEstimate est;
    SJSEL_ASSIGN_OR_RETURN(est, EstimateBySampling(a, b, options_));
    EstimateOutcome out;
    out.estimated_pairs = est.estimated_pairs;
    out.selectivity = est.selectivity;
    out.prepare_seconds = est.select_seconds + est.build_seconds;
    out.estimate_seconds = est.join_seconds;
    return out;
  }

 private:
  SamplingOptions options_;
};

class MinSkewEstimator : public JointExtentEstimator {
 public:
  explicit MinSkewEstimator(int num_buckets) : num_buckets_(num_buckets) {}

  std::string Name() const override {
    return "MinSkew(buckets=" + std::to_string(num_buckets_) + ")";
  }

  Result<EstimateOutcome> EstimateWithin(const Dataset& a, const Dataset& b,
                                         const Rect& extent) override {
    EstimateOutcome out;
    Timer timer;
    auto ha = MinSkewHistogram::Build(a, extent, num_buckets_);
    if (!ha.ok()) return ha.status();
    auto hb = MinSkewHistogram::Build(b, extent, num_buckets_);
    if (!hb.ok()) return hb.status();
    out.prepare_seconds = timer.ElapsedSeconds();

    timer.Reset();
    SJSEL_ASSIGN_OR_RETURN(out.estimated_pairs,
                           EstimateMinSkewJoinPairs(*ha, *hb));
    out.estimate_seconds = timer.ElapsedSeconds();
    out.selectivity = out.estimated_pairs / (static_cast<double>(a.size()) *
                                             static_cast<double>(b.size()));
    return out;
  }

 private:
  int num_buckets_;
};

}  // namespace

std::unique_ptr<SelectivityEstimator> MakeMinSkewEstimator(int num_buckets) {
  return std::make_unique<MinSkewEstimator>(num_buckets);
}

int RecommendGhLevel(size_t n, const Rect& extent, double avg_w, double avg_h,
                     uint64_t space_budget_bytes) {
  if (n == 0 || extent.IsEmpty() || extent.area() <= 0.0) return 0;

  // Finest level keeping ~4 objects per cell if the data were uniform.
  const double cells_for_density = static_cast<double>(n) / 4.0;
  int density_level = 0;
  while (density_level < 15 &&
         std::pow(4.0, density_level + 1) <= cells_for_density) {
    ++density_level;
  }

  // Level at which the cell size matches the average object size: going
  // much finer stops adding information (the object spans many cells
  // either way).
  const double avg_extent = std::max(1e-12, std::max(avg_w, avg_h));
  const double per_axis = std::max(extent.width(), extent.height());
  int size_level = 0;
  while (size_level < 15 &&
         per_axis / std::pow(2.0, size_level + 1) >= avg_extent) {
    ++size_level;
  }

  int level = std::min(density_level + 2, size_level + 2);
  if (space_budget_bytes > 0) {
    while (level > 0 &&
           (uint64_t{32} << (2 * level)) > space_budget_bytes) {
      --level;
    }
  }
  return std::clamp(level, 0, 12);
}

std::unique_ptr<SelectivityEstimator> MakeGhEstimator(int level) {
  return std::make_unique<GhEstimator>(level);
}

std::unique_ptr<SelectivityEstimator> MakePhEstimator(int level) {
  return std::make_unique<PhEstimator>(level);
}

std::unique_ptr<SelectivityEstimator> MakeParametricEstimator() {
  return std::make_unique<ParametricEstimator>();
}

std::unique_ptr<SelectivityEstimator> MakeSamplingEstimator(
    const SamplingOptions& options) {
  return std::make_unique<SamplingSelectivityEstimator>(options);
}

}  // namespace sjsel
