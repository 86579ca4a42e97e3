#include "core/minskew.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/grid.h"
#include "util/serialize.h"

namespace sjsel {
namespace internal {

namespace {

// ∫_{x=a1}^{b1} max(0, min(b2, x + c) - a2) dx — the area of
// {(x, y) in [a1,b1] x [a2,b2] : y <= x + c}. The integrand is piecewise
// linear with breakpoints where x + c crosses a2 and b2, so the integral
// is an exact sum of trapezoids.
double AreaBelowDiagonal(double a1, double b1, double a2, double b2,
                         double c) {
  auto integrand = [&](double x) {
    return std::max(0.0, std::min(b2, x + c) - a2);
  };
  double pts[4] = {a1, std::clamp(a2 - c, a1, b1), std::clamp(b2 - c, a1, b1),
                   b1};
  std::sort(pts, pts + 4);
  double area = 0.0;
  for (int i = 0; i + 1 < 4; ++i) {
    const double lo = pts[i];
    const double hi = pts[i + 1];
    if (hi <= lo) continue;
    area += 0.5 * (integrand(lo) + integrand(hi)) * (hi - lo);
  }
  return area;
}

}  // namespace

double ProbWithin(double a1, double b1, double a2, double b2, double t) {
  if (t < 0.0) return 0.0;
  const double len1 = b1 - a1;
  const double len2 = b2 - a2;
  if (len1 <= 0.0 && len2 <= 0.0) {
    return std::fabs(a1 - a2) <= t ? 1.0 : 0.0;
  }
  if (len1 <= 0.0) {
    // X is the point a1; measure the part of [a2, b2] within t of it.
    const double lo = std::max(a2, a1 - t);
    const double hi = std::min(b2, a1 + t);
    return std::max(0.0, hi - lo) / len2;
  }
  if (len2 <= 0.0) {
    const double lo = std::max(a1, a2 - t);
    const double hi = std::min(b1, a2 + t);
    return std::max(0.0, hi - lo) / len1;
  }
  // P(-t <= Y - X <= t) = [F(t) - F(-t)] / (len1 * len2).
  const double band = AreaBelowDiagonal(a1, b1, a2, b2, t) -
                      AreaBelowDiagonal(a1, b1, a2, b2, -t);
  return std::clamp(band / (len1 * len2), 0.0, 1.0);
}

}  // namespace internal

namespace {

// True when ProbWithin(a1, b1, a2, b2, t) is exactly 0.0 for every
// t <= reach: both intervals have positive length, and [a2, b2] starts
// right of b1 + reach or ends left of a1 - reach (b2 + reach < a1). A
// negative t returns 0 outright. Otherwise ProbWithin's two
// AreaBelowDiagonal calls return the same value: 0 on the right, where
// the integrand is 0 at every breakpoint; on the left the full area, where
// every breakpoint clamps to a1 and the integrand is b2 - a2 throughout.
bool FarApart(double a1, double b1, double a2, double b2, double reach) {
  return b1 - a1 > 0.0 && b2 - a2 > 0.0 &&
         (a2 > b1 + reach || b2 + reach < a1);
}

constexpr uint32_t kMinSkewMagic = 0x534d534b;  // "SMSK"
// v2: shared checked envelope (format-version byte + CRC verified before
// any field parse); v1 carried a u32 version and a trailing CRC check.
constexpr uint8_t kMinSkewVersion = 2;

// A candidate region of the density grid, in cell coordinates
// [x0, x1) x [y0, y1).
struct Region {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
  int64_t CellCount() const {
    return static_cast<int64_t>(x1 - x0) * (y1 - y0);
  }
};

// 2-D prefix sums of the density grid and its squares, for O(1) skew
// (sum-of-squared-deviations) of any rectangular region.
class DensityPrefix {
 public:
  DensityPrefix(const std::vector<double>& density, int per_axis)
      : per_axis_(per_axis),
        sum_((per_axis + 1) * (per_axis + 1), 0.0),
        sum_sq_((per_axis + 1) * (per_axis + 1), 0.0) {
    for (int y = 0; y < per_axis; ++y) {
      for (int x = 0; x < per_axis; ++x) {
        const double v = density[static_cast<size_t>(y) * per_axis + x];
        At(&sum_, x + 1, y + 1) = v + At(&sum_, x, y + 1) +
                                  At(&sum_, x + 1, y) - At(&sum_, x, y);
        At(&sum_sq_, x + 1, y + 1) = v * v + At(&sum_sq_, x, y + 1) +
                                     At(&sum_sq_, x + 1, y) -
                                     At(&sum_sq_, x, y);
      }
    }
  }

  double Sum(const Region& r) const { return RangeOf(sum_, r); }
  double SumSq(const Region& r) const { return RangeOf(sum_sq_, r); }

  /// Sum of squared deviations from the region mean ("spatial skew").
  double Skew(const Region& r) const {
    const double cells = static_cast<double>(r.CellCount());
    if (cells <= 0.0) return 0.0;
    const double s = Sum(r);
    return SumSq(r) - s * s / cells;
  }

 private:
  double& At(std::vector<double>* v, int x, int y) {
    return (*v)[static_cast<size_t>(y) * (per_axis_ + 1) + x];
  }
  double At(const std::vector<double>& v, int x, int y) const {
    return v[static_cast<size_t>(y) * (per_axis_ + 1) + x];
  }
  double RangeOf(const std::vector<double>& v, const Region& r) const {
    return At(v, r.x1, r.y1) - At(v, r.x0, r.y1) - At(v, r.x1, r.y0) +
           At(v, r.x0, r.y0);
  }

  int per_axis_;
  std::vector<double> sum_;
  std::vector<double> sum_sq_;
};

// The best split of one region: the axis/position maximizing skew
// reduction.
struct SplitChoice {
  bool valid = false;
  bool vertical = false;  // split on x (left/right) vs y (bottom/top)
  int position = 0;       // cell coordinate of the split line
  double reduction = 0.0;
};

SplitChoice BestSplit(const Region& region, const DensityPrefix& prefix) {
  SplitChoice best;
  const double base = prefix.Skew(region);
  for (int x = region.x0 + 1; x < region.x1; ++x) {
    Region left = region;
    left.x1 = x;
    Region right = region;
    right.x0 = x;
    const double reduction =
        base - prefix.Skew(left) - prefix.Skew(right);
    if (!best.valid || reduction > best.reduction) {
      best = SplitChoice{true, true, x, reduction};
    }
  }
  for (int y = region.y0 + 1; y < region.y1; ++y) {
    Region bottom = region;
    bottom.y1 = y;
    Region top = region;
    top.y0 = y;
    const double reduction =
        base - prefix.Skew(bottom) - prefix.Skew(top);
    if (!best.valid || reduction > best.reduction) {
      best = SplitChoice{true, false, y, reduction};
    }
  }
  return best;
}

}  // namespace

Result<MinSkewHistogram> MinSkewHistogram::Build(const Dataset& ds,
                                                 const Rect& extent,
                                                 int num_buckets,
                                                 int grid_level) {
  if (num_buckets < 1) {
    return Status::InvalidArgument("num_buckets must be >= 1");
  }
  auto grid_result = Grid::Create(extent, grid_level);
  if (!grid_result.ok()) return grid_result.status();
  const Grid grid = std::move(grid_result).value();
  const int per_axis = grid.per_axis();

  // Density grid of object-center counts.
  std::vector<double> density(grid.num_cells(), 0.0);
  for (const Rect& r : ds.rects()) {
    density[grid.CellOf(r.center())] += 1.0;
  }
  const DensityPrefix prefix(density, per_axis);

  // Greedy partitioning: always split the region where the best split
  // reduces skew the most.
  std::vector<Region> regions = {Region{0, 0, per_axis, per_axis}};
  while (static_cast<int>(regions.size()) < num_buckets) {
    int pick = -1;
    SplitChoice pick_split;
    for (size_t i = 0; i < regions.size(); ++i) {
      const SplitChoice split = BestSplit(regions[i], prefix);
      if (split.valid &&
          (pick < 0 || split.reduction > pick_split.reduction)) {
        pick = static_cast<int>(i);
        pick_split = split;
      }
    }
    if (pick < 0 || pick_split.reduction <= 0.0) break;  // nothing to gain
    Region a = regions[pick];
    Region b = regions[pick];
    if (pick_split.vertical) {
      a.x1 = pick_split.position;
      b.x0 = pick_split.position;
    } else {
      a.y1 = pick_split.position;
      b.y0 = pick_split.position;
    }
    regions[pick] = a;
    regions.push_back(b);
  }

  // Cell -> bucket index for the assignment pass.
  std::vector<int> cell_bucket(grid.num_cells(), 0);
  for (size_t bucket = 0; bucket < regions.size(); ++bucket) {
    const Region& region = regions[bucket];
    for (int y = region.y0; y < region.y1; ++y) {
      for (int x = region.x0; x < region.x1; ++x) {
        cell_bucket[grid.Flat(x, y)] = static_cast<int>(bucket);
      }
    }
  }

  MinSkewHistogram hist;
  hist.extent_ = extent;
  hist.n_ = ds.size();
  hist.name_ = ds.name();
  hist.buckets_.resize(regions.size());
  std::vector<double> sum_w(regions.size(), 0.0);
  std::vector<double> sum_h(regions.size(), 0.0);
  for (size_t i = 0; i < regions.size(); ++i) {
    const Region& region = regions[i];
    const Rect lo = grid.CellRect(region.x0, region.y0);
    const Rect hi = grid.CellRect(region.x1 - 1, region.y1 - 1);
    hist.buckets_[i].rect = Rect(lo.min_x, lo.min_y, hi.max_x, hi.max_y);
  }
  for (const Rect& r : ds.rects()) {
    const int bucket = cell_bucket[grid.CellOf(r.center())];
    hist.buckets_[bucket].n += 1.0;
    sum_w[bucket] += r.width();
    sum_h[bucket] += r.height();
  }
  for (size_t i = 0; i < hist.buckets_.size(); ++i) {
    if (hist.buckets_[i].n > 0.0) {
      hist.buckets_[i].avg_w = sum_w[i] / hist.buckets_[i].n;
      hist.buckets_[i].avg_h = sum_h[i] / hist.buckets_[i].n;
    }
  }
  return hist;
}

Result<double> EstimateMinSkewJoinPairs(const MinSkewHistogram& a,
                                        const MinSkewHistogram& b) {
  if (!(a.extent() == b.extent())) {
    return Status::InvalidArgument(
        "MinSkew histograms built on different extents cannot be combined");
  }
  // A pair whose ranges are far apart on an axis adds nothing: on x its
  // px is exactly 0.0, which the loop skips; on y its py is exactly 0.0,
  // so a finite weight times py adds +0, and adding +0 to `pairs` (which
  // starts at +0) changes no bit. The reach on each axis bounds every
  // pair's half-extent sum with p, in floating point too, since rounding
  // is monotone. The skips stay off when an average extent of b is NaN,
  // which the max would pass over.
  bool skip = true;
  double max_w = 0.0;
  double max_h = 0.0;
  for (const auto& q : b.buckets()) {
    if (q.n <= 0.0) continue;
    skip = skip && !std::isnan(q.avg_w) && !std::isnan(q.avg_h);
    max_w = std::max(max_w, q.avg_w);
    max_h = std::max(max_h, q.avg_h);
  }
  double pairs = 0.0;
  for (const auto& p : a.buckets()) {
    if (p.n <= 0.0) continue;
    const double reach_x = (p.avg_w + max_w) / 2.0;
    const double reach_y = (p.avg_h + max_h) / 2.0;
    for (const auto& q : b.buckets()) {
      if (q.n <= 0.0) continue;
      if (skip && FarApart(p.rect.min_x, p.rect.max_x, q.rect.min_x,
                           q.rect.max_x, reach_x)) {
        continue;
      }
      // Two rects intersect iff their centers are within the half-extent
      // sum on both axes.
      const double tx = (p.avg_w + q.avg_w) / 2.0;
      const double ty = (p.avg_h + q.avg_h) / 2.0;
      const double px = internal::ProbWithin(p.rect.min_x, p.rect.max_x,
                                             q.rect.min_x, q.rect.max_x, tx);
      if (px == 0.0) continue;
      const double weight = p.n * q.n * px;
      if (skip && std::isfinite(weight) &&
          FarApart(p.rect.min_y, p.rect.max_y, q.rect.min_y, q.rect.max_y,
                   reach_y)) {
        continue;
      }
      const double py = internal::ProbWithin(p.rect.min_y, p.rect.max_y,
                                             q.rect.min_y, q.rect.max_y, ty);
      pairs += weight * py;
    }
  }
  return pairs;
}

Result<double> EstimateMinSkewJoinSelectivity(const MinSkewHistogram& a,
                                              const MinSkewHistogram& b) {
  if (a.dataset_size() == 0 || b.dataset_size() == 0) {
    return Status::FailedPrecondition(
        "selectivity undefined for empty datasets");
  }
  double pairs = 0.0;
  SJSEL_ASSIGN_OR_RETURN(pairs, EstimateMinSkewJoinPairs(a, b));
  return pairs / (static_cast<double>(a.dataset_size()) *
                  static_cast<double>(b.dataset_size()));
}

double EstimateMinSkewRangeCount(const MinSkewHistogram& hist,
                                 const Rect& query) {
  double count = 0.0;
  for (const auto& bucket : hist.buckets()) {
    if (bucket.n <= 0.0) continue;
    // The query is fixed; the object's center is uniform in the bucket.
    // Intersection happens when the center lands within avg_w/2 of the
    // query's x-range (and likewise in y).
    auto axis_prob = [](double lo, double hi, double q_lo, double q_hi,
                        double half_extent) {
      const double len = hi - lo;
      const double band_lo = std::max(lo, q_lo - half_extent);
      const double band_hi = std::min(hi, q_hi + half_extent);
      if (len <= 0.0) {
        return (lo >= q_lo - half_extent && lo <= q_hi + half_extent) ? 1.0
                                                                      : 0.0;
      }
      return std::max(0.0, band_hi - band_lo) / len;
    };
    const double px = axis_prob(bucket.rect.min_x, bucket.rect.max_x,
                                query.min_x, query.max_x, bucket.avg_w / 2);
    if (px == 0.0) continue;
    const double py = axis_prob(bucket.rect.min_y, bucket.rect.max_y,
                                query.min_y, query.max_y, bucket.avg_h / 2);
    count += bucket.n * px * py;
  }
  return count;
}

Status MinSkewHistogram::Save(const std::string& path) const {
  BinaryWriter w;
  w.BeginEnvelope(kMinSkewMagic, kMinSkewVersion);
  w.PutDouble(extent_.min_x);
  w.PutDouble(extent_.min_y);
  w.PutDouble(extent_.max_x);
  w.PutDouble(extent_.max_y);
  w.PutU64(n_);
  w.PutString(name_);
  w.PutU64(buckets_.size());
  for (const Bucket& b : buckets_) {
    w.PutDouble(b.rect.min_x);
    w.PutDouble(b.rect.min_y);
    w.PutDouble(b.rect.max_x);
    w.PutDouble(b.rect.max_y);
    w.PutDouble(b.n);
    w.PutDouble(b.avg_w);
    w.PutDouble(b.avg_h);
  }
  return WriteFile(path, w.SealEnvelope());
}

Result<MinSkewHistogram> MinSkewHistogram::Load(const std::string& path) {
  std::string data;
  SJSEL_ASSIGN_OR_RETURN(data, ReadFile(path));
  BinaryReader r(std::move(data));
  uint8_t version = 0;
  SJSEL_ASSIGN_OR_RETURN(version, r.OpenEnvelope(kMinSkewMagic, "MinSkew"));
  if (version != kMinSkewVersion) {
    return Status::Corruption("unsupported MinSkew version " +
                              std::to_string(version));
  }
  MinSkewHistogram hist;
  SJSEL_ASSIGN_OR_RETURN(hist.extent_.min_x, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(hist.extent_.min_y, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(hist.extent_.max_x, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(hist.extent_.max_y, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(hist.n_, r.GetU64());
  SJSEL_ASSIGN_OR_RETURN(hist.name_, r.GetString());
  uint64_t bucket_count = 0;
  SJSEL_ASSIGN_OR_RETURN(bucket_count, r.GetU64());
  // Each bucket record is 7 doubles; reject counts beyond the payload so a
  // corrupt header cannot drive the resize below into bad_alloc.
  if (bucket_count > (r.size() - r.position()) / 56) {
    return Status::Corruption("MinSkew bucket count exceeds payload in " +
                              path);
  }
  hist.buckets_.resize(bucket_count);
  for (Bucket& b : hist.buckets_) {
    SJSEL_ASSIGN_OR_RETURN(b.rect.min_x, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(b.rect.min_y, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(b.rect.max_x, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(b.rect.max_y, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(b.n, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(b.avg_w, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(b.avg_h, r.GetDouble());
  }
  SJSEL_RETURN_IF_ERROR(r.ExpectBodyEnd("MinSkew file " + path));
  return hist;
}

}  // namespace sjsel
