#include "join/pbsm.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/kernels.h"
#include "geom/soa_dataset.h"
#include "join/sweep_common.h"
#include "obs/metrics.h"
#include "util/aligned.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace sjsel {
namespace {

struct PartitionGrid {
  Rect extent;
  int p = 1;  // partitions per axis
  double cell_w = 0.0;
  double cell_h = 0.0;

  int CellX(double x) const { return Clamp((x - extent.min_x) / cell_w); }
  int CellY(double y) const { return Clamp((y - extent.min_y) / cell_h); }

  // In the double domain, as CellRangeBatch does, so that an infinite
  // or NaN offset has a defined cell.
  int Clamp(double t) const {
    const double f = std::floor(t);
    if (!(f > 0.0)) return 0;
    if (f >= p - 1) return p - 1;
    return static_cast<int>(f);
  }

  // True if cell (cx, cy) owns point `pt` under the half-open convention
  // (the last row/column is closed so boundary-max points have an owner).
  // With one partition ownership is trivial — and cell_w may be zero for a
  // degenerate extent, so the division must not run.
  bool Owns(int cx, int cy, const Point& pt) const {
    if (p == 1) return true;
    return CellX(pt.x) == cx && CellY(pt.y) == cy;
  }
};

// All partitions of one dataset in a single CSR-style SoA block:
// offsets[c] .. offsets[c+1] index the rects overlapping partition c,
// already sorted by (min_x, dataset position). Rects spanning several
// partitions are replicated into each. Built once per dataset, then every
// partition sweep reads its slice in place — no per-partition copies, no
// per-partition sorts.
struct PartitionedSoa {
  std::vector<uint64_t> offsets;  ///< p*p + 1 entries
  AlignedVector<double> min_x, min_y, max_x, max_y;
  std::vector<int64_t> id;  ///< original dataset position per row

  SoaSlice Slice(uint64_t lo, uint64_t hi) const {
    return SoaSlice{min_x.data() + lo, min_y.data() + lo, max_x.data() + lo,
                    max_y.data() + lo, static_cast<size_t>(hi - lo)};
  }
};

// The bounding box of the rects of `ds` whose coordinates are all finite.
Rect FiniteExtent(const Dataset& ds) {
  Rect extent = Rect::Empty();
  for (const Rect& r : ds.rects()) {
    if (std::isfinite(r.min_x) && std::isfinite(r.min_y) &&
        std::isfinite(r.max_x) && std::isfinite(r.max_y)) {
      extent.Extend(r);
    }
  }
  return extent;
}

// Buckets every rectangle of `ds` into each partition it overlaps, with
// the per-partition runs coming out min_x-sorted: partition cell ranges
// are computed for the whole dataset with the vectorized CellRangeBatch
// kernel (bit-identical to the scalar CellX/CellY arithmetic), one global
// argsort orders rect indices by sweep::SweepOrderLess, and a stable
// counting-sort fill walks that order, so each partition's slice
// inherits it.
PartitionedSoa DistributeSorted(const Dataset& ds, const PartitionGrid& grid) {
  const size_t n = ds.size();
  const size_t num_cells = static_cast<size_t>(grid.p) * grid.p;
  const SoaDataset soa = SoaDataset::FromDataset(ds);
  const SoaSlice all = soa.Slice();

  AlignedVector<int32_t> x0(n), y0(n), x1(n), y1(n);
  if (grid.p == 1) {
    // Degenerate extents make cell_w/cell_h zero; every rect lands in the
    // single partition without touching the division.
    std::fill(x0.begin(), x0.end(), 0);
    std::fill(y0.begin(), y0.end(), 0);
    std::fill(x1.begin(), x1.end(), 0);
    std::fill(y1.begin(), y1.end(), 0);
  } else {
    const GridGeom geom{grid.extent.min_x, grid.extent.min_y, grid.cell_w,
                        grid.cell_h, grid.p};
    CellRangeBatch(geom, all, x0.data(), y0.data(), x1.data(), y1.data());
  }

  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return sweep::SweepOrderLess(all.min_x[a], a, all.min_x[b], b);
  });

  PartitionedSoa out;
  out.offsets.assign(num_cells + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (int cy = y0[i]; cy <= y1[i]; ++cy) {
      for (int cx = x0[i]; cx <= x1[i]; ++cx) {
        ++out.offsets[static_cast<size_t>(cy) * grid.p + cx + 1];
      }
    }
  }
  for (size_t c = 0; c < num_cells; ++c) out.offsets[c + 1] += out.offsets[c];
  const size_t total = static_cast<size_t>(out.offsets[num_cells]);
  out.min_x.resize(total);
  out.min_y.resize(total);
  out.max_x.resize(total);
  out.max_y.resize(total);
  out.id.resize(total);
  std::vector<uint64_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (const uint32_t i : order) {
    for (int cy = y0[i]; cy <= y1[i]; ++cy) {
      for (int cx = x0[i]; cx <= x1[i]; ++cx) {
        const size_t c = static_cast<size_t>(cy) * grid.p + cx;
        const size_t pos = static_cast<size_t>(cursor[c]++);
        out.min_x[pos] = all.min_x[i];
        out.min_y[pos] = all.min_y[i];
        out.max_x[pos] = all.max_x[i];
        out.max_y[pos] = all.max_y[i];
        out.id[pos] = static_cast<int64_t>(i);
      }
    }
  }
  return out;
}

// Sweeps one partition pair in place over the CSR slices and applies the
// reference-point de-duplication: only the partition containing the
// lower-left corner of the intersection reports a pair. Read-only on the
// partitioned inputs, so partitions can run concurrently with no scratch.
template <typename Emit>
void JoinPartition(const PartitionedSoa& a, const PartitionedSoa& b,
                   size_t idx, const PartitionGrid& grid, int cx, int cy,
                   Emit&& emit) {
  const SoaSlice sa = a.Slice(a.offsets[idx], a.offsets[idx + 1]);
  const SoaSlice sb = b.Slice(b.offsets[idx], b.offsets[idx + 1]);
  const int64_t* ida = a.id.data() + a.offsets[idx];
  const int64_t* idb = b.id.data() + b.offsets[idx];
  sweep::SoaSweep(sa, sb, [&](size_t i, size_t j) {
    const Point ref{std::max(sa.min_x[i], sb.min_x[j]),
                    std::max(sa.min_y[i], sb.min_y[j])};
    if (!grid.Owns(cx, cy, ref)) return;
    emit(ida[i], idb[j]);
  });
}

// Joins every non-empty partition pair, serially in partition order or —
// with options.threads > 1 — concurrently with one result `Slot` per
// partition (default-constructed), folded in partition order by `fold`.
// PartitionEmit is called as emit(slot, a_id, b_id); Fold as fold(slot).
template <typename Slot, typename PartitionEmit, typename Fold>
void PbsmJoinImpl(const Dataset& a, const Dataset& b, PbsmOptions options,
                  PartitionEmit&& emit, Fold&& fold) {
  if (a.empty() || b.empty()) return;
  // The grid spans the finite rects only. Cell coordinates are clamped in
  // the double domain, so a rect with an infinite coordinate lands in the
  // edge partitions it reaches. One with a NaN coordinate lands in
  // partition 0 or in none; it meets nothing either way (join/join.h).
  PartitionGrid grid;
  grid.extent = FiniteExtent(a);
  grid.extent.Extend(FiniteExtent(b));
  grid.p = PbsmPickPartitions(a.size(), b.size(), options.partitions_per_axis);
  grid.cell_w = grid.extent.width() / grid.p;
  grid.cell_h = grid.extent.height() / grid.p;
  if (grid.cell_w <= 0.0 || grid.cell_h <= 0.0) grid.p = 1;

  const PartitionedSoa pa = DistributeSorted(a, grid);
  const PartitionedSoa pb = DistributeSorted(b, grid);

  // The work list: non-empty partitions only, in partition order.
  const size_t num_cells = static_cast<size_t>(grid.p) * grid.p;
  std::vector<size_t> active;
  for (size_t idx = 0; idx < num_cells; ++idx) {
    if (pa.offsets[idx + 1] > pa.offsets[idx] &&
        pb.offsets[idx + 1] > pb.offsets[idx]) {
      active.push_back(idx);
    }
  }

  std::vector<Slot> slots(active.size());
  const auto join_one = [&](size_t task) {
    const size_t idx = active[task];
    const int cx = static_cast<int>(idx) % grid.p;
    const int cy = static_cast<int>(idx) / grid.p;
    Slot& slot = slots[task];
    JoinPartition(pa, pb, idx, grid, cx, cy,
                  [&slot, &emit](int64_t x, int64_t y) { emit(slot, x, y); });
  };

  if (options.threads > 1 && active.size() > 1) {
    // Workers only read the partitioned inputs and write their own slots,
    // so the block decomposition cannot affect results or emit order.
    const int64_t grain = std::max<int64_t>(
        1, static_cast<int64_t>(active.size()) / (4 * options.threads));
    ThreadPool pool(options.threads);
    ParallelFor(&pool, static_cast<int64_t>(active.size()), grain,
                [&](int64_t, int64_t begin, int64_t end) {
                  for (int64_t task = begin; task < end; ++task) {
                    join_one(static_cast<size_t>(task));
                  }
                });
  } else {
    for (size_t task = 0; task < active.size(); ++task) {
      join_one(task);
    }
  }

  // Deterministic combine: partition order, regardless of which worker
  // finished first.
  for (size_t task = 0; task < active.size(); ++task) fold(slots[task]);
}

}  // namespace

int PbsmPickPartitions(size_t n1, size_t n2, int requested) {
  if (requested > 0) return std::min(requested, kPbsmMaxPartitionsPerAxis);
  const double total = static_cast<double>(n1 + n2);
  const int p = static_cast<int>(
      std::ceil(std::sqrt(total / kPbsmTargetRectsPerPartition)));
  return std::clamp(p, 1, kPbsmMaxPartitionsPerAxis);
}

uint64_t PbsmJoinCount(const Dataset& a, const Dataset& b,
                       PbsmOptions options) {
  SJSEL_TRACE_SPAN("join.pbsm", "n_a=%zu n_b=%zu threads=%d", a.size(),
                   b.size(), options.threads);
  SJSEL_METRIC_INC("join.pbsm.runs");
  uint64_t count = 0;
  PbsmJoinImpl<uint64_t>(
      a, b, options, [](uint64_t& slot, int64_t, int64_t) { ++slot; },
      [&count](const uint64_t& slot) { count += slot; });
  SJSEL_METRIC_ADD("join.pbsm.pairs", count);
  return count;
}

void PbsmJoin(const Dataset& a, const Dataset& b, const PairCallback& emit,
              PbsmOptions options) {
  SJSEL_TRACE_SPAN("join.pbsm", "n_a=%zu n_b=%zu threads=%d", a.size(),
                   b.size(), options.threads);
  SJSEL_METRIC_INC("join.pbsm.runs");
  using Pairs = std::vector<std::pair<int64_t, int64_t>>;
  PbsmJoinImpl<Pairs>(
      a, b, options,
      [](Pairs& slot, int64_t x, int64_t y) { slot.emplace_back(x, y); },
      [&emit](const Pairs& slot) {
        for (const auto& [x, y] : slot) emit(x, y);
      });
}

}  // namespace sjsel
