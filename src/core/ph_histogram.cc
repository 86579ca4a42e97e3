#include "core/ph_histogram.h"

#include <algorithm>

#include "core/kernels.h"
#include "core/tile_build.h"
#include "geom/soa_dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/aligned.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace sjsel {
namespace {

constexpr uint32_t kPhMagic = 0x53504847;  // "SPHG"
// v3: shared checked envelope (format-version byte + CRC verified before
// any field parse); v2 carried a u32 version and a trailing CRC check.
constexpr uint8_t kPhVersion = 3;

// Emits one MBR's PH contributions given its precomputed cell range, in a
// fixed order (the order Apply has always used): Contained per overlapped
// cell for contained/naive bookings, else CrossingGlobal once followed by
// Crossing per cell.
template <typename Sink>
void EmitPhContribution(const Grid& grid, PhVariant variant, const Rect& r,
                        int x0, int y0, int x1, int y1, Sink&& sink) {
  const bool contained = x0 == x1 && y0 == y1;

  if (contained || variant == PhVariant::kNaive) {
    // Naive gridding books the full MBR into every overlapped cell; the
    // real PH books contained MBRs into exactly one.
    for (int cy = y0; cy <= y1; ++cy) {
      for (int cx = x0; cx <= x1; ++cx) {
        sink.Contained(grid.Flat(cx, cy), r.area(), r.width(), r.height());
      }
    }
    return;
  }

  sink.CrossingGlobal(static_cast<double>(x1 - x0 + 1) *
                      static_cast<double>(y1 - y0 + 1));
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      const Rect cell_rect = grid.CellRect(cx, cy);
      const double w =
          OverlapLen(r.min_x, r.max_x, cell_rect.min_x, cell_rect.max_x);
      const double h =
          OverlapLen(r.min_y, r.max_y, cell_rect.min_y, cell_rect.max_y);
      sink.Crossing(grid.Flat(cx, cy), w * h, w, h);
    }
  }
}

// Scalar entry point: cell range, then emit. Used by the incremental
// AddRect/RemoveRect path (Apply); the blocked build reuses
// EmitPhContribution directly with precomputed ranges.
template <typename Sink>
void ForEachPhContribution(const Grid& grid, PhVariant variant, const Rect& r,
                           Sink&& sink) {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
  grid.CellRange(r, &x0, &y0, &x1, &y1);
  EmitPhContribution(grid, variant, r, x0, y0, x1, y1, sink);
}

// Tile side of the blocked build, in cells: a PH Cell is 8 doubles (one
// cache line), so 16×16 cells × 64 B = 16 KiB per tile — L1-resident.
constexpr int kPhTileCells = 16;

// Accumulation-array budget (one 64 B Cell per grid cell) under which a
// serial build skips the binning pass: the scattered per-cell writes stay
// cache-resident anyway, so one dataset-order sweep of the expansion
// engine is both faster and trivially order-preserving.
constexpr int64_t kPhCacheResidentBytes = 2 << 20;

}  // namespace

Result<PhHistogram> PhHistogram::CreateEmpty(const Rect& extent, int level,
                                             PhVariant variant) {
  auto grid_result = Grid::Create(extent, level);
  if (!grid_result.ok()) return grid_result.status();
  PhHistogram hist(std::move(grid_result).value(), variant);
  hist.cells_.assign(hist.grid_.num_cells(), Cell());
  return hist;
}

namespace {

// Sink that mutates a histogram's sums directly with a +/-1 weight.
struct PhDirectSink {
  std::vector<PhHistogram::Cell>* cells;
  double* span_sum;
  double* crossing_count;
  double weight;

  void Contained(int64_t idx, double area, double w, double h) {
    PhHistogram::Cell& cell = (*cells)[idx];
    cell.num += weight;
    cell.area_sum += weight * area;
    cell.w_sum += weight * w;
    cell.h_sum += weight * h;
  }
  void Crossing(int64_t idx, double area, double w, double h) {
    PhHistogram::Cell& cell = (*cells)[idx];
    cell.num_x += weight;
    cell.area_sum_x += weight * area;
    cell.w_sum_x += weight * w;
    cell.h_sum_x += weight * h;
  }
  void CrossingGlobal(double span) {
    *crossing_count += weight;
    *span_sum += weight * span;
  }
};

// Accumulates rows [lo, hi) of a rect run (cell ranges + coordinates,
// dataset order or binned order) into the per-cell sums, with each rect's
// cell loops clamped to `tile`. PH books four adds into ONE 64-byte Cell
// per (rect, cell) and its clip amounts are pure min/max arithmetic — no
// divisions — so unlike GH there is nothing to gain from routing entries
// through a batch kernel; the vectorized CellRangeBatch pass plus this
// cache-blocked direct loop IS the fast path. The global span/crossing
// sums are NOT booked here — Build books them once per rect in dataset
// order during pass 1 (a rect spanning several tiles would otherwise book
// them once per tile). Cell bounds use the Grid::CellRect arithmetic and
// the row overlap is hoisted (it varies only by row), both bitwise equal
// to the streaming Apply path; see core/tile_build.h for why within-rect
// reordering is free.
void PhAccumulateRun(const Grid& grid, PhVariant variant, const int32_t* x0,
                     const int32_t* y0, const int32_t* x1, const int32_t* y1,
                     const SoaSlice& coords, size_t lo, size_t hi,
                     const tile_build::TileBounds& tile,
                     std::vector<PhHistogram::Cell>* cells) {
  const GridGeom geom{grid.extent().min_x, grid.extent().min_y,
                      grid.cell_width(), grid.cell_height(),
                      grid.per_axis()};
  const int per_axis = geom.per_axis;
  for (size_t k = lo; k < hi; ++k) {
    const int rx0 = x0[k];
    const int ry0 = y0[k];
    const int rx1 = x1[k];
    const int ry1 = y1[k];
    const int ex0 = std::max(rx0, tile.cx0);
    const int ex1 = std::min(rx1, tile.cx1);
    const int ey0 = std::max(ry0, tile.cy0);
    const int ey1 = std::min(ry1, tile.cy1);
    const double rmin_x = coords.min_x[k];
    const double rmin_y = coords.min_y[k];
    const double rmax_x = coords.max_x[k];
    const double rmax_y = coords.max_y[k];
    const bool single = rx0 == rx1 && ry0 == ry1;
    if (single || variant == PhVariant::kNaive) {
      // Same scalar arithmetic as Rect::width()/height()/area(), which is
      // what the streaming Apply path books for these entries.
      const double rw = rmax_x - rmin_x;
      const double rh = rmax_y - rmin_y;
      const double ra = rw * rh;
      for (int cy = ey0; cy <= ey1; ++cy) {
        const int32_t rowbase = static_cast<int32_t>(cy) * per_axis;
        for (int cx = ex0; cx <= ex1; ++cx) {
          PhHistogram::Cell& cell = (*cells)[rowbase + cx];
          cell.num += 1.0;
          cell.area_sum += ra;
          cell.w_sum += rw;
          cell.h_sum += rh;
        }
      }
    } else {
      for (int cy = ey0; cy <= ey1; ++cy) {
        const double cell_lo_y = geom.min_y + cy * geom.cell_h;
        const double cell_hi_y = geom.min_y + (cy + 1) * geom.cell_h;
        const double h = OverlapLen(rmin_y, rmax_y, cell_lo_y, cell_hi_y);
        const int32_t rowbase = static_cast<int32_t>(cy) * per_axis;
        for (int cx = ex0; cx <= ex1; ++cx) {
          const double cell_lo_x = geom.min_x + cx * geom.cell_w;
          const double cell_hi_x = geom.min_x + (cx + 1) * geom.cell_w;
          const double w = OverlapLen(rmin_x, rmax_x, cell_lo_x, cell_hi_x);
          PhHistogram::Cell& cell = (*cells)[rowbase + cx];
          cell.num_x += 1.0;
          cell.area_sum_x += w * h;
          cell.w_sum_x += w;
          cell.h_sum_x += h;
        }
      }
    }
  }
}

// Sink for the serial fast path's wide-rect fallback: books per-cell sums
// only. The global crossing sums are already booked (in dataset order) by
// the chunk loop before the fallback fires.
struct PhCellsOnlySink {
  std::vector<PhHistogram::Cell>* cells;

  void Contained(int64_t idx, double area, double w, double h) {
    PhHistogram::Cell& cell = (*cells)[idx];
    cell.num += 1.0;
    cell.area_sum += area;
    cell.w_sum += w;
    cell.h_sum += h;
  }
  void Crossing(int64_t idx, double area, double w, double h) {
    PhHistogram::Cell& cell = (*cells)[idx];
    cell.num_x += 1.0;
    cell.area_sum_x += area;
    cell.w_sum_x += w;
    cell.h_sum_x += h;
  }
  void CrossingGlobal(double) {}
};

// Rect chunk of the serial fast path: 8 arrays x 2048 x <= 8 B = 96 KiB of
// kernel output that stays cache-hot for the scatter pass.
constexpr size_t kPhRectChunk = 2048;

// Serial fast path for the scalar backend: PH books raw overlaps — no
// divisions — so the fused kernel's store-then-reload round trip only
// pays for itself when the clip pass is vectorized. The scalar
// dispatch instead books rects straight from the AoS input, ranges inline
// (Grid::CellRange, the streaming path's own arithmetic) and the row
// overlap hoisted per row.
void PhSerialBuildScalarDirect(const Grid& grid, const Dataset& ds,
                               PhVariant variant,
                               std::vector<PhHistogram::Cell>* cells,
                               double* span_sum, double* crossing_count) {
  const GridGeom geom{grid.extent().min_x, grid.extent().min_y,
                      grid.cell_width(), grid.cell_height(),
                      grid.per_axis()};
  const int32_t per_axis = geom.per_axis;
  const size_t n = ds.size();
  const Rect* rects = ds.rects().data();
  PhHistogram::Cell* C = cells->data();
  // Run the global sums in registers (same serial add chain, stored back
  // once): through the out-pointers every add would be a memory RMW the
  // compiler must order against the cell writes.
  double cc = *crossing_count;
  double ss = *span_sum;
  for (size_t i = 0; i < n; ++i) {
    const Rect& r = rects[i];
    int x0 = 0;
    int y0 = 0;
    int x1 = 0;
    int y1 = 0;
    grid.CellRange(r, &x0, &y0, &x1, &y1);
    if ((x0 == x1 && y0 == y1) || variant == PhVariant::kNaive) {
      const double rw = r.max_x - r.min_x;
      const double rh = r.max_y - r.min_y;
      const double ra = rw * rh;
      for (int cy = y0; cy <= y1; ++cy) {
        const int32_t rowbase = cy * per_axis;
        for (int cx = x0; cx <= x1; ++cx) {
          PhHistogram::Cell& cell = C[rowbase + cx];
          cell.num += 1.0;
          cell.area_sum += ra;
          cell.w_sum += rw;
          cell.h_sum += rh;
        }
      }
      continue;
    }
    cc += 1.0;
    ss += static_cast<double>(x1 - x0 + 1) * static_cast<double>(y1 - y0 + 1);
    for (int cy = y0; cy <= y1; ++cy) {
      const double cell_lo_y = geom.min_y + cy * geom.cell_h;
      const double cell_hi_y = geom.min_y + (cy + 1) * geom.cell_h;
      const double h = OverlapLen(r.min_y, r.max_y, cell_lo_y, cell_hi_y);
      const int32_t rowbase = cy * per_axis;
      for (int cx = x0; cx <= x1; ++cx) {
        const double cell_lo_x = geom.min_x + cx * geom.cell_w;
        const double cell_hi_x = geom.min_x + (cx + 1) * geom.cell_w;
        const double w = OverlapLen(r.min_x, r.max_x, cell_lo_x, cell_hi_x);
        PhHistogram::Cell& cell = C[rowbase + cx];
        cell.num_x += 1.0;
        cell.area_sum_x += w * h;
        cell.w_sum_x += w;
        cell.h_sum_x += h;
      }
    }
  }
  *crossing_count = cc;
  *span_sum = ss;
}

// Serial cache-resident fast path: the fused PhRectClipBatch kernel
// computes cell ranges plus the first two column/row overlaps per rect,
// then a scatter pass books contained rects with their full dimensions and
// crossing rects of span <= 2x2 with the precomputed overlaps (products
// formed scalar, the same w * h expression the streaming path evaluates).
// Wider crossing rects fall back to per-cell emission with the global sums
// suppressed — the chunk loop books those in dataset order itself. No SoA
// copy, no entry buffer; see core/tile_build.h for why within-rect
// reordering is bitwise free.
void PhSerialBuild(const Grid& grid, const Dataset& ds, PhVariant variant,
                   std::vector<PhHistogram::Cell>* cells, double* span_sum,
                   double* crossing_count) {
  const GridGeom geom{grid.extent().min_x, grid.extent().min_y,
                      grid.cell_width(), grid.cell_height(),
                      grid.per_axis()};
  const int32_t per_axis = geom.per_axis;
  const size_t n = ds.size();
  const Rect* rects = ds.rects().data();
  PhHistogram::Cell* C = cells->data();

  if (ActiveKernelBackend() == KernelBackend::kScalar) {
    PhSerialBuildScalarDirect(grid, ds, variant, cells, span_sum,
                              crossing_count);
    return;
  }

  AlignedVector<int32_t> x0(kPhRectChunk), y0(kPhRectChunk),
      x1(kPhRectChunk), y1(kPhRectChunk);
  AlignedVector<double> w0(kPhRectChunk), w1(kPhRectChunk),
      h0(kPhRectChunk), h1(kPhRectChunk);
  const PhRectClipOut out{x0.data(), y0.data(), x1.data(), y1.data(),
                          w0.data(), w1.data(), h0.data(), h1.data()};

  const auto book_crossing = [C](int32_t idx, double w, double h) {
    PhHistogram::Cell& cell = C[idx];
    cell.num_x += 1.0;
    cell.area_sum_x += w * h;
    cell.w_sum_x += w;
    cell.h_sum_x += h;
  };

  // Same register-resident global sums as the scalar-direct path.
  double cc = *crossing_count;
  double ss = *span_sum;
  for (size_t lo = 0; lo < n; lo += kPhRectChunk) {
    const size_t m = std::min(kPhRectChunk, n - lo);
    PhRectClipBatch(geom, rects + lo, m, out);
    for (size_t k = 0; k < m; ++k) {
      const int cspan = x1[k] - x0[k];
      const int rspan = y1[k] - y0[k];
      if ((cspan | rspan) == 0 || variant == PhVariant::kNaive) {
        // Contained (or naive) booking: the full MBR dimensions into every
        // overlapped cell — the same Rect::width()/height()/area()
        // arithmetic the streaming path books.
        const Rect& r = rects[lo + k];
        const double rw = r.max_x - r.min_x;
        const double rh = r.max_y - r.min_y;
        const double ra = rw * rh;
        for (int32_t cy = y0[k]; cy <= y1[k]; ++cy) {
          const int32_t rowbase = cy * per_axis;
          for (int32_t cx = x0[k]; cx <= x1[k]; ++cx) {
            PhHistogram::Cell& cell = C[rowbase + cx];
            cell.num += 1.0;
            cell.area_sum += ra;
            cell.w_sum += rw;
            cell.h_sum += rh;
          }
        }
        continue;
      }
      cc += 1.0;
      ss += static_cast<double>(cspan + 1) *
            static_cast<double>(rspan + 1);
      if ((cspan | rspan) <= 1) {
        const int32_t i00 = y0[k] * per_axis + x0[k];
        book_crossing(i00, w0[k], h0[k]);
        if (cspan != 0) book_crossing(i00 + 1, w1[k], h0[k]);
        if (rspan != 0) {
          book_crossing(i00 + per_axis, w0[k], h1[k]);
          if (cspan != 0) book_crossing(i00 + per_axis + 1, w1[k], h1[k]);
        }
      } else {
        PhCellsOnlySink sink{cells};
        EmitPhContribution(grid, variant, rects[lo + k], x0[k], y0[k],
                           x1[k], y1[k], sink);
      }
    }
  }
  *crossing_count = cc;
  *span_sum = ss;
}

}  // namespace

// Folds one MBR into the per-cell sums with the given weight (+1 add,
// -1 remove).
void PhHistogram::Apply(const Rect& r, double weight) {
  PhDirectSink sink{&cells_, &span_sum_, &crossing_count_, weight};
  ForEachPhContribution(grid_, variant_, r, sink);
}

void PhHistogram::AddRect(const Rect& r) {
  Apply(r, +1.0);
  ++n_;
}

void PhHistogram::RemoveRect(const Rect& r) {
  Apply(r, -1.0);
  if (n_ > 0) --n_;
}

Status PhHistogram::Merge(const PhHistogram& other) {
  if (!grid_.CompatibleWith(other.grid_)) {
    return Status::InvalidArgument(
        "cannot merge PH histograms built on different grids");
  }
  if (variant_ != other.variant_) {
    return Status::InvalidArgument(
        "cannot merge PH histograms of different variants");
  }
  for (size_t i = 0; i < cells_.size(); ++i) {
    Cell& dst = cells_[i];
    const Cell& src = other.cells_[i];
    dst.num += src.num;
    dst.area_sum += src.area_sum;
    dst.w_sum += src.w_sum;
    dst.h_sum += src.h_sum;
    dst.num_x += src.num_x;
    dst.area_sum_x += src.area_sum_x;
    dst.w_sum_x += src.w_sum_x;
    dst.h_sum_x += src.h_sum_x;
  }
  span_sum_ += other.span_sum_;
  crossing_count_ += other.crossing_count_;
  n_ += other.n_;
  return Status::OK();
}

Result<PhHistogram> PhHistogram::Build(const Dataset& ds, const Rect& extent,
                                       int level, PhVariant variant,
                                       int threads) {
  SJSEL_TRACE_SPAN("ph.build", "dataset=%s rects=%zu level=%d threads=%d",
                   ds.name().c_str(), ds.size(), level, threads);
  SJSEL_METRIC_INC("hist.ph.builds");
  SJSEL_METRIC_SCOPED_LATENCY("hist.ph.build_us");
  auto hist_result = CreateEmpty(extent, level, variant);
  if (!hist_result.ok()) return hist_result.status();
  PhHistogram hist = std::move(hist_result).value();
  hist.name_ = ds.name();
  const size_t n = ds.size();
  hist.n_ = static_cast<uint64_t>(n);
  if (n == 0) return hist;

  const Grid& grid = hist.grid_;
  const int per_axis = grid.per_axis();
  const int tiles_per_axis = (per_axis + kPhTileCells - 1) / kPhTileCells;
  const int64_t num_tiles =
      static_cast<int64_t>(tiles_per_axis) * tiles_per_axis;
  const bool blocked =
      (threads > 1 && num_tiles > 1) ||
      grid.num_cells() * static_cast<int64_t>(sizeof(Cell)) >
          kPhCacheResidentBytes;
  if (!blocked) {
    // Serial cache-resident regime: the fused AoS kernel + scatter pass
    // (books the global crossing sums inline, in dataset order).
    PhSerialBuild(grid, ds, variant, &hist.cells_, &hist.span_sum_,
                  &hist.crossing_count_);
    return hist;
  }

  // Pass 1 (bin): vectorized cell ranges for the whole dataset, the
  // global crossing sums in dataset order, and the counting sort of rect
  // payloads into tiles of cells (see core/tile_build.h for the
  // bit-identity argument).
  const SoaDataset soa = SoaDataset::FromDataset(ds);
  const SoaSlice all = soa.Slice();
  AlignedVector<int32_t> x0(n), y0(n), x1(n), y1(n);
  const GridGeom geom{grid.extent().min_x, grid.extent().min_y,
                      grid.cell_width(), grid.cell_height(), per_axis};
  CellRangeBatch(geom, all, x0.data(), y0.data(), x1.data(), y1.data());
  if (variant == PhVariant::kSplitCrossing) {
    // The same additions CrossingGlobal books per crossing rect, in the
    // same dataset order; the accumulation engine never books them.
    for (size_t i = 0; i < n; ++i) {
      if (x0[i] == x1[i] && y0[i] == y1[i]) continue;
      hist.crossing_count_ += 1.0;
      hist.span_sum_ += static_cast<double>(x1[i] - x0[i] + 1) *
                        static_cast<double>(y1[i] - y0[i] + 1);
    }
  }

  // Pass 2 (accumulate): the expand-clip-accumulate engine per tile of
  // cells over the binned payload.
  const tile_build::TileBins bins = tile_build::BinRectsByTile(
      all, per_axis, kPhTileCells, x0.data(), y0.data(), x1.data(),
      y1.data());
  const SoaSlice binned = bins.CoordSlice(0, bins.offsets.back());
  tile_build::ForEachTile(bins.num_tiles(), threads, [&](int64_t t) {
    const tile_build::TileBounds tile = tile_build::BoundsOfTile(
        t, bins.tiles_per_axis, kPhTileCells, per_axis);
    PhAccumulateRun(grid, variant, bins.x0.data(), bins.y0.data(),
                    bins.x1.data(), bins.y1.data(), binned, bins.offsets[t],
                    bins.offsets[t + 1], tile, &hist.cells_);
  });
  return hist;
}

namespace {

// One Aref–Samet term (Equation 1 restricted to a cell): population 1 of
// (n1, cov1, w1, h1) against population 2, where cov is an area *ratio* to
// the cell area and w/h are per-item averages.
double ArefSametTerm(double n1, double cov1, double w1, double h1, double n2,
                     double cov2, double w2, double h2, double cell_area) {
  return n1 * cov2 + cov1 * n2 + n1 * n2 * (w1 * h2 + h1 * w2) / cell_area;
}

struct CellAverages {
  double n = 0.0;
  double cov = 0.0;
  double w = 0.0;
  double h = 0.0;
};

CellAverages ContAverages(const PhHistogram::Cell& c, double cell_area) {
  CellAverages a;
  a.n = c.num;
  a.cov = c.area_sum / cell_area;
  if (c.num > 0.0) {
    a.w = c.w_sum / c.num;
    a.h = c.h_sum / c.num;
  }
  return a;
}

CellAverages IsectAverages(const PhHistogram::Cell& c, double cell_area) {
  CellAverages a;
  a.n = c.num_x;
  a.cov = c.area_sum_x / cell_area;
  if (c.num_x > 0.0) {
    a.w = c.w_sum_x / c.num_x;
    a.h = c.h_sum_x / c.num_x;
  }
  return a;
}

// The four Equation 3 terms of one cell. Both the scalar estimate and
// PhPerCellContributions go through this helper, so the per-cell
// breakdown accumulates to the scalar sum bit for bit.
PhCellContribution PhCellTerms(const PhHistogram::Cell& ca,
                               const PhHistogram::Cell& cb,
                               double cell_area) {
  const CellAverages cont1 = ContAverages(ca, cell_area);
  const CellAverages isect1 = IsectAverages(ca, cell_area);
  const CellAverages cont2 = ContAverages(cb, cell_area);
  const CellAverages isect2 = IsectAverages(cb, cell_area);
  PhCellContribution t;
  t.sa = ArefSametTerm(cont1.n, cont1.cov, cont1.w, cont1.h, cont2.n,
                       cont2.cov, cont2.w, cont2.h, cell_area);
  t.sb = ArefSametTerm(cont1.n, cont1.cov, cont1.w, cont1.h, isect2.n,
                       isect2.cov, isect2.w, isect2.h, cell_area);
  t.sc = ArefSametTerm(isect1.n, isect1.cov, isect1.w, isect1.h, cont2.n,
                       cont2.cov, cont2.w, cont2.h, cell_area);
  t.sd_raw = ArefSametTerm(isect1.n, isect1.cov, isect1.w, isect1.h,
                           isect2.n, isect2.cov, isect2.w, isect2.h,
                           cell_area);
  return t;
}

Status CheckPhCombinable(const PhHistogram& a, const PhHistogram& b) {
  if (!a.grid().CompatibleWith(b.grid())) {
    return Status::InvalidArgument(
        "PH histograms built on different grids cannot be combined");
  }
  if (a.variant() != b.variant()) {
    return Status::InvalidArgument(
        "PH histograms of different variants cannot be combined");
  }
  return Status::OK();
}

}  // namespace

Result<double> EstimatePhJoinPairs(const PhHistogram& a, const PhHistogram& b,
                                   PhEstimateOptions options) {
  if (const Status st = CheckPhCombinable(a, b); !st.ok()) return st;
  const double cell_area = a.grid().cell_area();
  const auto& cells_a = a.cells();
  const auto& cells_b = b.cells();

  double sum_abc = 0.0;  // Sa + Sb + Sc
  double sum_d = 0.0;    // Sd, corrected for multiple counting below
  for (size_t i = 0; i < cells_a.size(); ++i) {
    const PhCellContribution t = PhCellTerms(cells_a[i], cells_b[i],
                                             cell_area);
    sum_abc += t.sa;
    sum_abc += t.sb;
    sum_abc += t.sc;
    sum_d += t.sd_raw;
  }

  sum_d /= PhMeanSpan(a, b, options);
  return sum_abc + sum_d;
}

Result<std::vector<PhCellContribution>> PhPerCellContributions(
    const PhHistogram& a, const PhHistogram& b) {
  if (const Status st = CheckPhCombinable(a, b); !st.ok()) return st;
  const double cell_area = a.grid().cell_area();
  const auto& cells_a = a.cells();
  const auto& cells_b = b.cells();
  std::vector<PhCellContribution> out;
  out.reserve(cells_a.size());
  for (size_t i = 0; i < cells_a.size(); ++i) {
    out.push_back(PhCellTerms(cells_a[i], cells_b[i], cell_area));
  }
  return out;
}

double PhMeanSpan(const PhHistogram& a, const PhHistogram& b,
                  PhEstimateOptions options) {
  if (!options.apply_span_correction) return 1.0;
  const double mean_span = (a.avg_span() + b.avg_span()) / 2.0;
  return mean_span > 0.0 ? mean_span : 1.0;
}

Result<double> EstimatePhJoinSelectivity(const PhHistogram& a,
                                         const PhHistogram& b,
                                         PhEstimateOptions options) {
  if (a.dataset_size() == 0 || b.dataset_size() == 0) {
    return Status::FailedPrecondition(
        "selectivity undefined for empty datasets");
  }
  double pairs = 0.0;
  SJSEL_ASSIGN_OR_RETURN(pairs, EstimatePhJoinPairs(a, b, options));
  return pairs / (static_cast<double>(a.dataset_size()) *
                  static_cast<double>(b.dataset_size()));
}

Status PhHistogram::Save(const std::string& path) const {
  BinaryWriter w;
  w.BeginEnvelope(kPhMagic, kPhVersion);
  w.PutU8(variant_ == PhVariant::kNaive ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(grid_.level()));
  w.PutDouble(grid_.extent().min_x);
  w.PutDouble(grid_.extent().min_y);
  w.PutDouble(grid_.extent().max_x);
  w.PutDouble(grid_.extent().max_y);
  w.PutU64(n_);
  w.PutDouble(span_sum_);
  w.PutDouble(crossing_count_);
  w.PutString(name_);
  w.PutU64(cells_.size());
  for (const Cell& c : cells_) {
    w.PutDouble(c.num);
    w.PutDouble(c.area_sum);
    w.PutDouble(c.w_sum);
    w.PutDouble(c.h_sum);
    w.PutDouble(c.num_x);
    w.PutDouble(c.area_sum_x);
    w.PutDouble(c.w_sum_x);
    w.PutDouble(c.h_sum_x);
  }
  return WriteFile(path, w.SealEnvelope());
}

Result<PhHistogram> PhHistogram::Load(const std::string& path) {
  std::string data;
  SJSEL_ASSIGN_OR_RETURN(data, ReadFile(path));
  BinaryReader r(std::move(data));
  uint8_t version = 0;
  SJSEL_ASSIGN_OR_RETURN(version, r.OpenEnvelope(kPhMagic, "PH histogram"));
  if (version != kPhVersion) {
    return Status::Corruption("unsupported PH version " +
                              std::to_string(version));
  }
  uint8_t variant_byte = 0;
  SJSEL_ASSIGN_OR_RETURN(variant_byte, r.GetU8());
  uint32_t level = 0;
  SJSEL_ASSIGN_OR_RETURN(level, r.GetU32());
  Rect extent;
  SJSEL_ASSIGN_OR_RETURN(extent.min_x, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(extent.min_y, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(extent.max_x, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(extent.max_y, r.GetDouble());

  auto grid_result = Grid::Create(extent, static_cast<int>(level));
  if (!grid_result.ok()) return grid_result.status();
  PhHistogram hist(std::move(grid_result).value(),
                   variant_byte == 1 ? PhVariant::kNaive
                                     : PhVariant::kSplitCrossing);

  SJSEL_ASSIGN_OR_RETURN(hist.n_, r.GetU64());
  SJSEL_ASSIGN_OR_RETURN(hist.span_sum_, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(hist.crossing_count_, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(hist.name_, r.GetString());
  uint64_t cell_count = 0;
  SJSEL_ASSIGN_OR_RETURN(cell_count, r.GetU64());
  if (cell_count != static_cast<uint64_t>(hist.grid_.num_cells())) {
    return Status::Corruption("PH cell count mismatch in " + path);
  }
  hist.cells_.resize(cell_count);
  for (Cell& c : hist.cells_) {
    SJSEL_ASSIGN_OR_RETURN(c.num, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(c.area_sum, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(c.w_sum, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(c.h_sum, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(c.num_x, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(c.area_sum_x, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(c.w_sum_x, r.GetDouble());
    SJSEL_ASSIGN_OR_RETURN(c.h_sum_x, r.GetDouble());
  }
  SJSEL_RETURN_IF_ERROR(r.ExpectBodyEnd("PH file " + path));
  return hist;
}

}  // namespace sjsel
