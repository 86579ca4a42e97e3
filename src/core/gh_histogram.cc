#include "core/gh_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

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

constexpr uint32_t kGhMagic = 0x53474847;  // "SGHG"
// v3: shared checked envelope (format-version byte + CRC verified before
// any field parse); v2 carried a u32 version and a trailing CRC check.
constexpr uint8_t kGhVersion = 3;

// In-memory bytes of one cell: four doubles dense; a u32 flat index and
// four doubles sparse.
constexpr uint64_t kDenseCellBytes = 4 * 8;
constexpr uint64_t kSparseCellBytes = 4 + 4 * 8;

// True when all four statistics are +0.0 bit for bit: the cells a sparse
// histogram leaves out. A -0.0 statistic keeps its cell, so a sparse
// histogram expands back to its dense arrays exactly.
bool AllPositiveZero(double c, double o, double h, double v) {
  return (std::bit_cast<uint64_t>(c) | std::bit_cast<uint64_t>(o) |
          std::bit_cast<uint64_t>(h) | std::bit_cast<uint64_t>(v)) == 0;
}

}  // namespace

namespace {

// Emits one MBR's GH contributions given its precomputed cell range
// [x0, x1] x [y0, y1]. The corner cells and edge rows/columns are the
// range corners — CellOf(min corner) == (x0, y0) and so on — so a single
// range computation (scalar here, batched in GhContributionBatch) covers
// every cell lookup the scheme needs.
template <typename Sink>
void EmitGhContribution(const Grid& grid, GhVariant variant, const Rect& r,
                        int x0, int y0, int x1, int y1, Sink&& sink) {
  const bool basic = variant == GhVariant::kBasic;
  const double cell_w = grid.cell_width();
  const double cell_h = grid.cell_height();
  const double cell_area = grid.cell_area();

  // Corner points — every MBR has 4 (coincident for degenerate MBRs),
  // each owned by exactly one cell.
  sink.Corner(grid.Flat(x0, y0), 1.0);
  sink.Corner(grid.Flat(x1, y0), 1.0);
  sink.Corner(grid.Flat(x0, y1), 1.0);
  sink.Corner(grid.Flat(x1, y1), 1.0);

  // Area term (revised: clipped-area ratio; basic: intersects-cell count).
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      const int64_t idx = grid.Flat(cx, cy);
      if (basic) {
        sink.Area(idx, 1.0);
      } else {
        const Rect cell = grid.CellRect(cx, cy);
        const double w = OverlapLen(r.min_x, r.max_x, cell.min_x, cell.max_x);
        const double h = OverlapLen(r.min_y, r.max_y, cell.min_y, cell.max_y);
        sink.Area(idx, (w * h) / cell_area);
      }
    }
  }

  // Horizontal edges (bottom and top; both contribute even when they
  // coincide — see the degenerate-MBR note in the header). The bottom edge
  // lies in row y0, the top edge in row y1.
  for (const int cy : {y0, y1}) {
    for (int cx = x0; cx <= x1; ++cx) {
      const int64_t idx = grid.Flat(cx, cy);
      if (basic) {
        sink.Horizontal(idx, 1.0);
      } else {
        const Rect cell = grid.CellRect(cx, cy);
        sink.Horizontal(idx, OverlapLen(r.min_x, r.max_x, cell.min_x,
                                        cell.max_x) /
                                 cell_w);
      }
    }
  }

  // Vertical edges (left and right; columns x0 and x1).
  for (const int cx : {x0, x1}) {
    for (int cy = y0; cy <= y1; ++cy) {
      const int64_t idx = grid.Flat(cx, cy);
      if (basic) {
        sink.Vertical(idx, 1.0);
      } else {
        const Rect cell = grid.CellRect(cx, cy);
        sink.Vertical(idx, OverlapLen(r.min_y, r.max_y, cell.min_y,
                                      cell.max_y) /
                               cell_h);
      }
    }
  }
}

// Scalar entry point: computes the cell range, then emits. Shared by
// AddRect, RemoveRect and the on-the-fly query-parameter path of
// EstimateGhRangeCount.
template <typename Sink>
void ForEachGhContribution(const Grid& grid, GhVariant variant, const Rect& r,
                           Sink&& sink) {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
  grid.CellRange(r, &x0, &y0, &x1, &y1);
  EmitGhContribution(grid, variant, r, x0, y0, x1, y1, sink);
}

// Sink that accumulates into a histogram's arrays with a +/-1 weight.
struct ArraySink {
  std::vector<double>* c;
  std::vector<double>* o;
  std::vector<double>* h;
  std::vector<double>* v;
  double weight;

  void Corner(int64_t idx, double amount) { (*c)[idx] += weight * amount; }
  void Area(int64_t idx, double amount) { (*o)[idx] += weight * amount; }
  void Horizontal(int64_t idx, double amount) {
    (*h)[idx] += weight * amount;
  }
  void Vertical(int64_t idx, double amount) { (*v)[idx] += weight * amount; }
};

// Tile side of the blocked build, in cells: 32×32 cells × 4 stat arrays ×
// 8 B = 32 KiB — one tile's accumulation working set stays L1-resident.
constexpr int kGhTileCells = 32;

// Accumulation-array budget (4 stat arrays × 8 B per cell) under which a
// serial build skips the binning pass: the scattered per-cell writes stay
// cache-resident anyway, so one dataset-order sweep of the expansion
// engine is both faster and trivially order-preserving.
constexpr int64_t kGhCacheResidentBytes = 2 << 20;

// (rect, cell) entry buffer of the expand-clip-accumulate engine, in SoA
// layout. The expansion loop resolves each entry to its flat cell index
// and computes the clip overlaps w/h scalar (min/max arithmetic — cheap;
// w varies only by column and h only by row, so they are hoisted);
// `counts` packs how many corner / horizontal-edge / vertical-edge
// bookings the entry's cell receives from its rect. The batched
// GhEntryTermsBatch kernel then turns (w, h) runs into the clipped
// fractions — the per-cell divisions that dominate the scalar build.
struct GhEntryScratch {
  AlignedVector<int32_t> idx;          // flat cell index (Grid::Flat)
  AlignedVector<uint8_t> counts;       // corner(0..4) | h(0..2)<<3 | v<<5
  AlignedVector<double> w, h;          // clip overlaps (revised variant)
  AlignedVector<double> area, hf, vf;  // GhEntryTermsBatch outputs
  AlignedVector<double> wcol;          // per-rect column overlap buffer
  size_t used = 0;

  size_t capacity() const { return idx.size(); }

  void Ensure(size_t cap) {
    if (capacity() >= cap) return;
    idx.resize(cap);
    counts.resize(cap);
    w.resize(cap);
    h.resize(cap);
    area.resize(cap);
    hf.resize(cap);
    vf.resize(cap);
  }
};

constexpr size_t kGhEntryChunk = 4096;

// Expands rows [lo, hi) of a rect run (cell ranges + coordinates, dataset
// order or binned order) into (rect, cell) entries clamped to `tile`,
// batches the per-cell clipped fractions through GhEntryTermsBatch, and
// books the amounts with a scalar loop in entry order. Entry order is
// rect order, cells row-major — so per cell and per statistic the
// additions happen in the serial AddRect sequence with the same amounts
// (see core/tile_build.h for why within-rect order is free). The count
// statistics are booked as one add of the count value: they only ever
// accumulate +1.0s, so the running sums are exact small integers and
// a + k is bitwise equal to k repetitions of a + 1.0.
void GhAccumulateRun(const Grid& grid, bool basic, const int32_t* x0,
                     const int32_t* y0, const int32_t* x1, const int32_t* y1,
                     const SoaSlice& coords, size_t lo, size_t hi,
                     const tile_build::TileBounds& tile, GhEntryScratch* es,
                     std::vector<double>* c, std::vector<double>* o,
                     std::vector<double>* h, std::vector<double>* v) {
  const GridGeom geom{grid.extent().min_x, grid.extent().min_y,
                      grid.cell_width(), grid.cell_height(),
                      grid.per_axis()};
  const int per_axis = geom.per_axis;
  es->Ensure(kGhEntryChunk);
  es->used = 0;

  const auto flush = [&] {
    if (es->used == 0) return;
    if (!basic) {
      GhEntryTermsBatch(geom, es->used, es->w.data(), es->h.data(),
                        es->area.data(), es->hf.data(), es->vf.data());
    }
    for (size_t k = 0; k < es->used; ++k) {
      const int32_t idx = es->idx[k];
      const uint32_t f = es->counts[k];
      if (basic) {
        (*o)[idx] += 1.0;
        if (f != 0) {
          (*c)[idx] += static_cast<double>(f & 7);
          (*h)[idx] += static_cast<double>((f >> 3) & 3);
          (*v)[idx] += static_cast<double>(f >> 5);
        }
      } else {
        (*o)[idx] += es->area[k];
        if (f != 0) {
          (*c)[idx] += static_cast<double>(f & 7);
          const uint32_t hc = (f >> 3) & 3;
          if (hc != 0) {
            (*h)[idx] += es->hf[k];
            if (hc == 2) (*h)[idx] += es->hf[k];
          }
          const uint32_t vc = f >> 5;
          if (vc != 0) {
            (*v)[idx] += es->vf[k];
            if (vc == 2) (*v)[idx] += es->vf[k];
          }
        }
      }
    }
    es->used = 0;
  };

  for (size_t k = lo; k < hi; ++k) {
    const int rx0 = x0[k];
    const int ry0 = y0[k];
    const int rx1 = x1[k];
    const int ry1 = y1[k];
    const int ex0 = std::max(rx0, tile.cx0);
    const int ex1 = std::min(rx1, tile.cx1);
    const int ey0 = std::max(ry0, tile.cy0);
    const int ey1 = std::min(ry1, tile.cy1);
    const size_t ncols = static_cast<size_t>(ex1 - ex0 + 1);
    const size_t cells = ncols * static_cast<size_t>(ey1 - ey0 + 1);
    if (es->used + cells > es->capacity()) {
      flush();
      es->Ensure(cells);
    }
    const double rmin_x = coords.min_x[k];
    const double rmin_y = coords.min_y[k];
    const double rmax_x = coords.max_x[k];
    const double rmax_y = coords.max_y[k];
    if (!basic) {
      // Same cell-bound and overlap arithmetic as Grid::CellRect +
      // OverlapLen in the streaming path, hoisted per column.
      if (es->wcol.size() < ncols) es->wcol.resize(ncols);
      for (int cx = ex0; cx <= ex1; ++cx) {
        const double cell_lo = geom.min_x + cx * geom.cell_w;
        const double cell_hi = geom.min_x + (cx + 1) * geom.cell_w;
        es->wcol[cx - ex0] = OverlapLen(rmin_x, rmax_x, cell_lo, cell_hi);
      }
    }
    size_t used = es->used;
    for (int cy = ey0; cy <= ey1; ++cy) {
      const uint32_t row_hits =
          static_cast<uint32_t>(cy == ry0) + static_cast<uint32_t>(cy == ry1);
      double hrow = 0.0;
      if (!basic) {
        const double cell_lo = geom.min_y + cy * geom.cell_h;
        const double cell_hi = geom.min_y + (cy + 1) * geom.cell_h;
        hrow = OverlapLen(rmin_y, rmax_y, cell_lo, cell_hi);
      }
      const int32_t rowbase = static_cast<int32_t>(cy) * per_axis;
      for (int cx = ex0; cx <= ex1; ++cx) {
        const uint32_t col_hits = static_cast<uint32_t>(cx == rx0) +
                                  static_cast<uint32_t>(cx == rx1);
        es->idx[used] = rowbase + cx;
        es->counts[used] = static_cast<uint8_t>(
            (col_hits * row_hits) | (row_hits << 3) | (col_hits << 5));
        if (!basic) {
          es->w[used] = es->wcol[cx - ex0];
          es->h[used] = hrow;
        }
        ++used;
      }
    }
    es->used = used;
  }
  flush();
}

// Rect chunk of the serial fast path below: 12 term arrays x 2048 x <= 8 B
// = 160 KiB of kernel output that stays cache-hot for the scatter pass.
constexpr size_t kGhRectChunk = 2048;

// Serial cache-resident fast path: the fused GhRectTermsBatch kernel
// computes cell ranges plus every clipped fraction a rect spanning at most
// 2x2 cells can book (the overwhelming majority once MBRs are at or below
// cell size), and a straight-line scatter books the precomputed amounts —
// no SoA copy, no (rect, cell) entry buffer. Wider rects fall back to the
// streaming per-cell emission. Bit-identity with AddRect: rects are
// processed in dataset order, every amount is the same IEEE-754 expression
// the streaming path evaluates, and within one rect each per-cell
// accumulator receives the same adds in the same sequence (count sums are
// exact small integers, so booking a count as one add of its value equals
// repeated +1.0 adds).
template <bool kBasic>
void GhSerialBuild(const Grid& grid, const Dataset& ds,
                   std::vector<double>* c_arr, std::vector<double>* o_arr,
                   std::vector<double>* h_arr, std::vector<double>* v_arr) {
  const GridGeom geom{grid.extent().min_x, grid.extent().min_y,
                      grid.cell_width(), grid.cell_height(),
                      grid.per_axis()};
  const int32_t per_axis = geom.per_axis;
  const size_t n = ds.size();
  const Rect* rects = ds.rects().data();
  double* C = c_arr->data();
  double* O = o_arr->data();
  double* H = h_arr->data();
  double* V = v_arr->data();

  AlignedVector<int32_t> x0(kGhRectChunk), y0(kGhRectChunk),
      x1(kGhRectChunk), y1(kGhRectChunk);
  AlignedVector<double> a00(kGhRectChunk), a01(kGhRectChunk),
      a10(kGhRectChunk), a11(kGhRectChunk), hf0(kGhRectChunk),
      hf1(kGhRectChunk), vf0(kGhRectChunk), vf1(kGhRectChunk);
  const GhRectTermsOut out{x0.data(),  y0.data(),  x1.data(),  y1.data(),
                           a00.data(), a01.data(), a10.data(), a11.data(),
                           hf0.data(), hf1.data(), vf0.data(), vf1.data()};

  for (size_t lo = 0; lo < n; lo += kGhRectChunk) {
    const size_t m = std::min(kGhRectChunk, n - lo);
    GhRectTermsBatch(geom, rects + lo, m, out);
    for (size_t k = 0; k < m; ++k) {
      const int cspan = x1[k] - x0[k];
      const int rspan = y1[k] - y0[k];
      if ((cspan | rspan) > 1) {
        ArraySink sink{c_arr, o_arr, h_arr, v_arr, +1.0};
        EmitGhContribution(grid,
                           kBasic ? GhVariant::kBasic : GhVariant::kRevised,
                           rects[lo + k], x0[k], y0[k], x1[k], y1[k], sink);
        continue;
      }
      const int32_t i00 = y0[k] * per_axis + x0[k];
      const int32_t i10 = i00 + 1;
      const int32_t i01 = i00 + per_axis;
      const int32_t i11 = i01 + 1;
      // Cases keyed by span: a coincident edge pair (span 0 on an axis)
      // doubles that axis's corner and edge bookings, exactly as the
      // streaming path's two passes over {x0, x1} / {y0, y1} do.
      switch ((cspan << 1) | rspan) {
        case 0:  // one cell; all four corners and both edge pairs land on it
          if constexpr (kBasic) {
            C[i00] += 4.0;
            O[i00] += 1.0;
            H[i00] += 2.0;
            V[i00] += 2.0;
          } else {
            C[i00] += 4.0;
            O[i00] += a00[k];
            H[i00] += hf0[k];
            H[i00] += hf0[k];
            V[i00] += vf0[k];
            V[i00] += vf0[k];
          }
          break;
        case 1:  // one column, two rows
          if constexpr (kBasic) {
            C[i00] += 2.0;
            C[i01] += 2.0;
            O[i00] += 1.0;
            O[i01] += 1.0;
            H[i00] += 1.0;
            H[i01] += 1.0;
            V[i00] += 2.0;
            V[i01] += 2.0;
          } else {
            C[i00] += 2.0;
            C[i01] += 2.0;
            O[i00] += a00[k];
            O[i01] += a01[k];
            H[i00] += hf0[k];
            H[i01] += hf0[k];
            V[i00] += vf0[k];
            V[i00] += vf0[k];
            V[i01] += vf1[k];
            V[i01] += vf1[k];
          }
          break;
        case 2:  // two columns, one row
          if constexpr (kBasic) {
            C[i00] += 2.0;
            C[i10] += 2.0;
            O[i00] += 1.0;
            O[i10] += 1.0;
            H[i00] += 2.0;
            H[i10] += 2.0;
            V[i00] += 1.0;
            V[i10] += 1.0;
          } else {
            C[i00] += 2.0;
            C[i10] += 2.0;
            O[i00] += a00[k];
            O[i10] += a10[k];
            H[i00] += hf0[k];
            H[i00] += hf0[k];
            H[i10] += hf1[k];
            H[i10] += hf1[k];
            V[i00] += vf0[k];
            V[i10] += vf0[k];
          }
          break;
        default:  // 2x2
          if constexpr (kBasic) {
            C[i00] += 1.0;
            C[i10] += 1.0;
            C[i01] += 1.0;
            C[i11] += 1.0;
            O[i00] += 1.0;
            O[i10] += 1.0;
            O[i01] += 1.0;
            O[i11] += 1.0;
            H[i00] += 1.0;
            H[i10] += 1.0;
            H[i01] += 1.0;
            H[i11] += 1.0;
            V[i00] += 1.0;
            V[i01] += 1.0;
            V[i10] += 1.0;
            V[i11] += 1.0;
          } else {
            C[i00] += 1.0;
            C[i10] += 1.0;
            C[i01] += 1.0;
            C[i11] += 1.0;
            O[i00] += a00[k];
            O[i10] += a10[k];
            O[i01] += a01[k];
            O[i11] += a11[k];
            H[i00] += hf0[k];
            H[i10] += hf1[k];
            H[i01] += hf0[k];
            H[i11] += hf1[k];
            V[i00] += vf0[k];
            V[i01] += vf1[k];
            V[i10] += vf0[k];
            V[i11] += vf1[k];
          }
          break;
      }
    }
  }
}

}  // namespace

Result<GhHistogram> GhHistogram::CreateEmpty(const Rect& extent, int level,
                                             GhVariant variant) {
  auto grid_result = Grid::Create(extent, level);
  if (!grid_result.ok()) return grid_result.status();
  GhHistogram hist(std::move(grid_result).value(), variant);
  const int64_t cells = hist.grid_.num_cells();
  hist.c_.assign(cells, 0.0);
  hist.o_.assign(cells, 0.0);
  hist.h_.assign(cells, 0.0);
  hist.v_.assign(cells, 0.0);
  return hist;
}

void GhHistogram::AddRect(const Rect& r) {
  ArraySink sink{&c_, &o_, &h_, &v_, +1.0};
  ForEachGhContribution(grid_, variant_, r, sink);
  ++n_;
}

void GhHistogram::RemoveRect(const Rect& r) {
  ArraySink sink{&c_, &o_, &h_, &v_, -1.0};
  ForEachGhContribution(grid_, variant_, r, sink);
  if (n_ > 0) --n_;
}

Status GhHistogram::Merge(const GhHistogram& other) {
  if (sparse_ || other.sparse_) {
    return Status::InvalidArgument("cannot merge sparse GH histograms");
  }
  if (!grid_.CompatibleWith(other.grid_)) {
    return Status::InvalidArgument(
        "cannot merge GH histograms built on different grids");
  }
  if (variant_ != other.variant_) {
    return Status::InvalidArgument(
        "cannot merge GH histograms of different variants");
  }
  for (size_t i = 0; i < c_.size(); ++i) {
    c_[i] += other.c_[i];
    o_[i] += other.o_[i];
    h_[i] += other.h_[i];
    v_[i] += other.v_[i];
  }
  n_ += other.n_;
  return Status::OK();
}

std::shared_ptr<const GhHistogram> GhHistogram::Compact(GhHistogram hist) {
  if (!hist.sparse_) {
    const size_t cells = hist.c_.size();
    size_t stored = 0;
    for (size_t i = 0; i < cells; ++i) {
      stored += !AllPositiveZero(hist.c_[i], hist.o_[i], hist.h_[i],
                                 hist.v_[i]);
    }
    if (stored * kSparseCellBytes < cells * kDenseCellBytes) {
      std::vector<uint32_t> idx;
      std::vector<double> c, o, h, v;
      idx.reserve(stored);
      c.reserve(stored);
      o.reserve(stored);
      h.reserve(stored);
      v.reserve(stored);
      for (size_t i = 0; i < cells; ++i) {
        if (AllPositiveZero(hist.c_[i], hist.o_[i], hist.h_[i], hist.v_[i])) {
          continue;
        }
        idx.push_back(static_cast<uint32_t>(i));
        c.push_back(hist.c_[i]);
        o.push_back(hist.o_[i]);
        h.push_back(hist.h_[i]);
        v.push_back(hist.v_[i]);
      }
      hist.stored_ = std::move(idx);
      hist.c_ = std::move(c);
      hist.o_ = std::move(o);
      hist.h_ = std::move(h);
      hist.v_ = std::move(v);
      hist.sparse_ = true;
    }
  }
  return std::make_shared<const GhHistogram>(std::move(hist));
}

GhCellStats GhHistogram::Cell(int64_t i) const {
  size_t k = static_cast<size_t>(i);
  if (sparse_) {
    const auto it = std::lower_bound(stored_.begin(), stored_.end(),
                                     static_cast<uint32_t>(i));
    if (it == stored_.end() || *it != static_cast<uint32_t>(i)) return {};
    k = static_cast<size_t>(it - stored_.begin());
  }
  return {c_[k], o_[k], h_[k], v_[k]};
}

uint64_t GhHistogram::StoredBytes() const {
  return sparse_ ? stored_.size() * kSparseCellBytes : NominalBytes();
}

Result<GhHistogram> GhHistogram::Build(const Dataset& ds, const Rect& extent,
                                       int level, GhVariant variant,
                                       int threads) {
  SJSEL_TRACE_SPAN("gh.build", "dataset=%s rects=%zu level=%d threads=%d",
                   ds.name().c_str(), ds.size(), level, threads);
  SJSEL_METRIC_INC("hist.gh.builds");
  SJSEL_METRIC_SCOPED_LATENCY("hist.gh.build_us");
  auto hist_result = CreateEmpty(extent, level, variant);
  if (!hist_result.ok()) return hist_result.status();
  GhHistogram hist = std::move(hist_result).value();
  hist.name_ = ds.name();
  const size_t n = ds.size();
  hist.n_ = static_cast<uint64_t>(n);
  if (n == 0) return hist;

  const Grid& grid = hist.grid_;
  const int per_axis = grid.per_axis();
  const bool basic = variant == GhVariant::kBasic;
  const int tiles_per_axis = (per_axis + kGhTileCells - 1) / kGhTileCells;
  const int64_t num_tiles =
      static_cast<int64_t>(tiles_per_axis) * tiles_per_axis;
  const bool blocked = (threads > 1 && num_tiles > 1) ||
                       grid.num_cells() * 4 * 8 > kGhCacheResidentBytes;
  if (!blocked) {
    // Serial cache-resident regime: the fused AoS kernel + scatter pass.
    if (basic) {
      GhSerialBuild<true>(grid, ds, &hist.c_, &hist.o_, &hist.h_, &hist.v_);
    } else {
      GhSerialBuild<false>(grid, ds, &hist.c_, &hist.o_, &hist.h_,
                           &hist.v_);
    }
    return hist;
  }

  // Cache-blocked bin-then-accumulate (see core/tile_build.h for the
  // scheme and the bit-identity argument). Pass 1 computes cell ranges
  // for the whole dataset with the vectorized CellRangeBatch kernel and
  // counting-sorts rect payloads by tile; pass 2 runs the
  // expand-clip-accumulate engine (GhAccumulateRun) per tile.
  const SoaDataset soa = SoaDataset::FromDataset(ds);
  const SoaSlice all = soa.Slice();
  AlignedVector<int32_t> x0(n), y0(n), x1(n), y1(n);
  const GridGeom geom{grid.extent().min_x, grid.extent().min_y,
                      grid.cell_width(), grid.cell_height(), per_axis};
  CellRangeBatch(geom, all, x0.data(), y0.data(), x1.data(), y1.data());

  const tile_build::TileBins bins = tile_build::BinRectsByTile(
      all, per_axis, kGhTileCells, x0.data(), y0.data(), x1.data(),
      y1.data());
  const SoaSlice binned = bins.CoordSlice(0, bins.offsets.back());
  tile_build::ForEachTile(bins.num_tiles(), threads, [&](int64_t t) {
    const tile_build::TileBounds tile = tile_build::BoundsOfTile(
        t, bins.tiles_per_axis, kGhTileCells, per_axis);
    GhEntryScratch es;
    GhAccumulateRun(grid, basic, bins.x0.data(), bins.y0.data(),
                    bins.x1.data(), bins.y1.data(), binned, bins.offsets[t],
                    bins.offsets[t + 1], tile, &es, &hist.c_, &hist.o_,
                    &hist.h_, &hist.v_);
  });
  return hist;
}

namespace {

Status CheckGhCombinable(const GhHistogram& a, const GhHistogram& b) {
  if (!a.grid().CompatibleWith(b.grid())) {
    return Status::InvalidArgument(
        "GH histograms built on different grids cannot be combined");
  }
  if (a.variant() != b.variant()) {
    return Status::InvalidArgument(
        "GH histograms of different variants cannot be combined");
  }
  return Status::OK();
}

// The four Equation 5 cross terms of one cell. Both the scalar estimate
// and GhPerCellContributions go through this helper, so the per-cell
// breakdown reproduces the scalar sum bit for bit regardless of how the
// compiler contracts the multiplies.
inline GhCellContribution GhCellTerms(const GhCellStats& a,
                                      const GhCellStats& b) {
  GhCellContribution t;
  t.c1_o2 = a.c * b.o;
  t.o1_c2 = a.o * b.c;
  t.h1_v2 = a.h * b.v;
  t.v1_h2 = a.v * b.h;
  return t;
}

// Entry k of a histogram's statistic arrays: cell k when dense, the k-th
// stored cell when sparse.
inline GhCellStats Entry(const GhHistogram& hist, size_t k) {
  return {hist.c()[k], hist.o()[k], hist.h()[k], hist.v()[k]};
}

// Calls visit(a's cell, b's cell) for every cell stored on both sides, in
// ascending flat index: every cell when both are dense, else the sparse
// side's stored cells, or the cells both sparse sides store.
template <typename Visit>
void ForEachCellStoredOnBoth(const GhHistogram& a, const GhHistogram& b,
                             Visit&& visit) {
  if (!a.sparse() && !b.sparse()) {
    const size_t n = a.c().size();
    for (size_t i = 0; i < n; ++i) visit(Entry(a, i), Entry(b, i));
    return;
  }
  if (a.sparse() && b.sparse()) {
    const std::vector<uint32_t>& ia = a.stored_cells();
    const std::vector<uint32_t>& ib = b.stored_cells();
    size_t ka = 0;
    size_t kb = 0;
    while (ka < ia.size() && kb < ib.size()) {
      if (ia[ka] < ib[kb]) {
        ++ka;
      } else if (ib[kb] < ia[ka]) {
        ++kb;
      } else {
        visit(Entry(a, ka++), Entry(b, kb++));
      }
    }
    return;
  }
  const bool a_sparse = a.sparse();
  const GhHistogram& sparse = a_sparse ? a : b;
  const GhHistogram& dense = a_sparse ? b : a;
  const std::vector<uint32_t>& idx = sparse.stored_cells();
  for (size_t k = 0; k < idx.size(); ++k) {
    const GhCellStats s = Entry(sparse, k);
    const GhCellStats d = Entry(dense, idx[k]);
    if (a_sparse) {
      visit(s, d);
    } else {
      visit(d, s);
    }
  }
}

}  // namespace

Result<double> EstimateGhIntersectionPoints(const GhHistogram& a,
                                            const GhHistogram& b) {
  if (const Status st = CheckGhCombinable(a, b); !st.ok()) return st;
  double ip = 0.0;
  ForEachCellStoredOnBoth(a, b, [&ip](const GhCellStats& x,
                                      const GhCellStats& y) {
    ip += GhCellTerms(x, y).intersection_points();
  });
  return ip;
}

Result<std::vector<GhCellContribution>> GhPerCellContributions(
    const GhHistogram& a, const GhHistogram& b) {
  if (const Status st = CheckGhCombinable(a, b); !st.ok()) return st;
  const int64_t n = a.grid().num_cells();
  std::vector<GhCellContribution> cells;
  cells.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    cells.push_back(GhCellTerms(a.Cell(i), b.Cell(i)));
  }
  return cells;
}

Result<double> EstimateGhJoinPairs(const GhHistogram& a,
                                   const GhHistogram& b) {
  double ip = 0.0;
  SJSEL_ASSIGN_OR_RETURN(ip, EstimateGhIntersectionPoints(a, b));
  return ip / 4.0;
}

Result<double> EstimateGhJoinSelectivity(const GhHistogram& a,
                                         const GhHistogram& b) {
  if (a.dataset_size() == 0 || b.dataset_size() == 0) {
    return Status::FailedPrecondition(
        "selectivity undefined for empty datasets");
  }
  double pairs = 0.0;
  SJSEL_ASSIGN_OR_RETURN(pairs, EstimateGhJoinPairs(a, b));
  return pairs / (static_cast<double>(a.dataset_size()) *
                  static_cast<double>(b.dataset_size()));
}

namespace {

// Recovers the Equation 1 aggregates (coverage, average width/height) of a
// dataset from its revised GH histogram alone: Σo cells sum to the
// coverage ratio of the whole extent, and the edge-ratio sums give back
// twice the total widths/heights.
struct Eq1Aggregates {
  double n = 0.0;
  double coverage = 0.0;
  double avg_w = 0.0;
  double avg_h = 0.0;
};

Eq1Aggregates AggregatesFrom(const GhHistogram& hist) {
  Eq1Aggregates agg;
  agg.n = static_cast<double>(hist.dataset_size());
  // Sums the stored entries, under either storage: a cell a sparse
  // histogram leaves out holds +0.0, which adds nothing.
  double sum_o = 0.0;
  double sum_h = 0.0;
  double sum_v = 0.0;
  for (size_t i = 0; i < hist.o().size(); ++i) {
    sum_o += hist.o()[i];
    sum_h += hist.h()[i];
    sum_v += hist.v()[i];
  }
  const Grid& grid = hist.grid();
  const double cells = static_cast<double>(grid.num_cells());
  agg.coverage = sum_o / cells;
  if (agg.n > 0.0) {
    agg.avg_w = sum_h * grid.cell_width() / (2.0 * agg.n);
    agg.avg_h = sum_v * grid.cell_height() / (2.0 * agg.n);
  }
  return agg;
}

}  // namespace

Result<double> EstimateGhSpatialCorrelation(const GhHistogram& a,
                                            const GhHistogram& b) {
  if (a.variant() != GhVariant::kRevised ||
      b.variant() != GhVariant::kRevised) {
    return Status::InvalidArgument(
        "spatial correlation needs revised-variant GH histograms");
  }
  if (a.dataset_size() == 0 || b.dataset_size() == 0) {
    return Status::FailedPrecondition(
        "correlation undefined for empty datasets");
  }
  double observed_sel = 0.0;
  SJSEL_ASSIGN_OR_RETURN(observed_sel, EstimateGhJoinSelectivity(a, b));

  const Eq1Aggregates sa = AggregatesFrom(a);
  const Eq1Aggregates sb = AggregatesFrom(b);
  const double area = a.grid().extent().area();
  if (area <= 0.0) return Status::Internal("degenerate extent");
  const double independent_pairs =
      sa.n * sb.coverage + sa.coverage * sb.n +
      sa.n * sb.n * (sa.avg_w * sb.avg_h + sb.avg_w * sa.avg_h) / area;
  const double independent_sel = independent_pairs / (sa.n * sb.n);
  if (independent_sel <= 0.0) {
    return Status::FailedPrecondition(
        "independence baseline is zero (degenerate data)");
  }
  return observed_sel / independent_sel;
}

Result<double> EstimateGhSelfJoinPairs(const GhHistogram& hist) {
  double ordered = 0.0;
  SJSEL_ASSIGN_OR_RETURN(ordered, EstimateGhJoinPairs(hist, hist));
  const double distinct =
      (ordered - static_cast<double>(hist.dataset_size())) / 2.0;
  return distinct < 0.0 ? 0.0 : distinct;
}

Result<double> EstimateGhJoinPairsInWindow(const GhHistogram& a,
                                           const GhHistogram& b,
                                           const Rect& window) {
  if (!a.grid().CompatibleWith(b.grid())) {
    return Status::InvalidArgument(
        "GH histograms built on different grids cannot be combined");
  }
  if (a.variant() != b.variant()) {
    return Status::InvalidArgument(
        "GH histograms of different variants cannot be combined");
  }
  const Grid& grid = a.grid();
  const Rect clipped = window.Intersection(grid.extent());
  if (clipped.IsEmpty()) return 0.0;

  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
  grid.CellRange(clipped, &x0, &y0, &x1, &y1);
  const double cell_area = grid.cell_area();
  double ip = 0.0;
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      const Rect cell = grid.CellRect(cx, cy);
      const Rect overlap = cell.Intersection(clipped);
      if (overlap.IsEmpty()) continue;
      // Boundary cells contribute in proportion to the overlapped area —
      // the same within-cell uniformity assumption GH already makes.
      const double weight = overlap.area() / cell_area;
      if (weight <= 0.0) continue;
      const int64_t i = grid.Flat(cx, cy);
      const GhCellStats x = a.Cell(i);
      const GhCellStats y = b.Cell(i);
      ip += weight * (x.c * y.o + x.o * y.c + x.h * y.v + x.v * y.h);
    }
  }
  return ip / 4.0;
}

namespace {

// Sink that combines one query rectangle's on-the-fly GH parameters with a
// prebuilt histogram's cell statistics — evaluating Equation 5 for the
// join of `hist` with the singleton dataset {query} without materializing
// a second histogram.
struct QueryCombineSink {
  const GhHistogram* hist;
  double ip = 0.0;

  void Corner(int64_t idx, double amount) {
    ip += amount * hist->Cell(idx).o;
  }
  void Area(int64_t idx, double amount) {
    ip += amount * hist->Cell(idx).c;
  }
  void Horizontal(int64_t idx, double amount) {
    ip += amount * hist->Cell(idx).v;
  }
  void Vertical(int64_t idx, double amount) {
    ip += amount * hist->Cell(idx).h;
  }
};

}  // namespace

double EstimateGhRangeCount(const GhHistogram& hist, const Rect& query) {
  QueryCombineSink sink{&hist, 0.0};
  ForEachGhContribution(hist.grid(), hist.variant(), query, sink);
  return sink.ip / 4.0;
}

uint64_t GhHistogram::NonEmptyCells() const {
  // Counts stored entries, under either storage: a cell a sparse histogram
  // leaves out is empty.
  uint64_t count = 0;
  for (size_t i = 0; i < c_.size(); ++i) {
    if (c_[i] != 0.0 || o_[i] != 0.0 || h_[i] != 0.0 || v_[i] != 0.0) {
      ++count;
    }
  }
  return count;
}

uint64_t GhHistogram::FileBytes(FileFormat format) const {
  // Header: magic, version byte, variant, format, level, 4 extent doubles,
  // n, name; trailer: CRC.
  const uint64_t header = 4 + 1 + 1 + 1 + 4 + 32 + 8 + 4 + name_.size();
  const uint64_t trailer = 4;
  if (format == FileFormat::kDense) {
    return header + 4 * (8 + grid_.num_cells() * 8) + trailer;
  }
  return header + 8 + NonEmptyCells() * (8 + 4 * 8) + trailer;
}

Status GhHistogram::Save(const std::string& path, FileFormat format) const {
  BinaryWriter w;
  w.BeginEnvelope(kGhMagic, kGhVersion);
  w.PutU8(variant_ == GhVariant::kBasic ? 1 : 0);
  w.PutU8(format == FileFormat::kSparse ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(grid_.level()));
  w.PutDouble(grid_.extent().min_x);
  w.PutDouble(grid_.extent().min_y);
  w.PutDouble(grid_.extent().max_x);
  w.PutDouble(grid_.extent().max_y);
  w.PutU64(n_);
  w.PutString(name_);
  if (format == FileFormat::kDense) {
    for (const std::vector<double>* stat : {&c_, &o_, &h_, &v_}) {
      if (!sparse_) {
        w.PutDoubleVector(*stat);
        continue;
      }
      // The dense array: +0.0 where no cell is stored.
      const uint64_t cells = static_cast<uint64_t>(grid_.num_cells());
      w.PutU64(cells);
      size_t k = 0;
      for (uint64_t i = 0; i < cells; ++i) {
        const bool here = k < stored_.size() && stored_[k] == i;
        w.PutDouble(here ? (*stat)[k++] : 0.0);
      }
    }
  } else {
    w.PutU64(NonEmptyCells());
    for (size_t k = 0; k < c_.size(); ++k) {
      if (c_[k] == 0.0 && o_[k] == 0.0 && h_[k] == 0.0 && v_[k] == 0.0) {
        continue;
      }
      w.PutU64(sparse_ ? stored_[k] : k);
      w.PutDouble(c_[k]);
      w.PutDouble(o_[k]);
      w.PutDouble(h_[k]);
      w.PutDouble(v_[k]);
    }
  }
  return WriteFile(path, w.SealEnvelope());
}

Result<GhHistogram> GhHistogram::Load(const std::string& path) {
  std::string data;
  SJSEL_ASSIGN_OR_RETURN(data, ReadFile(path));
  BinaryReader r(std::move(data));
  uint8_t version = 0;
  SJSEL_ASSIGN_OR_RETURN(version, r.OpenEnvelope(kGhMagic, "GH histogram"));
  if (version != kGhVersion) {
    return Status::Corruption("unsupported GH version " +
                              std::to_string(version));
  }
  uint8_t variant_byte = 0;
  SJSEL_ASSIGN_OR_RETURN(variant_byte, r.GetU8());
  uint8_t format_byte = 0;
  SJSEL_ASSIGN_OR_RETURN(format_byte, r.GetU8());
  uint32_t level = 0;
  SJSEL_ASSIGN_OR_RETURN(level, r.GetU32());
  Rect extent;
  SJSEL_ASSIGN_OR_RETURN(extent.min_x, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(extent.min_y, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(extent.max_x, r.GetDouble());
  SJSEL_ASSIGN_OR_RETURN(extent.max_y, r.GetDouble());

  auto grid_result = Grid::Create(extent, static_cast<int>(level));
  if (!grid_result.ok()) return grid_result.status();
  GhHistogram hist(std::move(grid_result).value(),
                   variant_byte == 1 ? GhVariant::kBasic
                                     : GhVariant::kRevised);

  SJSEL_ASSIGN_OR_RETURN(hist.n_, r.GetU64());
  SJSEL_ASSIGN_OR_RETURN(hist.name_, r.GetString());
  const size_t cells = static_cast<size_t>(hist.grid_.num_cells());
  if (format_byte == 0) {
    SJSEL_ASSIGN_OR_RETURN(hist.c_, r.GetDoubleVector());
    SJSEL_ASSIGN_OR_RETURN(hist.o_, r.GetDoubleVector());
    SJSEL_ASSIGN_OR_RETURN(hist.h_, r.GetDoubleVector());
    SJSEL_ASSIGN_OR_RETURN(hist.v_, r.GetDoubleVector());
    if (hist.c_.size() != cells || hist.o_.size() != cells ||
        hist.h_.size() != cells || hist.v_.size() != cells) {
      return Status::Corruption("GH cell payload size mismatch in " + path);
    }
  } else {
    hist.c_.assign(cells, 0.0);
    hist.o_.assign(cells, 0.0);
    hist.h_.assign(cells, 0.0);
    hist.v_.assign(cells, 0.0);
    uint64_t records = 0;
    SJSEL_ASSIGN_OR_RETURN(records, r.GetU64());
    for (uint64_t rec = 0; rec < records; ++rec) {
      uint64_t idx = 0;
      SJSEL_ASSIGN_OR_RETURN(idx, r.GetU64());
      if (idx >= cells) {
        return Status::Corruption("GH sparse record index out of range in " +
                                  path);
      }
      SJSEL_ASSIGN_OR_RETURN(hist.c_[idx], r.GetDouble());
      SJSEL_ASSIGN_OR_RETURN(hist.o_[idx], r.GetDouble());
      SJSEL_ASSIGN_OR_RETURN(hist.h_[idx], r.GetDouble());
      SJSEL_ASSIGN_OR_RETURN(hist.v_[idx], r.GetDouble());
    }
  }
  SJSEL_RETURN_IF_ERROR(r.ExpectBodyEnd("GH file " + path));
  return hist;
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

}  // namespace sjsel
