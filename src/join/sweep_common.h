#ifndef SJSEL_JOIN_SWEEP_COMMON_H_
#define SJSEL_JOIN_SWEEP_COMMON_H_

// The vectorized forward-scan sweep shared by the plane-sweep join and the
// PBSM per-partition join: geometry in SoA layout, candidate runs found
// with the sorted-prefix kernel, intersection tests batched into 64-rect
// bitmasks (src/core/kernels.h). Emission order is exactly the scalar
// forward scan's: ascending scan index within each run.

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/kernels.h"
#include "geom/rect.h"
#include "geom/soa_dataset.h"
#include "util/aligned.h"

namespace sjsel {
namespace sweep {

/// The sweep order of two rects, given their min_x and dataset positions:
/// by (min_x is NaN, min_x, position). This stays a strict weak order when
/// some min_x is NaN; those rects sort last, and since a NaN rect
/// intersects nothing, the sweep finds no pair for them. The position
/// tie-break makes the emission order reproducible.
template <typename Index>
bool SweepOrderLess(double ax, Index a, double bx, Index b) {
  const bool a_nan = std::isnan(ax);
  const bool b_nan = std::isnan(bx);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && ax != bx) return ax < bx;
  return a < b;
}

/// One sweep input: coordinates in SoA layout sorted by min_x, plus the
/// original dataset position of each row. Reused as scratch across PBSM
/// partitions — Assign overwrites, capacity is kept.
struct SweepSoa {
  AlignedVector<double> min_x, min_y, max_x, max_y;
  std::vector<int64_t> id;

  size_t size() const { return min_x.size(); }

  void Clear() {
    min_x.clear();
    min_y.clear();
    max_x.clear();
    max_y.clear();
    id.clear();
  }

  void Reserve(size_t n) {
    min_x.reserve(n);
    min_y.reserve(n);
    max_x.reserve(n);
    max_y.reserve(n);
    id.reserve(n);
  }

  void Append(const Rect& r, int64_t rect_id) {
    min_x.push_back(r.min_x);
    min_y.push_back(r.min_y);
    max_x.push_back(r.max_x);
    max_y.push_back(r.max_y);
    id.push_back(rect_id);
  }

  SoaSlice Slice() const {
    return SoaSlice{min_x.data(), min_y.data(), max_x.data(), max_y.data(),
                    size()};
  }
};

/// Forward-scan sweep over two min_x-sorted SoA views. Calls
/// emit(i, j) — row indices into `sa` and `sb` — for every intersecting
/// pair (closed-interval convention), in the order the scalar forward scan
/// visits them. The x-axis low bound of every scanned candidate holds by
/// sortedness, so the batched multi-lane Rect::Intersects mask decides
/// exactly the pairs the scalar y-overlap test would. Slice form so PBSM
/// can sweep pre-partitioned runs in place, without per-partition copies.
template <typename Emit>
void SoaSweep(const SoaSlice& sa, const SoaSlice& sb, Emit&& emit) {
  size_t i = 0;
  size_t j = 0;
  while (i < sa.size && j < sb.size) {
    if (sa.min_x[i] <= sb.min_x[j]) {
      const Rect probe = sa.RectAt(i);
      const size_t run = SortedPrefixLeq(sb.min_x, j, sb.size, probe.max_x);
      for (size_t k = j; k < j + run; k += 64) {
        const size_t n = std::min<size_t>(64, j + run - k);
        uint64_t mask = IntersectMask64(sb, k, n, probe);
        while (mask != 0) {
          const unsigned bit = static_cast<unsigned>(std::countr_zero(mask));
          mask &= mask - 1;
          emit(i, k + bit);
        }
      }
      ++i;
    } else {
      const Rect probe = sb.RectAt(j);
      const size_t run = SortedPrefixLeq(sa.min_x, i, sa.size, probe.max_x);
      for (size_t k = i; k < i + run; k += 64) {
        const size_t n = std::min<size_t>(64, i + run - k);
        uint64_t mask = IntersectMask64(sa, k, n, probe);
        while (mask != 0) {
          const unsigned bit = static_cast<unsigned>(std::countr_zero(mask));
          mask &= mask - 1;
          emit(k + bit, j);
        }
      }
      ++j;
    }
  }
}

/// Owning-buffer convenience overload.
template <typename Emit>
void SoaSweep(const SweepSoa& a, const SweepSoa& b, Emit&& emit) {
  SoaSweep(a.Slice(), b.Slice(), emit);
}

}  // namespace sweep
}  // namespace sjsel

#endif  // SJSEL_JOIN_SWEEP_COMMON_H_
