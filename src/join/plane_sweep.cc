#include "join/plane_sweep.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "join/sweep_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sjsel {
namespace {

// Sorts dataset positions into the sweep order and gathers the geometry
// into SoA layout for the vectorized sweep.
sweep::SweepSoa SortedByMinX(const Dataset& ds) {
  std::vector<int64_t> order(ds.size());
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(), [&ds](int64_t a, int64_t b) {
    return sweep::SweepOrderLess(ds[static_cast<size_t>(a)].min_x, a,
                                 ds[static_cast<size_t>(b)].min_x, b);
  });
  sweep::SweepSoa soa;
  soa.Reserve(ds.size());
  for (int64_t pos : order) soa.Append(ds[static_cast<size_t>(pos)], pos);
  return soa;
}

}  // namespace

uint64_t PlaneSweepJoinCount(const Dataset& a, const Dataset& b) {
  SJSEL_TRACE_SPAN("join.plane_sweep", "n_a=%zu n_b=%zu", a.size(), b.size());
  SJSEL_METRIC_INC("join.plane_sweep.runs");
  const sweep::SweepSoa sa = SortedByMinX(a);
  const sweep::SweepSoa sb = SortedByMinX(b);
  uint64_t count = 0;
  sweep::SoaSweep(sa, sb, [&count](size_t, size_t) { ++count; });
  SJSEL_METRIC_ADD("join.plane_sweep.pairs", count);
  return count;
}

void PlaneSweepJoin(const Dataset& a, const Dataset& b,
                    const PairCallback& emit) {
  SJSEL_TRACE_SPAN("join.plane_sweep", "n_a=%zu n_b=%zu", a.size(), b.size());
  SJSEL_METRIC_INC("join.plane_sweep.runs");
  const sweep::SweepSoa sa = SortedByMinX(a);
  const sweep::SweepSoa sb = SortedByMinX(b);
  sweep::SoaSweep(sa, sb, [&](size_t i, size_t j) {
    emit(sa.id[i], sb.id[j]);
  });
}

}  // namespace sjsel
