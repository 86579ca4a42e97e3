// Batch-kernel regression harness: scalar vs batch/SIMD throughput of the
// vectorized hot loops (docs/ARCHITECTURE.md, "Data-level parallelism")
// with every fast path verified bit-identical to its scalar reference
// before a row is printed. Emits BENCH_kernels.json (see EXPERIMENTS.md,
// E13) for machine-readable perf diffing across commits.
//
// Rows:
//   gh_build_kernel/*   cell-range + clipped-fraction kernel in isolation
//   gh_build/*          full GhHistogram::Build (aos = per-rect AddRect)
//   ph_build/*          full PhHistogram::Build
//   plane_sweep/*       PlaneSweepJoinCount, uniform x clustered
//   pbsm/*              PbsmJoinCount, uniform x clustered
//   sample_filter/*     EstimateBySampling with the plane-sweep sample join
//
// On a machine with AVX2 the SIMD backend gets its own row (batch_avx2,
// or /avx2 for the joins); the batch_simd and /simd rows alias what
// detection picks (scalar without AVX2) so the drift baselines stay
// portable across machines with different vector extensions. `--smoke`
// shrinks the inputs and runs one rep per row — the ctest `bench_smoke`
// entry point. A backend mismatch exits non-zero.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/gh_histogram.h"
#include "core/grid.h"
#include "core/kernels.h"
#include "core/ph_histogram.h"
#include "core/sampling.h"
#include "datagen/generators.h"
#include "geom/soa_dataset.h"
#include "join/pbsm.h"
#include "join/plane_sweep.h"
#include "util/aligned.h"
#include "util/timer.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);
constexpr int kLevel = 7;

int g_reps = 3;

// Best-of-g_reps wall-clock seconds.
template <typename Fn>
double TimeBest(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < g_reps; ++rep) {
    Timer timer;
    fn();
    const double s = timer.ElapsedSeconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

double NsPerOp(double seconds, size_t items) {
  return items == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(items);
}

void PrintEntry(const std::string& name, double ns, double speedup) {
  std::printf("%-28s  %10.2f ns/op  %6.2fx\n", name.c_str(), ns, speedup);
}

// The SIMD backend this machine can run, if any — what detection picks.
std::vector<KernelBackend> SimdBackends() {
  if (!KernelBackendAvailable(KernelBackend::kAvx2)) return {};
  return {KernelBackend::kAvx2};
}

bool SameGh(const GhHistogram& a, const GhHistogram& b) {
  return a.c() == b.c() && a.o() == b.o() && a.h() == b.h() && a.v() == b.v();
}

bool SamePh(const PhHistogram& a, const PhHistogram& b) {
  if (a.avg_span() != b.avg_span() ||
      a.cells().size() != b.cells().size()) {
    return false;
  }
  for (size_t i = 0; i < a.cells().size(); ++i) {
    const auto& x = a.cells()[i];
    const auto& y = b.cells()[i];
    if (x.num != y.num || x.area_sum != y.area_sum || x.w_sum != y.w_sum ||
        x.h_sum != y.h_sum || x.num_x != y.num_x ||
        x.area_sum_x != y.area_sum_x || x.w_sum_x != y.w_sum_x ||
        x.h_sum_x != y.h_sum_x) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace sjsel

int main(int argc, char** argv) {
  using namespace sjsel;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) g_reps = 1;

  const size_t n = smoke ? 5000 : 100000;
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  const Dataset uniform = gen::UniformRects("uniform", n, kUnit, size, 1);
  const Dataset clustered = gen::GaussianClusterRects(
      "clustered", n, kUnit, {{0.4, 0.7}, 0.1, 0.1, 1.0}, size, 2);

  const std::vector<KernelBackend> simd = SimdBackends();
  std::printf("batch kernels, %zu rects/input, simd backends:", n);
  if (simd.empty()) std::printf(" none");
  for (const KernelBackend b : simd) {
    std::printf(" %s", KernelBackendName(b));
  }
  std::printf("\n\n");

  bench::BenchJsonWriter json("kernels");
  json.AddMetadata("items_per_input", std::to_string(n));
  bool all_identical = true;

  // Measures `fn` once per backend (scalar plus the SIMD backend where
  // available), emitting `prefix/<batch_prefix>scalar`,
  // `prefix/<batch_prefix>avx2` and a `prefix/<batch_prefix>simd`
  // alias of the detected backend, each normalized against `t_base` — or,
  // when t_base <= 0, against the scalar pass itself (rows whose
  // reference IS the forced-scalar run, like the joins). `verify` runs
  // once per backend with the same forced backend but OUTSIDE the timed
  // region — bit-identity checks must not contaminate the timings (the
  // references they compare against are timed bare). `--smoke` keeps
  // only the scalar row and the simd alias: the drift baseline built from
  // a smoke run must not name backends other machines may lack.
  const auto backend_rows = [&](const std::string& prefix,
                                const char* batch_prefix, double t_base,
                                auto&& fn, auto&& verify) {
    double t_best = 0.0;
    const char* best_name = "scalar";
    for (int pass = 0; pass <= static_cast<int>(simd.size()); ++pass) {
      const KernelBackend backend =
          pass == 0 ? KernelBackend::kScalar : simd[pass - 1];
      SetKernelBackendOverride(backend);
      const double t = TimeBest(fn);
      verify();
      ClearKernelBackendOverride();
      if (pass == 0 && t_base <= 0.0) t_base = t;
      if (!smoke || pass == 0) {
        const std::string row =
            prefix + "/" + batch_prefix + KernelBackendName(backend);
        PrintEntry(row, NsPerOp(t, n), t_base / t);
        json.Add(row, NsPerOp(t, n), t_base / t, 1, n,
                 KernelBackendName(backend));
      }
      // "Best" = the SIMD backend when there is one, matching what
      // detection dispatches to when nothing forces scalar.
      t_best = t;
      best_name = KernelBackendName(backend);
    }
    const std::string row = prefix + "/" + batch_prefix + "simd";
    PrintEntry(row, NsPerOp(t_best, n), t_base / t_best);
    json.Add(row, NsPerOp(t_best, n), t_base / t_best, 1, n, best_name);
  };

  // --- GH build kernel in isolation: the fused pass-1 kernel of the
  // serial build (GhRectTermsBatch — cell range plus all 8 revised-variant
  // division terms per rect) vs a per-rect scalar loop computing the same
  // 12 outputs with Grid calls (the pre-batch AoS formulation). This is
  // the kernel the JSON regression gate watches.
  {
    const auto grid = Grid::Create(kUnit, kLevel);
    const Grid& g = *grid;
    AlignedVector<int32_t> x0(n), y0(n), x1(n), y1(n);
    AlignedVector<double> a00(n), a01(n), a10(n), a11(n);
    AlignedVector<double> hf0(n), hf1(n), vf0(n), vf1(n);
    const GridGeom geom{g.extent().min_x, g.extent().min_y, g.cell_width(),
                        g.cell_height(), g.per_axis()};
    const GhRectTermsOut out{x0.data(),  y0.data(),  x1.data(),  y1.data(),
                             a00.data(), a01.data(), a10.data(), a11.data(),
                             hf0.data(), hf1.data(), vf0.data(), vf1.data()};

    const auto scalar_pass = [&] {
      const double cell_area = geom.cell_w * geom.cell_h;
      for (size_t i = 0; i < n; ++i) {
        const Rect& r = uniform[i];
        int a, b, c, d;
        g.CellRange(r, &a, &b, &c, &d);
        x0[i] = a;
        y0[i] = b;
        x1[i] = c;
        y1[i] = d;
        const double col_lo = geom.min_x + a * geom.cell_w;
        const double col_mid = geom.min_x + (a + 1) * geom.cell_w;
        const double col_hi = geom.min_x + (a + 2) * geom.cell_w;
        const double row_lo = geom.min_y + b * geom.cell_h;
        const double row_mid = geom.min_y + (b + 1) * geom.cell_h;
        const double row_hi = geom.min_y + (b + 2) * geom.cell_h;
        const double w0 = OverlapLen(r.min_x, r.max_x, col_lo, col_mid);
        const double w1 = OverlapLen(r.min_x, r.max_x, col_mid, col_hi);
        const double h0 = OverlapLen(r.min_y, r.max_y, row_lo, row_mid);
        const double h1 = OverlapLen(r.min_y, r.max_y, row_mid, row_hi);
        a00[i] = (w0 * h0) / cell_area;
        a01[i] = (w0 * h1) / cell_area;
        a10[i] = (w1 * h0) / cell_area;
        a11[i] = (w1 * h1) / cell_area;
        hf0[i] = w0 / geom.cell_w;
        hf1[i] = w1 / geom.cell_w;
        vf0[i] = h0 / geom.cell_h;
        vf1[i] = h1 / geom.cell_h;
      }
    };
    const double t_scalar = TimeBest(scalar_pass);
    const AlignedVector<int32_t> rx0 = x0, ry0 = y0, rx1 = x1, ry1 = y1;
    const AlignedVector<double> ra00 = a00, ra01 = a01, ra10 = a10,
                                ra11 = a11;
    const AlignedVector<double> rhf0 = hf0, rhf1 = hf1, rvf0 = vf0,
                                rvf1 = vf1;

    PrintEntry("gh_build_kernel/scalar", NsPerOp(t_scalar, n), 1.0);
    json.Add("gh_build_kernel/scalar", NsPerOp(t_scalar, n), 1.0, 1, n,
             "scalar");
    backend_rows(
        "gh_build_kernel", "batch_", t_scalar,
        [&] { GhRectTermsBatch(geom, uniform.rects().data(), n, out); },
        [&] {
          if (x0 != rx0 || y0 != ry0 || x1 != rx1 || y1 != ry1 ||
              a00 != ra00 || a01 != ra01 || a10 != ra10 || a11 != ra11 ||
              hf0 != rhf0 || hf1 != rhf1 || vf0 != rvf0 || vf1 != rvf1) {
            all_identical = false;
          }
        });
  }

  // --- Full GH build: per-rect AddRect (AoS) vs the batched Build.
  {
    const auto aos_build = [&] {
      auto hist = GhHistogram::CreateEmpty(kUnit, kLevel);
      for (size_t i = 0; i < uniform.size(); ++i) hist->AddRect(uniform[i]);
      return std::move(*hist);
    };
    const GhHistogram reference = aos_build();
    const double t_aos = TimeBest(aos_build);
    PrintEntry("gh_build/aos", NsPerOp(t_aos, n), 1.0);
    json.Add("gh_build/aos", NsPerOp(t_aos, n), 1.0, 1, n, "scalar");
    backend_rows(
        "gh_build", "batch_", t_aos,
        [&] {
          const auto hist =
              GhHistogram::Build(uniform, kUnit, kLevel, GhVariant::kRevised);
        },
        [&] {
          const auto hist =
              GhHistogram::Build(uniform, kUnit, kLevel, GhVariant::kRevised);
          if (!SameGh(*hist, reference)) all_identical = false;
        });
  }

  // --- Full PH build.
  {
    const auto aos_build = [&] {
      auto hist = PhHistogram::CreateEmpty(kUnit, kLevel);
      for (size_t i = 0; i < clustered.size(); ++i) hist->AddRect(clustered[i]);
      return std::move(*hist);
    };
    const PhHistogram reference = aos_build();
    const double t_aos = TimeBest(aos_build);
    PrintEntry("ph_build/aos", NsPerOp(t_aos, n), 1.0);
    json.Add("ph_build/aos", NsPerOp(t_aos, n), 1.0, 1, n, "scalar");
    backend_rows(
        "ph_build", "batch_", t_aos,
        [&] {
          const auto hist = PhHistogram::Build(clustered, kUnit, kLevel,
                                               PhVariant::kSplitCrossing);
        },
        [&] {
          const auto hist = PhHistogram::Build(clustered, kUnit, kLevel,
                                               PhVariant::kSplitCrossing);
          if (!SamePh(*hist, reference)) all_identical = false;
        });
  }

  // --- Join filters: plane sweep and PBSM, scalar vs the SIMD backend.
  const auto join_rows = [&](const char* name, auto&& count_fn) {
    SetKernelBackendOverride(KernelBackend::kScalar);
    const uint64_t reference = count_fn();
    ClearKernelBackendOverride();
    // The O(1) count compare stays in `fn`: the count IS the measured work.
    backend_rows(
        name, "", 0.0,
        [&] {
          if (count_fn() != reference) all_identical = false;
        },
        [] {});
  };
  join_rows("plane_sweep",
            [&] { return PlaneSweepJoinCount(uniform, clustered); });
  join_rows("pbsm", [&] { return PbsmJoinCount(uniform, clustered); });

  // --- Sampling estimator with the plane-sweep sample join.
  {
    SamplingOptions options;
    options.join_algo = SampleJoinAlgo::kPlaneSweep;
    options.frac_a = 0.1;
    options.frac_b = 0.1;
    join_rows("sample_filter", [&] {
      return EstimateBySampling(uniform, clustered, options)->sample_pairs;
    });
  }

  std::printf("\nbackends %s\n",
              all_identical ? "bit-identical" : "MISMATCH!");
  json.Write();
  return all_identical ? 0 : 1;
}
