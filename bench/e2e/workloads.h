#ifndef SJSEL_BENCH_E2E_WORKLOADS_H_
#define SJSEL_BENCH_E2E_WORKLOADS_H_

// The three workloads of the end-to-end serving benchmark (README.md in
// this directory). Each one sets the server up, drives its closed-loop
// load over the socket, checks the answers and reports the end-to-end
// metrics; with `trace` it then replays a fixed sample in-process and
// reports the per-layer metrics instead.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "util/result.h"

namespace sjsel {
namespace e2e {

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the measured closed-loop window.
  double seconds = 30.0;
  /// Also run the in-process traced replay and report per-layer metrics.
  bool trace = false;
  /// Tiny pools and samples, for the ctest.
  bool smoke = false;
  /// The `sjsel` binary whose `serve` command is under test.
  std::string sjsel;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct WorkloadReport {
  /// From the untraced closed-loop run, timings at the reference host's
  /// speed (reference.h).
  std::vector<Metric> end_to_end;
  /// The same timings as measured on this host, and the host's slowdown
  /// during set-up and during the load; in the results file only.
  std::vector<Metric> measured;
  /// Also from the untraced run, but reported by some workloads only (the
  /// accuracy of the estimates). They go to the results file, where
  /// compare.py gates them, not to the result line.
  std::vector<Metric> workload_metrics;
  /// From the traced replay; empty unless RunOptions::trace.
  std::vector<Metric> per_layer;
  /// Requests sent in the measured window, and those that failed
  /// (transport error or rejected response).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Every output check of the run, the load loop's included.
  Checks checks;
  /// Reported by the server's `stats` op.
  std::string kernel_backend;
  std::string server_compiler;
};

struct Workload {
  const char* name;
  Status (*run)(const RunOptions& options, WorkloadReport* report);
};

/// estimate_warm, estimate_cold, plan_k8.
const std::vector<Workload>& Workloads();

}  // namespace e2e
}  // namespace sjsel

#endif  // SJSEL_BENCH_E2E_WORKLOADS_H_
