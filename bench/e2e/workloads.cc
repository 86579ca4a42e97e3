#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "core/gh_histogram.h"
#include "core/guarded_estimator.h"
#include "geom/dataset.h"
#include "geom/validate.h"
#include "obs/metrics.h"
#include "planner/join_planner.h"
#include "reference.h"
#include "server/protocol.h"
#include "server/server.h"
#include "spans.h"
#include "util/json.h"
#include "util/random.h"

namespace sjsel {
namespace e2e {
namespace {

namespace fs = std::filesystem;

constexpr char kSocket[] = "serve.sock";
constexpr char kServeLog[] = "serve.log";

// One sub-seed stream per use of the run seed, so changing how one
// workload draws leaves every other workload's inputs unchanged.
enum SeedStream : uint64_t {
  kWarmOrder = 1,
  kWarmDraw,
  kColdOrder,
  kPlanDraw,
  kTraceDraw,
};

// Spans whose p50/p99 are per-layer metrics, in table order. The ones a
// workload never enters report 0.
constexpr const char* kLayerSpans[] = {
    "server.handle_line",  "server.parse",
    "server.catalog_hit",  "catalog.load",
    "estimate.guarded",    "estimate.extent",
    "validate",            "estimate.joint_extent",
    "hist.gh.build",       "hist.gh.combine",
    "planner.plan",        "planner.pair_estimates",
    "planner.render",
};

// Spans that split a replayed request into disjoint parts; their self
// times per request are summed against Server::HandleLine's mean.
// planner.search is derived (plan minus pair estimates) and added apart.
constexpr std::string_view kComponentSpans[] = {
    "server.parse",    "server.catalog_hit",    "estimate.extent",
    "validate",        "estimate.joint_extent", "hist.gh.build",
    "hist.gh.combine", "planner.render",
};

// The estimator configuration the server runs with: ServerOptions'
// default, which is also what `sjsel serve` passes without flags.
GuardedEstimatorOptions ServedEstimatorOptions() {
  return server::ServerOptions{}.estimator;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double RelError(double estimate, double exact) {
  return std::fabs(estimate - exact) / std::max(exact, 1.0);
}

template <typename T>
void Shuffle(std::vector<T>* values, Rng* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[rng->NextU64(i)]);
  }
}

// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto InSpan(SpanRecorder& rec, const char* name, Fn&& fn) {
  SpanRecorder::Scope scope(rec, name);
  return fn();
}

// Ranks drawn with probability proportional to 1 / (rank + 1).
class Zipf {
 public:
  explicit Zipf(size_t n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Rng& rng) const {
    const auto it =
        std::upper_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Loads pool files into memory once, for the bench's in-process checks.
class DatasetCache {
 public:
  Result<const Dataset*> Get(const std::string& path) {
    auto it = cache_.find(path);
    if (it == cache_.end()) {
      Dataset ds;
      SJSEL_ASSIGN_OR_RETURN(ds, Dataset::Load(path));
      it = cache_.emplace(path, std::move(ds)).first;
    }
    return &it->second;
  }

 private:
  std::map<std::string, Dataset> cache_;
};

// ---------------------------------------------------------------------------
// Untraced run: set-up, load, tear-down.

// How many times each run sets the server up; setup_s is their median.
int SetupRuns(const RunOptions& opt) { return opt.smoke ? 1 : 5; }

// Length of a load slice. The reference round after each takes about
// 25 ms, so the load gets 99% of the run's load phase, and a 30 s run
// samples the host's speed 16 times.
constexpr double kSliceSeconds = 2.0;

// The set-up times of a run, and the slowdown measured before each.
struct SetupTimes {
  std::vector<double> seconds;
  std::vector<double> slowdowns;
};

// Starts the server SetupRuns() times, each time running `prepare` until
// it is ready for load, and keeps the last one. Each start is preceded by
// a reference round, with no server running.
Result<std::unique_ptr<ServeProcess>> SetUp(
    const RunOptions& opt, const std::function<Status()>& prepare,
    SetupTimes* times) {
  std::unique_ptr<ServeProcess> server;
  for (int run = 0; run < SetupRuns(opt); ++run) {
    if (server != nullptr) SJSEL_RETURN_IF_ERROR(server->Shutdown());
    times->slowdowns.push_back(MeasureSlowdown());
    const Clock::time_point start = Clock::now();
    SJSEL_ASSIGN_OR_RETURN(server,
                           ServeProcess::Start(opt.sjsel, kSocket, kServeLog));
    SJSEL_RETURN_IF_ERROR(prepare());
    times->seconds.push_back(SecondsSince(start));
  }
  return server;
}

// Sends set-up requests in order on one connection and checks that each
// was answered. One connection keeps the server's peak RSS a function of
// the inputs: concurrent set-up requests made it vary by 8% from run to
// run with one seed.
Status SendSetup(const std::vector<std::string>& lines,
                 const std::vector<const char*>& fields,
                 std::vector<std::string>* responses = nullptr) {
  std::vector<std::string> out = SendAll(kSocket, lines);
  for (size_t i = 0; i < out.size(); ++i) {
    if (!ResponseOk(out[i], fields)) {
      return Status::Internal("set-up request failed: " + lines[i] + " -> " +
                              out[i]);
    }
  }
  if (responses != nullptr) *responses = std::move(out);
  return Status::OK();
}

std::vector<std::string> StatsLines(const std::vector<PoolFile>& pool) {
  std::vector<std::string> lines;
  for (const PoolFile& f : pool) lines.push_back(StatsLine(f.path));
  return lines;
}

struct ServerEnd {
  double peak_rss_mb = 0.0;
  /// server.catalog.estimate_hits / (hits + misses); 0 without estimates.
  double catalog_hit_ratio = 0.0;
};

// Reads the server's lifetime stats and peak RSS, then stops it.
Result<ServerEnd> Finish(ServeProcess& server, WorkloadReport* rep) {
  std::string reply;
  SJSEL_ASSIGN_OR_RETURN(reply, server.Call(R"({"op":"stats"})"));
  JsonValue doc;
  SJSEL_ASSIGN_OR_RETURN(doc, JsonValue::Parse(reply));
  const JsonValue* result = doc.Find("result");
  if (result == nullptr) return Status::Internal("stats failed: " + reply);
  rep->kernel_backend = result->GetString("kernel_backend", "").value_or("");
  rep->server_compiler = result->GetString("compiler", "").value_or("");
  ServerEnd end;
  const JsonValue* metrics = result->Find("metrics");
  const JsonValue* counters =
      metrics != nullptr ? metrics->Find("counters") : nullptr;
  if (counters != nullptr) {
    const double hits =
        counters->GetNumber("server.catalog.estimate_hits", 0).value_or(0);
    const double misses =
        counters->GetNumber("server.catalog.estimate_misses", 0).value_or(0);
    if (hits + misses > 0) end.catalog_hit_ratio = hits / (hits + misses);
  }
  uint64_t rss_kb = 0;
  SJSEL_ASSIGN_OR_RETURN(rss_kb, server.PeakRssKb());
  end.peak_rss_mb = static_cast<double>(rss_kb) / 1024.0;
  SJSEL_RETURN_IF_ERROR(server.Shutdown());
  return end;
}

// The end-to-end metrics, at the reference host's speed: each set-up time
// divided by the slowdown measured before it, and the load's timings by
// the median slowdown of its reference rounds. The values as measured go
// to `measured`.
void ReportEndToEnd(const SetupTimes& setup, const SlicedLoad& load,
                    const ServerEnd& end, WorkloadReport* rep) {
  std::vector<double> reference_setup;
  for (size_t i = 0; i < setup.seconds.size(); ++i) {
    reference_setup.push_back(setup.seconds[i] / setup.slowdowns[i]);
  }
  const GroupStats& primary = load.stats;
  const double slowdown = Quantile(load.slowdowns, 0.5);
  const double p50 = Quantile(primary.latency_ms, 0.50);
  const double p99 = Quantile(primary.latency_ms, 0.99);
  rep->end_to_end = {
      {"setup_s", "s", Quantile(reference_setup, 0.5)},
      {"throughput_rps", "1/s", primary.rps() * slowdown},
      {"p50_ms", "ms", p50 / slowdown},
      {"p99_ms", "ms", p99 / slowdown},
      {"peak_rss_mb", "MB", end.peak_rss_mb},
  };
  rep->measured = {
      {"setup_s", "s", Quantile(setup.seconds, 0.5)},
      {"setup_slowdown", "ratio", Quantile(setup.slowdowns, 0.5)},
      {"throughput_rps", "1/s", primary.rps()},
      {"p50_ms", "ms", p50},
      {"p99_ms", "ms", p99},
      {"load_slowdown", "ratio", slowdown},
  };
  std::printf("  %zu requests in %.2f s, %.1f/s, p50 %.3f ms, p99 %.3f ms "
              "(as measured; host slowdown %.3f)\n",
              primary.latency_ms.size(), primary.seconds, primary.rps(), p50,
              p99, slowdown);
  std::vector<std::vector<double>> per_second(
      static_cast<size_t>(primary.seconds) + 1);
  for (size_t i = 0; i < primary.done_s.size(); ++i) {
    per_second[std::min(static_cast<size_t>(primary.done_s[i]),
                        per_second.size() - 1)]
        .push_back(primary.latency_ms[i]);
  }
  std::printf("  per second:");
  for (const auto& v : per_second) {
    std::printf(" %zu/%.3f", v.size(), Quantile(v, 0.5));
  }
  std::printf("\n");
}

void CountLoad(const GroupStats& group, WorkloadReport* rep) {
  rep->attempted += group.attempted;
  rep->failed += group.transport_errors;
}

// ---------------------------------------------------------------------------
// Traced replay: spans around calls into each layer's public functions.

struct Trace {
  SpanRecorder rec;
  /// Server::HandleLine durations of the workload's primary op.
  std::vector<double> primary_handle_us;
  uint64_t load_bytes = 0;
  /// Rects passed through GhHistogram::Build inside spans.
  uint64_t built_rects = 0;
  /// hist.gh.builds counted while HandleLine served each estimating line.
  std::vector<double> builds_per_request;
  std::vector<double> rel_errors;
  /// planner.plan minus planner.pair_estimates, per plan.
  std::vector<double> search_us;
  double estimates_per_plan = 0.0;
};

// What the untraced run contributes to the per-layer report.
struct LoadFacts {
  double p50_ms = 0.0;
  ServerEnd end{};
};

// Loads every pool file into the in-process server's catalog (a miss is
// Dataset::Load plus an insert) under catalog.load spans.
Status TraceLoads(const std::vector<PoolFile>& pool, server::Server& srv,
                  Trace* t) {
  for (const PoolFile& f : pool) {
    t->rec.NextRequest();
    const auto ds = InSpan(t->rec, "catalog.load",
                           [&] { return srv.catalog().GetDataset(f.path); });
    if (!ds.ok()) return ds.status();
    t->load_bytes += fs::file_size(f.path);
  }
  return Status::OK();
}

// One Server::HandleLine call under a server.handle_line span, with the
// GH builds it ran counted through the server's own hist.gh.builds
// counter (the bench's direct calls run with metrics disarmed, so they
// do not count).
std::string TraceHandleLine(server::Server& srv, const std::string& line,
                            Trace* t, bool primary, bool estimating) {
  obs::Counter* builds =
      obs::MetricsRegistry::Global().GetCounter("hist.gh.builds");
  const uint64_t before = builds->value();
  const size_t index = t->rec.spans().size();
  std::string response = InSpan(t->rec, "server.handle_line",
                                [&] { return srv.HandleLine(line); });
  if (primary) t->primary_handle_us.push_back(t->rec.spans()[index].us());
  if (estimating) {
    t->builds_per_request.push_back(
        static_cast<double>(builds->value() - before));
  }
  InSpan(t->rec, "server.parse", [&] { return server::ParseRequest(line); });
  return response;
}

// GuardedEstimator::Estimate's answer on the GH rung, recomposed from the
// public calls it makes, one span each, under one estimate.gh_path span.
Result<double> RecomposedGhEstimate(const Dataset& a, const Dataset& b,
                                    const GuardedEstimatorOptions& options,
                                    Trace* t) {
  SpanRecorder& rec = t->rec;
  SpanRecorder::Scope path(rec, "estimate.gh_path");
  const Rect extent = InSpan(rec, "estimate.extent", [&] {
    Rect e = Rect::Empty();
    for (const Dataset* ds : {&a, &b}) {
      for (const Rect& r : ds->rects()) {
        if (ClassifyRect(r, Rect::Empty()) == RectDefect::kNone) e.Extend(r);
      }
    }
    return e;
  });
  Dataset va;
  SJSEL_ASSIGN_OR_RETURN(va, InSpan(rec, "validate", [&] {
                           return ValidateDataset(a, extent, options.policy,
                                                  nullptr);
                         }));
  Dataset vb;
  SJSEL_ASSIGN_OR_RETURN(vb, InSpan(rec, "validate", [&] {
                           return ValidateDataset(b, extent, options.policy,
                                                  nullptr);
                         }));
  const Rect joint = InSpan(rec, "estimate.joint_extent", [&] {
    Rect e = va.ComputeExtent();
    e.Extend(vb.ComputeExtent());
    return e;
  });
  const auto ha = InSpan(rec, "hist.gh.build", [&] {
    return GhHistogram::Build(va, joint, options.gh_level);
  });
  if (!ha.ok()) return ha.status();
  const auto hb = InSpan(rec, "hist.gh.build", [&] {
    return GhHistogram::Build(vb, joint, options.gh_level);
  });
  if (!hb.ok()) return hb.status();
  t->built_rects += va.size() + vb.size();
  double pairs = 0.0;
  SJSEL_ASSIGN_OR_RETURN(pairs, InSpan(rec, "hist.gh.combine", [&] {
                           return EstimateGhJoinPairs(*ha, *hb);
                         }));
  // The guarded chain's range guard.
  return std::min(pairs, static_cast<double>(va.size()) *
                             static_cast<double>(vb.size()));
}

// Runs the recomposed GH path on one pair and checks that it agrees bit
// for bit with GuardedEstimator's answer `guarded`, which must agree with
// the `served` one.
void CheckRecomposed(const Dataset& a, const Dataset& b,
                     const EstimateResult& guarded,
                     const std::optional<double>& served,
                     const std::string& label, Trace* t, Checks* checks) {
  const auto recomposed =
      RecomposedGhEstimate(a, b, ServedEstimatorOptions(), t);
  const double value = guarded.outcome.estimated_pairs;
  checks->Expect(guarded.rung == EstimatorRung::kGh && recomposed.ok() &&
                     SameBits(*recomposed, value),
                 "recomposed GH path differs from GuardedEstimator on " +
                     label);
  checks->Expect(served.has_value() && SameBits(*served, value),
                 "served estimate differs from in-process on " + label);
}

void PrintLayerTable(const std::string& workload, const Trace& t,
                     const LoadFacts& load) {
  const auto stats = t.rec.Summarize();
  const double requests = static_cast<double>(t.primary_handle_us.size());
  double handle_total = 0.0;
  uint64_t handle_calls = 0;
  if (const auto it = stats.find("server.handle_line"); it != stats.end()) {
    handle_total = it->second.total_us;
    handle_calls = it->second.calls;
  }
  std::printf("\nper-layer table, %s (traced replay, single thread; "
              "%llu HandleLine calls, %.0f on the primary op)\n",
              workload.c_str(), static_cast<unsigned long long>(handle_calls),
              requests);
  std::printf("  %-26s %8s %10s %10s %12s %12s\n", "span", "calls", "p50_us",
              "p99_us", "self_us/req", "share");
  double component_us = 0.0;
  for (const auto& [name, st] : stats) {
    const double per_request =
        handle_calls > 0 ? st.self_us / static_cast<double>(handle_calls) : 0.0;
    const bool component =
        std::find(std::begin(kComponentSpans), std::end(kComponentSpans),
                  name) != std::end(kComponentSpans);
    if (component) component_us += st.self_us;
    std::printf("  %-26s %8llu %10.2f %10.2f %12.2f %11.1f%%%s\n",
                name.c_str(), static_cast<unsigned long long>(st.calls),
                st.p50_us, st.p99_us, per_request,
                handle_total > 0 ? 100.0 * st.self_us / handle_total : 0.0,
                component ? "" : "  (whole)");
  }
  double search_total = 0.0;
  for (double v : t.search_us) search_total += v;
  if (!t.search_us.empty()) {
    std::printf("  %-26s %8zu %10.2f %10.2f %12.2f %11.1f%%\n",
                "planner.search (derived)", t.search_us.size(),
                Quantile(t.search_us, 0.5), Quantile(t.search_us, 0.99),
                search_total / static_cast<double>(handle_calls),
                handle_total > 0 ? 100.0 * search_total / handle_total : 0.0);
  }
  component_us += search_total;
  const double handle_p50 = Quantile(t.primary_handle_us, 0.5);
  std::printf(
      "  components (self time of the non-whole rows) sum to %.1f%% of "
      "HandleLine's time\n",
      handle_total > 0 ? 100.0 * component_us / handle_total : 0.0);
  std::printf(
      "  untraced p50 %.1f us = HandleLine p50 %.1f us (%.1f%%) + "
      "transport and queueing %.1f us\n",
      load.p50_ms * 1e3, handle_p50,
      load.p50_ms > 0 ? 100.0 * handle_p50 / (load.p50_ms * 1e3) : 0.0,
      load.p50_ms * 1e3 - handle_p50);
}

void ReportPerLayer(const std::string& workload, const Trace& t,
                    const LoadFacts& load, WorkloadReport* rep) {
  const auto stats = t.rec.Summarize();
  const auto get = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? SpanRecorder::Stats{} : it->second;
  };
  std::vector<Metric>& m = rep->per_layer;
  for (const char* name : kLayerSpans) {
    const SpanRecorder::Stats st = get(name);
    m.push_back({std::string(name) + ".p50_us", "us", st.p50_us});
    m.push_back({std::string(name) + ".p99_us", "us", st.p99_us});
  }
  m.push_back({"planner.search.p50_us", "us", Quantile(t.search_us, 0.5)});
  m.push_back({"planner.search.p99_us", "us", Quantile(t.search_us, 0.99)});
  m.push_back({"server.transport.p50_us", "us",
               load.p50_ms * 1e3 - Quantile(t.primary_handle_us, 0.5)});
  m.push_back({"server.catalog_hit_ratio", "ratio",
               load.end.catalog_hit_ratio});
  const double load_us = get("catalog.load").total_us;
  // bytes per microsecond is MB/s.
  m.push_back({"catalog.load_mb_per_s", "MB/s",
               load_us > 0 ? static_cast<double>(t.load_bytes) / load_us
                           : 0.0});
  const double build_us = get("hist.gh.build").total_us;
  m.push_back({"hist.gh.build_ns_per_rect", "ns",
               t.built_rects > 0
                   ? build_us * 1e3 / static_cast<double>(t.built_rects)
                   : 0.0});
  m.push_back({"hist.gh.builds_per_request", "count",
               Mean(t.builds_per_request)});
  const SpanRecorder::Stats path = get("estimate.gh_path");
  const double guarded_us = get("estimate.guarded").total_us;
  m.push_back({"estimate.coverage", "ratio",
               guarded_us > 0 ? (path.total_us - path.self_us) / guarded_us
                              : 0.0});
  m.push_back({"estimate.rel_error_p50", "ratio",
               Quantile(t.rel_errors, 0.5)});
  m.push_back({"estimate.rel_error_p90", "ratio",
               Quantile(t.rel_errors, 0.9)});
  m.push_back({"planner.estimates_per_plan", "count", t.estimates_per_plan});

  PrintLayerTable(workload, t, load);
  const std::string trace_path = "trace_" + workload + ".json";
  const Status written = t.rec.WriteChromeTrace(trace_path, workload);
  rep->checks.Expect(written.ok(), written.ToString());
  std::printf("  wrote %s (%zu spans)\n", trace_path.c_str(),
              t.rec.spans().size());
}

// ---------------------------------------------------------------------------
// estimate_warm

// One ordered pair of pool files and its estimate request.
struct Pair {
  std::string a;
  std::string b;
  std::string line;
};

// Every ordered pair of distinct pool files, in seeded order.
std::vector<Pair> OrderedPairs(const std::vector<PoolFile>& pool,
                               uint64_t seed) {
  std::vector<Pair> out;
  for (const PoolFile& a : pool) {
    for (const PoolFile& b : pool) {
      if (a.path != b.path) {
        out.push_back({a.path, b.path, EstimateLine(a.path, b.path)});
      }
    }
  }
  Rng rng(seed);
  Shuffle(&out, &rng);
  return out;
}

const std::vector<const char*> kEstimateFields = {"estimated_pairs",
                                                  "selectivity", "rung"};

// Expects `served` to equal an in-process GuardedEstimator::Estimate of
// the pair bit for bit.
Status CheckInProcess(const Pair& pair, double served, DatasetCache* datasets,
                      Checks* checks) {
  const Dataset* a = nullptr;
  SJSEL_ASSIGN_OR_RETURN(a, datasets->Get(pair.a));
  const Dataset* b = nullptr;
  SJSEL_ASSIGN_OR_RETURN(b, datasets->Get(pair.b));
  const auto expected =
      GuardedEstimator(ServedEstimatorOptions()).Estimate(*a, *b);
  checks->Expect(
      expected.ok() && SameBits(expected->outcome.estimated_pairs, served),
      "served estimate differs from in-process on " + pair.line);
  return Status::OK();
}

// The served estimate's error against the exact join count of the pair.
Result<double> PairRelError(const Pair& pair, double served,
                            DatasetCache* datasets, ExactCounts* exact) {
  const Dataset* a = nullptr;
  SJSEL_ASSIGN_OR_RETURN(a, datasets->Get(pair.a));
  const Dataset* b = nullptr;
  SJSEL_ASSIGN_OR_RETURN(b, datasets->Get(pair.b));
  const uint64_t count = exact->Get(pair.a, pair.b, *a, *b);
  return RelError(served, static_cast<double>(count));
}

void ReportAccuracy(const std::vector<double>& rel_errors,
                    WorkloadReport* rep) {
  rep->workload_metrics.push_back(
      {"rel_error_p50", "ratio", Quantile(rel_errors, 0.5)});
  rep->workload_metrics.push_back(
      {"rel_error_p90", "ratio", Quantile(rel_errors, 0.9)});
}

Status RunEstimateWarm(const RunOptions& opt, WorkloadReport* rep) {
  std::vector<PoolFile> pool;
  SJSEL_ASSIGN_OR_RETURN(pool, MakePool(opt.seed, opt.smoke ? 0.002 : 0.1, 1));
  // The seeded order is also the popularity ranking of the Zipf draws.
  const std::vector<Pair> pairs =
      OrderedPairs(pool, SubSeed(opt.seed, kWarmOrder));
  std::vector<std::string> lines;
  for (const Pair& p : pairs) lines.push_back(p.line);

  // Set-up: load the 8 files, then ask every ordered pair once.
  std::vector<std::string> setup_responses;
  SetupTimes setup;
  std::unique_ptr<ServeProcess> server;
  SJSEL_ASSIGN_OR_RETURN(
      server, SetUp(opt,
                    [&]() -> Status {
                      SJSEL_RETURN_IF_ERROR(
                          SendSetup(StatsLines(pool), {"n"}));
                      return SendSetup(lines, kEstimateFields,
                                       &setup_responses);
                    },
                    &setup));
  std::vector<double> served;
  for (const std::string& response : setup_responses) {
    served.push_back(NumberField(response, "estimated_pairs").value_or(-1));
  }

  // Load: one closed-loop client draws pairs Zipf(s=1). Each answer must
  // repeat the set-up answer bit for bit. One client, because a second
  // one doubled the run-to-run spread (README.md).
  const Zipf zipf(pairs.size());
  Rng rng(SubSeed(opt.seed, kWarmDraw));
  size_t last = 0;
  ClientGroup clients;
  clients.clients = 1;
  clients.next = [&](int) {
    last = zipf.Draw(rng);
    return pairs[last].line;
  };
  clients.check = [&](int, const std::string& response) {
    const auto value = NumberField(response, "estimated_pairs");
    rep->checks.Expect(ResponseOk(response, kEstimateFields) &&
                           value.has_value() && SameBits(*value, served[last]),
                       "warm answer differs from set-up: " + response);
  };
  SlicedLoad load;
  SJSEL_ASSIGN_OR_RETURN(
      load, RunSlicedLoop(*server, clients, opt.seconds, kSliceSeconds));
  CountLoad(load.stats, rep);
  ServerEnd end;
  SJSEL_ASSIGN_OR_RETURN(end, Finish(*server, rep));
  ReportEndToEnd(setup, load, end, rep);

  DatasetCache datasets;
  ExactCounts exact(opt.seed);
  std::vector<double> rel_errors;
  for (size_t i = 0; i < pairs.size(); ++i) {
    SJSEL_RETURN_IF_ERROR(
        CheckInProcess(pairs[i], served[i], &datasets, &rep->checks));
    double rel_error = 0.0;
    SJSEL_ASSIGN_OR_RETURN(
        rel_error, PairRelError(pairs[i], served[i], &datasets, &exact));
    rel_errors.push_back(rel_error);
  }
  ReportAccuracy(rel_errors, rep);
  if (!opt.trace) return Status::OK();

  // Traced replay: set-up untraced, then a Zipf sample of warm lines.
  Trace t;
  server::Server srv{server::ServerOptions{}};
  SJSEL_RETURN_IF_ERROR(TraceLoads(pool, srv, &t));
  for (const std::string& line : lines) srv.HandleLine(line);
  Rng draw(SubSeed(opt.seed, kTraceDraw));
  for (int s = 0; s < (opt.smoke ? 500 : 20000); ++s) {
    const size_t i = zipf.Draw(draw);
    t.rec.NextRequest();
    const std::string response =
        TraceHandleLine(srv, pairs[i].line, &t, true, true);
    const auto value = NumberField(response, "estimated_pairs");
    rep->checks.Expect(value.has_value() && SameBits(*value, served[i]),
                       "in-process HandleLine differs from served on " +
                           pairs[i].line);
    InSpan(t.rec, "server.catalog_hit",
           [&] { return srv.catalog().Estimate(pairs[i].a, pairs[i].b); });
  }
  t.rel_errors = rel_errors;
  ReportPerLayer("estimate_warm", t,
                 {.p50_ms = Quantile(load.stats.latency_ms, 0.5), .end = end},
                 rep);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// estimate_cold

Status RunEstimateCold(const RunOptions& opt, WorkloadReport* rep) {
  std::vector<PoolFile> pool;
  SJSEL_ASSIGN_OR_RETURN(
      pool, MakePool(opt.seed, opt.smoke ? 0.005 : 0.2, opt.smoke ? 2 : 8));
  const std::vector<Pair> pairs =
      OrderedPairs(pool, SubSeed(opt.seed, kColdOrder));
  // The first pairs of the seeded order are the accuracy pairs; they are
  // requested first, so any run serves them.
  const size_t accuracy_pairs = opt.smoke ? 8 : 32;

  SetupTimes setup;
  std::unique_ptr<ServeProcess> server;
  SJSEL_ASSIGN_OR_RETURN(
      server, SetUp(opt,
                    [&] { return SendSetup(StatsLines(pool), {"n"}); },
                    &setup));

  // Load: 4 clients walk the seeded order; every pair is asked once.
  std::atomic<size_t> cursor{0};
  std::vector<size_t> last(4);
  std::vector<std::optional<double>> served(accuracy_pairs);
  ClientGroup clients;
  clients.clients = 4;
  clients.next = [&](int c) -> std::string {
    const size_t i = cursor++;
    if (i >= pairs.size()) return "";
    last[c] = i;
    return pairs[i].line;
  };
  clients.check = [&](int c, const std::string& response) {
    const bool ok = rep->checks.Expect(ResponseOk(response, kEstimateFields),
                                       "cold estimate failed: " + response);
    if (ok && last[c] < accuracy_pairs) {
      served[last[c]] = NumberField(response, "estimated_pairs");
    }
  };
  SlicedLoad load;
  SJSEL_ASSIGN_OR_RETURN(
      load, RunSlicedLoop(*server, clients, opt.seconds, kSliceSeconds));
  CountLoad(load.stats, rep);
  ServerEnd end;
  SJSEL_ASSIGN_OR_RETURN(end, Finish(*server, rep));
  ReportEndToEnd(setup, load, end, rep);

  std::vector<double> rel_errors;
  {
    DatasetCache datasets;
    ExactCounts exact(opt.seed);
    for (size_t i = 0; i < accuracy_pairs; ++i) {
      if (rep->checks.Expect(served[i].has_value(),
                             "accuracy pair not served: " + pairs[i].line)) {
        SJSEL_RETURN_IF_ERROR(
            CheckInProcess(pairs[i], *served[i], &datasets, &rep->checks));
        double rel_error = 0.0;
        SJSEL_ASSIGN_OR_RETURN(
            rel_error, PairRelError(pairs[i], *served[i], &datasets, &exact));
        rel_errors.push_back(rel_error);
      }
    }
  }
  ReportAccuracy(rel_errors, rep);
  if (!opt.trace) return Status::OK();

  // Traced replay of the first pairs of the seeded order.
  Trace t;
  server::Server srv{server::ServerOptions{}};
  SJSEL_RETURN_IF_ERROR(TraceLoads(pool, srv, &t));
  const GuardedEstimator estimator(ServedEstimatorOptions());
  for (size_t i = 0; i < std::min<size_t>(opt.smoke ? 10 : 200, pairs.size());
       ++i) {
    t.rec.NextRequest();
    const std::string response =
        TraceHandleLine(srv, pairs[i].line, &t, true, true);
    InSpan(t.rec, "server.catalog_hit",
           [&] { return srv.catalog().Estimate(pairs[i].a, pairs[i].b); });
    std::shared_ptr<const Dataset> a;
    SJSEL_ASSIGN_OR_RETURN(a, srv.catalog().GetDataset(pairs[i].a));
    std::shared_ptr<const Dataset> b;
    SJSEL_ASSIGN_OR_RETURN(b, srv.catalog().GetDataset(pairs[i].b));
    EstimateResult guarded;
    SJSEL_ASSIGN_OR_RETURN(guarded, InSpan(t.rec, "estimate.guarded", [&] {
                             return estimator.Estimate(*a, *b);
                           }));
    CheckRecomposed(*a, *b, guarded, NumberField(response, "estimated_pairs"),
                    pairs[i].line, &t, &rep->checks);
  }
  t.rel_errors = rel_errors;
  ReportPerLayer("estimate_cold", t,
                 {.p50_ms = Quantile(load.stats.latency_ms, 0.5), .end = end},
                 rep);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// plan_k8

// The served plan, re-serialized: the server parses RenderPlanJson's text
// and nests it, so both sides are compared in JsonValue's canonical form.
std::string ServedPlan(const std::string& response) {
  auto doc = JsonValue::Parse(response);
  if (!doc.ok()) return "";
  const JsonValue* result = doc->Find("result");
  const JsonValue* plan = result != nullptr ? result->Find("plan") : nullptr;
  return plan != nullptr ? plan->Dump() : "";
}

std::string CanonicalPlan(const MultiJoinPlan& plan) {
  auto doc = JsonValue::Parse(RenderPlanJson(plan));
  return doc.ok() ? doc->Dump() : "";
}

Status RunPlanK8(const RunOptions& opt, WorkloadReport* rep) {
  std::vector<PoolFile> pool;
  SJSEL_ASSIGN_OR_RETURN(pool, MakePool(opt.seed, opt.smoke ? 0.002 : 0.01, 2));
  const size_t identical = opt.smoke ? 5 : 20;
  // Plan p joins 8 distinct pool files drawn from its own sub-seed, so
  // the sequence has no end and any prefix is the same for a given seed.
  const auto plan_inputs = [&](size_t p) {
    std::vector<std::string> paths;
    for (const PoolFile& f : pool) paths.push_back(f.path);
    Rng rng(SubSeed(opt.seed, kPlanDraw, p));
    Shuffle(&paths, &rng);
    paths.resize(8);
    return paths;
  };

  SetupTimes setup;
  std::unique_ptr<ServeProcess> server;
  SJSEL_ASSIGN_OR_RETURN(
      server, SetUp(opt,
                    [&] { return SendSetup(StatsLines(pool), {"n"}); },
                    &setup));

  std::atomic<size_t> cursor{0};
  std::vector<size_t> last(4);
  std::vector<std::string> first_plans(identical);
  ClientGroup clients;
  clients.clients = 4;
  clients.next = [&](int c) {
    last[c] = cursor++;
    return PlanLine(plan_inputs(last[c]));
  };
  clients.check = [&](int c, const std::string& response) {
    const bool ok = rep->checks.Expect(
        ResponseOk(response, {"plan", "tree", "cost", "pairs"}),
        "plan failed: " + response.substr(0, 200));
    if (ok && last[c] < identical) first_plans[last[c]] = response;
  };
  SlicedLoad load;
  SJSEL_ASSIGN_OR_RETURN(
      load, RunSlicedLoop(*server, clients, opt.seconds, kSliceSeconds));
  CountLoad(load.stats, rep);
  ServerEnd end;
  SJSEL_ASSIGN_OR_RETURN(end, Finish(*server, rep));
  ReportEndToEnd(setup, load, end, rep);

  // The first plans, byte for byte, against an in-process plan.
  DatasetCache datasets;
  const auto planner_inputs =
      [&](size_t p) -> Result<std::vector<PlannerInput>> {
    std::vector<PlannerInput> out;
    for (const std::string& path : plan_inputs(p)) {
      const Dataset* ds = nullptr;
      SJSEL_ASSIGN_OR_RETURN(ds, datasets.Get(path));
      out.push_back(PlannerInput{path, ds});
    }
    return out;
  };
  PlannerOptions planner_options;
  planner_options.estimator = ServedEstimatorOptions();
  for (size_t p = 0; p < identical; ++p) {
    if (!rep->checks.Expect(!first_plans[p].empty(),
                            "plan not served: " + std::to_string(p))) {
      continue;
    }
    std::vector<PlannerInput> in;
    SJSEL_ASSIGN_OR_RETURN(in, planner_inputs(p));
    const auto plan = PlanMultiJoin(in, planner_options);
    rep->checks.Expect(
        plan.ok() && CanonicalPlan(*plan) == ServedPlan(first_plans[p]),
        "served plan differs from in-process plan " + std::to_string(p));
  }
  if (!opt.trace) return Status::OK();

  Trace t;
  server::Server srv{server::ServerOptions{}};
  SJSEL_RETURN_IF_ERROR(TraceLoads(pool, srv, &t));
  ExactCounts exact(opt.seed);
  std::set<std::pair<std::string, std::string>> accuracy_pairs;
  const GuardedEstimator estimator(planner_options.estimator);
  for (size_t p = 0; p < (opt.smoke ? 3u : 30u); ++p) {
    const std::vector<std::string> paths_p = plan_inputs(p);
    t.rec.NextRequest();
    const std::string response =
        TraceHandleLine(srv, PlanLine(paths_p), &t, true, true);
    std::vector<PlannerInput> in;
    for (const std::string& path : paths_p) {
      std::shared_ptr<const Dataset> ds;
      SJSEL_ASSIGN_OR_RETURN(ds, srv.catalog().GetDataset(path));
      in.push_back(PlannerInput{path, ds.get()});  // the catalog keeps it
    }
    const size_t plan_span = t.rec.spans().size();
    MultiJoinPlan plan;
    SJSEL_ASSIGN_OR_RETURN(plan, InSpan(t.rec, "planner.plan", [&] {
                             return PlanMultiJoin(in, planner_options);
                           }));
    // The same pair estimates PlanMultiJoin made, so that plan minus
    // these is the join-order search.
    const size_t pairs_span = t.rec.spans().size();
    std::vector<Result<EstimateResult>> guarded;
    {
      SpanRecorder::Scope pair_estimates(t.rec, "planner.pair_estimates");
      for (const PairSelectivity& pair : plan.pairs) {
        guarded.push_back(InSpan(t.rec, "estimate.guarded", [&] {
          return estimator.Estimate(*in[pair.i].dataset, *in[pair.j].dataset);
        }));
      }
    }
    const std::string rendered =
        InSpan(t.rec, "planner.render", [&] { return RenderPlanJson(plan); });
    t.search_us.push_back(t.rec.spans()[plan_span].us() -
                          t.rec.spans()[pairs_span].us());
    t.estimates_per_plan = static_cast<double>(plan.pairs.size());
    auto canonical = JsonValue::Parse(rendered);
    rep->checks.Expect(
        canonical.ok() && canonical->Dump() == ServedPlan(response),
        "in-process plan differs from HandleLine on plan " +
            std::to_string(p));
    for (size_t k = 0; k < plan.pairs.size(); ++k) {
      const PairSelectivity& pair = plan.pairs[k];
      const Dataset& a = *in[pair.i].dataset;
      const Dataset& b = *in[pair.j].dataset;
      if (!guarded[k].ok()) return guarded[k].status();
      CheckRecomposed(a, b, *guarded[k], pair.estimated_pairs,
                      paths_p[pair.i] + " x " + paths_p[pair.j], &t,
                      &rep->checks);
      const auto key = std::make_pair(paths_p[pair.i], paths_p[pair.j]);
      if (accuracy_pairs.size() < 32 && accuracy_pairs.insert(key).second) {
        const uint64_t count = exact.Get(key.first, key.second, a, b);
        t.rel_errors.push_back(RelError(guarded[k]->outcome.estimated_pairs,
                                        static_cast<double>(count)));
      }
    }
  }
  ReportPerLayer("plan_k8", t,
                 {.p50_ms = Quantile(load.stats.latency_ms, 0.5), .end = end}, rep);
  return Status::OK();
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"estimate_warm", RunEstimateWarm},
      {"estimate_cold", RunEstimateCold},
      {"plan_k8", RunPlanK8},
  };
  return kWorkloads;
}

}  // namespace e2e
}  // namespace sjsel
