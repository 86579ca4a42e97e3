#include "cli/cli.h"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include "core/gh_histogram.h"
#include "core/guarded_estimator.h"
#include "core/kernels.h"
#include "core/minskew.h"
#include "core/ph_histogram.h"
#include "core/sampling.h"
#include "datagen/generators.h"
#include "datagen/geo_generators.h"
#include "datagen/workloads.h"
#include "geom/dataset.h"
#include "geom/validate.h"
#include "join/nested_loop.h"
#include "join/pbsm.h"
#include "join/plane_sweep.h"
#include "join/refinement.h"
#include "join/rtree_join.h"
#include "obs/explain.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/join_planner.h"
#include "server/client.h"
#include "server/server.h"
#include "rtree/rtree.h"
#include "stats/dataset_stats.h"
#include "stream/ingest.h"
#include "stream/stream_estimate.h"
#include "util/build_info.h"
#include "util/fault_injection.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace sjsel {
namespace cli {
namespace {

// Positional arguments plus --key=value flags.
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string Flag(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  // Strict numeric flag parsing: the whole value must parse (no trailing
  // junk, no empty value, no overflow) or the command is rejected with the
  // offending flag named — "--seed=abc" must not silently become 0.
  Result<double> FlagDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("bad --" + key + ": '" + it->second +
                                     "' is not a number");
    }
    return v;
  }
  Result<int> FlagInt(const std::string& key, int fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("bad --" + key + ": '" + it->second +
                                     "' is not an integer");
    }
    return static_cast<int>(v);
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }

  /// The shared --threads flag: default serial, 0 = all hardware threads.
  Result<int> Threads() const {
    auto threads = FlagInt("threads", 1);
    if (!threads.ok()) return threads;
    return threads.value() == 0 ? ThreadPool::DefaultThreads()
                                : threads.value();
  }
};

// Extracts a strict numeric flag; on a parse error, reports it to `err`
// (in scope at every use) and fails the command with the flag-error exit
// code 2.
#define SJSEL_FLAG_OR_RETURN(lhs, expr)                               \
  do {                                                                \
    auto _flag = (expr);                                              \
    if (!_flag.ok()) {                                                \
      std::fprintf(err, "%s\n", _flag.status().ToString().c_str());   \
      return 2;                                                       \
    }                                                                 \
    lhs = _flag.value();                                              \
  } while (0)

ParsedArgs Parse(const std::vector<std::string>& args) {
  ParsedArgs parsed;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        const std::string key = arg.substr(2);
        // The observability output flags take a file path, either attached
        // (--trace=t.json) or as the following argument (--trace t.json).
        if ((key == "trace" || key == "metrics" || key == "log-file") &&
            i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
          parsed.flags[key] = args[++i];
        } else {
          parsed.flags[key] = std::string("1");
        }
      } else {
        parsed.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      parsed.positional.push_back(arg);
    }
  }
  return parsed;
}

int Usage(std::FILE* err) {
  std::fprintf(err,
               "usage: sjsel <command> [args]\n"
               "\n"
               "commands:\n"
               "  gen <spec> <out.ds> [--scale=0.1] [--seed=1]\n"
               "      spec: TS|TCB|CAS|CAR|SP|SPG|SCRC|SURA or uniform:N or"
               " clustered:N\n"
               "  stats <in.ds>\n"
               "  hist-build <in.ds> <out.hist> [--scheme=gh|ph|minskew]"
               " [--level=7] [--extent=x0,y0,x1,y1] [--basic|--naive]"
               " [--validate=reject|clamp|quarantine] [--threads=1]\n"
               "  hist-info <in.hist>\n"
               "  estimate <a.hist> <b.hist>\n"
               "  estimate <a.ds> <b.ds> [--gh-level=7] [--ph-level=5]"
               " [--fa=0.1] [--fb=0.1] [--seed=1] [--method=rs|rswr|ss]"
               " [--validate=reject|clamp|quarantine] [--verify]"
               " [--explain]\n"
               "      dataset inputs run the guarded fallback chain"
               " (gh->ph->sampling->parametric);\n"
               "      --verify also runs the exact plane-sweep join over"
               " the validated rects and reports the relative error;\n"
               "      --explain prints the chain's per-rung trial trail\n"
               "  explain <a.ds> <b.ds> [--scheme=gh|ph] [--level=7]"
               " [--top=10] [--exact] [--json=<file>] [--csv=<file>]"
               " [--threads=1] [--validate=reject|clamp|quarantine]"
               " [--timing]\n"
               "      per-cell estimate breakdown: term contributions,"
               " contribution skew,\n"
               "      guarded-chain trail; --exact adds per-cell error"
               " attribution against\n"
               "      the exact join; --json/--csv write the report /"
               " cell-grid heatmap\n"
               "  range <a.hist> <x0,y0,x1,y1>\n"
               "  join <a.ds> <b.ds> [--algo=sweep|pbsm|rtree|nested]"
               " [--threads=1]\n"
               "  sample <a.ds> <b.ds> [--method=rs|rswr|ss] [--fa=0.1]"
               " [--fb=0.1] [--seed=1] [--threads=1]\n"
               "  (--threads=0 uses every hardware thread; results are\n"
               "   identical for any thread count)\n"
               "  gen-geo <streams|blocks|sites> <out.geo> [--n=10000]"
               " [--seed=1]\n"
               "  refine-join <a.geo> <b.geo>\n"
               "  knn <in.ds> <x,y> [--k=5]\n"
               "  plan <a.ds> <b.ds> [<c.ds> ...] [--threads=1]"
               " [--dp-limit=12] [--json]\n"
               "      selectivity-driven multi-way join planning: guarded"
               " pairwise\n"
               "      estimates feed a DP search over bushy join trees"
               " (docs/PLANNER.md)\n"
               "  serve <socket> [--workers=4] [--max-queue=64]"
               " [--log-level=info]\n"
               "      [--log-file=<path|->] [--audit-rate=0]"
               " [--audit-alarm=0.5]\n"
               "      [--audit-exact-cap=0] [--slowlog-k=32]\n"
               "      estimation daemon on a Unix socket: NDJSON"
               " estimate/explain/\n"
               "      stats/plan/metrics/health/slowlog requests with"
               " per-request\n"
               "      deadlines, request_id correlation, structured JSON"
               " logs and an\n"
               "      online accuracy monitor (docs/SERVER.md,"
               " docs/OBSERVABILITY.md)\n"
               "  client <socket> [<request-json> ...] [--retry=1]"
               " [--retry-backoff-ms=25]\n"
               "      send request lines (or stdin NDJSON) to a running"
               " server;\n"
               "      --retry waits out server startup with exponential"
               " backoff\n"
               "  ingest <dir> [--init --extent=x0,y0,x1,y1 [--gh-level=7]"
               " [--ph-level=5]\n"
               "      [--seal-every=8] [--checkpoint-every=0] [--no-fsync]]\n"
               "      | [--status] | [--digest] | [--estimate=<b.ds>]"
               " | [--checkpoint]\n"
               "      crash-safe streaming ingest (docs/DURABILITY.md):"
               " default mode\n"
               "      applies stdin op lines (add/remove x0 y0 x1 y1,"
               " checkpoint) and\n"
               "      acks each one only after its WAL record is durable\n"
               "  gen-ops <n> [--seed=1] [--extent=0,0,1,1]"
               " [--remove-frac=0]\n"
               "      deterministic op stream for the ingest recovery"
               " drills\n"
               "  (plan and serve also take the estimate flags: --gh-level,"
               " --ph-level,\n"
               "   --fa, --fb, --seed, --method, --validate)\n"
               "\n"
               "global flags:\n"
               "  --kernel-backend=scalar|avx2\n"
               "      force every batch kernel onto one backend (results\n"
               "      are bit-identical; errors if the CPU lacks it)\n"
               "  --inject-faults=<site>=<trigger>[,...]\n"
               "      arm deterministic fault injection for this invocation;\n"
               "      triggers: always | nth:N | every:N | prob:P[/SEED]\n"
               "  --trace=<file.json>\n"
               "      record spans for this invocation and write a Chrome\n"
               "      trace-event file (chrome://tracing, ui.perfetto.dev)\n"
               "  --metrics=<file.json>\n"
               "      collect counters/gauges/latency histograms, print a\n"
               "      metrics block and write a JSON snapshot\n");
  return 2;
}

std::optional<Rect> ParseRect(const std::string& spec) {
  Rect r;
  if (std::sscanf(spec.c_str(), "%lf,%lf,%lf,%lf", &r.min_x, &r.min_y,
                  &r.max_x, &r.max_y) != 4) {
    return std::nullopt;
  }
  if (r.IsEmpty()) return std::nullopt;
  return r;
}

// A count of at least 1 that must be the whole of `text`: no sign, no
// trailing junk — "12x" must not silently become 12.
std::optional<size_t> ParseCount(const std::string& text) {
  size_t n = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, n);
  if (ec != std::errc() || ptr != last || n == 0) return std::nullopt;
  return n;
}

std::optional<gen::PaperDataset> PaperDatasetByName(const std::string& name) {
  for (auto which :
       {gen::PaperDataset::kTS, gen::PaperDataset::kTCB,
        gen::PaperDataset::kCAS, gen::PaperDataset::kCAR,
        gen::PaperDataset::kSP, gen::PaperDataset::kSPG,
        gen::PaperDataset::kSCRC, gen::PaperDataset::kSURA}) {
    if (gen::PaperDatasetName(which) == name) return which;
  }
  return std::nullopt;
}

int CmdGen(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 3) return Usage(err);
  const std::string& spec = args.positional[1];
  const std::string& path = args.positional[2];
  int seed_flag = 1;
  SJSEL_FLAG_OR_RETURN(seed_flag, args.FlagInt("seed", 1));
  const uint64_t seed = static_cast<uint64_t>(seed_flag);
  double scale = 0.1;
  SJSEL_FLAG_OR_RETURN(scale, args.FlagDouble("scale", 0.1));
  const Rect unit(0, 0, 1, 1);

  Dataset ds;
  const size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (const auto paper = PaperDatasetByName(spec); paper.has_value()) {
    ds = gen::MakePaperDataset(*paper, scale, seed);
  } else if (colon != std::string::npos &&
             (kind == "uniform" || kind == "clustered")) {
    const auto n = ParseCount(spec.substr(colon + 1));
    if (!n.has_value()) {
      std::fprintf(err, "bad dataset spec: %s (want %s:N with N >= 1)\n",
                   spec.c_str(), kind.c_str());
      return 2;
    }
    gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
    ds = kind == "uniform"
             ? gen::UniformRects("uniform", *n, unit, size, seed)
             : gen::GaussianClusterRects("clustered", *n, unit,
                                         {{0.4, 0.7}, 0.1, 0.1, 1.0}, size,
                                         seed);
  } else {
    std::fprintf(err, "unknown dataset spec: %s\n", spec.c_str());
    return 2;
  }
  const Status status = ds.Save(path);
  if (!status.ok()) {
    std::fprintf(err, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(out, "wrote %zu rectangles (%s) to %s\n", ds.size(),
               ds.name().c_str(), path.c_str());
  return 0;
}

int CmdGenGeo(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 3) return Usage(err);
  const std::string& kind = args.positional[1];
  const std::string& path = args.positional[2];
  int n_flag = 10000;
  SJSEL_FLAG_OR_RETURN(n_flag, args.FlagInt("n", 10000));
  const size_t n = static_cast<size_t>(n_flag);
  int seed_flag = 1;
  SJSEL_FLAG_OR_RETURN(seed_flag, args.FlagInt("seed", 1));
  const uint64_t seed = static_cast<uint64_t>(seed_flag);
  const Rect unit(0, 0, 1, 1);
  const std::vector<gen::Cluster> metros = {
      {{0.3, 0.35}, 0.07, 0.07, 1.0}, {{0.65, 0.6}, 0.06, 0.06, 0.8}};

  GeoDataset ds;
  if (kind == "streams") {
    gen::PolylineSpec spec;
    spec.steps = 16;
    spec.step_len = 0.004;
    spec.start_clusters = metros;
    spec.background_frac = 0.4;
    ds = gen::GenerateStreamPolylines("streams", n, unit, spec, seed);
  } else if (kind == "blocks") {
    ds = gen::GenerateBlockPolygons("blocks", n, unit, metros, 0.35, 0.004,
                                    seed);
  } else if (kind == "sites") {
    ds = gen::GeneratePointSites("sites", n, unit, metros, 0.3, seed);
  } else {
    std::fprintf(err, "unknown geometry kind: %s (want streams|blocks|sites)\n",
                 kind.c_str());
    return 2;
  }
  const Status status = ds.Save(path);
  if (!status.ok()) {
    std::fprintf(err, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(out, "wrote %zu %s geometries to %s\n", ds.size(),
               kind.c_str(), path.c_str());
  return 0;
}

int CmdRefineJoin(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 3) return Usage(err);
  const auto a = GeoDataset::Load(args.positional[1]);
  const auto b = GeoDataset::Load(args.positional[2]);
  if (!a.ok() || !b.ok()) {
    std::fprintf(err, "%s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 1;
  }
  const RefinementJoinResult result = RefinementJoin(*a, *b);
  std::fprintf(out, "candidates (filter) : %llu (%.3f s)\n",
               static_cast<unsigned long long>(result.candidates),
               result.filter_seconds);
  std::fprintf(out, "results (refined)   : %llu (%.3f s)\n",
               static_cast<unsigned long long>(result.results),
               result.refine_seconds);
  std::fprintf(out, "false-hit ratio     : %s\n",
               FormatPercent(result.FalseHitRatio()).c_str());
  return 0;
}

int CmdKnn(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 3) return Usage(err);
  const auto ds = Dataset::Load(args.positional[1]);
  if (!ds.ok()) {
    std::fprintf(err, "load failed: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  Point query;
  if (std::sscanf(args.positional[2].c_str(), "%lf,%lf", &query.x,
                  &query.y) != 2) {
    std::fprintf(err, "bad query point (want x,y)\n");
    return 2;
  }
  int k = 5;
  SJSEL_FLAG_OR_RETURN(k, args.FlagInt("k", 5));
  if (k < 1) {
    std::fprintf(err, "--k must be >= 1\n");
    return 2;
  }
  const RTree tree = RTree::BulkLoadStr(RTree::DatasetEntries(*ds));
  const auto neighbors = tree.NearestNeighbors(query, k);
  std::fprintf(out, "%zu nearest of %zu rectangles to (%g, %g):\n",
               neighbors.size(), ds->size(), query.x, query.y);
  for (const auto& n : neighbors) {
    std::fprintf(out, "  id %lld  dist %s  %s\n",
                 static_cast<long long>(n.id),
                 FormatDouble(n.distance, 5).c_str(),
                 n.rect.ToString().c_str());
  }
  return 0;
}

int CmdStats(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 2) return Usage(err);
  const auto ds = Dataset::Load(args.positional[1]);
  if (!ds.ok()) {
    std::fprintf(err, "load failed: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  // The statistics of the data estimates use, as the server's `stats` op
  // reports them: the rects validated under the default policy and their
  // extent, which leave out non-finite and inverted rects.
  const auto prepared = PrepareInput(*ds, ValidationPolicy::kQuarantine);
  if (!prepared.ok()) {
    std::fprintf(err, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  const DatasetStats stats =
      DatasetStats::Compute(prepared->rects(), prepared->extent);
  std::fprintf(out, "name        : %s\n", ds->name().c_str());
  std::fprintf(out, "rectangles  : %zu\n", stats.n);
  std::fprintf(out, "extent      : %s\n", stats.extent.ToString().c_str());
  std::fprintf(out, "coverage    : %s\n",
               FormatPercent(stats.coverage).c_str());
  std::fprintf(out, "avg width   : %s\n",
               FormatDouble(stats.avg_width, 6).c_str());
  std::fprintf(out, "avg height  : %s\n",
               FormatDouble(stats.avg_height, 6).c_str());
  std::fprintf(out, "max width   : %s\n",
               FormatDouble(stats.max_width, 6).c_str());
  std::fprintf(out, "max height  : %s\n",
               FormatDouble(stats.max_height, 6).c_str());
  const KernelDispatchInfo dispatch = GetKernelDispatchInfo();
  std::fprintf(out, "kernels     : %s (%s; detected %s)\n",
               KernelBackendName(dispatch.active), dispatch.source,
               KernelBackendName(dispatch.detected));
  return 0;
}

int CmdHistBuild(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 3) return Usage(err);
  auto ds = Dataset::Load(args.positional[1]);
  if (!ds.ok()) {
    std::fprintf(err, "load failed: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  int level = 7;
  SJSEL_FLAG_OR_RETURN(level, args.FlagInt("level", 7));
  // The default grid is the extent estimates use, that of the well-formed
  // rects, so a NaN rect cannot poison it.
  const auto prepared = PrepareInput(*ds, ValidationPolicy::kQuarantine);
  if (!prepared.ok()) {
    std::fprintf(err, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  Rect extent = prepared->extent;
  if (args.Has("extent")) {
    const auto parsed = ParseRect(args.Flag("extent", ""));
    if (!parsed.has_value()) {
      std::fprintf(err, "bad --extent (want x0,y0,x1,y1)\n");
      return 2;
    }
    extent = *parsed;
  }
  // Opt-in pre-build validation against the resolved extent. Only applied
  // when the user asks: the default build must keep the seed behavior of
  // clipping boundary-crossing rects cell-by-cell, bit for bit.
  if (args.Has("validate")) {
    const auto policy = ParseValidationPolicy(args.Flag("validate", ""));
    if (!policy.ok()) {
      std::fprintf(err, "%s\n", policy.status().ToString().c_str());
      return 2;
    }
    RobustnessCounters counters;
    auto validated = ValidateDataset(*ds, extent, policy.value(), &counters);
    if (!validated.ok()) {
      std::fprintf(err, "validation failed: %s\n",
                   validated.status().ToString().c_str());
      return 1;
    }
    ds = std::move(validated).value();
    if (counters.Defects() > 0) {
      std::fprintf(out, "validation           : %s\n",
                   counters.ToString().c_str());
    }
  } else if (prepared->counters.non_finite > 0) {
    // No cell can own a non-finite rect, so no build sees one.
    Dataset finite(ds->name());
    for (const Rect& r : ds->rects()) {
      if (ClassifyRect(r, Rect::Empty()) != RectDefect::kNonFinite) {
        finite.Add(r);
      }
    }
    ds = std::move(finite);
  }
  const std::string scheme = args.Flag("scheme", "gh");
  int threads = 1;
  SJSEL_FLAG_OR_RETURN(threads, args.Threads());
  Status status;
  if (scheme == "gh") {
    const GhVariant variant =
        args.Has("basic") ? GhVariant::kBasic : GhVariant::kRevised;
    const auto hist = GhHistogram::Build(*ds, extent, level, variant, threads);
    if (!hist.ok()) {
      std::fprintf(err, "build failed: %s\n",
                   hist.status().ToString().c_str());
      return 1;
    }
    const auto format = args.Has("sparse") ? GhHistogram::FileFormat::kSparse
                                           : GhHistogram::FileFormat::kDense;
    status = hist->Save(args.positional[2], format);
  } else if (scheme == "ph") {
    const PhVariant variant =
        args.Has("naive") ? PhVariant::kNaive : PhVariant::kSplitCrossing;
    const auto hist = PhHistogram::Build(*ds, extent, level, variant, threads);
    if (!hist.ok()) {
      std::fprintf(err, "build failed: %s\n",
                   hist.status().ToString().c_str());
      return 1;
    }
    status = hist->Save(args.positional[2]);
  } else if (scheme == "minskew") {
    int buckets = 256;
    SJSEL_FLAG_OR_RETURN(buckets, args.FlagInt("buckets", 256));
    const auto hist = MinSkewHistogram::Build(*ds, extent, buckets);
    if (!hist.ok()) {
      std::fprintf(err, "build failed: %s\n",
                   hist.status().ToString().c_str());
      return 1;
    }
    status = hist->Save(args.positional[2]);
  } else {
    std::fprintf(err, "unknown --scheme: %s\n", scheme.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(err, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(out, "built %s histogram (level %d) for %zu rects -> %s\n",
               scheme.c_str(), level, ds->size(),
               args.positional[2].c_str());
  return 0;
}

// Loads a histogram file of any scheme, reporting which one matched.
struct AnyHistogram {
  std::optional<GhHistogram> gh;
  std::optional<PhHistogram> ph;
  std::optional<MinSkewHistogram> minskew;
};

Result<AnyHistogram> LoadAnyHistogram(const std::string& path) {
  AnyHistogram any;
  auto gh = GhHistogram::Load(path);
  if (gh.ok()) {
    any.gh = std::move(gh).value();
    return any;
  }
  auto ph = PhHistogram::Load(path);
  if (ph.ok()) {
    any.ph = std::move(ph).value();
    return any;
  }
  auto minskew = MinSkewHistogram::Load(path);
  if (minskew.ok()) {
    any.minskew = std::move(minskew).value();
    return any;
  }
  return Status::Corruption(path + " is not a GH, PH or MinSkew histogram (" +
                            gh.status().message() + ")");
}

int CmdHistInfo(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 2) return Usage(err);
  const auto any = LoadAnyHistogram(args.positional[1]);
  if (!any.ok()) {
    std::fprintf(err, "%s\n", any.status().ToString().c_str());
    return 1;
  }
  if (any->gh.has_value()) {
    const GhHistogram& hist = *any->gh;
    std::fprintf(out, "scheme   : GH (%s)\n",
                 hist.variant() == GhVariant::kBasic ? "basic" : "revised");
    std::fprintf(out, "dataset  : %s (%llu rects)\n",
                 hist.dataset_name().c_str(),
                 static_cast<unsigned long long>(hist.dataset_size()));
    std::fprintf(out, "level    : %d (%lld cells)\n", hist.grid().level(),
                 static_cast<long long>(hist.grid().num_cells()));
    std::fprintf(out, "extent   : %s\n",
                 hist.grid().extent().ToString().c_str());
    std::fprintf(out, "size     : %llu bytes\n",
                 static_cast<unsigned long long>(hist.NominalBytes()));
  } else if (any->minskew.has_value()) {
    const MinSkewHistogram& hist = *any->minskew;
    std::fprintf(out, "scheme   : MinSkew\n");
    std::fprintf(out, "dataset  : %s (%llu rects)\n",
                 hist.dataset_name().c_str(),
                 static_cast<unsigned long long>(hist.dataset_size()));
    std::fprintf(out, "buckets  : %zu\n", hist.buckets().size());
    std::fprintf(out, "extent   : %s\n", hist.extent().ToString().c_str());
    std::fprintf(out, "size     : %llu bytes\n",
                 static_cast<unsigned long long>(hist.NominalBytes()));
  } else {
    const PhHistogram& hist = *any->ph;
    std::fprintf(out, "scheme   : PH (%s)\n",
                 hist.variant() == PhVariant::kNaive ? "naive" : "split");
    std::fprintf(out, "dataset  : %s (%llu rects)\n",
                 hist.dataset_name().c_str(),
                 static_cast<unsigned long long>(hist.dataset_size()));
    std::fprintf(out, "level    : %d (%lld cells)\n", hist.grid().level(),
                 static_cast<long long>(hist.grid().num_cells()));
    std::fprintf(out, "extent   : %s\n",
                 hist.grid().extent().ToString().c_str());
    std::fprintf(out, "avg span : %s\n",
                 FormatDouble(hist.avg_span(), 3).c_str());
    std::fprintf(out, "size     : %llu bytes\n",
                 static_cast<unsigned long long>(hist.NominalBytes()));
  }
  return 0;
}

// The guarded estimate path: both inputs are dataset files, so the full
// fallback chain (GH -> PH -> sampling -> parametric) can run with input
// validation in front. Prints the same pairs/selectivity lines as the
// histogram path plus provenance: answering rung, degradation trail, and
// validation tallies.
// Parses the guarded-chain knobs shared by `estimate`, `plan` and
// `serve` — one parser, so a plan's (or the daemon's) per-pair numbers
// are bit-for-bit the standalone estimates for the same flags. Returns 0
// on success, else the command exit code (already reported to `err`).
int ParseGuardedOptions(const ParsedArgs& args, std::FILE* err,
                        GuardedEstimatorOptions* options) {
  SJSEL_FLAG_OR_RETURN(options->gh_level, args.FlagInt("gh-level", 7));
  SJSEL_FLAG_OR_RETURN(options->ph_level, args.FlagInt("ph-level", 5));
  SJSEL_FLAG_OR_RETURN(options->sampling.frac_a, args.FlagDouble("fa", 0.1));
  SJSEL_FLAG_OR_RETURN(options->sampling.frac_b, args.FlagDouble("fb", 0.1));
  int seed_flag = 1;
  SJSEL_FLAG_OR_RETURN(seed_flag, args.FlagInt("seed", 1));
  options->sampling.seed = static_cast<uint64_t>(seed_flag);
  const std::string method = args.Flag("method", "rswr");
  if (method == "rs") {
    options->sampling.method = SamplingMethod::kRegular;
  } else if (method == "rswr") {
    options->sampling.method = SamplingMethod::kRandomWithReplacement;
  } else if (method == "ss") {
    options->sampling.method = SamplingMethod::kSorted;
  } else {
    std::fprintf(err, "unknown --method: %s\n", method.c_str());
    return 2;
  }
  const auto policy = ParseValidationPolicy(args.Flag("validate", "quarantine"));
  if (!policy.ok()) {
    std::fprintf(err, "%s\n", policy.status().ToString().c_str());
    return 2;
  }
  options->policy = policy.value();
  return 0;
}

int CmdEstimateGuarded(const ParsedArgs& args, const Dataset& a,
                       const Dataset& b, std::FILE* out, std::FILE* err) {
  GuardedEstimatorOptions options;
  if (const int code = ParseGuardedOptions(args, err, &options); code != 0) {
    return code;
  }

  const auto fail = [err](const Status& status) {
    std::fprintf(err, "%s\n", status.ToString().c_str());
    return 1;
  };
  const auto pa = PrepareInput(a, options.policy);
  if (!pa.ok()) return fail(pa.status());
  const auto pb = PrepareInput(b, options.policy);
  if (!pb.ok()) return fail(pb.status());
  const auto pair = PreparePair(*pa, *pb);
  if (!pair.ok()) return fail(pair.status());
  const auto result = GuardedEstimator(options).Estimate(*pair);
  if (!result.ok()) return fail(result.status());
  std::fprintf(out, "estimated pairs      : %s\n",
               FormatDouble(result->outcome.estimated_pairs, 1).c_str());
  std::fprintf(out, "estimated selectivity: %s\n",
               FormatDouble(result->outcome.selectivity, 6).c_str());
  std::fprintf(out, "rung                 : %s (%s)\n",
               EstimatorRungName(result->rung), result->rung_label.c_str());
  std::fprintf(out, "degradation_reason   : %s\n",
               result->degraded() ? result->degradation_reason.c_str()
                                  : "none");
  if (result->clamped) std::fprintf(out, "clamped              : yes\n");
  // The full robustness tally is always part of the answer — a clean run
  // prints all-zero defect counts rather than staying silent, so scripted
  // consumers never have to special-case the happy path.
  std::fprintf(out, "validation (a)       : %s\n",
               result->validation_a.ToString().c_str());
  std::fprintf(out, "validation (b)       : %s\n",
               result->validation_b.ToString().c_str());

  if (args.Has("explain")) {
    obs::ExplainRenderOptions render;
    render.include_timing = args.Has("timing");
    std::fputs(obs::RenderChainText(*result, render).c_str(), out);
  }

  if (args.Has("verify")) {
    // Ground truth for the estimate above: the exact plane-sweep join over
    // the rects the estimate read.
    const Dataset& ra = pair->a().rects();
    const Dataset& rb = pair->b().rects();
    uint64_t actual = 0;
    {
      SJSEL_TRACE_SPAN("verify.exact_join", "n_a=%zu n_b=%zu", ra.size(),
                       rb.size());
      SJSEL_METRIC_SCOPED_LATENCY("verify.exact_join_us");
      actual = PlaneSweepJoinCount(ra, rb);
    }
    std::fprintf(out, "actual pairs         : %llu\n",
                 static_cast<unsigned long long>(actual));
    if (actual > 0) {
      const double rel =
          (result->outcome.estimated_pairs - static_cast<double>(actual)) /
          static_cast<double>(actual);
      std::fprintf(out, "relative error       : %s\n",
                   FormatDouble(rel, 4).c_str());
    }
  }
  return 0;
}

// Estimator introspection: the full explain report — per-cell term
// breakdown of the estimate, contribution skew, the guarded chain's
// per-rung trail, and (with --exact) per-cell error attribution against
// the exact plane-sweep join. Deterministic output: byte-identical across
// runs and --threads values unless --timing is given.
int CmdExplain(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 3) return Usage(err);
  const auto a = Dataset::Load(args.positional[1]);
  const auto b = Dataset::Load(args.positional[2]);
  if (!a.ok() || !b.ok()) {
    std::fprintf(err, "%s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 1;
  }
  obs::ExplainOptions options;
  const std::string scheme = args.Flag("scheme", "gh");
  if (scheme == "gh") {
    options.scheme = obs::ExplainScheme::kGh;
  } else if (scheme == "ph") {
    options.scheme = obs::ExplainScheme::kPh;
  } else {
    std::fprintf(err, "unknown --scheme: %s\n", scheme.c_str());
    return 2;
  }
  SJSEL_FLAG_OR_RETURN(options.level, args.FlagInt("level", 7));
  SJSEL_FLAG_OR_RETURN(options.top_k, args.FlagInt("top", 10));
  options.with_exact = args.Has("exact");
  SJSEL_FLAG_OR_RETURN(options.threads, args.Threads());
  const auto policy = ParseValidationPolicy(args.Flag("validate", "quarantine"));
  if (!policy.ok()) {
    std::fprintf(err, "%s\n", policy.status().ToString().c_str());
    return 2;
  }
  // Each input is prepared once, under --validate.
  options.guarded.policy = policy.value();

  const auto report = obs::BuildEstimateExplain(*a, *b, options);
  if (!report.ok()) {
    std::fprintf(err, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  obs::ExplainRenderOptions render;
  render.include_timing = args.Has("timing");
  std::fputs(obs::RenderExplainText(*report, render).c_str(), out);

  const std::string json_path = args.Flag("json", "");
  if (!json_path.empty()) {
    const std::string json = obs::RenderExplainJson(*report, render);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    const bool written =
        f != nullptr &&
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (f != nullptr && std::fclose(f) != 0) {
      std::fprintf(err, "failed to write explain json to %s\n",
                   json_path.c_str());
      return 1;
    }
    if (!written) {
      std::fprintf(err, "failed to write explain json to %s\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(out, "explain json         : %s\n", json_path.c_str());
  }
  const std::string csv_path = args.Flag("csv", "");
  if (!csv_path.empty()) {
    const Status st = obs::WriteExplainHeatmapCsv(*report, csv_path);
    if (!st.ok()) {
      std::fprintf(err, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(out, "heatmap csv          : %s\n", csv_path.c_str());
  }
  return 0;
}

int CmdEstimate(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 3) return Usage(err);
  // Dataset files get the guarded fallback chain; histogram files keep the
  // direct single-scheme path (Dataset::Load fails fast on a histogram
  // magic, so sniffing is cheap and cannot misfire).
  {
    const auto da = Dataset::Load(args.positional[1]);
    if (da.ok()) {
      const auto db = Dataset::Load(args.positional[2]);
      if (!db.ok()) {
        std::fprintf(err, "%s\n", db.status().ToString().c_str());
        return 1;
      }
      return CmdEstimateGuarded(args, *da, *db, out, err);
    }
  }
  const auto a = LoadAnyHistogram(args.positional[1]);
  const auto b = LoadAnyHistogram(args.positional[2]);
  if (!a.ok() || !b.ok()) {
    std::fprintf(err, "%s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 1;
  }
  Result<double> pairs = Status::InvalidArgument(
      "histogram files use different schemes");
  double n1 = 0.0;
  double n2 = 0.0;
  if (a->gh.has_value() && b->gh.has_value()) {
    pairs = EstimateGhJoinPairs(*a->gh, *b->gh);
    n1 = a->gh->dataset_size();
    n2 = b->gh->dataset_size();
  } else if (a->ph.has_value() && b->ph.has_value()) {
    pairs = EstimatePhJoinPairs(*a->ph, *b->ph);
    n1 = a->ph->dataset_size();
    n2 = b->ph->dataset_size();
  } else if (a->minskew.has_value() && b->minskew.has_value()) {
    pairs = EstimateMinSkewJoinPairs(*a->minskew, *b->minskew);
    n1 = a->minskew->dataset_size();
    n2 = b->minskew->dataset_size();
  }
  if (!pairs.ok()) {
    std::fprintf(err, "%s\n", pairs.status().ToString().c_str());
    return 1;
  }
  // A histogram file records its dataset's rect count, so the answer is
  // bounded as the chain bounds it.
  bool clamped = false;
  const EstimateOutcome est = ClampPairCount(*pairs, n1, n2, &clamped);
  std::fprintf(out, "estimated pairs      : %s\n",
               FormatDouble(est.estimated_pairs, 1).c_str());
  if (n1 > 0 && n2 > 0) {
    std::fprintf(out, "estimated selectivity: %s\n",
                 FormatDouble(est.selectivity, 6).c_str());
  }
  if (clamped) std::fprintf(out, "clamped              : yes\n");
  return 0;
}

int CmdRange(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 3) return Usage(err);
  const auto any = LoadAnyHistogram(args.positional[1]);
  if (!any.ok()) {
    std::fprintf(err, "%s\n", any.status().ToString().c_str());
    return 1;
  }
  if (!any->gh.has_value()) {
    std::fprintf(err, "range estimation needs a GH histogram\n");
    return 2;
  }
  const auto query = ParseRect(args.positional[2]);
  if (!query.has_value()) {
    std::fprintf(err, "bad query rect (want x0,y0,x1,y1)\n");
    return 2;
  }
  std::fprintf(out, "estimated matches: %s\n",
               FormatDouble(EstimateGhRangeCount(*any->gh, *query), 1)
                   .c_str());
  return 0;
}

int CmdJoin(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 3) return Usage(err);
  const auto a = Dataset::Load(args.positional[1]);
  const auto b = Dataset::Load(args.positional[2]);
  if (!a.ok() || !b.ok()) {
    std::fprintf(err, "%s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 1;
  }
  const std::string algo = args.Flag("algo", "sweep");
  int threads = 1;
  SJSEL_FLAG_OR_RETURN(threads, args.Threads());
  uint64_t count = 0;
  if (algo == "sweep") {
    count = PlaneSweepJoinCount(*a, *b);
  } else if (algo == "pbsm") {
    PbsmOptions pbsm_options;
    pbsm_options.threads = threads;
    count = PbsmJoinCount(*a, *b, pbsm_options);
  } else if (algo == "rtree") {
    const RTree ta = RTree::BulkLoadStr(RTree::DatasetEntries(*a));
    const RTree tb = RTree::BulkLoadStr(RTree::DatasetEntries(*b));
    count = RTreeJoinCount(ta, tb, threads);
  } else if (algo == "nested") {
    count = NestedLoopJoinCount(*a, *b);
  } else {
    std::fprintf(err, "unknown --algo: %s\n", algo.c_str());
    return 2;
  }
  const double selectivity =
      a->empty() || b->empty()
          ? 0.0
          : static_cast<double>(count) / (static_cast<double>(a->size()) *
                                          static_cast<double>(b->size()));
  std::fprintf(out, "pairs      : %llu\n",
               static_cast<unsigned long long>(count));
  std::fprintf(out, "selectivity: %s\n",
               FormatDouble(selectivity, 6).c_str());
  return 0;
}

int CmdSample(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 3) return Usage(err);
  const auto a = Dataset::Load(args.positional[1]);
  const auto b = Dataset::Load(args.positional[2]);
  if (!a.ok() || !b.ok()) {
    std::fprintf(err, "%s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 1;
  }
  SamplingOptions options;
  const std::string method = args.Flag("method", "rswr");
  if (method == "rs") {
    options.method = SamplingMethod::kRegular;
  } else if (method == "rswr") {
    options.method = SamplingMethod::kRandomWithReplacement;
  } else if (method == "ss") {
    options.method = SamplingMethod::kSorted;
  } else {
    std::fprintf(err, "unknown --method: %s\n", method.c_str());
    return 2;
  }
  SJSEL_FLAG_OR_RETURN(options.frac_a, args.FlagDouble("fa", 0.1));
  SJSEL_FLAG_OR_RETURN(options.frac_b, args.FlagDouble("fb", 0.1));
  int seed_flag = 1;
  SJSEL_FLAG_OR_RETURN(seed_flag, args.FlagInt("seed", 1));
  options.seed = static_cast<uint64_t>(seed_flag);
  SJSEL_FLAG_OR_RETURN(options.threads, args.Threads());
  const auto est = EstimateBySampling(*a, *b, options);
  if (!est.ok()) {
    std::fprintf(err, "%s\n", est.status().ToString().c_str());
    return 1;
  }
  std::fprintf(out, "samples              : %zu x %zu\n", est->sample_a_size,
               est->sample_b_size);
  std::fprintf(out, "sample join pairs    : %llu\n",
               static_cast<unsigned long long>(est->sample_pairs));
  std::fprintf(out, "estimated pairs      : %s\n",
               FormatDouble(est->estimated_pairs, 1).c_str());
  std::fprintf(out, "estimated selectivity: %s\n",
               FormatDouble(est->selectivity, 6).c_str());
  std::fprintf(out, "time (select/build/join): %.4f / %.4f / %.4f s\n",
               est->select_seconds, est->build_seconds, est->join_seconds);
  return 0;
}

}  // namespace

namespace {

// Multi-way join planning (docs/PLANNER.md): pairwise selectivities from
// the guarded chain feed a DP search over bushy join trees.
int CmdPlan(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() < 3) {
    std::fprintf(err, "plan needs at least two dataset files\n");
    return Usage(err);
  }
  PlannerOptions options;
  if (const int code = ParseGuardedOptions(args, err, &options.estimator);
      code != 0) {
    return code;
  }
  SJSEL_FLAG_OR_RETURN(options.threads, args.Threads());
  SJSEL_FLAG_OR_RETURN(options.dp_limit, args.FlagInt("dp-limit", 12));

  // Datasets live here; the planner borrows them by pointer, labeled by
  // their file path (unique even when generated dataset *names* collide).
  std::vector<Dataset> datasets;
  datasets.reserve(args.positional.size() - 1);
  std::vector<PlannerInput> inputs;
  for (size_t i = 1; i < args.positional.size(); ++i) {
    auto loaded = Dataset::Load(args.positional[i]);
    if (!loaded.ok()) {
      std::fprintf(err, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    datasets.push_back(std::move(loaded).value());
  }
  for (size_t i = 1; i < args.positional.size(); ++i) {
    inputs.push_back(PlannerInput{args.positional[i], &datasets[i - 1]});
  }

  const auto plan = PlanMultiJoin(inputs, options);
  if (!plan.ok()) {
    std::fprintf(err, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  if (args.Has("json")) {
    std::fprintf(out, "%s\n", RenderPlanJson(*plan).c_str());
  } else {
    std::fputs(RenderPlanText(*plan).c_str(), out);
  }
  return 0;
}

// `serve` runs until a stop is requested; the signal handler can only
// set a flag, which the wait loop below polls.
std::atomic<bool> g_serve_signal_stop{false};

void HandleServeSignal(int) { g_serve_signal_stop.store(true); }

int CmdServe(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 2) {
    std::fprintf(err, "serve needs a socket path\n");
    return Usage(err);
  }
  server::ServerOptions options;
  options.socket_path = args.positional[1];
  if (const int code = ParseGuardedOptions(args, err, &options.estimator);
      code != 0) {
    return code;
  }
  SJSEL_FLAG_OR_RETURN(options.workers, args.FlagInt("workers", 4));
  SJSEL_FLAG_OR_RETURN(options.max_queue, args.FlagInt("max-queue", 64));
  SJSEL_FLAG_OR_RETURN(options.audit_rate, args.FlagDouble("audit-rate", 0.0));
  SJSEL_FLAG_OR_RETURN(options.audit_alarm,
                       args.FlagDouble("audit-alarm", 0.5));
  double audit_exact_cap = 0.0;
  SJSEL_FLAG_OR_RETURN(audit_exact_cap,
                       args.FlagDouble("audit-exact-cap", 0.0));
  int slowlog_k = 32;
  SJSEL_FLAG_OR_RETURN(slowlog_k, args.FlagInt("slowlog-k", 32));
  if (options.workers < 1) {
    std::fprintf(err, "--workers must be >= 1\n");
    return 2;
  }
  if (options.audit_rate < 0.0 || options.audit_rate > 1.0) {
    std::fprintf(err, "--audit-rate must be in [0, 1]\n");
    return 2;
  }
  if (audit_exact_cap < 0.0 || slowlog_k < 1) {
    std::fprintf(err, "--audit-exact-cap must be >= 0, --slowlog-k >= 1\n");
    return 2;
  }
  options.audit_exact_cap = static_cast<uint64_t>(audit_exact_cap);
  options.slowlog_capacity = static_cast<size_t>(slowlog_k);

  // Either logging flag arms the structured logger for the daemon's
  // lifetime: default level info, default sink stderr ("-" spells it
  // explicitly, a path logs to that file).
  const bool logging = args.Has("log-level") || args.Has("log-file");
  if (logging) {
    obs::LogLevel level = obs::LogLevel::kInfo;
    const std::string level_name = args.Flag("log-level", "info");
    if (!obs::ParseLogLevel(level_name, &level)) {
      std::fprintf(err, "bad --log-level: '%s' (want debug|info|warn|error)\n",
                   level_name.c_str());
      return 2;
    }
    std::string log_path = args.Flag("log-file", "");
    if (log_path == "1") log_path = "";  // bare --log-file: stderr
    if (!obs::Logger::Global().Arm(level, log_path)) {
      std::fprintf(err, "failed to open --log-file %s\n", log_path.c_str());
      return 1;
    }
  }

  server::Server daemon(options);
  const Status status = daemon.Start();
  if (!status.ok()) {
    std::fprintf(err, "%s\n", status.ToString().c_str());
    if (logging) obs::Logger::Global().Disarm();
    return 1;
  }
  std::fprintf(out, "listening on %s (workers=%d max-queue=%d)\n",
               options.socket_path.c_str(), options.workers,
               options.max_queue);
  std::fflush(out);
  SJSEL_LOG_INFO("server.start", obs::LogFields()
                                     .Str("socket", options.socket_path)
                                     .Int("workers", options.workers)
                                     .Int("queue_cap", options.max_queue)
                                     .Num("audit_rate", options.audit_rate)
                                     .Str("version", kSjselVersion));

  g_serve_signal_stop.store(false);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (!daemon.stop_requested()) {
    if (g_serve_signal_stop.load()) daemon.RequestStop();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  daemon.Stop();
  std::fprintf(out, "served %llu requests\n",
               static_cast<unsigned long long>(daemon.requests_served()));
  // Drain-time telemetry: snapshot the metrics and close the log *here*,
  // right after the drain completes, so a SIGTERM'd daemon leaves a
  // complete dump on disk even though the generic post-dispatch flush in
  // RunCli also runs (that later rewrite is idempotent).
  const std::string metrics_path = args.Flag("metrics", "");
  if (!metrics_path.empty() && metrics_path != "1") {
    if (!obs::MetricsRegistry::Global().WriteJson(metrics_path)) {
      std::fprintf(err, "failed to write metrics to %s\n",
                   metrics_path.c_str());
    }
  }
  SJSEL_LOG_INFO("server.stop",
                 obs::LogFields()
                     .Uint("requests_served", daemon.requests_served())
                     .Uint("uptime_s", daemon.uptime_seconds()));
  if (logging) obs::Logger::Global().Disarm();
  return 0;
}

// Scripted client: sends one request line per invocation argument, or —
// with no request argument — every line read from stdin (a scripted
// NDJSON session, used by the CI smoke drill). Prints one response line
// per request.
int CmdClient(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() < 2) {
    std::fprintf(err, "client needs a socket path\n");
    return Usage(err);
  }
  int retry = 1;
  SJSEL_FLAG_OR_RETURN(retry, args.FlagInt("retry", 1));
  int backoff_ms = 25;
  SJSEL_FLAG_OR_RETURN(backoff_ms, args.FlagInt("retry-backoff-ms", 25));
  if (retry < 1 || backoff_ms < 1) {
    std::fprintf(err, "--retry and --retry-backoff-ms must be >= 1\n");
    return 2;
  }
  server::Client client;
  const Status status =
      client.ConnectWithRetry(args.positional[1], retry, backoff_ms);
  if (!status.ok()) {
    std::fprintf(err, "%s\n", status.ToString().c_str());
    return 1;
  }
  const auto send = [&](const std::string& line) -> int {
    if (line.empty()) return 0;
    const auto response = client.Call(line);
    if (!response.ok()) {
      std::fprintf(err, "%s\n", response.status().ToString().c_str());
      return 1;
    }
    std::fprintf(out, "%s\n", response->c_str());
    return 0;
  };
  if (args.positional.size() > 2) {
    for (size_t i = 2; i < args.positional.size(); ++i) {
      if (const int code = send(args.positional[i]); code != 0) return code;
    }
    return 0;
  }
  std::string line;
  int ch;
  while ((ch = std::fgetc(stdin)) != EOF) {
    if (ch == '\n') {
      if (const int code = send(line); code != 0) return code;
      line.clear();
    } else {
      line.push_back(static_cast<char>(ch));
    }
  }
  return send(line);
}

void PrintRecoveryInfo(std::FILE* out, const stream::RecoveryInfo& info) {
  std::fprintf(out,
               "recovery: checkpoint_seq=%llu replayed_records=%llu"
               " skipped_records=%llu replayed_ops=%llu dropped_bytes=%llu\n",
               static_cast<unsigned long long>(info.checkpoint_seq),
               static_cast<unsigned long long>(info.replayed_records),
               static_cast<unsigned long long>(info.skipped_records),
               static_cast<unsigned long long>(info.replayed_ops),
               static_cast<unsigned long long>(info.dropped_bytes));
  if (!info.tail_error.empty()) {
    std::fprintf(out, "recovery: dropped tail: %s\n", info.tail_error.c_str());
  }
}

// Durable streaming ingest (docs/DURABILITY.md). `--init` creates the
// directory; the default mode reads one op per stdin line (`add x0 y0 x1
// y1`, `remove x0 y0 x1 y1`, `checkpoint`) and acknowledges each batch
// only after its WAL record is durable — the drill scripts treat an
// `ack` as a promise the op survives kill -9.
int CmdIngest(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 2) {
    std::fprintf(err, "ingest needs a stream directory\n");
    return Usage(err);
  }
  const std::string& dir = args.positional[1];

  if (args.Has("init")) {
    stream::StreamOptions options;
    const auto extent = ParseRect(args.Flag("extent", "0,0,1,1"));
    if (!extent.has_value()) {
      std::fprintf(err, "bad --extent (want x0,y0,x1,y1)\n");
      return 2;
    }
    options.extent = *extent;
    SJSEL_FLAG_OR_RETURN(options.gh_level, args.FlagInt("gh-level", 7));
    SJSEL_FLAG_OR_RETURN(options.ph_level, args.FlagInt("ph-level", 5));
    int seal_every = 8;
    SJSEL_FLAG_OR_RETURN(seal_every, args.FlagInt("seal-every", 8));
    int checkpoint_every = 0;
    SJSEL_FLAG_OR_RETURN(checkpoint_every,
                         args.FlagInt("checkpoint-every", 0));
    if (seal_every < 1 || checkpoint_every < 0) {
      std::fprintf(err, "--seal-every must be >= 1, --checkpoint-every >= 0\n");
      return 2;
    }
    options.seal_every = static_cast<uint32_t>(seal_every);
    options.checkpoint_every = static_cast<uint32_t>(checkpoint_every);
    options.fsync_always = !args.Has("no-fsync");
    const Status status = stream::StreamIngest::Init(dir, options);
    if (!status.ok()) {
      std::fprintf(err, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(out, "initialized stream %s (gh-level=%d ph-level=%d"
                 " seal-every=%u checkpoint-every=%u fsync=%d)\n",
                 dir.c_str(), options.gh_level, options.ph_level,
                 options.seal_every, options.checkpoint_every,
                 options.fsync_always ? 1 : 0);
    return 0;
  }

  auto opened = stream::StreamIngest::Open(dir);
  if (!opened.ok()) {
    std::fprintf(err, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  stream::StreamIngest& ingest = **opened;

  if (args.Has("status")) {
    std::fprintf(out,
                 "stream %s: seq=%llu snapshot_seq=%llu checkpoint_seq=%llu"
                 " active_batches=%llu wal_bytes=%llu\n",
                 dir.c_str(), static_cast<unsigned long long>(ingest.seq()),
                 static_cast<unsigned long long>(ingest.snapshot()->seq),
                 static_cast<unsigned long long>(ingest.checkpoint_seq()),
                 static_cast<unsigned long long>(ingest.active_batches()),
                 static_cast<unsigned long long>(ingest.wal_bytes()));
    PrintRecoveryInfo(out, ingest.recovery());
    return 0;
  }

  if (args.Has("digest")) {
    const auto digest = ingest.StateDigest();
    if (!digest.ok()) {
      std::fprintf(err, "%s\n", digest.status().ToString().c_str());
      return 1;
    }
    auto state = ingest.MaterializeState();
    if (!state.ok()) {
      std::fprintf(err, "%s\n", state.status().ToString().c_str());
      return 1;
    }
    const auto self = EstimateGhJoinPairs(state->gh, state->gh);
    if (!self.ok()) {
      std::fprintf(err, "%s\n", self.status().ToString().c_str());
      return 1;
    }
    std::fprintf(out, "seq=%llu digest=%s self_join=%.17g\n",
                 static_cast<unsigned long long>(state->seq),
                 digest->c_str(), self.value());
    return 0;
  }

  if (args.Has("estimate")) {
    const std::string path = args.Flag("estimate", "");
    auto probe = Dataset::Load(path);
    if (!probe.ok()) {
      std::fprintf(err, "%s\n", probe.status().ToString().c_str());
      return 1;
    }
    // Validated under the default policy, as `stats` and `estimate` do.
    const auto prepared = PrepareInput(*probe, ValidationPolicy::kQuarantine);
    if (!prepared.ok()) {
      std::fprintf(err, "%s\n", prepared.status().ToString().c_str());
      return 1;
    }
    const auto snap = ingest.snapshot();
    const auto bh = stream::BuildOnStreamGrid(snap->gh, *prepared);
    if (!bh.ok()) {
      std::fprintf(err, "%s\n", bh.status().ToString().c_str());
      return 1;
    }
    const auto est = stream::EstimateStreamJoin(snap->gh, *prepared, *bh);
    if (!est.ok()) {
      std::fprintf(err, "%s\n", est.status().ToString().c_str());
      return 1;
    }
    std::fprintf(out, "snapshot_seq=%llu estimated_pairs=%.17g clamped=%s\n",
                 static_cast<unsigned long long>(snap->seq),
                 est->estimated_pairs, est->clamped ? "yes" : "no");
    std::fprintf(out, "validation (b): %s\n",
                 est->validation_b.ToString().c_str());
    return 0;
  }

  if (args.Has("checkpoint")) {
    const Status status = ingest.Checkpoint();
    if (!status.ok()) {
      std::fprintf(err, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(out, "checkpointed at seq=%llu wal_bytes=%llu\n",
                 static_cast<unsigned long long>(ingest.checkpoint_seq()),
                 static_cast<unsigned long long>(ingest.wal_bytes()));
    return 0;
  }

  // Op-stream mode: one op per line; every `ack <seq>` line is flushed
  // before the next op is read, so a driver that killed this process can
  // trust exactly the acked prefix to be recovered.
  std::string line;
  int ch;
  uint64_t applied = 0;
  const auto run_line = [&](const std::string& text) -> int {
    if (text.empty()) return 0;
    Rect r;
    char word[16] = {0};
    if (std::sscanf(text.c_str(), "%15s %lf %lf %lf %lf", word, &r.min_x,
                    &r.min_y, &r.max_x, &r.max_y) == 5 &&
        (std::strcmp(word, "add") == 0 || std::strcmp(word, "remove") == 0)) {
      const stream::OpKind kind = std::strcmp(word, "add") == 0
                                      ? stream::OpKind::kAdd
                                      : stream::OpKind::kRemove;
      const auto seq = ingest.Apply({{kind, r}});
      if (!seq.ok()) {
        std::fprintf(err, "%s\n", seq.status().ToString().c_str());
        return 1;
      }
      ++applied;
      std::fprintf(out, "ack %llu\n",
                   static_cast<unsigned long long>(seq.value()));
      std::fflush(out);
      return 0;
    }
    if (text == "checkpoint") {
      const Status status = ingest.Checkpoint();
      if (!status.ok()) {
        std::fprintf(err, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::fprintf(out, "checkpoint %llu\n",
                   static_cast<unsigned long long>(ingest.checkpoint_seq()));
      std::fflush(out);
      return 0;
    }
    std::fprintf(err, "bad op line: %s\n", text.c_str());
    return 1;
  };
  while ((ch = std::fgetc(stdin)) != EOF) {
    if (ch == '\n') {
      if (const int code = run_line(line); code != 0) return code;
      line.clear();
    } else {
      line.push_back(static_cast<char>(ch));
    }
  }
  if (const int code = run_line(line); code != 0) return code;
  std::fprintf(out, "applied %llu ops (seq=%llu)\n",
               static_cast<unsigned long long>(applied),
               static_cast<unsigned long long>(ingest.seq()));
  return 0;
}

// Deterministic op-stream generator for the ingest drills: same n, seed,
// extent, and remove-frac always print the same lines, so a reference
// state can be rebuilt from any acked prefix of the stream.
int CmdGenOps(const ParsedArgs& args, std::FILE* out, std::FILE* err) {
  if (args.positional.size() != 2) {
    std::fprintf(err, "gen-ops needs a count\n");
    return Usage(err);
  }
  const auto count = ParseCount(args.positional[1]);
  if (!count.has_value()) {
    std::fprintf(err, "bad op count: %s\n", args.positional[1].c_str());
    return 2;
  }
  const size_t n = *count;
  int seed_flag = 1;
  SJSEL_FLAG_OR_RETURN(seed_flag, args.FlagInt("seed", 1));
  double remove_frac = 0.0;
  SJSEL_FLAG_OR_RETURN(remove_frac, args.FlagDouble("remove-frac", 0.0));
  if (remove_frac < 0.0 || remove_frac >= 1.0) {
    std::fprintf(err, "--remove-frac must be in [0, 1)\n");
    return 2;
  }
  const auto extent = ParseRect(args.Flag("extent", "0,0,1,1"));
  if (!extent.has_value()) {
    std::fprintf(err, "bad --extent (want x0,y0,x1,y1)\n");
    return 2;
  }

  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.02, 0.02, 0.5};
  const Dataset ds = gen::UniformRects(
      "ops", n, *extent, size, static_cast<uint64_t>(seed_flag));
  // Removes target already-emitted adds at a fixed stride, so the stream
  // is valid (never removes what was not added) for every prefix.
  const size_t stride =
      remove_frac > 0.0 ? static_cast<size_t>(1.0 / remove_frac) : 0;
  size_t emitted_adds = 0;
  size_t removed = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    const Rect& r = ds.rects()[i];
    std::fprintf(out, "add %.17g %.17g %.17g %.17g\n", r.min_x, r.min_y,
                 r.max_x, r.max_y);
    ++emitted_adds;
    if (stride > 0 && emitted_adds % stride == 0 && removed < i) {
      const Rect& victim = ds.rects()[removed];
      std::fprintf(out, "remove %.17g %.17g %.17g %.17g\n", victim.min_x,
                   victim.min_y, victim.max_x, victim.max_y);
      ++removed;
    }
  }
  return 0;
}

int Dispatch(const ParsedArgs& parsed, std::FILE* out, std::FILE* err) {
  const std::string& command = parsed.positional[0];
  if (command == "gen") return CmdGen(parsed, out, err);
  if (command == "gen-geo") return CmdGenGeo(parsed, out, err);
  if (command == "refine-join") return CmdRefineJoin(parsed, out, err);
  if (command == "knn") return CmdKnn(parsed, out, err);
  if (command == "stats") return CmdStats(parsed, out, err);
  if (command == "hist-build") return CmdHistBuild(parsed, out, err);
  if (command == "hist-info") return CmdHistInfo(parsed, out, err);
  if (command == "estimate") return CmdEstimate(parsed, out, err);
  if (command == "explain") return CmdExplain(parsed, out, err);
  if (command == "range") return CmdRange(parsed, out, err);
  if (command == "join") return CmdJoin(parsed, out, err);
  if (command == "sample") return CmdSample(parsed, out, err);
  if (command == "plan") return CmdPlan(parsed, out, err);
  if (command == "serve") return CmdServe(parsed, out, err);
  if (command == "client") return CmdClient(parsed, out, err);
  if (command == "ingest") return CmdIngest(parsed, out, err);
  if (command == "gen-ops") return CmdGenOps(parsed, out, err);
  std::fprintf(err, "unknown command: %s\n", command.c_str());
  return Usage(err);
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::FILE* out,
           std::FILE* err) {
  if (args.empty()) return Usage(err);
  const ParsedArgs parsed = Parse(args);
  if (parsed.positional.empty()) return Usage(err);

  // Global fault-injection arming, scoped to this invocation. A bad spec
  // is a usage error; an injected fault that escapes every recovery layer
  // must exit as a diagnosed failure, never a crash — hence the catch-all
  // around the dispatch below.
  std::optional<ScopedFaultInjection> injection;
  if (parsed.Has("inject-faults")) {
    injection.emplace(parsed.Flag("inject-faults", ""));
    if (!injection->status().ok()) {
      std::fprintf(err, "%s\n", injection->status().ToString().c_str());
      return 2;
    }
  }

  // Observability arming, scoped to this invocation like fault injection:
  // --trace records spans, --metrics collects counters; both flush to
  // their files after the command finishes, whatever its outcome.
  const std::string trace_path = parsed.Flag("trace", "");
  const std::string metrics_path = parsed.Flag("metrics", "");
  const bool tracing = parsed.Has("trace");
  const bool metrics = parsed.Has("metrics");
  if ((tracing && trace_path == "1") || (metrics && metrics_path == "1")) {
    std::fprintf(err, "--trace/--metrics need a file path (--trace=t.json)\n");
    return 2;
  }
  if (metrics) obs::MetricsRegistry::Arm();
  if (tracing) obs::Tracer::Global().Arm();

  // Global kernel-backend forcing, scoped to this invocation: every batch
  // kernel (histogram builds, join filters, sample join) dispatches to the
  // named backend. A/B timing rides on this; an unavailable backend is a
  // usage error, not a crash later.
  bool backend_forced = false;
  if (parsed.Has("kernel-backend")) {
    const std::string name = parsed.Flag("kernel-backend", "");
    KernelBackend backend = KernelBackend::kScalar;
    if (!ParseKernelBackend(name, &backend)) {
      std::fprintf(err, "bad --kernel-backend: '%s' (want scalar|avx2)\n",
                   name.c_str());
      return 2;
    }
    if (!KernelBackendAvailable(backend)) {
      std::fprintf(err, "--kernel-backend=%s: not available on this CPU\n",
                   name.c_str());
      return 2;
    }
    SetKernelBackendOverride(backend);
    backend_forced = true;
  }

  int code = 0;
  try {
    // Inner scope: the cli.run span must complete before the flush below,
    // or the top-level span would be missing from its own trace.
    SJSEL_TRACE_SPAN("cli.run", "command=%s",
                     parsed.positional[0].c_str());
    code = Dispatch(parsed, out, err);
  } catch (const std::exception& e) {
    std::fprintf(err, "fault: %s\n", e.what());
    code = 1;
  }
  if (backend_forced) ClearKernelBackendOverride();

  if (metrics) {
    obs::MetricsRegistry::Disarm();
    std::fprintf(out, "metrics:\n%s",
                 obs::MetricsRegistry::Global().SnapshotText().c_str());
    if (!obs::MetricsRegistry::Global().WriteJson(metrics_path)) {
      std::fprintf(err, "failed to write metrics to %s\n",
                   metrics_path.c_str());
      if (code == 0) code = 1;
    }
  }
  if (tracing) {
    obs::Tracer::Global().Disarm();
    if (!obs::Tracer::Global().WriteChromeTrace(trace_path)) {
      std::fprintf(err, "failed to write trace to %s\n", trace_path.c_str());
      if (code == 0) code = 1;
    }
  }
  return code;
}

}  // namespace cli
}  // namespace sjsel
