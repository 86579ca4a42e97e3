// Streaming-ingest churn harness: sustained update rates through the
// WAL-backed differential histograms (src/stream/), checkpoint latency,
// estimate throughput from a concurrent reader while the stream churns,
// and two accuracy rows — the snapshot estimate against a histogram
// rebuilt from scratch over the surviving rects, and the recovery
// bit-identity invariant (close + reopen must reproduce the digest
// exactly). Writes BENCH_churn.json for the drift gate; entry names are
// size-suffixed so smoke and full runs never collide in the baseline.
//
// `--smoke` shrinks the op stream and fsync counts — the ctest
// `churn_smoke` / `bench_drift` entry point.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/gh_histogram.h"
#include "datagen/generators.h"
#include "geom/dataset.h"
#include "stream/ingest.h"

namespace sjsel {
namespace {

struct PerfEntry {
  std::string name;
  double ns_per_op = 0.0;
  uint64_t items = 0;
};

struct AccuracyEntry {
  std::string name;
  double rel_error = 0.0;
};

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The deterministic op stream the recovery drills also use: adds from a
/// fixed generator with every fourth op removing the oldest survivor.
struct OpStream {
  std::vector<stream::StreamOp> ops;
  Dataset survivors;  ///< the rect multiset left after all ops
};

OpStream MakeOps(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.02, 0.02, 0.5};
  const Dataset ds =
      gen::UniformRects("churn", n, Rect(0, 0, 1, 1), size, seed);
  OpStream out;
  size_t removed = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    out.ops.push_back({stream::OpKind::kAdd, ds.rects()[i]});
    if ((i + 1) % 4 == 0 && removed < i) {
      out.ops.push_back({stream::OpKind::kRemove, ds.rects()[removed++]});
    }
  }
  std::vector<Rect> left(ds.rects().begin() + removed, ds.rects().end());
  out.survivors = Dataset("survivors", std::move(left));
  return out;
}

void CleanStreamDir(const std::string& dir, size_t max_seq) {
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/MANIFEST").c_str());
  for (size_t s = 0; s <= max_seq; ++s) {
    std::remove((dir + "/base." + std::to_string(s) + ".gh").c_str());
    std::remove((dir + "/base." + std::to_string(s) + ".ph").c_str());
  }
}

bool WriteChurnJson(const std::string& path, size_t n_ops,
                    const std::vector<AccuracyEntry>& accuracy,
                    const std::vector<PerfEntry>& perf) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "churn: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"churn\",\n");
  std::fprintf(f, "  \"run\": {\n");
  std::fprintf(f, "    \"build_type\": \"%s\",\n",
#ifdef NDEBUG
               "release"
#else
               "debug"
#endif
  );
  std::fprintf(f, "    \"n_ops\": \"%zu\"\n  },\n", n_ops);
  std::fprintf(f, "  \"entries\": [");
  bool first = true;
  for (const AccuracyEntry& e : accuracy) {
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"rel_error\": %.17g}",
                 first ? "" : ",", e.name.c_str(), e.rel_error);
    first = false;
  }
  for (const PerfEntry& e : perf) {
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                 "\"items\": %llu}",
                 first ? "" : ",", e.name.c_str(), e.ns_per_op,
                 static_cast<unsigned long long>(e.items));
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu entries)\n", path.c_str(),
              accuracy.size() + perf.size());
  return true;
}

int Run(bool smoke) {
  const size_t n_ops = smoke ? 400 : 20000;
  const size_t n_fsync_ops = smoke ? 50 : 500;
  const std::string tag = "churn/n" + std::to_string(n_ops);
  const OpStream stream = MakeOps(n_ops, /*seed=*/2001);

  stream::StreamOptions options;
  options.gh_level = 6;
  options.ph_level = 4;
  options.seal_every = 8;

  std::vector<PerfEntry> perf;
  std::vector<AccuracyEntry> accuracy;

  // --- Durable path: every Apply fdatasyncs its WAL record. -------------
  {
    const std::string dir = "churn_fsync_work";
    CleanStreamDir(dir, stream.ops.size() + 1);
    options.fsync_always = true;
    if (!stream::StreamIngest::Init(dir, options).ok()) return 1;
    auto ingest = stream::StreamIngest::Open(dir);
    if (!ingest.ok()) {
      std::fprintf(stderr, "%s\n", ingest.status().ToString().c_str());
      return 1;
    }
    const double t0 = NowNs();
    for (size_t i = 0; i < n_fsync_ops; ++i) {
      if (!(*ingest)->Apply({stream.ops[i]}).ok()) return 1;
    }
    const double per_op = (NowNs() - t0) / static_cast<double>(n_fsync_ops);
    perf.push_back({tag + "/apply_fsync", per_op, n_fsync_ops});
    std::printf("%-32s %12.0f ns/op  (%.0f updates/s)\n",
                (tag + "/apply_fsync").c_str(), per_op, 1e9 / per_op);
    CleanStreamDir(dir, stream.ops.size() + 1);
  }

  // --- Churn path: full op stream, concurrent estimate reader. ----------
  const std::string dir = "churn_work";
  CleanStreamDir(dir, stream.ops.size() + 1);
  options.fsync_always = false;
  if (!stream::StreamIngest::Init(dir, options).ok()) return 1;
  auto opened = stream::StreamIngest::Open(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<stream::StreamIngest> ingest = std::move(opened).value();

  // A fixed probe histogram the reader estimates against.
  gen::SizeDist probe_size{gen::SizeDist::Kind::kUniform, 0.02, 0.02, 0.5};
  const Dataset probe_ds = gen::UniformRects(
      "probe", smoke ? 500 : 5000, Rect(0, 0, 1, 1), probe_size, 99);
  const auto probe = GhHistogram::Build(probe_ds, Rect(0, 0, 1, 1),
                                        options.gh_level);
  if (!probe.ok()) return 1;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  double reader_ns = 0.0;
  std::thread reader([&] {
    const double r0 = NowNs();
    // At least one estimate, so the row exists even when the writer
    // finishes every op before this thread first runs.
    do {
      // snapshot() is the whole point: an immutable (base + sealed
      // deltas) view the writer never mutates under us.
      const auto snap = ingest->snapshot();
      const auto pairs = EstimateGhJoinPairs(snap->gh, *probe);
      if (!pairs.ok()) break;
      reads.fetch_add(1, std::memory_order_relaxed);
    } while (!done.load(std::memory_order_relaxed));
    reader_ns = NowNs() - r0;
  });

  const double t0 = NowNs();
  bool apply_failed = false;
  for (const stream::StreamOp& op : stream.ops) {
    if (!ingest->Apply({op}).ok()) {
      apply_failed = true;
      break;
    }
  }
  const double apply_elapsed = NowNs() - t0;
  done.store(true);
  reader.join();
  if (apply_failed) return 1;

  const double apply_per_op =
      apply_elapsed / static_cast<double>(stream.ops.size());
  perf.push_back({tag + "/apply_nofsync", apply_per_op, stream.ops.size()});
  std::printf("%-32s %12.0f ns/op  (%.0f updates/s)\n",
              (tag + "/apply_nofsync").c_str(), apply_per_op,
              1e9 / apply_per_op);
  if (reads.load() > 0) {
    const double est_per_op = reader_ns / static_cast<double>(reads.load());
    perf.push_back({tag + "/estimate_during_churn", est_per_op,
                    reads.load()});
    std::printf("%-32s %12.0f ns/op  (%llu estimates during churn)\n",
                (tag + "/estimate_during_churn").c_str(), est_per_op,
                static_cast<unsigned long long>(reads.load()));
  }

  {
    const double c0 = NowNs();
    if (!ingest->Checkpoint().ok()) return 1;
    const double checkpoint_ns = NowNs() - c0;
    perf.push_back({tag + "/checkpoint", checkpoint_ns, 1});
    std::printf("%-32s %12.0f ns/op\n", (tag + "/checkpoint").c_str(),
                checkpoint_ns);
  }

  // --- Accuracy: estimate under churn vs rebuilt from scratch. ----------
  auto state = ingest->MaterializeState();
  if (!state.ok()) return 1;
  const auto rebuilt = GhHistogram::Build(stream.survivors, Rect(0, 0, 1, 1),
                                          options.gh_level);
  if (!rebuilt.ok()) return 1;
  const auto est_stream = EstimateGhJoinPairs(state->gh, *probe);
  const auto est_rebuilt = EstimateGhJoinPairs(*rebuilt, *probe);
  if (!est_stream.ok() || !est_rebuilt.ok()) return 1;
  const double rel =
      *est_rebuilt != 0.0 ? (*est_stream - *est_rebuilt) / *est_rebuilt : 0.0;
  accuracy.push_back({tag + "/estimate_vs_rebuild_rel_error", rel});
  std::printf("%-40s %.3e (stream %.6g vs rebuild %.6g)\n",
              (tag + "/estimate_vs_rebuild_rel_error").c_str(), rel,
              *est_stream, *est_rebuilt);

  // --- Accuracy: recovery bit-identity (close, reopen, same digest). ----
  const auto digest_before = ingest->StateDigest();
  if (!digest_before.ok()) return 1;
  ingest.reset();  // drop the writer with no shutdown protocol
  auto recovered = stream::StreamIngest::Open(dir);
  if (!recovered.ok()) {
    std::fprintf(stderr, "%s\n", recovered.status().ToString().c_str());
    return 1;
  }
  const auto digest_after = (*recovered)->StateDigest();
  if (!digest_after.ok()) return 1;
  const double recovery_error =
      *digest_before == *digest_after ? 0.0 : 1.0;
  accuracy.push_back({tag + "/recovery_rel_error", recovery_error});
  std::printf("%-40s %.1f (digest %s -> %s)\n",
              (tag + "/recovery_rel_error").c_str(), recovery_error,
              digest_before->c_str(), digest_after->c_str());
  (*recovered).reset();
  CleanStreamDir(dir, stream.ops.size() + 1);

  if (!WriteChurnJson("BENCH_churn.json", n_ops, accuracy, perf)) return 1;
  // The invariant is the gate, not just a JSON row: a bench run that
  // observed a recovery mismatch must fail loudly.
  return recovery_error == 0.0 ? 0 : 1;
}

}  // namespace
}  // namespace sjsel

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return sjsel::Run(smoke);
}
