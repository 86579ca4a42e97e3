#ifndef SJSEL_BENCH_E2E_SPANS_H_
#define SJSEL_BENCH_E2E_SPANS_H_

// The traced run's span recorder. The bench wraps each call it makes into
// a layer's public function (Server::HandleLine, ParseRequest,
// GhHistogram::Build, StreamIngest::Apply, ...) in a span: name, start,
// end, parent span and the id of the replayed request. Spans stay in
// memory and are written once, as a Chrome trace-event file, when the
// workload ends. Single-threaded by design: the traced run replays its
// sample on one thread so every span's self time is its own work.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/result.h"

namespace sjsel {
namespace e2e {

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  ///< string literal; the recorder keeps the pointer
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 at top level
    int depth = 0;
    uint64_t request = 0;

    double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
  };

  /// Opens a span under the innermost open one; closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_;
  };

  /// Starts the next replayed request; spans opened from now on carry its
  /// id.
  void NextRequest() { ++request_; }

  const std::vector<Span>& spans() const { return spans_; }

  struct Stats {
    uint64_t calls = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double total_us = 0.0;
    /// Duration minus the time covered by direct children, summed.
    double self_us = 0.0;
  };
  /// Per span name.
  std::map<std::string, Stats> Summarize() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events on one
  /// thread, args.detail = "request_id=<workload>-<n>").
  Status WriteChromeTrace(const std::string& path,
                          const std::string& workload) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint64_t request_ = 0;
};

}  // namespace e2e
}  // namespace sjsel

#endif  // SJSEL_BENCH_E2E_SPANS_H_
