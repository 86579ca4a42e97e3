#include "spans.h"

#include <chrono>
#include <cinttypes>

#include "harness.h"

namespace sjsel {
namespace e2e {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name)
    : recorder_(recorder), index_(static_cast<int>(recorder.spans_.size())) {
  Span span;
  span.name = name;
  span.parent = recorder_.open_.empty() ? -1 : recorder_.open_.back();
  span.depth = static_cast<int>(recorder_.open_.size());
  span.request = recorder_.request_;
  recorder_.spans_.push_back(span);
  recorder_.open_.push_back(index_);
  recorder_.spans_[static_cast<size_t>(index_)].start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  recorder_.spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  recorder_.open_.pop_back();
}

std::map<std::string, SpanRecorder::Stats> SpanRecorder::Summarize() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.us();
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, Stats> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Stats& st = out[spans_[i].name];
    ++st.calls;
    st.total_us += spans_[i].us();
    st.self_us += spans_[i].us() - child_us[i];
    durations[spans_[i].name].push_back(spans_[i].us());
  }
  for (auto& [name, st] : out) {
    st.p50_us = Quantile(durations[name], 0.50);
    st.p99_us = Quantile(durations[name], 0.99);
  }
  return out;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path,
                                      const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f,
               "{\"otherData\": {\"tool\": \"e2e_bench\", \"workload\": "
               "\"%s\", \"dropped_events\": 0},\n\"traceEvents\": [\n",
               workload.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"depth\": %d, "
                 "\"detail\": \"request_id=%s-%" PRIu64 "\"}}",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns - epoch) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.depth,
                 workload.c_str(), s.request);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) return Status::IoError("cannot write " + path);
  return Status::OK();
}

}  // namespace e2e
}  // namespace sjsel
