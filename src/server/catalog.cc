#include "server/catalog.h"

#include <utility>
#include <vector>

#include "core/gh_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sjsel {
namespace server {

Result<std::shared_ptr<const ServerCatalog::Entry>> ServerCatalog::GetEntry(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(path);
    if (it != entries_.end()) {
      SJSEL_METRIC_INC("server.catalog.dataset_hits");
      return it->second;
    }
  }
  SJSEL_METRIC_INC("server.catalog.dataset_misses");
  SJSEL_TRACE_SPAN("server.catalog.load_dataset");
  auto loaded = Dataset::Load(path);
  if (!loaded.ok()) return loaded.status();
  // Built in place: the prepared input borrows the entry's own dataset.
  auto entry = std::make_shared<Entry>();
  entry->dataset = std::move(loaded).value();
  entry->prepared = PrepareInput(entry->dataset, estimator_.options().policy);
  std::lock_guard<std::mutex> lock(mu_);
  // Two workers may race to load the same path; both get the same bytes,
  // so first-in wins and the loser's copy is dropped.
  const auto [it, inserted] = entries_.emplace(path, std::move(entry));
  (void)inserted;
  return it->second;
}

Result<std::shared_ptr<const Dataset>> ServerCatalog::GetDataset(
    const std::string& path) {
  std::shared_ptr<const Entry> entry;
  SJSEL_ASSIGN_OR_RETURN(entry, GetEntry(path));
  return std::shared_ptr<const Dataset>(entry, &entry->dataset);
}

Result<EstimateResult> ServerCatalog::Estimate(const std::string& a,
                                               const std::string& b) {
  const std::pair<std::string, std::string> key(a, b);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = estimates_.find(key);
    if (it != estimates_.end()) {
      SJSEL_METRIC_INC("server.catalog.estimate_hits");
      return it->second;
    }
  }
  SJSEL_METRIC_INC("server.catalog.estimate_misses");
  std::shared_ptr<const Entry> ea;
  SJSEL_ASSIGN_OR_RETURN(ea, GetEntry(a));
  std::shared_ptr<const Entry> eb;
  SJSEL_ASSIGN_OR_RETURN(eb, GetEntry(b));
  if (!ea->prepared.ok()) return ea->prepared.status();
  if (!eb->prepared.ok()) return eb->prepared.status();
  // Estimated outside the lock: concurrent first requests for the same
  // pair may both compute, but the chain is deterministic, so whichever
  // result lands in the cache is the same value.
  auto result = estimator_.Estimate(*ea->prepared, *eb->prepared);
  if (!result.ok()) return result.status();
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = estimates_.emplace(key, std::move(result).value());
  (void)inserted;
  return it->second;
}

Result<std::shared_ptr<stream::StreamIngest>> ServerCatalog::GetStream(
    const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = streams_.find(dir);
    if (it != streams_.end()) return it->second;
  }
  SJSEL_METRIC_INC("server.catalog.stream_opens");
  SJSEL_TRACE_SPAN("server.catalog.open_stream");
  auto opened = stream::StreamIngest::Open(dir);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<stream::StreamIngest> shared = std::move(opened).value();
  std::lock_guard<std::mutex> lock(mu_);
  // Two workers may race to open the same directory. Only one ingest may
  // own the WAL writer, so first-in wins and the loser is discarded.
  const auto [it, inserted] = streams_.emplace(dir, std::move(shared));
  (void)inserted;
  return it->second;
}

Result<std::shared_ptr<stream::StreamIngest>> ServerCatalog::InitStream(
    const std::string& dir, const stream::StreamOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (streams_.count(dir) != 0) {
      return Status::FailedPrecondition("stream already open: " + dir);
    }
  }
  SJSEL_RETURN_IF_ERROR(stream::StreamIngest::Init(dir, options));
  return GetStream(dir);
}

ServerCatalog::CacheStats ServerCatalog::Stats() const {
  CacheStats stats;
  std::vector<std::shared_ptr<const Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.datasets = entries_.size();
    stats.estimates = estimates_.size();
    stats.streams = streams_.size();
    for (const auto& [dir, ingest] : streams_) {
      if (ingest->poisoned()) ++stats.poisoned_streams;
    }
    for (const auto& [path, entry] : entries_) entries.push_back(entry);
  }
  // A summary's slot lock may be held across a build, so the slots are
  // read without the catalog lock.
  for (const auto& entry : entries) {
    if (!entry->prepared.ok()) continue;
    const auto summary = entry->prepared->GhSummary();
    if (summary == nullptr) continue;
    ++stats.gh_summaries;
    stats.gh_summary_bytes += summary->NominalBytes();
  }
  return stats;
}

}  // namespace server
}  // namespace sjsel
