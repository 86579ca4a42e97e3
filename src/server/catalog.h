#ifndef SJSEL_SERVER_CATALOG_H_
#define SJSEL_SERVER_CATALOG_H_

// The daemon-side catalog: datasets loaded and validated once per path
// and pair estimates computed once per (a, b), both kept for the
// server's lifetime so an optimizer calling `estimate` or `plan`
// millions of times pays the load/validate/build cost once. Thread-safe;
// see docs/SERVER.md "The catalog".
//
// Each entry's prepared input also holds GH summaries on up to
// kGhSummaryGrids grids (see PreparedInput::GhHistogramOn), which the
// entry's pairs and stream estimates on those grids share.
//
// Entries are keyed by *file path*, and the pair cache keeps guarded-chain
// results with their provenance.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/guarded_estimator.h"
#include "geom/dataset.h"
#include "stream/ingest.h"
#include "util/result.h"

namespace sjsel {
namespace server {

class ServerCatalog {
 public:
  explicit ServerCatalog(GuardedEstimatorOptions options = {})
      : estimator_(options) {}

  /// One loaded path: the dataset, and its input to the guarded chain,
  /// prepared once under the catalog's validation policy (an error when
  /// kReject finds a defect; the dataset itself still serves `stats`).
  struct Entry {
    Entry() = default;
    Entry(const Entry&) = delete;  // `prepared` points into `dataset`
    Entry& operator=(const Entry&) = delete;

    Dataset dataset;
    Result<PreparedInput> prepared = Status::Internal("not prepared");
  };

  /// The entry for `path`, loading and preparing it on first use.
  /// Counts `server.catalog.dataset_hits` / `.dataset_misses`.
  Result<std::shared_ptr<const Entry>> GetEntry(const std::string& path);

  /// The dataset of GetEntry(path), sharing the entry's ownership.
  Result<std::shared_ptr<const Dataset>> GetDataset(const std::string& path);

  /// The guarded-chain estimate for the dataset pair, cached by the
  /// ordered path pair (a, b). The estimator runs with the options this
  /// catalog was built with (defaults match the CLI `estimate` command,
  /// so cached answers are bit-for-bit the standalone ones). Counts
  /// `server.catalog.estimate_hits` / `.estimate_misses`.
  Result<EstimateResult> Estimate(const std::string& a, const std::string& b);

  /// The open stream ingest at directory `dir`, recovering it on first
  /// use and keeping it open (with its WAL writer) for the server's
  /// lifetime. Counts `server.catalog.stream_opens`.
  Result<std::shared_ptr<stream::StreamIngest>> GetStream(
      const std::string& dir);

  /// Creates + opens a stream directory (op `ingest` with `extent`).
  /// Fails if it is already initialized.
  Result<std::shared_ptr<stream::StreamIngest>> InitStream(
      const std::string& dir, const stream::StreamOptions& options);

  const GuardedEstimator& estimator() const { return estimator_; }

  /// Cache occupancy for the `health` op (docs/SERVER.md). Counts are a
  /// consistent point-in-time snapshot under the catalog lock;
  /// `poisoned_streams` is how many open streams have a failed WAL (their
  /// mutating ops return FailedPrecondition until reopened).
  /// `gh_summaries` is how many GH summaries the entries' prepared inputs
  /// hold, one per grid, and `gh_summary_bytes` the sum of their
  /// StoredBytes(), sparse or dense, read from each entry after the
  /// catalog lock is released.
  struct CacheStats {
    size_t datasets = 0;
    size_t estimates = 0;
    size_t streams = 0;
    size_t poisoned_streams = 0;
    size_t gh_summaries = 0;
    uint64_t gh_summary_bytes = 0;
  };
  CacheStats Stats() const;

 private:
  GuardedEstimator estimator_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const Entry>> entries_;
  std::map<std::pair<std::string, std::string>, EstimateResult> estimates_;
  std::map<std::string, std::shared_ptr<stream::StreamIngest>> streams_;
};

}  // namespace server
}  // namespace sjsel

#endif  // SJSEL_SERVER_CATALOG_H_
