#ifndef SJSEL_BENCH_E2E_HARNESS_H_
#define SJSEL_BENCH_E2E_HARNESS_H_

// Plumbing shared by the workloads of the end-to-end serving benchmark:
// seeded dataset pools in the work directory, the `sjsel serve` child
// process, the closed-loop load generator, output checks and summary
// statistics. Everything here talks to the server only through its
// socket and the files it is given.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "geom/dataset.h"
#include "util/result.h"

namespace sjsel {
namespace e2e {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// Linearly interpolated quantile of `values`, q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// An independent sub-seed of the run seed for one use (`stream`) and one
/// index within it (splitmix64 finalizer over the three).
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index = 0);

/// Output checks of one run. Thread-safe; keeps the first few failure
/// messages for the report.
class Checks {
 public:
  /// Records one check; returns `ok`.
  bool Expect(bool ok, const std::string& what);
  uint64_t failed() const;
  /// Prints "checks: N run, M failed" and the kept failure messages.
  void Print(std::FILE* out) const;

 private:
  mutable std::mutex mu_;
  uint64_t checked_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// --- dataset pools -------------------------------------------------------

/// One generated dataset file of a pool. `path` is relative to the work
/// directory, which is the current directory of the bench and the server.
struct PoolFile {
  std::string path;
  std::string layer;
  int copy = 0;
};

/// The 8 paper layers (gen::MakePaperDataset) x `copies` at `scale`, in
/// layer-major order. Files live in pool/ keyed by seed, scale, layer and
/// copy, and are reused when present. Pools of other seeds are deleted
/// first, so the directory never holds more than one seed's data.
Result<std::vector<PoolFile>> MakePool(uint64_t seed, double scale,
                                       int copies);

/// Exact join counts (PlaneSweepJoinCount), cached per seed in
/// exact-<seed>.tsv in the work directory so repeated runs of one seed
/// count each pair once.
class ExactCounts {
 public:
  explicit ExactCounts(uint64_t seed);
  /// The count for the files at `a_path` and `b_path`, whose contents are
  /// `a` and `b`. A failed append to the cache file only costs a recount
  /// in a later run.
  uint64_t Get(const std::string& a_path, const std::string& b_path,
               const Dataset& a, const Dataset& b);

 private:
  std::string path_;
  std::map<std::pair<std::string, std::string>, uint64_t> cache_;
};

// --- the server under test -----------------------------------------------

/// A `sjsel serve <socket> --workers=4` child process with stdout and
/// stderr appended to a log file. The kernel kills it if the bench dies.
class ServeProcess {
 public:
  static Result<std::unique_ptr<ServeProcess>> Start(
      const std::string& sjsel, const std::string& socket,
      const std::string& log_path);
  /// Kills the child if it is still running and reaps it.
  ~ServeProcess();

  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// One request on a fresh connection, closed afterwards: a connection
  /// held open would pin one of the server's workers.
  Result<std::string> Call(const std::string& line) const;

  const std::string& socket() const { return socket_; }

  /// Peak resident set (VmHWM) in KiB.
  Result<uint64_t> PeakRssKb() const;

  /// Stops the process (SIGSTOP) and waits until it is stopped, so that
  /// nothing it does in the background runs; Resume() continues it.
  Status Pause();
  Status Resume();

  /// Sends `shutdown` and waits for the process to exit.
  Status Shutdown();

 private:
  ServeProcess(pid_t pid, std::string socket)
      : pid_(pid), socket_(std::move(socket)) {}
  Result<std::string> ProcField(const char* file, const char* key) const;

  pid_t pid_ = -1;
  std::string socket_;
};

// --- closed-loop load ----------------------------------------------------

/// Clients that share one request generator and one response check. Each
/// client owns a connection and sends its next request only after the
/// previous response arrived.
struct ClientGroup {
  int clients = 1;
  /// The next request line of client `client`; empty stops that client.
  std::function<std::string(int client)> next;
  /// Checks the response to client `client`'s last request (the workload
  /// records the outcome in its Checks).
  std::function<void(int client, const std::string& response)> check;
};

struct GroupStats {
  /// Per-request latency, Client::Call to response, of every answered
  /// request.
  std::vector<double> latency_ms;
  /// When each of those responses arrived, in seconds since the start.
  std::vector<double> done_s;
  uint64_t attempted = 0;
  /// Requests that got no response; the client stops at the first one.
  uint64_t transport_errors = 0;
  /// Wall time from the start of the loop until the group's last client
  /// finished.
  double seconds = 0.0;
  /// Some client stopped because its generator ran out.
  bool exhausted = false;

  double rps() const {
    return seconds > 0.0 ? static_cast<double>(latency_ms.size()) / seconds
                         : 0.0;
  }
};

struct SlicedLoad {
  /// Pooled over the slices; `seconds` is the sum of their windows and
  /// `done_s` counts from the first slice's start, without the pauses.
  GroupStats stats;
  /// MeasureSlowdown() of each reference round: one before the first
  /// slice and one after each slice.
  std::vector<double> slowdowns;
};

/// Runs the group's clients concurrently for `seconds` of load in all, in
/// slices of `slice_seconds`. Each slice connects every client, releases
/// them together and ends when its time is up (requests in flight then
/// complete). Before the first slice and after each one the server is
/// stopped while a reference round is timed (reference.h). Stops early
/// when a client's generator is exhausted or a transport error occurs.
Result<SlicedLoad> RunSlicedLoop(ServeProcess& server,
                                 const ClientGroup& group, double seconds,
                                 double slice_seconds);

/// Sends `lines` in order on one connection and returns the responses; a
/// transport error leaves that response and the ones after it empty.
std::vector<std::string> SendAll(const std::string& socket,
                                 const std::vector<std::string>& lines);

// --- protocol helpers ----------------------------------------------------

/// True when `response` says "ok":true and names every field in `fields`.
bool ResponseOk(const std::string& response,
                const std::vector<const char*>& fields);

/// The first numeric member `key` of a response line.
std::optional<double> NumberField(const std::string& response,
                                  const std::string& key);

std::string EstimateLine(const std::string& a, const std::string& b);
std::string StatsLine(const std::string& path);
std::string PlanLine(const std::vector<std::string>& paths);

}  // namespace e2e
}  // namespace sjsel

#endif  // SJSEL_BENCH_E2E_HARNESS_H_
