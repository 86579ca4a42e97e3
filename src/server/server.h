#ifndef SJSEL_SERVER_SERVER_H_
#define SJSEL_SERVER_SERVER_H_

// `sjsel serve`: a long-running daemon that owns the histogram catalog
// and answers concurrent estimate / explain / stats / plan requests over
// a newline-delimited JSON protocol on a Unix-domain socket. Protocol
// and operations: docs/SERVER.md.
//
// Architecture: one accept thread + a fixed pool of worker threads
// behind a bounded admission queue of accepted connections. A worker
// owns one connection at a time and serves its requests in order;
// concurrency comes from serving many connections at once. When the
// queue is full, new connections are rejected immediately with an
// `overloaded` error instead of queueing without bound.
//
// Observability is armed per request, not per process
// (obs::ScopedMetricsArm / obs::ScopedTraceArm): every served request
// records `server.*` metrics and trace spans into the global registry,
// aggregated across the daemon lifetime, and a `stats` request (or the
// CLI's --metrics/--trace flags on `serve`) snapshots them.
//
// Shutdown is graceful: stop accepting, serve every queued connection's
// in-flight request, then join. Triggers: Stop()/RequestStop(), a
// `shutdown` request, or (in the CLI) SIGINT/SIGTERM.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/guarded_estimator.h"
#include "geom/dataset.h"
#include "obs/slowlog.h"
#include "server/catalog.h"
#include "server/protocol.h"
#include "util/result.h"

namespace sjsel {
namespace server {

struct ServerOptions {
  /// Filesystem path of the Unix-domain socket (sun_path limit applies,
  /// ~107 bytes). A stale socket file left by a crashed daemon is
  /// replaced; any other existing file is an error.
  std::string socket_path;
  /// Worker threads — the number of connections served concurrently.
  int workers = 4;
  /// Accepted connections waiting for a worker beyond those being
  /// served. Connection number workers + max_queue + 1 is rejected with
  /// an `overloaded` error.
  int max_queue = 64;
  /// A request line longer than this (without a newline) closes the
  /// connection with a `bad_request` error.
  size_t max_line_bytes = 1 << 20;
  /// Estimator configuration shared by the catalog, the estimate op and
  /// the planner op. Defaults match the CLI `estimate` command.
  GuardedEstimatorOptions estimator;
  /// Online accuracy monitor (docs/OBSERVABILITY.md "Online accuracy
  /// monitor"): the fraction of estimate / stream_estimate requests
  /// audited against a reference answer computed alongside the served
  /// one. 0 disables auditing entirely; 1 audits every request. The
  /// monitor publishes `accuracy.audits`, the `accuracy.rel_error`
  /// histogram (relative error in parts-per-million) and
  /// `accuracy.drift_alarm` when the error exceeds audit_alarm.
  double audit_rate = 0.0;
  /// Relative-error threshold above which an audited request raises
  /// `accuracy.drift_alarm` (counter + warn log + trace instant).
  double audit_alarm = 0.5;
  /// When both sides of the audited pair have at most this many validated
  /// rectangles the reference is the exact plane-sweep join count; otherwise (or when 0)
  /// the sampling estimator's answer is used as the reference.
  uint64_t audit_exact_cap = 0;
  /// Entries the slow-request ring keeps (the `slowlog` op reports the
  /// top K requests by latency since startup).
  size_t slowlog_capacity = 32;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  /// Stops and joins if still running (as if Stop() were called).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the accept + worker threads.
  Status Start();

  /// Asks the server to stop: no new connections are accepted; queued
  /// and in-flight requests finish. Safe from any thread, including
  /// workers (the `shutdown` op calls this). Returns without waiting.
  void RequestStop();

  /// True once RequestStop()/Stop() has been called (or a `shutdown`
  /// request arrived).
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Graceful shutdown: RequestStop(), drain, join all threads, remove
  /// the socket file. Idempotent. Must not be called from a worker.
  void Stop();

  /// Blocks until a stop is requested, polling `poll` between checks.
  void WaitForStopRequest();

  /// Handles one request line and returns the response line (without the
  /// trailing newline). This is the whole protocol minus the socket —
  /// exposed so tests can drive it in-process; the socket workers call
  /// exactly this.
  std::string HandleLine(const std::string& line);

  const ServerOptions& options() const { return options_; }
  ServerCatalog& catalog() { return catalog_; }

  /// Requests answered since Start (any op, ok or error response sent).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Whole seconds since construction (Start() re-bases it), reported by
  /// the `stats` and `health` ops.
  uint64_t uptime_seconds() const;

  /// The slow-request ring behind the `slowlog` op.
  const obs::SlowRequestLog& slowlog() const { return slowlog_; }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  /// Dispatches a parsed request (its request_id already filled in) and
  /// appends a short annotation for the slowlog — "rung=..." on
  /// estimates, "error:<code>" on failures — to *note.
  std::string Dispatch(const Request& req, std::string* note);
  /// "srv-<pid>-<n>" for requests that arrive without a request_id.
  std::string GenerateRequestId();
  /// True for every 1/audit_rate-th call (deterministic, not random);
  /// always false when audit_rate == 0.
  bool ShouldAudit();
  /// Runs the reference estimator for a served estimate on the rects of
  /// the inputs' PreparePair and publishes the `accuracy.*` metrics (and
  /// the drift alarm when warranted).
  void AuditEstimate(const Request& req, const PreparedInput& a,
                     const PreparedInput& b, double served_pairs);
  void PublishAuditResult(const Request& req, const char* reference,
                          double served_pairs, double reference_pairs);

  ServerOptions options_;
  ServerCatalog catalog_;
  obs::SlowRequestLog slowlog_;

  int listen_fd_ = -1;
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> next_request_seq_{1};
  std::atomic<uint64_t> audit_seq_{0};
  /// Derived from audit_rate at construction: audit every Nth candidate.
  uint64_t audit_every_ = 0;
  std::chrono::steady_clock::time_point start_time_;
  bool started_ = false;
  bool joined_ = false;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_fds_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace sjsel

#endif  // SJSEL_SERVER_SERVER_H_
