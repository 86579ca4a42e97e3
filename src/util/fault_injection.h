#ifndef SJSEL_UTIL_FAULT_INJECTION_H_
#define SJSEL_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace sjsel {

/// Well-known fault sites. A site is a stable string key naming one seam
/// where the library consults the injector; tests and the CLI
/// (`--inject-faults=<spec>`) arm rules against these names. Sites are
/// documented where they fire:
///   io.read          ReadFile() fails with IoError before touching disk.
///   io.corrupt       ReadFile() succeeds but one byte of the returned
///                    buffer is flipped (drives every CRC/magic check).
///   pool.task        ParallelFor throws FaultInjectedError from one block
///                    (worker-failure path; rethrown deterministically).
///   estimator.gh / estimator.ph / estimator.sampling / estimator.parametric
///                    The corresponding GuardedEstimator rung fails with
///                    Corruption before running, exercising the fallback
///                    chain.
///   wal.torn_write   WalWriter::Append persists only a strict prefix of
///                    the framed record and returns IoError — simulates a
///                    crash mid-write; recovery must truncate the torn
///                    tail. The writer is poisoned afterwards.
///   wal.short_write  One write(2) inside Append is artificially capped;
///                    the retry loop must complete the record (success
///                    path — proves partial writes are handled).
///   wal.corrupt      Append flips one payload byte on disk and returns
///                    IoError (so the record is never acknowledged);
///                    replay must reject it via the record CRC.
inline constexpr char kFaultSiteIoRead[] = "io.read";
inline constexpr char kFaultSiteIoCorrupt[] = "io.corrupt";
inline constexpr char kFaultSitePoolTask[] = "pool.task";
inline constexpr char kFaultSiteEstimatorGh[] = "estimator.gh";
inline constexpr char kFaultSiteEstimatorPh[] = "estimator.ph";
inline constexpr char kFaultSiteEstimatorSampling[] = "estimator.sampling";
inline constexpr char kFaultSiteEstimatorParametric[] = "estimator.parametric";
inline constexpr char kFaultSiteWalTornWrite[] = "wal.torn_write";
inline constexpr char kFaultSiteWalShortWrite[] = "wal.short_write";
inline constexpr char kFaultSiteWalCorrupt[] = "wal.corrupt";

/// Thrown at the pool.task site (thread-pool task boundaries cannot return
/// Status). ParallelFor's per-block exception handling rethrows it on the
/// calling thread; callers that must degrade gracefully (GuardedEstimator,
/// the CLI dispatcher) catch it there.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// A deterministic, seedable fault injector. Rules are keyed by site name
/// and trigger on a schedule that is a pure function of (rule, per-site
/// call counter) — never of wall clock, thread ids or global RNG state —
/// so any failing run replays exactly.
///
/// Cost when disarmed: sites guard every consultation with
/// `FaultInjector::GloballyArmed()`, a single relaxed atomic load, so the
/// disabled path adds one predictable branch and no locking.
///
/// Thread-safety: Arm/Disarm/ShouldFail may be called from any thread;
/// per-site state is mutex-protected (the lock is only ever taken while a
/// spec is armed, i.e. in tests and fault drills).
class FaultInjector {
 public:
  /// When a rule fires at a site.
  enum class Trigger {
    kNth,     ///< exactly the n-th consultation of the site (1-based)
    kEvery,   ///< every n-th consultation
    kProb,    ///< each consultation independently with probability p,
              ///< from a seeded per-site hash (deterministic)
    kAlways,  ///< every consultation
  };

  struct Rule {
    std::string site;
    Trigger trigger = Trigger::kAlways;
    uint64_t n = 1;            ///< for kNth / kEvery
    double probability = 0.0;  ///< for kProb
    uint64_t seed = 1;         ///< for kProb
  };

  /// The process-wide injector every fault site consults.
  static FaultInjector& Global();

  /// True iff the global injector currently has rules armed. This is the
  /// fast gate sites check first.
  static bool GloballyArmed() {
    return globally_armed_.load(std::memory_order_relaxed);
  }

  /// Parses a `--inject-faults` spec: comma-separated `site=trigger`
  /// clauses where trigger is one of
  ///   always | nth:<N> | every:<N> | prob:<P>[/<SEED>]
  /// e.g. "estimator.gh=always,io.read=nth:2,pool.task=prob:0.5/7".
  static Result<std::vector<Rule>> ParseSpec(const std::string& spec);

  /// Replaces all rules (resetting call counters) and arms the injector.
  /// Rejects empty rule lists, empty site names and invalid parameters.
  Status Arm(std::vector<Rule> rules);

  /// Convenience: ParseSpec + Arm.
  Status ArmSpec(const std::string& spec);

  /// Removes all rules; every site becomes a no-op again.
  void Disarm();

  /// Consults the site: increments its call counter and reports whether an
  /// armed rule fires for this call. Always false when disarmed.
  bool ShouldFail(const std::string& site);

  /// ShouldFail + throw FaultInjectedError — for seams that propagate
  /// failure by exception (thread-pool task boundaries).
  void ThrowIfTriggered(const std::string& site);

  /// Times the site was consulted / actually failed since the last Arm.
  uint64_t CallCount(const std::string& site) const;
  uint64_t TriggerCount(const std::string& site) const;

 private:
  struct SiteState {
    uint64_t calls = 0;
    uint64_t triggers = 0;
  };

  static std::atomic<bool> globally_armed_;

  mutable std::mutex mu_;
  std::vector<Rule> rules_;
  std::map<std::string, SiteState> sites_;
};

/// RAII arming for tests and the CLI: arms the global injector with `spec`
/// on construction (status() reports parse errors; the injector stays
/// disarmed on failure) and disarms it on destruction.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const std::string& spec);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  const Status& status() const { return status_; }

 private:
  Status status_;
};

}  // namespace sjsel

#endif  // SJSEL_UTIL_FAULT_INJECTION_H_
