#ifndef SJSEL_BENCH_E2E_REFERENCE_H_
#define SJSEL_BENCH_E2E_REFERENCE_H_

// Host speed, measured with a fixed reference round of the bench's own.
// On a shared host the speed a guest gets drifts by 10-40% over minutes,
// on every core at once, and the drift moves every timing of a run. The
// bench times a reference round before each set-up and between load
// slices, and reports its timings divided by the slowdown: as they would
// read on the reference host (README.md, "Host speed"). The round calls
// no code of the program under test and runs while the server is
// stopped, so a change to the program cannot move it.

namespace sjsel {
namespace e2e {

/// Times one reference round and returns the host's slowdown against the
/// reference host: 1 there, 1.2 on a host 20% slower. A round is a
/// dependent floating-point chain on this thread (compute speed) and one
/// byte sent back and forth to a second thread over a socket pair (system
/// calls and cross-core wake-ups, the path of every request to the
/// server); the slowdown is the geometric mean of the two parts'. About
/// 25 ms.
double MeasureSlowdown();

}  // namespace e2e
}  // namespace sjsel

#endif  // SJSEL_BENCH_E2E_REFERENCE_H_
