#include "reference.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <thread>

namespace sjsel {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSpinSteps = 4'000'000;
constexpr int kRoundTrips = 1000;
// Each part's time on the reference host: the medians of 180 rounds
// there (README.md).
constexpr double kNominalSpinSeconds = 10.9e-3;
constexpr double kNominalRoundTripsSeconds = kRoundTrips * 13.0e-6;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double TimeSpin() {
  const Clock::time_point start = Clock::now();
  volatile double seed = 1.0;
  double x = seed;
  for (int i = 0; i < kSpinSteps; ++i) x = x * 1.0000001 + 1e-9;
  seed = x;  // keeps the chain from being optimized away
  return Seconds(Clock::now() - start);
}

// Wall time of kRoundTrips one-byte round trips to an echo thread; NaN if
// the socket pair fails.
double TimeRoundTrips() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return NAN;
  std::thread echo([fd = fds[1]] {
    char c = 0;
    while (::read(fd, &c, 1) == 1 && ::write(fd, &c, 1) == 1) {
    }
  });
  char c = 'x';
  // The first trip wakes the echo thread; it is not timed.
  bool ok = ::write(fds[0], &c, 1) == 1 && ::read(fds[0], &c, 1) == 1;
  const Clock::time_point start = Clock::now();
  for (int i = 0; ok && i < kRoundTrips; ++i) {
    ok = ::write(fds[0], &c, 1) == 1 && ::read(fds[0], &c, 1) == 1;
  }
  const double seconds = Seconds(Clock::now() - start);
  ::shutdown(fds[0], SHUT_RDWR);  // ends the echo loop
  echo.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return ok ? seconds : NAN;
}

}  // namespace

double MeasureSlowdown() {
  const double spin = TimeSpin() / kNominalSpinSeconds;
  const double trips = TimeRoundTrips() / kNominalRoundTripsSeconds;
  return std::sqrt(spin * trips);
}

}  // namespace e2e
}  // namespace sjsel
