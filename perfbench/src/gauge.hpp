#pragma once
// Host-speed gauge. The benchmark runs on shared hosts whose speed drifts
// by up to 2x for tens of seconds at a time; a fixed piece of reference
// work timed around every operation tells how fast the host was just then.
// perfbench/metrics.py divides each operation's cost by the gauge readings
// taken around it (see perfbench/README.md, "Host speed").
//
// The gauge is compiled as a library of its own that depends on nothing
// else in the repository, so no change to the sa library or its build can
// change the reference work.

#include <cstddef>

namespace perfbench {

/// One reading of the gauge.
struct GaugeReading {
    double wall_s = 0.0; ///< slowest thread's wall time
    double cpu_s = 0.0;  ///< mean of the threads' CPU times
};

/// Times the reference work on `threads` threads at once (the calling
/// thread alone when `threads` is 1). The work is the same on every call:
/// a binary-heap event queue (replace-top and sift-down over 4096 keys)
/// whose every step also updates a pseudo-random word of a 1 MiB table, on
/// buffers allocated before the clock starts. It takes a few milliseconds.
[[nodiscard]] GaugeReading gauge_host(std::size_t threads);

/// Mean of two readings.
[[nodiscard]] GaugeReading mean(const GaugeReading& a, const GaugeReading& b);

} // namespace perfbench
