/// \file canary.hpp
/// \brief Host-speed canary: a fixed kernel owned by the benchmark, timed
///        between requests to tell how fast the shared host runs right now.
///
/// On a shared host the last-level cache and memory bandwidth belong to
/// every tenant.  When neighbours thrash them, a single-thread BIST run
/// slows by up to ~1.8× for minutes at a time, and so does its CPU time;
/// register-only code does not slow at all.  The canary is a plain FIR over
/// a 4 MB working set, so it slows with the BIST request beside it, and it
/// lives here rather than in the library, so no change to `src/` moves it.
#pragma once

#include <vector>

namespace bench {

class host_canary {
public:
    /// This canary's median time on the 4-vCPU host the benchmark's bounds
    /// were measured on: the unit host-adjusted times are expressed in.
    static constexpr double nominal_ms = 16.0;

    host_canary();

    /// Run the kernel once and return its wall time in ms.
    double run_ms();

private:
    std::vector<double> x_, y_, taps_;
    double sink_ = 0.0; ///< keeps the output observable
};

} // namespace bench
