#include "canary.hpp"

#include <cmath>
#include <cstddef>

#include "spans.hpp"

namespace bench {

namespace {
constexpr std::size_t samples = std::size_t{1} << 18; ///< 2 MB per buffer
constexpr std::size_t tap_count = 48;
constexpr int passes = 2;
} // namespace

host_canary::host_canary() : x_(samples), y_(samples), taps_(tap_count) {
    for (std::size_t i = 0; i < samples; ++i)
        x_[i] = std::sin(1e-3 * static_cast<double>(i));
    for (std::size_t k = 0; k < tap_count; ++k)
        taps_[k] = 1.0 / static_cast<double>(k + 1);
    (void)run_ms(); // first touch of y_ is set-up, not speed
}

double host_canary::run_ms() {
    const auto t0 = steady::now();
    for (int pass = 0; pass < passes; ++pass)
        for (std::size_t i = tap_count; i < samples; ++i) {
            double acc = 0.0;
            for (std::size_t k = 0; k < tap_count; ++k)
                acc += taps_[k] * x_[i - k];
            y_[i] = acc + 1e-9 * y_[i];
        }
    sink_ += y_[samples / 2];
    return 1e3 * seconds_since(t0);
}

} // namespace bench
