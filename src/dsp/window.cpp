#include "dsp/window.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "core/units.hpp"

namespace sdrbist::dsp {

std::vector<double> make_window(window_kind kind, std::size_t n,
                                double kaiser_beta) {
    SDRBIST_EXPECTS(n >= 1);
    std::vector<double> w(n, 1.0);
    if (n == 1)
        return w;
    const double denom = static_cast<double>(n - 1);
    switch (kind) {
    case window_kind::rectangular:
        break;
    case window_kind::hann:
        for (std::size_t i = 0; i < n; ++i)
            w[i] = 0.5 - 0.5 * std::cos(two_pi * static_cast<double>(i) / denom);
        break;
    case window_kind::hamming:
        for (std::size_t i = 0; i < n; ++i)
            w[i] = 0.54 - 0.46 * std::cos(two_pi * static_cast<double>(i) / denom);
        break;
    case window_kind::blackman:
        for (std::size_t i = 0; i < n; ++i) {
            const double x = two_pi * static_cast<double>(i) / denom;
            w[i] = 0.42 - 0.5 * std::cos(x) + 0.08 * std::cos(2.0 * x);
        }
        break;
    case window_kind::kaiser:
        return kaiser_window(n, kaiser_beta);
    }
    return w;
}

std::vector<double> kaiser_window(std::size_t n, double beta) {
    SDRBIST_EXPECTS(n >= 1);
    SDRBIST_EXPECTS(beta >= 0.0);
    std::vector<double> w(n, 1.0);
    if (n == 1)
        return w;
    const double half = static_cast<double>(n - 1) / 2.0;
    const double i0b = bessel_i0(beta);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = (static_cast<double>(i) - half) / half; // [-1, 1]
        w[i] = bessel_i0(beta * std::sqrt(std::max(0.0, 1.0 - u * u))) / i0b;
    }
    return w;
}

double kaiser_beta_for_attenuation(double a_db) {
    SDRBIST_EXPECTS(a_db >= 0.0);
    if (a_db > 50.0)
        return 0.1102 * (a_db - 8.7);
    if (a_db >= 21.0)
        return 0.5842 * std::pow(a_db - 21.0, 0.4) + 0.07886 * (a_db - 21.0);
    return 0.0;
}

double kaiser_window_at(double u, double beta) {
    if (std::abs(u) > 1.0)
        return 0.0;
    return bessel_i0(beta * std::sqrt(1.0 - u * u)) / bessel_i0(beta);
}

continued_kaiser::continued_kaiser(double beta)
    : beta_(beta), inv_i0b_(1.0 / bessel_i0(beta)) {
    SDRBIST_EXPECTS(beta >= 0.0);
}

double continued_kaiser::operator()(double u) const {
    u = std::abs(u);
    if (u > 1.0)
        return bessel_j0(beta_ * std::sqrt(u * u - 1.0)) * inv_i0b_;
    return bessel_i0(beta_ * std::sqrt(1.0 - u * u)) * inv_i0b_;
}

double window_sum(const std::vector<double>& w) {
    double s = 0.0;
    for (double v : w)
        s += v;
    return s;
}

double window_power(const std::vector<double>& w) {
    double s = 0.0;
    for (double v : w)
        s += v * v;
    return s;
}

std::string to_string(window_kind kind) {
    switch (kind) {
    case window_kind::rectangular:
        return "rectangular";
    case window_kind::hann:
        return "hann";
    case window_kind::hamming:
        return "hamming";
    case window_kind::blackman:
        return "blackman";
    case window_kind::kaiser:
        return "kaiser";
    }
    return "unknown";
}

} // namespace sdrbist::dsp
