#include "calib/lms.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace sdrbist::calib {

lms_skew_estimator::lms_skew_estimator(lms_options options)
    : options_(options) {
    SDRBIST_EXPECTS(options_.mu0 > 0.0);
    SDRBIST_EXPECTS(options_.max_iterations >= 2);
    SDRBIST_EXPECTS(options_.initial_probe_s > 0.0);
}

skew_estimate
lms_skew_estimator::estimate(const dual_rate_capture& capture, double d0,
                             std::span<const double> probe_times) const {
    const double m = max_search_delay(capture);
    SDRBIST_EXPECTS(d0 > 0.0 && d0 < m);
    const dual_rate_cost cost(capture, probe_times, options_.recon);
    return minimise([&cost](double d) { return cost(d); }, d0, m);
}

skew_estimate
lms_skew_estimator::minimise(const std::function<double(double)>& cost_of,
                             double d0, double m) const {
    SDRBIST_EXPECTS(d0 > 0.0 && d0 < m);

    // Keep hypotheses strictly inside the open interval and clear of the
    // kernel's instability at the end points.
    const double d_lo = 0.005 * m;
    const double d_hi = 0.995 * m;
    auto clamp_d = [&](double d) { return std::clamp(d, d_lo, d_hi); };

    skew_estimate result;
    auto cost = [&](double d) {
        ++result.cost_evaluations;
        return cost_of(d);
    };

    // Two starting points for the first finite difference (paper eq. (10)
    // needs a previous iterate).
    double d_prev = clamp_d(d0);
    double eps_prev = cost(d_prev);
    double d_cur = clamp_d(d0 + options_.initial_probe_s);
    double eps_cur = cost(d_cur);
    if (eps_cur > eps_prev) { // keep the better point as "current"
        std::swap(d_prev, d_cur);
        std::swap(eps_prev, eps_cur);
    }
    result.trace.push_back({0, d_cur, eps_cur, options_.mu0});

    double mu = options_.mu0;
    bool converged = false;

    std::size_t it = 1;
    for (; it <= options_.max_iterations && !converged; ++it) {
        // Step 2: finite-difference gradient over successive iterates
        // (paper eq. (10)).
        double grad = d_cur != d_prev
                          ? (eps_cur - eps_prev) / (d_cur - d_prev)
                          : 0.0;

        // Steps 3-5: normalised (sign) update, halving µ while the cost
        // increases.  Eq. (10)'s secant slope points the wrong way once the
        // iterates straddle the minimum; after a few failed halvings we
        // refresh the gradient with a central difference around the current
        // iterate, which restores the correct descent direction.
        bool improved = false;
        double d_next = d_cur, eps_next = eps_cur;
        std::size_t halvings = 0;
        while (halvings <= options_.max_halvings) {
            const double direction = grad >= 0.0 ? 1.0 : -1.0;
            d_next = clamp_d(d_cur - mu * direction);
            eps_next = cost(d_next);
            if (eps_next <= eps_cur && d_next != d_cur) {
                improved = true;
                break;
            }
            mu /= 2.0; // step 5.1
            ++halvings;
            if (mu < options_.min_mu)
                break;
            if (halvings == 3) {
                // Gradient refresh: central difference with a span tied to
                // the current step size.
                const double delta = std::max(mu, 0.25 * options_.mu0);
                const double lo = clamp_d(d_cur - delta);
                const double hi = clamp_d(d_cur + delta);
                if (hi > lo)
                    grad = (cost(hi) - cost(lo)) / (hi - lo);
            }
        }

        if (!improved) {
            // µ collapsed in every direction: the iterate sits at the
            // minimum to within the cost noise floor.
            converged = true;
            result.trace.push_back({it, d_cur, eps_cur, mu});
            break;
        }

        // Step 6: expand the step after a successful move.
        mu *= 2.0;

        const double step_taken = std::abs(d_next - d_cur);
        d_prev = d_cur;
        eps_prev = eps_cur;
        d_cur = d_next;
        eps_cur = eps_next;
        result.trace.push_back({it, d_cur, eps_cur, mu});

        if (options_.cost_tolerance > 0.0 &&
            eps_cur < options_.cost_tolerance)
            converged = true;
        if (step_taken < options_.step_tolerance)
            converged = true; // progress below the resolution of interest
    }

    result.d_hat = d_cur;
    result.final_cost = eps_cur;
    result.iterations = std::min(it, options_.max_iterations);
    result.converged = converged;
    return result;
}

} // namespace sdrbist::calib
