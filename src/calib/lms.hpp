/// \file lms.hpp
/// \brief The paper's Algorithm 1: normalised, variable-step LMS descent of
///        the dual-rate cost with a finite-difference gradient.
///
/// "We have selected a normalized LMS algorithm to simplify the choice of µ,
/// with variable step size to speed up the convergence. The analytical
/// derivative is too complicated for efficient computation. We have chosen
/// to substitute it by a finite difference approximation."
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "calib/dual_rate.hpp"

namespace sdrbist::calib {

/// Algorithm parameters (paper defaults: µ0 = 1e-12, < 20 iterations
/// observed; nw = 60 i.e. 61 taps; N = 300 probes).
struct lms_options {
    double mu0 = 1e-12;            ///< initial step size, seconds
    std::size_t max_iterations = 40;
    double cost_tolerance = 0.0;   ///< stop when cost < tolerance (0 = off)
    double min_mu = 1e-16;         ///< stop when µ collapses below this
    double step_tolerance = 5e-14; ///< declare convergence once the accepted
                                   ///< step shrinks below this (0.05 ps)
    double initial_probe_s = 0.5e-12; ///< offset for the first finite
                                      ///< difference (needs two points)
    std::size_t max_halvings = 30; ///< step-5 retry bound per iteration
    sampling::pnbs_options recon{};///< reconstruction filter (61 taps)
};

/// One row of the convergence trace (drives paper Fig. 6).
struct lms_trace_point {
    std::size_t iteration = 0;
    double d_hat = 0.0;
    double cost = 0.0;
    double mu = 0.0;
};

/// Estimation outcome.
struct skew_estimate {
    double d_hat = 0.0;        ///< final estimate D̂
    double final_cost = 0.0;
    std::size_t iterations = 0;
    bool converged = false;    ///< stopped on µ collapse / cost tolerance
    std::vector<lms_trace_point> trace;
    std::size_t cost_evaluations = 0; ///< total cost-function calls
};

/// LMS-based time-skew estimator (paper Algorithm 1).
class lms_skew_estimator {
public:
    explicit lms_skew_estimator(lms_options options = {});

    /// Run the adaptive estimation from initial guess d0.
    /// The search is confined to ]0, m[ with m = max_search_delay(capture);
    /// d0 must lie inside.  Builds one dual_rate_cost and runs minimise()
    /// on it.
    [[nodiscard]] skew_estimate
    estimate(const dual_rate_capture& capture, double d0,
             std::span<const double> probe_times) const;

    /// Algorithm 1 over any cost of D̂, confined to ]0, m[ from initial
    /// guess d0 (which must lie inside); `cost` is called once per
    /// evaluation counted in skew_estimate::cost_evaluations.
    [[nodiscard]] skew_estimate
    minimise(const std::function<double(double)>& cost, double d0,
             double m) const;

    [[nodiscard]] const lms_options& options() const { return options_; }

private:
    lms_options options_;
};

} // namespace sdrbist::calib
