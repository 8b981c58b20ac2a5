/// \file pbs.hpp
/// \brief First-order Periodic Bandpass Sampling (PBS) feasibility analysis
///        (Vaughan/Scott/White 1991; paper §II-A and Fig. 3).
///
/// A real bandpass signal with support [f_lo, f_hi] can be uniformly sampled
/// without aliasing iff, for some integer n (the Nyquist-zone count below
/// the band):
///     2·f_hi / n  <=  fs  <=  2·f_lo / (n - 1),     1 <= n <= floor(f_hi/B).
/// These windows shrink as f_hi/B grows — the inflexibility that motivates
/// the paper's move to nonuniform (second-order) sampling.
#pragma once

#include <vector>

#include "core/interval.hpp"
#include "sampling/band.hpp"

namespace sdrbist::sampling {

/// One alias-free sampling-rate window with its wedge index n.
struct pbs_window {
    int n = 0;        ///< Nyquist-zone index (1 = fs >= 2·f_hi)
    interval rates{}; ///< [fs_min, fs_max] of the window
};

/// All alias-free windows intersected with [fs_min, fs_max]
/// (fs_max may be +infinity for the open n = 1 region).
std::vector<pbs_window> alias_free_windows(const band_spec& band,
                                           double fs_min, double fs_max);

/// True when uniform sampling at fs causes no spectral overlap of the band.
bool is_alias_free(const band_spec& band, double fs);

/// The lowest alias-free rate (>= 2·B, equality iff f_hi/B is an integer).
double min_alias_free_rate(const band_spec& band);

} // namespace sdrbist::sampling
