/// \file stats.hpp
/// \brief Error metrics and order statistics on sample vectors.  The
///        moments tests grade results with live in tests/support/.
#pragma once

#include <span>
#include <vector>

namespace sdrbist {

/// Root-mean-square value.  Precondition: !x.empty().
double rms(std::span<const double> x);

/// Relative RMS error  ||est - ref||_2 / ||ref||_2.
/// Precondition: equal non-zero sizes and ||ref|| > 0.
double relative_rms_error(std::span<const double> ref,
                          std::span<const double> est);

/// p-th percentile (0 <= p <= 100) by linear interpolation on sorted data.
/// Precondition: !x.empty().
double percentile(std::span<const double> x, double p);

} // namespace sdrbist
