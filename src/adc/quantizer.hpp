/// \file quantizer.hpp
/// \brief N-bit uniform quantiser with gain/offset error and clipping.
#pragma once

#include <span>
#include <vector>

#include "core/simd/kernel_backend.hpp"

namespace sdrbist::adc {

/// Quantiser parameters.  The paper's ADCs are 10-bit converters.
struct quantizer_config {
    int bits = 10;
    double full_scale = 1.0;    ///< input range is [-full_scale, +full_scale]
    double gain_error = 0.0;    ///< relative gain error (0 = ideal)
    double offset_error = 0.0;  ///< input-referred offset, volts
};

/// Mid-rise uniform quantiser: q = LSB·(floor(x/LSB) + 1/2), clipped.
class quantizer {
public:
    explicit quantizer(quantizer_config config);

    /// Quantise a record with a front-end attenuator applied first: each
    /// scale·x[k] gets the gain and offset error, then the mid-rise
    /// characteristic.  The BP-TIADC capture path; the kernel is
    /// elementwise and bit-identical on every SIMD backend.
    [[nodiscard]] std::vector<double>
    process_scaled(std::span<const double> x, double scale) const;

    /// LSB size.
    [[nodiscard]] double lsb() const { return lsb_; }

    [[nodiscard]] const quantizer_config& config() const { return config_; }

private:
    quantizer_config config_;
    double lsb_;
    simd::quantize_params params_; ///< precomputed kernel parameters
    const simd::kernel_ops* ops_;  ///< backend captured at construction
};

} // namespace sdrbist::adc
