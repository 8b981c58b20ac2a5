#include "adc/quantizer.hpp"

#include "core/contracts.hpp"

namespace sdrbist::adc {

quantizer::quantizer(quantizer_config config)
    : config_(config), ops_(&simd::kernel_backend::select()) {
    SDRBIST_EXPECTS(config_.bits >= 1 && config_.bits <= 24);
    SDRBIST_EXPECTS(config_.full_scale > 0.0);
    lsb_ = 2.0 * config_.full_scale /
           static_cast<double>(1 << config_.bits);
    // Kernel parameters of the mid-rise characteristic: channel errors act
    // on the analog sample before conversion, the range is clipped with the
    // top code kept reachable.
    params_.gain = 1.0 + config_.gain_error;
    params_.offset = config_.offset_error;
    params_.clip_lo = -config_.full_scale;
    params_.clip_hi = config_.full_scale - lsb_ * 1e-9;
    params_.lsb = lsb_;
}

std::vector<double> quantizer::process_scaled(std::span<const double> x,
                                              double scale) const {
    std::vector<double> out(x.size());
    ops_->quantize_midrise(x.data(), out.data(), x.size(), scale, params_);
    return out;
}

} // namespace sdrbist::adc
