#include "waveform/prbs.hpp"

#include "core/contracts.hpp"

namespace sdrbist::waveform {

prbs_generator::prbs_generator(prbs_order order, std::uint32_t seed) {
    switch (order) {
    case prbs_order::prbs7:
        nbits_ = 7;
        tap_ = 6;
        break;
    case prbs_order::prbs9:
        nbits_ = 9;
        tap_ = 5;
        break;
    case prbs_order::prbs15:
        nbits_ = 15;
        tap_ = 14;
        break;
    case prbs_order::prbs23:
        nbits_ = 23;
        tap_ = 18;
        break;
    case prbs_order::prbs31:
        nbits_ = 31;
        tap_ = 28;
        break;
    default:
        nbits_ = 7;
        tap_ = 6;
        break;
    }
    const std::uint32_t mask =
        nbits_ == 31 ? 0x7FFFFFFFu : ((1u << nbits_) - 1u);
    state_ = seed & mask;
    SDRBIST_EXPECTS(state_ != 0); // all-zero state is a fixed point
}

int prbs_generator::next_bit() {
    const int out = static_cast<int>(state_ & 1u);
    const std::uint32_t fb =
        ((state_ >> (nbits_ - 1)) ^ (state_ >> (tap_ - 1))) & 1u;
    state_ = static_cast<std::uint32_t>((state_ << 1) | fb);
    const std::uint32_t mask =
        nbits_ == 31 ? 0x7FFFFFFFu : ((1u << nbits_) - 1u);
    state_ &= mask;
    return out;
}

std::vector<int> prbs_generator::bits(std::size_t n) {
    std::vector<int> out(n);
    for (auto& b : out)
        b = next_bit();
    return out;
}

} // namespace sdrbist::waveform
