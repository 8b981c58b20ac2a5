/// \file srrc.hpp
/// \brief Square-root raised-cosine (SRRC) pulse shaping.
///
/// The paper's test stimulus is "10 MHz QPSK symbols shaped by a square root
/// raised cosine filter with a roll-off factor of 0.5".
#pragma once

#include <cstddef>
#include <vector>

namespace sdrbist::waveform {

/// SRRC impulse response sampled at `oversample` samples per symbol over
/// `span_symbols` symbols each side of the peak.
///
/// \param rolloff       excess-bandwidth factor alpha in (0, 1]
/// \param oversample    samples per symbol (>= 2)
/// \param span_symbols  one-sided filter span in symbols (>= 2)
/// \return taps of length 2·span·oversample + 1, normalised to unit energy
///         (so that SRRC -> matched SRRC gives a unit-gain raised cosine)
std::vector<double> srrc_taps(double rolloff, std::size_t oversample,
                              std::size_t span_symbols);

/// Closed-form SRRC waveform value at t (in symbol periods, Ts = 1),
/// handling the removable singularities at t = 0 and |t| = 1/(4·alpha).
/// Fills the EVM matched filter's polyphase table
/// (`waveform::srrc_matched_filter`), and is the yardstick that table is
/// bounded against.
double srrc_value(double t_symbols, double rolloff);

} // namespace sdrbist::waveform
