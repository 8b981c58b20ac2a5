/// \file tiadc.hpp
/// \brief The nonuniform BP-TIADC of paper Fig. 4: two slow ADC channels
///        (the idle Rx I/Q converters) sampling the PA output, the second
///        channel delayed by the DCDE.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "adc/clock.hpp"
#include "adc/dcde.hpp"
#include "adc/quantizer.hpp"
#include "rf/passband.hpp"

namespace sdrbist::adc {

/// One nonuniform capture: the two uniform sample sets of PNBS.
///
/// even[n] = x(t_start + n·T + jitter),  odd[n] = x(t_start + n·T + D + jitter)
struct nonuniform_capture {
    std::vector<double> even; ///< channel 0 record, f(nT)
    std::vector<double> odd;  ///< channel 1 record, f(nT + D)
    double period_s = 0.0;    ///< T = 1/B
    double t_start = 0.0;     ///< time of even[0] (nominal)
    double true_delay_s = 0.0;///< actual DCDE delay D (ground truth;
                              ///< hidden from estimators in the BIST flow)

    /// Channel sample rate B = 1/T.
    [[nodiscard]] double rate() const { return 1.0 / period_s; }
};

/// BP-TIADC configuration.
struct tiadc_config {
    double channel_rate_hz = 90e6;  ///< per-channel rate B (paper: 90 MHz)
    quantizer_config quant{};       ///< per-channel converter (paper: 10-bit)
    double jitter_rms_s = 3e-12;    ///< S/H clock jitter (paper: 3 ps rms)
    dcde_config delay_element{};    ///< DCDE hardware model
    // Channel mismatches (paper assumes none; kept for robustness studies
    // and the gain/offset background-calibration substrate).
    double ch1_gain_error = 0.0;
    double ch1_offset_error = 0.0;
    std::uint64_t seed = 0xADC0; ///< jitter seed base
};

/// Result of a ranging step (see bp_tiadc::range).
struct ranging_result {
    double input_scale = 1.0; ///< attenuator setting chosen
    double observed_peak = 0.0; ///< largest |sample| before the attenuator
    bool clipped = false; ///< peak exceeded full scale before ranging
};

/// Two-channel nonuniform sampler.
///
/// A capture is two steps: `sample` evaluates the analog input at the
/// jittered clock edges of both channels, and `quantize` passes those
/// records through the front-end attenuator and the converters.  Ranging
/// sits between them: `range` takes the peak of the records the BIST is
/// about to quantise, so the attenuator is set from exactly the instants
/// the converters see (no separate scan of the input).
class bp_tiadc {
public:
    explicit bp_tiadc(tiadc_config config);

    /// Program the DCDE to (approximately) the requested delay; returns the
    /// programmed code.  The *actual* delay differs by static error / INL.
    int program_delay(double delay_s);

    /// Actual analog delay realised by the DCDE (ground truth).
    [[nodiscard]] double actual_delay() const { return delay_.actual_delay(); }

    /// Programmable front-end attenuator (linear scale applied before the
    /// S/H).  Production capture paths tap the PA through a coupler and a
    /// step attenuator so the converter is never driven into clipping.
    void set_input_scale(double scale);
    [[nodiscard]] double input_scale() const { return input_scale_; }

    /// The analog channel records of a capture at rate B / `rate_divider`:
    /// x at n jittered edges per channel from t_start, before the
    /// attenuator and the converters.  `capture_index` decorrelates the
    /// jitter streams of repeated captures (each hardware capture sees
    /// fresh jitter); the draws do not depend on the attenuator.
    [[nodiscard]] nonuniform_capture sample(const rf::passband_signal& x,
                                            double t_start, std::size_t n,
                                            std::size_t rate_divider,
                                            std::uint64_t capture_index) const;

    /// Ranging on sampled records: set the attenuator so that the largest
    /// |sample| over every record in `analog` (both channels of each)
    /// lands at `headroom` of full scale.  `observed_peak` is that
    /// largest |sample|, and `clipped` says it exceeded full scale.
    ranging_result
    range(std::initializer_list<const nonuniform_capture*> analog,
          double headroom = 0.7);

    /// The converters' records of sampled records: each channel through
    /// the attenuator and its quantiser.
    [[nodiscard]] nonuniform_capture quantize(nonuniform_capture analog) const;

    /// Scan ranging: the peak of x at 8 points per channel period over n
    /// channel periods from t_start, then the attenuation placing it at
    /// `headroom` of full scale.  The pipeline ranges on its captured
    /// records instead (see range); this scan is kept for the benchmark's
    /// replay of the older capture layer.
    ranging_result auto_range(const rf::passband_signal& x, double t_start,
                              std::size_t n, double headroom = 0.7);

    /// Capture n samples per channel starting at t_start:
    /// quantize(sample(x, t_start, n, 1, capture_index)).
    [[nodiscard]] nonuniform_capture capture(const rf::passband_signal& x,
                                             double t_start, std::size_t n,
                                             std::uint64_t capture_index = 0) const;

    /// Capture at a reduced channel rate (the paper's second capture runs
    /// the same hardware at B1 = B/2).  `rate_divider` >= 1.
    [[nodiscard]] nonuniform_capture
    capture_divided(const rf::passband_signal& x, double t_start,
                    std::size_t n, std::size_t rate_divider,
                    std::uint64_t capture_index = 1) const;

    [[nodiscard]] const tiadc_config& config() const { return config_; }

private:
    tiadc_config config_;
    quantizer quant0_;
    quantizer quant1_;
    dcde delay_;
    double input_scale_ = 1.0;
};

} // namespace sdrbist::adc
