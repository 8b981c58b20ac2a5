/// \file mask.hpp
/// \brief Spectral emission masks and compliance checking.
///
/// The BIST's end goal (paper §I) is verifying "compliance to the spectral
/// mask" of the transmitted signal.  A mask is a piecewise-constant limit
/// on PSD versus offset from the carrier, in dB relative to the in-band
/// reference level (dBc).
#pragma once

#include <string>
#include <vector>

#include "dsp/psd.hpp"

namespace sdrbist::waveform {

/// One mask segment: limit applies for |offset| in [offset_lo, offset_hi).
struct mask_segment {
    double offset_lo_hz = 0.0;
    double offset_hi_hz = 0.0;
    double limit_dbc = 0.0; ///< maximum PSD relative to reference, dB
};

/// Verdict for one segment of a mask check.
struct mask_segment_report {
    mask_segment segment;
    double measured_dbc = 0.0; ///< worst (highest) PSD in the segment
    double margin_db = 0.0;    ///< limit - measured; >= 0 means pass
    bool pass = false;
};

/// Full mask-check result.
struct mask_report {
    bool pass = false;
    double worst_margin_db = 0.0; ///< most negative (or smallest) margin
    double reference_dbhz = 0.0;  ///< 0 dBc reference density (dB of V^2/Hz)
    std::vector<mask_segment_report> segments;
};

/// A named spectral emission mask (symmetric around the carrier).
class spectral_mask {
public:
    spectral_mask() = default;

    /// \param name       mask identifier for reports
    /// \param ref_bw_hz  half-width of the in-band region that defines the
    ///                   0 dBc reference (peak density inside ±ref_bw)
    /// \param segments   limit segments, offsets in Hz from carrier
    spectral_mask(std::string name, double ref_bw_hz,
                  std::vector<mask_segment> segments);

    /// Check a *baseband* PSD (two-sided, frequencies relative to carrier).
    /// Both positive and negative offsets are checked against the symmetric
    /// limits; the worst of the two sides is reported per segment.
    [[nodiscard]] mask_report check(const dsp::psd_result& psd) const;

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] double reference_bandwidth() const { return ref_bw_hz_; }
    [[nodiscard]] const std::vector<mask_segment>& segments() const {
        return segments_;
    }

private:
    std::string name_;
    double ref_bw_hz_ = 0.0;
    std::vector<mask_segment> segments_;
};

/// Generic narrowband emission mask scaled to a channel of the given symbol
/// rate and roll-off: reference band = occupied bandwidth/2; shoulders at
/// -35 dBc from 0.75·B_occ to 1.5·B_occ; far-out floor -50 dBc to 4·B_occ.
/// Styled after public land-mobile emission masks; exact numbers are
/// configuration data, not behaviourally load-bearing.
spectral_mask make_narrowband_mask(double symbol_rate_hz, double rolloff);

/// A stricter mask variant used to demonstrate fail verdicts (-45 dBc
/// shoulders, -60 dBc floor).
spectral_mask make_strict_mask(double symbol_rate_hz, double rolloff);

/// The PSD floor (dBc, density relative to the in-band peak) a jitter-
/// limited nonuniform-sampling BIST can measure: sampling jitter of
/// `jitter_rms_s` at carrier `carrier_hz` adds noise of relative power
/// (2π·fc·σ)² spread over the capture bandwidth, while the signal power
/// concentrates in its occupied bandwidth.  (Paper §II-B3 accepts this
/// wideband-noise limitation.)
double bist_measurement_floor_dbc(double carrier_hz, double jitter_rms_s,
                                  double occupied_bw_hz, double capture_bw_hz);

/// A copy of `mask` with every segment limit raised to at least
/// `floor_dbc + margin_db` — test limits must sit above what the
/// instrument can measure.
spectral_mask relax_to_measurement_floor(const spectral_mask& mask,
                                         double floor_dbc,
                                         double margin_db = 4.0);

} // namespace sdrbist::waveform
