/// \file stage_codec.hpp
/// \brief The record codec: lossless JSON serialisation of the five
///        `stages.hpp` stage outputs and of the finished scenario report —
///        the raw payloads of the artefact store, and the report every
///        journal line, shard file and service frame carries.
///
/// Fidelity rules: doubles in shortest round-trip form (bijective on every
/// platform), complex vectors as flat `[re,im,...]` arrays, 64-bit
/// integers as decimal strings, NaN/inf through JSON `null` back to quiet
/// NaN.  Every `X_from_json(parse_json(X_json(x)))` recovers `x`
/// element-exactly — which is what lets a store hit stand in for a stage
/// compute under the byte-identity contract.  Every number is read back
/// through json_value's checked accessors (`as_number_or_nan`, `as_size`,
/// `as_u64`), and enumerators are range-checked, so a garbled record
/// throws contract_violation instead of converting out of range.
///
/// The nested `envelope_passband` evaluators (tx outputs, capture inputs)
/// are serialised by their construction parameters (envelope samples,
/// rate, carrier, interpolator half-taps) and rebuilt through the public
/// constructor: the polyphase LUT is a deterministic function of those, so
/// the rebuilt object evaluates bit-identically.
///
/// Field-set or rendering changes MUST bump the store format version
/// (artefact_store.hpp) so stale entries read as misses — and, for the
/// report, the shard-file and journal versions too.
#pragma once

#include <string>

#include "bist/report.hpp"
#include "bist/stages.hpp"
#include "campaign/export.hpp"

namespace sdrbist::campaign {

[[nodiscard]] std::string stimulus_json(const bist::stimulus_output& s);
[[nodiscard]] bist::stimulus_output stimulus_from_json(const json_value& v);

[[nodiscard]] std::string tx_capture_json(const bist::tx_capture_output& c);
[[nodiscard]] bist::tx_capture_output
tx_capture_from_json(const json_value& v);

[[nodiscard]] std::string
calibration_json(const bist::calibration_output& c);
[[nodiscard]] bist::calibration_output
calibration_from_json(const json_value& v);

[[nodiscard]] std::string
reconstruction_json(const bist::reconstruction_output& r);
[[nodiscard]] bist::reconstruction_output
reconstruction_from_json(const json_value& v);

[[nodiscard]] std::string grading_json(const bist::grading_output& g);
[[nodiscard]] bist::grading_output grading_from_json(const json_value& v);

/// A full bist_report as one JSON object.  parse(report_json(r)) recovers
/// every finite field bit-identically; non-finite values collapse to quiet
/// NaN through `null` — exports render both as `null`, so artefact
/// byte-identity survives even for degenerate reports.
[[nodiscard]] std::string report_json(const bist::bist_report& report);
[[nodiscard]] bist::bist_report report_from_json(const json_value& v);

} // namespace sdrbist::campaign
