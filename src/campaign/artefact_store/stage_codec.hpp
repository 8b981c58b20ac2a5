/// \file stage_codec.hpp
/// \brief The record codec: lossless JSON serialisation of the five
///        `stages.hpp` stage outputs and of the finished scenario report —
///        the raw payloads of the artefact store, and the report every
///        journal line, shard file and service frame carries.
///
/// One field list per record type.  Each type has one
/// `describe(io, value)` template naming its members in wire order;
/// `record_writer` walks it to encode and `record_reader` walks the same
/// list to decode, so a member cannot be written without being read.
/// Irregular members (a complex split into two numbers, a flattened
/// nested struct, a rebuilt evaluator) are spelled out inside that list.
///
/// Fidelity rules: doubles in shortest round-trip form (bijective on every
/// platform), complex vectors as flat `[re,im,...]` arrays, 64-bit
/// integers as decimal strings, NaN/inf through JSON `null` back to quiet
/// NaN.  Every `X_from_json(parse_json(X_json(x)))` recovers `x`
/// element-exactly — which is what lets a store hit stand in for a stage
/// compute under the byte-identity contract.  Every number is read back
/// through json_value's checked accessors (`as_number_or_nan`, `as_size`,
/// `as_u64`), enumerators are range-checked, and every member is
/// required, so a garbled or incomplete record throws contract_violation
/// instead of decoding to a value the encoder never wrote.
///
/// The nested `envelope_passband` evaluators (capture inputs) are
/// serialised by their construction parameters (envelope samples, rate,
/// carrier) and rebuilt through the public constructor: the polyphase LUT
/// is a deterministic function of those, so the rebuilt object evaluates
/// bit-identically.
///
/// Field-set or rendering changes MUST bump the store format version
/// (artefact_store.hpp) so stale entries read as misses — and, for the
/// report, the shard-file and journal versions too.  The golden record
/// fixtures (tests/campaign/golden/records/) pin every record's bytes, so
/// a change that moves them shows as a fixture diff to review with the
/// bump.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bist/faults.hpp"
#include "bist/report.hpp"
#include "bist/stages.hpp"
#include "campaign/export.hpp"
#include "core/contracts.hpp"

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

/// A full bist_report as one JSON object.  Records that nest a report
/// (scenario rows, cache entries) read it back through its field list:
/// every finite field bit-identically; non-finite values collapse to
/// quiet NaN through `null` — exports render both as `null`, so artefact
/// byte-identity survives even for degenerate reports.
[[nodiscard]] std::string report_json(const bist::bist_report& report);

// ---------------------------------------------------------------------------
// Field lists
// ---------------------------------------------------------------------------

/// A 64-bit member that travels as a decimal string: a JSON number
/// carries 53 bits exactly.  Spelled out at each use because
/// `std::uint64_t` and `std::size_t` are one type on LP64, so an overload
/// cannot tell a seed from a count.
struct decimal {
    std::uint64_t& value;
};

/// An enumerator or narrow integer written as a number and range-checked
/// against `last` before the conversion back.
template <class T> struct bounded {
    T& value;
    T last;
};

/// The two doubles a complex member is laid out as ([complex.numbers]):
/// `parts(z)[0]` is the real part, `parts(z)[1]` the imaginary one.
inline double (&parts(std::complex<double>& z))[2] {
    return reinterpret_cast<double(&)[2]>(z);
}

/// The field list of a bist_report, for records that nest one.
template <class Io> void describe(Io& io, bist::bist_report& r);

/// Walks a field list and encodes each member into one JSON object.
/// Members are only read: `describe` takes its value by non-const
/// reference so that one list serves both directions.
class record_writer {
public:
    static constexpr bool reads = false;

    void operator()(const char* key, double x) { out_.number_field(key, x); }
    void operator()(const char* key, std::size_t x) {
        out_.size_field(key, x);
    }
    void operator()(const char* key, bool x) { out_.bool_field(key, x); }
    void operator()(const char* key, const std::string& x) {
        out_.string_field(key, x);
    }
    void operator()(const char* key, bist::fault_kind f) {
        out_.string_field(key, bist::to_string(f));
    }
    void operator()(const char* key, decimal x) {
        out_.string_field(key, std::to_string(x.value));
    }
    template <class T> void operator()(const char* key, bounded<T> x) {
        out_.size_field(key, static_cast<std::size_t>(x.value));
    }
    void operator()(const char* key, const std::vector<double>& xs) {
        array(key, xs, [](std::string& out, double x, std::size_t) {
            out += json_number(x);
        });
    }
    void operator()(const char* key,
                    const std::vector<std::complex<double>>& xs) {
        array(key, xs,
              [](std::string& out, const std::complex<double>& z,
                 std::size_t) {
                  out += json_number(z.real());
                  out += ',';
                  out += json_number(z.imag());
              });
    }
    void operator()(const char* key, const std::vector<std::string>& xs) {
        array(key, xs, [](std::string& out, const std::string& x,
                          std::size_t) { out += json_quote(x); });
    }
    template <class T>
    void operator()(const char* key, const std::vector<T>& records) {
        array(key, records, [](std::string& out, const T& r, std::size_t) {
            out += encode(r);
        });
    }
    /// A nested record: its own field list, as a JSON object.
    template <class T> void operator()(const char* key, const T& record) {
        out_.field(key, encode(record));
    }

    /// A member whose value is fixed (a version, a name): written as is,
    /// checked on read.
    template <class T> void expect(const char* key, const T& value) {
        (*this)(key, value);
    }

    /// A fixed-length array of records described by `element(io, e, i)`.
    template <class A, class F>
    void each(const char* key, A& elements, const F& element) {
        array(key, elements, [&](std::string& out, auto& e, std::size_t i) {
            record_writer nested;
            element(nested, e, i);
            out += nested.str();
        });
    }

    [[nodiscard]] std::string str() const { return out_.str(); }

    template <class T> [[nodiscard]] static std::string encode(const T& v) {
        record_writer w;
        describe(w, const_cast<T&>(v)); // the writer only reads
        return w.str();
    }

private:
    /// `[...]` with `append(out, element, index)` rendering each element.
    template <class Xs, class F>
    void array(const char* key, Xs& xs, const F& append) {
        std::string out = "[";
        for (std::size_t i = 0; i < xs.size(); ++i) {
            if (i)
                out += ',';
            append(out, xs[i], i);
        }
        out += ']';
        out_.field(key, out);
    }

    json_object_writer out_;
};

/// Walks a field list and decodes each member from one JSON object,
/// through the checked accessors.  A missing member throws
/// contract_violation.
class record_reader {
public:
    static constexpr bool reads = true;

    explicit record_reader(const json_value& object) : in_(object) {}

    void operator()(const char* key, double& x) {
        x = in_.at(key).as_number_or_nan();
    }
    void operator()(const char* key, std::size_t& x) {
        x = in_.at(key).as_size();
    }
    void operator()(const char* key, bool& x) { x = in_.at(key).as_bool(); }
    void operator()(const char* key, std::string& x) {
        x = in_.at(key).as_string();
    }
    void operator()(const char* key, bist::fault_kind& f) {
        f = bist::fault_from_string(in_.at(key).as_string());
    }
    void operator()(const char* key, decimal x) {
        x.value = in_.at(key).as_u64();
    }
    template <class T> void operator()(const char* key, bounded<T> x) {
        const std::size_t i = in_.at(key).as_size();
        SDRBIST_EXPECTS(i <= static_cast<std::size_t>(x.last));
        x.value = static_cast<T>(i);
    }
    void operator()(const char* key, std::vector<double>& xs) {
        list(key, xs, [](const json_value& e) { return e.as_number_or_nan(); });
    }
    /// Flat `[re,im,...]`: an odd length is a contract violation.
    void operator()(const char* key, std::vector<std::complex<double>>& xs) {
        const auto& arr = in_.at(key).as_array();
        SDRBIST_EXPECTS(arr.size() % 2 == 0);
        xs.clear();
        xs.reserve(arr.size() / 2);
        for (std::size_t i = 0; i < arr.size(); i += 2)
            xs.emplace_back(arr[i].as_number_or_nan(),
                            arr[i + 1].as_number_or_nan());
    }
    void operator()(const char* key, std::vector<std::string>& xs) {
        list(key, xs, [](const json_value& e) { return e.as_string(); });
    }
    template <class T>
    void operator()(const char* key, std::vector<T>& records) {
        list(key, records, [](const json_value& e) { return decode<T>(e); });
    }
    template <class T> void operator()(const char* key, T& record) {
        record_reader nested(in_.at(key));
        describe(nested, record);
    }

    template <class T> void expect(const char* key, const T& value) {
        T read{};
        (*this)(key, read);
        SDRBIST_EXPECTS(read == value);
    }

    /// The array must hold exactly `elements.size()` records.
    template <class A, class F>
    void each(const char* key, A& elements, const F& element) {
        const auto& arr = in_.at(key).as_array();
        SDRBIST_EXPECTS(arr.size() == elements.size());
        for (std::size_t i = 0; i < arr.size(); ++i) {
            record_reader nested(arr[i]);
            element(nested, elements[i], i);
        }
    }

    template <class T> [[nodiscard]] static T decode(const json_value& v) {
        T value{};
        record_reader r(v);
        describe(r, value);
        return value;
    }

private:
    template <class X, class F>
    void list(const char* key, std::vector<X>& xs, const F& read) {
        const auto& arr = in_.at(key).as_array();
        xs.clear();
        xs.reserve(arr.size());
        for (const json_value& e : arr)
            xs.push_back(read(e));
    }

    const json_value& in_;
};

} // namespace sdrbist::campaign
