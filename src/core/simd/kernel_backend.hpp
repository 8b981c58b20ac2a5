/// \file kernel_backend.hpp
/// \brief Runtime-dispatched SIMD kernel backends for the hot-path dot
///        products of the BIST engine.
///
/// Every per-scenario hot loop reduces to a handful of primitive shapes:
/// 4-row polyphase blended dot products (the windowed-sinc LUT interpolator
/// behind every capture, the PNBS kernel tables behind every
/// reconstruction, the EVM matched filter), plain dot products (the LMS
/// cost's per-row sums of the PNBS tables), two elementwise record
/// transforms (mid-rise quantisation, carrier mix), and the MT19937-64
/// state refill behind every random draw (core/random.hpp).
/// This header is the layer that lets those shapes run on explicit SIMD:
/// each backend fills one `kernel_ops` table, and `kernel_backend`
/// dispatches to the best table the CPU supports — overridable with the
/// `SDRBIST_FORCE_BACKEND` environment variable or programmatically
/// (`kernel_backend::force`, the CLI's `--backend`).
///
/// Accuracy contract (locked down by tests/dsp/backend_equivalence_test):
///  * `dot`, `blend_dot`, `blend_dot_cplx` — SIMD backends split
///    the accumulation across vector lanes, so results are *reassociated*
///    relative to the scalar backend's sequential sum.  The deviation is
///    bounded by ~n·eps relative to Σ|aᵢ·bᵢ|; the equivalence suite asserts
///    ≤ 1e-12 of that magnitude for every record shape it generates.
///    Within one backend, results are deterministic (same inputs, same
///    lengths → bit-identical outputs, call after call).
///  * `quantize_midrise`, `carrier_mix` — elementwise, built only from
///    correctly-rounded IEEE operations in the same order as the scalar
///    expression, therefore **bit-identical across all backends**.  The
///    backend translation units are compiled with `-ffp-contract=off` so
///    no toolchain can fuse the multiply-add pairs behind our back.
///  * `mt_refill` — integer-only, so **bit-identical across all backends**;
///    the backends differ only in the ISA the same loops compile to.
///
/// Adding a backend (AVX-512, SVE, ...): implement one translation unit
/// returning a `kernel_ops`, register it in kernel_backend.cpp behind a
/// `SDRBIST_SIMD_<NAME>` macro, and teach CMake the per-TU flags.  The
/// equivalence and property suites pick it up automatically through
/// `kernel_backend::available()`.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace sdrbist::simd {

/// Parameters of the mid-rise quantisation kernel (see adc::quantizer):
///   q(x) = lsb·(floor(clamp(x·scale·gain + offset, clip_lo, clip_hi)/lsb)
///               + 1/2)
/// with `scale` passed per call (the front-end attenuator varies per
/// capture while the converter's own parameters do not).
struct quantize_params {
    double gain = 1.0;    ///< 1 + relative gain error
    double offset = 0.0;  ///< input-referred offset
    double clip_lo = 0.0; ///< lower clip rail (-full_scale)
    double clip_hi = 0.0; ///< upper clip rail (full_scale - eps)
    double lsb = 0.0;     ///< quantisation step
};

/// Words of MT19937-64 state (the recurrence's degree n).
inline constexpr std::size_t mt_state_words = 312;

/// One backend: a named table of hot-loop primitives.  All pointers are
/// always populated (backends may share implementations for shapes they
/// do not accelerate).
struct kernel_ops {
    const char* name;  ///< "scalar", "avx2", "neon", ...
    int priority;      ///< dispatch preference; higher wins when supported

    /// Plain dot product: return Σ a[i]·b[i].
    double (*dot)(const double* a, const double* b, std::size_t n);

    /// Polyphase 4-row blended dot product (every polyphase table read):
    ///   coeff[i] = w[0]·rows[i] + w[1]·rows[i+stride]
    ///            + w[2]·rows[i+2·stride] + w[3]·rows[i+3·stride]
    ///   return Σ x[i]·coeff[i]
    /// `rows` points at the first of four consecutive LUT rows, `w` at the
    /// four cubic Lagrange blend weights.
    double (*blend_dot)(const double* x, const double* rows,
                        std::size_t stride, const double* w, std::size_t n);

    /// Same blended dot product over interleaved complex samples.
    std::complex<double> (*blend_dot_cplx)(const std::complex<double>* x,
                                           const double* rows,
                                           std::size_t stride, const double* w,
                                           std::size_t n);

    /// Elementwise mid-rise quantisation of a scaled record (BP-TIADC
    /// capture path).  Bit-identical across backends.
    void (*quantize_midrise)(const double* x, double* out, std::size_t n,
                             double scale, const quantize_params& p);

    /// Elementwise passband carrier mix (envelope capture path):
    ///   out[i] = Re{env[i]}·cos_wt[i] - Im{env[i]}·sin_wt[i]
    /// Bit-identical across backends.
    void (*carrier_mix)(const std::complex<double>* env, const double* cos_wt,
                        const double* sin_wt, double* out, std::size_t n);

    /// Advance `mt_state_words` words of MT19937-64 state in place by one
    /// full twist (the standard recurrence, untempered).  Bit-identical
    /// across backends.
    void (*mt_refill)(std::uint64_t* x);
};

/// CPU feature set relevant to the compiled-in backends.  Kept explicit so
/// the dispatch *policy* is a pure function of it (testable without the
/// matching hardware).
struct cpu_features {
    bool avx2 = false; ///< x86 AVX2 + FMA
    bool neon = false; ///< AArch64 Advanced SIMD
};

/// Runtime backend dispatcher.
///
/// Selection order (resolved once, then cached process-wide):
///  1. `force()` (the CLI's `--backend`) — wins over everything;
///  2. `SDRBIST_FORCE_BACKEND` environment variable — unknown or
///     CPU-unsupported names throw `contract_violation` ("fail loudly");
///  3. the highest-priority compiled-in backend the CPU supports.
///
/// Kernel consumers capture the table once at construction, so `force()`
/// affects objects constructed *after* the call — force first, then build.
class kernel_backend {
public:
    /// Detect the features of the executing CPU (CPUID / architecture).
    static cpu_features detect();

    /// Pure dispatch policy: the backend `select()` would pick on a CPU
    /// with features `f` and no override.  Never fails (scalar always
    /// qualifies).
    static const kernel_ops& resolve(const cpu_features& f);

    /// Compiled-in backend by name; nullptr when unknown.  Ignores CPU
    /// support (use `supported()` for that).
    static const kernel_ops* find(std::string_view name);

    /// All compiled-in backends, scalar first.
    static std::vector<const kernel_ops*> compiled();

    /// Compiled-in backends the executing CPU can run, scalar first.
    static std::vector<const kernel_ops*> available();

    /// True when the executing CPU can run `ops`.
    static bool supported(const kernel_ops& ops);

    /// The process-wide active backend (resolving on first use).
    static const kernel_ops& select();

    /// Override the active backend by name.  Throws `contract_violation`
    /// when the name is unknown or the CPU cannot run it.
    static void force(std::string_view name);

    /// Drop the cached selection so the next `select()` re-resolves
    /// (environment variable and CPU detection run again).  For tests.
    static void reset();
};

/// The portable reference backend (always compiled, always supported).
/// Also the yardstick the equivalence suite measures every other backend
/// against, and the one single-sample helpers use so that per-sample and
/// batched evaluation stay bit-identical on every architecture.
const kernel_ops& scalar_ops();

/// Per-architecture backends; defined only in builds whose toolchain can
/// emit them (see SDRBIST_SIMD_* in CMakeLists.txt).  Reach them through
/// `kernel_backend::find`/`available` rather than calling these directly.
const kernel_ops& avx2_ops();
const kernel_ops& neon_ops();

} // namespace sdrbist::simd
