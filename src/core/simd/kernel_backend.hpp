/// \file kernel_backend.hpp
/// \brief Runtime-dispatched SIMD kernel backends for the hot-path dot
///        products of the BIST engine.
///
/// Every per-scenario hot loop reduces to a handful of primitive shapes:
/// the PNBS coefficient fill (both streams, or one stream alone for the
/// dual-rate cost) and plain dot products (PNBS stages 1 and 2),
/// 4-row polyphase blended dot products (the windowed-sinc LUT interpolator
/// behind every capture), and two elementwise record transforms (mid-rise
/// quantisation, carrier mix).
/// This header is the layer that lets those shapes run on explicit SIMD:
/// each backend fills one `kernel_ops` table, and `kernel_backend`
/// dispatches to the best table the CPU supports — overridable with the
/// `SDRBIST_FORCE_BACKEND` environment variable or programmatically
/// (`kernel_backend::force`, the CLI's `--backend`).
///
/// Accuracy contract (locked down by tests/dsp/backend_equivalence_test):
///  * `dot2`, `blend_dot`, `blend_dot_cplx` — SIMD backends split
///    the accumulation across vector lanes, so results are *reassociated*
///    relative to the scalar backend's sequential sum.  The deviation is
///    bounded by ~n·eps relative to Σ|aᵢ·bᵢ|; the equivalence suite asserts
///    ≤ 1e-12 of that magnitude for every record shape it generates.
///    Within one backend, results are deterministic (same inputs, same
///    lengths → bit-identical outputs, call after call).
///  * `pnbs_fill` — each coefficient's four-term numerator is a fused
///    multiply-add chain on the SIMD backends and separate multiplies and
///    adds on scalar, so it is bounded, not bit-identical, across backends:
///    the suite asserts ≤ 1e-14 relative to the tap's Σ|terms| (the sum can
///    cancel).  Deterministic within one backend.  Its window read is
///    bit-identical to `dsp::kaiser_lut::operator()` on every backend.
///  * `pnbs_even_fill`, `pnbs_odd_fill` — every backend builds all three
///    fills from the same per-tap even and odd bodies, so each half-fill is
///    bit-identical to that backend's `pnbs_fill` half; across backends
///    therefore the same ≤ 1e-14 relative bound, and the same
///    bit-identical window read.
///  * `quantize_midrise`, `carrier_mix` — elementwise, built only from
///    correctly-rounded IEEE operations in the same order as the scalar
///    expression, therefore **bit-identical across all backends**.  The
///    backend translation units are compiled with `-ffp-contract=off` so
///    no toolchain can fuse the multiply-add pairs behind our back.
///
/// Adding a backend (AVX-512, SVE, ...): implement one translation unit
/// returning a `kernel_ops`, register it in kernel_backend.cpp behind a
/// `SDRBIST_SIMD_<NAME>` macro, and teach CMake the per-TU flags.  The
/// equivalence and property suites pick it up automatically through
/// `kernel_backend::available()`.
#pragma once

#include <complex>
#include <cstddef>
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

/// Per-point inputs of the PNBS stage-1 coefficient fill (`pnbs_fill`,
/// see sampling::pnbs_reconstructor).  Tap i of the window has offset
/// j = j_first + i from the nearest even sample, even-stream distance
/// fj = frac - j and odd-stream distance q = d_frac - fj (in periods).
struct pnbs_fill_args {
    /// Signed per-tap phase tables at the first tap: (-1)^{k·j}·cos(δ0·j),
    /// (-1)^{k·j}·sin(δ0·j), and the same pair for δ1 with k⁺.
    const double* c0;
    const double* s0;
    const double* c1;
    const double* s1;
    /// Kaiser window LUT (dsp::kaiser_lut::table()): window_res + 1
    /// samples over u in [0, 1].
    const double* window;
    double window_res;
    double frac;     ///< point position minus its nearest even sample
    double j_first;  ///< tap offset of the first tap (an integer)
    double d_frac;   ///< D̂ / T
    double inv_span; ///< window normalisation 1 / (taps/2 + 1)
    /// Numerator weights against (c0, s0, c1, s1) for each stream.
    double even[4];
    double odd[4];
};

/// One backend: a named table of hot-loop primitives.  All pointers are
/// always populated (backends may share implementations for shapes they
/// do not accelerate).
struct kernel_ops {
    const char* name;  ///< "scalar", "avx2", "neon", ...
    int priority;      ///< dispatch preference; higher wins when supported

    /// Fused pair of dot products sharing one loop (PNBS even/odd stage 2):
    /// *out_a = Σ a[i]·ca[i], *out_b = Σ b[i]·cb[i].
    void (*dot2)(const double* a, const double* ca, const double* b,
                 const double* cb, std::size_t n, double* out_a,
                 double* out_b);

    /// Polyphase 4-row blended dot product (windowed-sinc interpolator):
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

    /// PNBS stage-1 coefficient fill over n taps (independent per tap):
    ///   ce[i] = w(fj·inv_span)·((Σ even[m]·tab_m[i]) / fj)
    ///   co[i] = w(q·inv_span)·((Σ odd[m]·tab_m[i]) / q)
    /// with tab = (c0, s0, c1, s1) and w the Kaiser LUT read of
    /// dsp::kaiser_lut (0 for |u| ≥ 1).  A tap with fj = 0 or q = 0 yields
    /// a non-finite coefficient; the caller patches those.
    void (*pnbs_fill)(const pnbs_fill_args& a, std::size_t n, double* ce,
                      double* co);

    /// Even-stream half of `pnbs_fill` (the D̂-free sums calib::
    /// dual_rate_cost precomputes): `pnbs_fill`'s ce alone, bit for bit
    /// within one backend.  `a.odd` and `a.d_frac` are not read.
    void (*pnbs_even_fill)(const pnbs_fill_args& a, std::size_t n,
                           double* ce);

    /// Odd-stream half of `pnbs_fill` (the D̂-dependent half of the
    /// dual-rate cost): `pnbs_fill`'s co alone, bit for bit within one
    /// backend.  `a.even` is not read.
    void (*pnbs_odd_fill)(const pnbs_fill_args& a, std::size_t n,
                          double* co);
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
