// Dispatcher policy lockdown: the backend picked per CPU feature set, the
// SDRBIST_FORCE_BACKEND environment override (including the fail-loudly
// contract for unknown names), and the programmatic force() used by the
// CLI's --backend flag.
//
// The policy (kernel_backend::resolve) is a pure function of a
// cpu_features value, so every branch is testable on any machine — no
// matching hardware needed.  ctest runs each TEST in its own process, but
// the env_guard below still restores the environment and the cached
// selection so the binary also behaves when run whole.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/contracts.hpp"
#include "core/simd/kernel_backend.hpp"

namespace {

using sdrbist::contract_violation;
using sdrbist::simd::cpu_features;
using sdrbist::simd::kernel_backend;

/// Saves/restores SDRBIST_FORCE_BACKEND and the cached backend selection.
class env_guard {
public:
    env_guard() {
        const char* v = std::getenv(name_);
        had_ = v != nullptr;
        if (had_)
            saved_ = v;
        kernel_backend::reset();
    }
    ~env_guard() {
        if (had_)
            ::setenv(name_, saved_.c_str(), 1);
        else
            ::unsetenv(name_);
        kernel_backend::reset();
    }
    void set(const char* value) { ::setenv(name_, value, 1); }
    void clear() { ::unsetenv(name_); }

private:
    const char* name_ = "SDRBIST_FORCE_BACKEND";
    bool had_ = false;
    std::string saved_;
};

TEST(SimdDispatch, ScalarIsAlwaysCompiledInAndListedFirst) {
    const auto compiled = kernel_backend::compiled();
    ASSERT_FALSE(compiled.empty());
    EXPECT_STREQ(compiled.front()->name, "scalar");
    for (const auto* ops : compiled)
        EXPECT_EQ(kernel_backend::find(ops->name), ops);
}

TEST(SimdDispatch, AvailableBackendsAreCompiledAndCpuSupported) {
    const auto available = kernel_backend::available();
    ASSERT_FALSE(available.empty());
    EXPECT_STREQ(available.front()->name, "scalar");
    for (const auto* ops : available) {
        EXPECT_EQ(kernel_backend::find(ops->name), ops);
        EXPECT_TRUE(kernel_backend::supported(*ops));
    }
}

TEST(SimdDispatch, ResolveFallsBackToScalarWithoutSimdFeatures) {
    const cpu_features none{};
    EXPECT_STREQ(kernel_backend::resolve(none).name, "scalar");
}

TEST(SimdDispatch, ResolvePicksAvx2WhenCpuHasIt) {
    const auto* avx2 = kernel_backend::find("avx2");
    if (avx2 == nullptr)
        GTEST_SKIP() << "avx2 backend not compiled into this build";
    cpu_features f;
    f.avx2 = true;
    EXPECT_EQ(&kernel_backend::resolve(f), avx2);
    // A NEON-only feature set must not select the x86 backend.
    cpu_features g;
    g.neon = true;
    EXPECT_NE(&kernel_backend::resolve(g), avx2);
}

TEST(SimdDispatch, ResolvePicksNeonWhenCpuHasIt) {
    const auto* neon = kernel_backend::find("neon");
    if (neon == nullptr)
        GTEST_SKIP() << "neon backend not compiled into this build";
    cpu_features f;
    f.neon = true;
    EXPECT_EQ(&kernel_backend::resolve(f), neon);
    cpu_features g;
    g.avx2 = true;
    EXPECT_NE(&kernel_backend::resolve(g), neon);
}

TEST(SimdDispatch, SelectMatchesPolicyForDetectedCpu) {
    env_guard env;
    env.clear();
    kernel_backend::reset();
    EXPECT_EQ(&kernel_backend::select(),
              &kernel_backend::resolve(kernel_backend::detect()));
}

TEST(SimdDispatch, SelectIsCachedAcrossCalls) {
    env_guard env;
    env.clear();
    kernel_backend::reset();
    const auto* first = &kernel_backend::select();
    EXPECT_EQ(&kernel_backend::select(), first);
}

TEST(SimdDispatch, EnvOverrideWinsOverAutoDetection) {
    env_guard env;
    env.set("scalar");
    kernel_backend::reset();
    EXPECT_STREQ(kernel_backend::select().name, "scalar");
}

TEST(SimdDispatch, UnknownEnvOverrideFailsLoudly) {
    env_guard env;
    env.set("definitely-not-a-backend");
    kernel_backend::reset();
    EXPECT_THROW(kernel_backend::select(), contract_violation);
}

TEST(SimdDispatch, EmptyEnvOverrideMeansAutoDetection) {
    env_guard env;
    env.set("");
    kernel_backend::reset();
    EXPECT_EQ(&kernel_backend::select(),
              &kernel_backend::resolve(kernel_backend::detect()));
}

TEST(SimdDispatch, ForceSelectsTheNamedBackend) {
    env_guard env;
    kernel_backend::force("scalar");
    EXPECT_STREQ(kernel_backend::select().name, "scalar");
    // Every CPU-supported backend can be forced.
    for (const auto* ops : kernel_backend::available()) {
        kernel_backend::force(ops->name);
        EXPECT_EQ(&kernel_backend::select(), ops);
    }
}

TEST(SimdDispatch, ForceUnknownBackendThrows) {
    env_guard env;
    EXPECT_THROW(kernel_backend::force("avx1024"), contract_violation);
    // The error message names the compiled-in backends.
    try {
        kernel_backend::force("avx1024");
        FAIL() << "expected contract_violation";
    } catch (const contract_violation& e) {
        EXPECT_NE(std::string(e.what()).find("scalar"), std::string::npos);
    }
}

TEST(SimdDispatch, ForceWinsOverEnvOverride) {
    env_guard env;
    env.set("definitely-not-a-backend");
    kernel_backend::reset();
    kernel_backend::force("scalar"); // resolved before select() reads env
    EXPECT_STREQ(kernel_backend::select().name, "scalar");
}

TEST(SimdDispatch, ResetReturnsToAutoDetection) {
    env_guard env;
    env.clear();
    kernel_backend::force("scalar");
    kernel_backend::reset();
    EXPECT_EQ(&kernel_backend::select(),
              &kernel_backend::resolve(kernel_backend::detect()));
}

TEST(SimdDispatch, BackendTablesAreFullyPopulated) {
    for (const auto* ops : kernel_backend::compiled()) {
        EXPECT_NE(ops->name, nullptr);
        EXPECT_NE(ops->blend_dot, nullptr) << ops->name;
        EXPECT_NE(ops->blend_dot_cplx, nullptr) << ops->name;
        EXPECT_NE(ops->quantize_midrise, nullptr) << ops->name;
        EXPECT_NE(ops->carrier_mix, nullptr) << ops->name;
    }
}

} // namespace
