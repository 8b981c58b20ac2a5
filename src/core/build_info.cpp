#include "core/build_info.hpp"

#include "core/simd/kernel_backend.hpp"

namespace sdrbist {

namespace {

std::string compiler_id() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string build_type() {
#if defined(SDRBIST_BUILD_TYPE)
    const std::string t = SDRBIST_BUILD_TYPE;
    return t.empty() ? "unspecified" : t;
#else
    return "unspecified";
#endif
}

std::string platform() {
#if defined(__x86_64__) || defined(_M_X64)
    const char* arch = "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
    const char* arch = "aarch64";
#else
    const char* arch = "unknown-arch";
#endif
#if defined(__linux__)
    return std::string(arch) + "-linux";
#elif defined(__APPLE__)
    return std::string(arch) + "-darwin";
#else
    return arch;
#endif
}

std::string backend_names(const std::vector<const simd::kernel_ops*>& list) {
    std::string out;
    for (const auto* ops : list) {
        if (!out.empty())
            out += ' ';
        out += ops->name;
    }
    return out.empty() ? "none" : out;
}

} // namespace

std::vector<std::pair<std::string, std::string>> build_info_fields() {
    std::vector<std::pair<std::string, std::string>> fields;
    fields.emplace_back("compiler", compiler_id());
    fields.emplace_back("build_type", build_type());
    fields.emplace_back("cxx_standard", std::to_string(__cplusplus));
    fields.emplace_back("platform", platform());
    fields.emplace_back("simd_compiled",
                        backend_names(simd::kernel_backend::compiled()));
    fields.emplace_back("simd_available",
                        backend_names(simd::kernel_backend::available()));
    fields.emplace_back("simd_active", simd::kernel_backend::select().name);
    return fields;
}

} // namespace sdrbist
