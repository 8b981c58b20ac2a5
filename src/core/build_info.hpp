/// \file build_info.hpp
/// \brief Build provenance for perf artefacts: compiler, build type,
///        language standard, platform and the SIMD backend roster.
///
/// Perf numbers without provenance are not comparable.  The campaign CLI
/// prints this block (`--build-info`) and stamps it into Chrome trace
/// metadata (`--trace-out`), so every trace and bench artefact records
/// what produced it.  Core-layer facts only; layers above append their
/// own versions (canonical-config, cache, shard formats).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace sdrbist {

/// Ordered key/value facts about this build and host: compiler,
/// build_type, cxx_standard, platform, simd_compiled, simd_available,
/// simd_active.  Resolves the active SIMD backend, so call it after any
/// kernel_backend::force().
std::vector<std::pair<std::string, std::string>> build_info_fields();

} // namespace sdrbist
