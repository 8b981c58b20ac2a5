#!/usr/bin/env bash
# Unused-API scan: list every sdrbist:: function in libsdrbist.a that no
# shipped program (examples/, bench/, the benchmark/ binary) links.
#
#   .github/unused-api-scan.sh [build-dir]     (run from the repo root)
#
# Everything is built at -O0 -ffunction-sections and linked with
# -Wl,--gc-sections, so each function sits in its own section and the
# linker drops the ones nothing reaches.  At -O0 nothing is inlined, so a
# function that survives in no binary is called by no program; tests are
# not programs and are not built.  Functions named in
# .github/unused-api-allow.txt (test seams, one reason per line) are
# expected to be unlinked.  Exits 1 if any other function is unlinked, or
# if an allowlisted one is linked or gone.
set -euo pipefail
export LC_ALL=C

build=${1:-build-unused-api}
allow=.github/unused-api-allow.txt
flags="-O0 -ffunction-sections"
jobs=$(nproc 2>/dev/null || echo 2)

cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$flags" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
  -DSDRBIST_BUILD_TESTS=OFF
cmake --build "$build" -j "$jobs"
# benchmark/ is its own CMake project around the same library; link its
# sources against the library built above.
"${CXX:-c++}" -std=c++20 $flags -Isrc benchmark/src/*.cpp \
  "$build/libsdrbist.a" -Wl,--gc-sections -pthread \
  -o "$build/sdrbist_benchmark"

# Defined functions (text symbols: global, weak or TU-local), demangled.
functions() {
  nm -C --defined-only "$@" 2>/dev/null |
    sed -n 's/^[0-9a-f]* [TtWw] \(sdrbist::.*\)$/\1/p' | sort -u
}

functions "$build/libsdrbist.a" > "$build/api-library.txt"
functions "$build"/example_* "$build"/bench_* "$build/sdrbist_benchmark" \
  > "$build/api-linked.txt"
sed -n '/^#/!s/ # .*$//p' "$allow" | sort -u > "$build/api-allowed.txt"

comm -23 "$build/api-library.txt" "$build/api-linked.txt" \
  > "$build/api-unlinked.txt"
comm -23 "$build/api-unlinked.txt" "$build/api-allowed.txt" \
  > "$build/api-unused.txt"
comm -23 "$build/api-allowed.txt" "$build/api-unlinked.txt" \
  > "$build/api-stale-allow.txt"

echo "unused-api: $(wc -l < "$build/api-unlinked.txt") unlinked," \
  "$(wc -l < "$build/api-allowed.txt") allowlisted," \
  "$(wc -l < "$build/api-unused.txt") unused"
status=0
if [ -s "$build/api-unused.txt" ]; then
  echo "Library functions that no example, bench or benchmark binary" \
    "links (delete them, or move test yardsticks to tests/support/):"
  sed 's/^/  /' "$build/api-unused.txt"
  status=1
fi
if [ -s "$build/api-stale-allow.txt" ]; then
  echo "Allowlisted in $allow but linked or gone (drop the line):"
  sed 's/^/  /' "$build/api-stale-allow.txt"
  status=1
fi
exit $status
