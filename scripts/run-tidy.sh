#!/usr/bin/env bash
# Static-analysis gate: project-specific dslint checks plus clang-tidy
# over the library sources. Usage:
#
#   scripts/run-tidy.sh [build-dir] [-- extra clang-tidy args]
#
# Stages (see docs/STATIC_ANALYSIS.md):
#   1. dslint gate — the standalone checker (build-dir/tools/dslint/
#      dslint, no clang needed) over src/ and tools/, with lock order
#      read from the table in docs/CONCURRENCY.md;
#   2. clang-tidy over src/ using the CMake compilation database.
#
# The build dir must have been configured with CMake (compile_commands
# .json is exported by default; see CMAKE_EXPORT_COMPILE_COMMANDS in
# the top-level CMakeLists.txt). Exits non-zero on any finding in a
# WarningsAsErrors category (see .clang-tidy) or any dslint finding.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true
[ "${1:-}" = "--" ] && shift

# --- stage 1: dslint ----------------------------------------------------
dslint="$build_dir/tools/dslint/dslint"
if [ ! -x "$dslint" ]; then
  echo "error: $dslint not found; build the tree first:" >&2
  echo "  cmake -B $build_dir -S $repo_root && cmake --build $build_dir -j" >&2
  exit 2
fi

echo "== dslint: src/ and tools/"
mapfile -t ds_sources < <(
  find "$repo_root/src" "$repo_root/tools" \
    \( -name '*.cpp' -o -name '*.hpp' \) -not -path '*/tools/dslint/*' | sort)
"$dslint" --root "$repo_root" \
  --hierarchy "$repo_root/docs/CONCURRENCY.md" "${ds_sources[@]}"

# --- stage 2: clang-tidy ----------------------------------------------
if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "error: $build_dir/compile_commands.json not found." >&2
  echo "Configure first: cmake -B $build_dir -S $repo_root" >&2
  exit 2
fi

tidy="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$tidy" >/dev/null 2>&1; then
  echo "error: $tidy not found (set CLANG_TIDY to override)." >&2
  exit 2
fi

# Library sources only: tests and benches lean on gtest/benchmark
# macros that trip bugprone checks with no fix available to us.
mapfile -t sources < <(find "$repo_root/src" -name '*.cpp' | sort)

status=0
for source in "${sources[@]}"; do
  echo "== ${source#"$repo_root"/}"
  "$tidy" -p "$build_dir" --quiet "$@" "$source" || status=1
done
if [ "$status" -eq 0 ]; then
  echo "clang-tidy: clean"
else
  echo "clang-tidy: findings above (WarningsAsErrors categories fail)" >&2
fi
exit "$status"
