#!/usr/bin/env bash
# Local wrapper mirroring CI: build + test Release and Debug+ASan/UBSan,
# then run the four example smokes on each; the Release leg also greps src/
# for environment reads.
# Usage: scripts/check.sh [--release-only|--asan-only]
set -euo pipefail

cd "$(dirname "$0")/.."

# The sanitizer options of CI's test step.
export ASAN_OPTIONS=detect_leaks=1
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
run_release=1
run_asan=1
case "${1:-}" in
  --release-only) run_asan=0 ;;
  --asan-only) run_release=0 ;;
  "") ;;
  *) echo "usage: $0 [--release-only|--asan-only]" >&2; exit 2 ;;
esac

build_and_test() {
  local name="$1"; shift
  local dir="$1"; shift
  echo "==> [$name] configure"
  cmake -B "$dir" -S . "$@"
  echo "==> [$name] build"
  cmake --build "$dir" -j "$jobs"
  echo "==> [$name] test"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  echo "==> [$name] example smokes"
  "$dir/quickstart" --qps 300 --duration 60
  "$dir/traffic_analysis" --duration 120
  "$dir/custom_pipeline" --qps 300
  "$dir/social_media" --duration 120
}

if [[ "$run_release" == 1 ]]; then
  echo "==> [release] no environment reads in src/"
  if grep -rn 'getenv' src/; then
    echo "src/ must not read environment variables" >&2
    exit 1
  fi
  build_and_test release build-release -DCMAKE_BUILD_TYPE=Release
fi
if [[ "$run_asan" == 1 ]]; then
  build_and_test asan build-asan -DCMAKE_BUILD_TYPE=Debug \
    -DLOKI_SANITIZE=ON -DLOKI_WERROR=ON
fi
echo "==> all checks passed"
