#!/usr/bin/env bash
# Local wrapper mirroring CI: build + test Release and Debug+ASan/UBSan,
# then run the four example smokes on each; the Release leg also greps src/
# for environment reads and runs the benchmark smoke and the bench smoke.
# The TSan leg builds RelWithDebInfo with ThreadSanitizer and runs CI's
# threaded suites.
# Usage: scripts/check.sh [--release-only|--asan-only]
#   --release-only  skips both sanitizer legs
#   --asan-only     runs only the ASan/UBSan leg
set -euo pipefail

cd "$(dirname "$0")/.."

# The sanitizer options of CI's test steps.
export ASAN_OPTIONS=detect_leaks=1
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
export TSAN_OPTIONS=halt_on_error=1

# The suites of CI's TSan step: the ones that drive the threaded code.
tsan_suites="common_test|control_plane_test|exp_test|sim_parallel_test|failure_recovery_test|obs_test|obs_trace_test|overload_degradation_test|planning_api_test"

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
run_release=1
run_asan=1
run_tsan=1
case "${1:-}" in
  --release-only) run_asan=0; run_tsan=0 ;;
  --asan-only) run_release=0; run_tsan=0 ;;
  "") ;;
  *) echo "usage: $0 [--release-only|--asan-only]" >&2; exit 2 ;;
esac

configure_and_build() {
  local name="$1"; shift
  local dir="$1"; shift
  echo "==> [$name] configure"
  cmake -B "$dir" -S . "$@"
  echo "==> [$name] build"
  cmake --build "$dir" -j "$jobs"
}

build_and_test() {
  local name="$1"
  local dir="$2"
  configure_and_build "$@"
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
  echo "==> [release] benchmark smoke"
  benchmark/run.sh --smoke
  # CI's "Bench smoke" step. CMake builds the four google-benchmark
  # binaries only when it finds libbenchmark; abl_allocator always.
  echo "==> [release] bench smoke"
  if grep -q '^benchmark_DIR:PATH=.*NOTFOUND' build-release/CMakeCache.txt; then
    echo "libbenchmark not found: skipping abl_solver, tab_runtime_overhead," \
      "bm_dataplane and bm_obs"
    build-release/abl_allocator
  else
    build-release/abl_solver --benchmark_min_time=0.01
    build-release/tab_runtime_overhead --benchmark_min_time=0.01
    build-release/abl_allocator
    build-release/bm_dataplane --benchmark_min_time=0.01
    build-release/bm_obs --benchmark_min_time=0.01
  fi
fi
if [[ "$run_asan" == 1 ]]; then
  build_and_test asan build-asan -DCMAKE_BUILD_TYPE=Debug \
    -DLOKI_SANITIZE=ON -DLOKI_WERROR=ON
fi
if [[ "$run_tsan" == 1 ]]; then
  configure_and_build tsan build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLOKI_TSAN=ON
  echo "==> [tsan] test (threaded suites)"
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R "$tsan_suites"
fi
echo "==> all checks passed"
