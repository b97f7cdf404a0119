#!/usr/bin/env bash
# Build + test matrix: plain, ThreadSanitizer, AddressSanitizer,
# UndefinedBehaviorSanitizer, lint.
#
# Usage:
#   tools/check.sh           # run the full matrix
#   tools/check.sh plain     # just the plain build + ctest
#   tools/check.sh tsan      # just the TSan build + ctest
#   tools/check.sh asan      # just the ASan build + ctest
#   tools/check.sh ubsan     # just the UBSan build + ctest
#                            # (-fno-sanitize-recover=all: any UB aborts)
#   tools/check.sh lint      # just tools/lint.sh (tidy/format legs skip
#                            # with a notice when the LLVM tools are absent)
#   tools/check.sh faultfx   # -DVCD_FAULTFX=ON build + ctest: arms the
#                            # fault-injection sites so the fault-matrix
#                            # tests run instead of skipping
#   tools/check.sh faultfx-tsan  # fault matrix under ThreadSanitizer
#   tools/check.sh faultfx-asan  # fault matrix under ASan
#   tools/check.sh overload-soak # QoS governor tests (incl. the seeded
#                            # 2x-overload soak) repeated SOAK_REPEATS
#                            # times under TSan with faultfx armed
#   tools/check.sh obs       # -DVCD_OBS=OFF build + ctest: proves the
#                            # instrumentation macros compile to no-ops and
#                            # that every test still passes without them
#   tools/check.sh kernels   # plain build, then one full ctest pass per
#                            # kernel backend this host supports, forced
#                            # process-wide via VCD_KERNEL_ISA — proves the
#                            # whole suite, not just the equivalence tests,
#                            # holds under every dispatch level
#
# Sanitizer builds skip benches/examples (VCD_BUILD_BENCH/EXAMPLES=OFF) —
# the tests are the contract; the benches are timing tools. They also force
# -DVCD_DEADLOCK_CHECK=ON (AUTO already resolves that way under a
# sanitizer; the explicit flag keeps it true even if the default changes),
# so every sanitizer run exercises the runtime lock-rank checker
# (DESIGN.md §14). The faultfx sanitizer legs are not part of `all` (CI
# runs them as a separate job); plain faultfx is.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
MATRIX="${1:-all}"

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  (cd "$dir" && ctest --output-on-failure -j "$JOBS")
  echo "=== [$name] OK ==="
}

case "$MATRIX" in
  plain|all) run_config plain build ;;&
  tsan|all)
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
      run_config tsan build-tsan -DVCD_SANITIZE=thread \
        -DVCD_DEADLOCK_CHECK=ON \
        -DVCD_BUILD_BENCH=OFF -DVCD_BUILD_EXAMPLES=OFF ;;&
  asan|all)
    ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
      run_config asan build-asan -DVCD_SANITIZE=address \
        -DVCD_DEADLOCK_CHECK=ON \
        -DVCD_BUILD_BENCH=OFF -DVCD_BUILD_EXAMPLES=OFF ;;&
  ubsan|all)
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
      run_config ubsan build-ubsan -DVCD_SANITIZE=undefined \
        -DVCD_DEADLOCK_CHECK=ON \
        -DVCD_BUILD_BENCH=OFF -DVCD_BUILD_EXAMPLES=OFF ;;&
  lint|all)
    echo "=== [lint] tools/lint.sh ==="
    bash tools/lint.sh
    echo "=== [lint] OK ===" ;;&
  faultfx|all)
    run_config faultfx build-faultfx -DVCD_FAULTFX=ON \
      -DVCD_BUILD_BENCH=OFF -DVCD_BUILD_EXAMPLES=OFF ;;&
  obs|all)
    run_config obs build-obs -DVCD_OBS=OFF \
      -DVCD_BUILD_BENCH=OFF -DVCD_BUILD_EXAMPLES=OFF ;;&
  kernels)
    # Not part of `all`: the forced-ISA sweep re-runs the whole suite once
    # per backend, which triples-to-quadruples runtime. CI runs scalar,
    # popcnt and avx2 as a matrix job, on runners without AVX-512; run
    # this leg locally after kernel changes.
    run_config kernels-build build
    for isa in $(./build/tools/vcdctl kernels \
                   | awk 'NR > 1 && $3 == "yes" { print $1 }'); do
      echo "=== [kernels] ctest with VCD_KERNEL_ISA=$isa ==="
      (cd build && VCD_KERNEL_ISA="$isa" ctest --output-on-failure -j "$JOBS")
      echo "=== [kernels] $isa OK ==="
    done ;;&
  faultfx-tsan)
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
      run_config faultfx-tsan build-faultfx-tsan -DVCD_FAULTFX=ON \
        -DVCD_SANITIZE=thread -DVCD_DEADLOCK_CHECK=ON \
        -DVCD_BUILD_BENCH=OFF -DVCD_BUILD_EXAMPLES=OFF ;;&
  faultfx-asan)
    ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
      run_config faultfx-asan build-faultfx-asan -DVCD_FAULTFX=ON \
        -DVCD_SANITIZE=address -DVCD_DEADLOCK_CHECK=ON \
        -DVCD_BUILD_BENCH=OFF -DVCD_BUILD_EXAMPLES=OFF ;;&
  overload-soak)
    # Not part of `all`: CI's dedicated overload job. One faultfx+TSan pass
    # of the full suite already runs in the fault-matrix job; this leg
    # instead re-runs the QoS governor/executor tests — including the
    # seeded 2x-overload soak with its mid-Degraded checkpoint/restore —
    # many times under ThreadSanitizer. The governor's sense → transition →
    # apply path is schedule-dependent, and one lucky interleaving proves
    # nothing.
    echo "=== [overload-soak] configure ==="
    cmake -B build-faultfx-tsan -S . -DVCD_FAULTFX=ON \
      -DVCD_SANITIZE=thread -DVCD_DEADLOCK_CHECK=ON \
      -DVCD_BUILD_BENCH=OFF -DVCD_BUILD_EXAMPLES=OFF
    echo "=== [overload-soak] build ==="
    cmake --build build-faultfx-tsan -j "$JOBS"
    echo "=== [overload-soak] ctest x${SOAK_REPEATS:-10} ==="
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
      ctest --test-dir build-faultfx-tsan --output-on-failure -j "$JOBS" \
        -R '^(GovernorTest|QosExecutorTest)\.' \
        --repeat "until-fail:${SOAK_REPEATS:-10}"
    echo "=== [overload-soak] OK ===" ;;&
  plain|tsan|asan|ubsan|lint|faultfx|obs|kernels|faultfx-tsan|faultfx-asan|overload-soak|all) ;;
  *) echo "unknown matrix entry: $MATRIX" \
     "(want plain|tsan|asan|ubsan|lint|faultfx|obs|kernels|faultfx-tsan|faultfx-asan|overload-soak|all)" >&2
     exit 2 ;;
esac
