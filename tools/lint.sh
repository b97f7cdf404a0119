#!/usr/bin/env bash
# Project lint: clang-tidy + clang-format + grep-based project rules.
#
# Usage:
#   tools/lint.sh            # run every available leg
#   tools/lint.sh grep       # just the (always-available) project grep lint
#   tools/lint.sh tidy       # just clang-tidy
#   tools/lint.sh format     # just the clang-format check
#
# clang-tidy and clang-format are optional: legs whose tool is absent are
# skipped with a notice (this container ships GCC only). The grep lint and
# the thread-safety negative-compile probe need no LLVM tools and always run.
# Override tool discovery with CLANG_TIDY=/path and CLANG_FORMAT=/path.
# LINT_REQUIRE_TOOLS=1 turns a missing tool into a failure instead of a
# skip — CI sets this so the tidy/format legs can never silently self-skip.
set -uo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
LEG="${1:-all}"
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
FAILED=0

# Find a tool by env override, bare name, versioned names, or LLVM prefixes.
find_tool() {
  local envval="$1" name="$2"
  if [ -n "$envval" ]; then echo "$envval"; return; fi
  local cand
  for cand in "$name" "$name-18" "$name-17" "$name-16" "$name-15" "$name-14"; do
    if command -v "$cand" >/dev/null 2>&1; then echo "$cand"; return; fi
  done
  for cand in /usr/lib/llvm-*/bin/"$name"; do
    if [ -x "$cand" ]; then echo "$cand"; return; fi
  done
  echo ""
}

# Library + tool sources; tests get the format check but lighter grep rules.
lib_sources() {
  find src tools bench -name '*.cc' -o -name '*.h' | sort
}
all_sources() {
  find src tools bench tests -name '*.cc' -o -name '*.h' | sort
}

run_grep_lint() {
  echo "=== [lint:grep] project rules ==="
  local bad

  # Rule 1: no raw new/delete in library code — ownership goes through
  # std::unique_ptr / containers. The factory idiom
  # `std::unique_ptr<T>(new T(...))` (private ctor, make_unique can't reach)
  # is allowed when the wrap is on the same line; anything else needs an
  # explicit `NOLINT(vcd-raw-new)`.
  bad=$(grep -nE '(^|[^[:alnum:]_])(new|delete)[[:space:]]+[A-Za-z_]' \
        $(find src -name '*.cc' -o -name '*.h') \
        | grep -vE '//.*(new|delete)' | grep -vE 'placement new' \
        | grep -vE '(unique_ptr|shared_ptr)<[^>]*>\(new ' \
        | grep -vE 'NOLINT\(vcd-raw-new\)' || true)
  if [ -n "$bad" ]; then
    echo "FAIL: raw new/delete in library code (use unique_ptr/containers):"
    echo "$bad"
    FAILED=1
  fi

  # Rule 2: no naked std::thread outside src/parallel/ — all concurrency
  # flows through StreamExecutor. `std::thread::hardware_concurrency()` is
  # fine anywhere, hence the [^:] after the type name.
  bad=$(grep -nE 'std::thread[^:]' \
        $(find src -path src/parallel -prune -o \( -name '*.cc' -o -name '*.h' \) -print) \
        | grep -vE '//' || true)
  if [ -n "$bad" ]; then
    echo "FAIL: naked std::thread outside src/parallel/:"
    echo "$bad"
    FAILED=1
  fi

  # Rule 3: no std::cout in library code — the library reports through
  # Status and vcd::Log*; stdout belongs to the tools/ binaries.
  bad=$(grep -nE 'std::cout' $(find src -name '*.cc' -o -name '*.h') || true)
  if [ -n "$bad" ]; then
    echo "FAIL: std::cout in library code (use logging or return data):"
    echo "$bad"
    FAILED=1
  fi

  # Rule 4: the per-window hot path (src/core/, src/stream/) must not grow
  # new owning signature/sketch objects — candidate state lives in
  # SignaturePool/SketchPool slabs and is referenced by handle. Flags
  # `new BitSignature` and by-value BitSignature/Sketch declarations;
  # legitimate owners (per-query records, reused scratch buffers, cold
  # restore code) carry `NOLINT(vcd-pooled-hotpath)` with a reason on the
  # same or preceding line.
  bad=$(grep -nE '(sketch::)?(BitSignature|Sketch)[[:space:]]+[A-Za-z_]+[[:space:]]*[;={]|new[[:space:]]+(sketch::)?BitSignature' \
        $(find src/core src/stream -name '*.cc' -o -name '*.h') \
        | grep -vE '//.*(BitSignature|Sketch)' \
        | grep -vE 'NOLINT\(vcd-pooled-hotpath\)' || true)
  if [ -n "$bad" ]; then
    while IFS= read -r hit; do
      local file line
      file="${hit%%:*}"
      line="${hit#*:}"; line="${line%%:*}"
      if [ "$line" -gt 1 ] && sed -n "$((line - 1))p" "$file" \
           | grep -qE 'NOLINT\(vcd-pooled-hotpath\)'; then
        continue
      fi
      if [ -z "${rule4_failed:-}" ]; then
        echo "FAIL: owning BitSignature/Sketch on the pooled hot path" \
             "(use SignaturePool/SketchPool handles, or annotate" \
             "NOLINT(vcd-pooled-hotpath) with a reason):"
        rule4_failed=1
        FAILED=1
      fi
      echo "$hit"
    done <<< "$bad"
  fi


  # Rule 5: no process-killing calls in library code — corrupted *input* is
  # a Status (kCorruption), never a crash; only the VCD_CHECK failure path in
  # src/util/check.{h,cc} may abort on broken *invariants*. Annotate a
  # deliberate exception with `NOLINT(vcd-no-abort)` and a reason.
  bad=$(grep -nE '(^|[^[:alnum:]_:.])(std::)?(abort|exit|_Exit|quick_exit)[[:space:]]*\(' \
        $(find src \( -path src/util/check.h -o -path src/util/check.cc \) \
          -prune -o \( -name '*.cc' -o -name '*.h' \) -print) \
        | grep -vE '//.*(abort|exit)' \
        | grep -vE 'NOLINT\(vcd-no-abort\)' || true)
  if [ -n "$bad" ]; then
    echo "FAIL: abort()/exit() in library code (return a Status; only" \
         "src/util/check.{h,cc} may abort, or annotate NOLINT(vcd-no-abort)):"
    echo "$bad"
    FAILED=1
  fi

  # Rule 6 (vcd-obs-naming): metric names registered from library/tool/bench
  # code follow the DESIGN.md §13 scheme — `vcd_[a-z0-9_]+`, counters end in
  # `_total`, histograms end in a unit suffix (_ns|_us|_seconds|_bytes).
  # The registry itself (src/obs/metrics.{h,cc}) is excluded: it declares the
  # Register* API rather than calling it. Annotate a deliberate exception
  # with `NOLINT(vcd-obs-naming)` on the registering line.
  bad=$(awk '
    /NOLINT\(vcd-obs-naming\)/ { pending = ""; next }
    /Register(Counter|Gauge|Histogram)[ \t]*\(/ {
      pending = "counter"
      if (index($0, "RegisterGauge")) pending = "gauge"
      else if (index($0, "RegisterHistogram")) pending = "histogram"
      pline = FNR; pfile = FILENAME; buf = $0
    }
    pending != "" {
      if (FNR > pline || FILENAME != pfile) buf = buf $0
      if (buf ~ /"/) {
        name = buf
        sub(/^[^"]*"/, "", name); sub(/".*$/, "", name)
        ok = (name ~ /^vcd_[a-z0-9_]+$/)
        if (pending == "counter" && name !~ /_total$/) ok = 0
        if (pending == "histogram" && name !~ /(_ns|_us|_seconds|_bytes)$/) ok = 0
        if (!ok) {
          printf "%s:%d: %s name \"%s\" violates vcd-obs-naming\n", \
                 pfile, pline, pending, name
          fail = 1
        }
        pending = ""
      } else if (FNR - pline > 2 || FILENAME != pfile) {
        pending = ""
      }
    }
    END { exit fail }
  ' $(find src tools bench \
        \( -path src/obs/metrics.h -o -path src/obs/metrics.cc \) -prune \
        -o \( -name '*.cc' -o -name '*.h' \) -print) || true)
  if [ -n "$bad" ]; then
    echo "FAIL: metric names off the vcd_<subsystem>_<name>[_unit] scheme" \
         "(counters end _total; histograms end _ns/_us/_seconds/_bytes):"
    echo "$bad"
    FAILED=1
  fi

  # Rule 7 (vcd-annotated-mutex): no raw std synchronization primitives in
  # library code — locking goes through vcd::Mutex/MutexLock/CondVar
  # (src/util/mutex.h), which carry the TSA annotations and the runtime
  # deadlock checker (DESIGN.md §14). Only mutex.h itself may name the std
  # types (it wraps them). Annotate a deliberate exception with
  # `NOLINT(vcd-annotated-mutex)` and a reason.
  bad=$(grep -nE 'std::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|unique_lock|scoped_lock|condition_variable)' \
        $(find src -path src/util/mutex.h -prune -o \( -name '*.cc' -o -name '*.h' \) -print) \
        | grep -vE '^[^:]*:[0-9]+:[[:space:]]*(//|\*|///)' \
        | grep -vE 'NOLINT\(vcd-annotated-mutex\)' || true)
  if [ -n "$bad" ]; then
    echo "FAIL: raw std:: synchronization primitive outside src/util/mutex.h" \
         "(use vcd::Mutex/MutexLock/CondVar, or annotate" \
         "NOLINT(vcd-annotated-mutex) with a reason):"
    echo "$bad"
    FAILED=1
  fi

  # Rule 8 (vcd-lock-rank): every vcd::Mutex declared in library code names
  # its LockRank (and a human-readable name), so the runtime deadlock
  # checker can order it. A bare `Mutex mu_;` silently defaults to kLeaf,
  # which hides it from hierarchy review. The brace-init may wrap to the
  # next line (VCD_ACQUIRED_AFTER between name and initializer). Annotate a
  # deliberate exception with `NOLINT(vcd-lock-rank)` on the same or
  # preceding line.
  bad=$(awk '
    /NOLINT\(vcd-lock-rank\)/ { skip_next = 1; next }
    pending {
      if ($0 !~ /LockRank::k/) {
        printf "%s:%d: vcd::Mutex declared without a LockRank\n", pfile, pline
        fail = 1
      }
      pending = 0
    }
    /(^|[ \t])Mutex[ \t]+[A-Za-z_]+/ && !/MutexLock|Mutex[ \t]*&|class[ \t]/ \
      && !/^[ \t]*(\/\/|\*|\/\/\/)/ {
      if (skip_next) { skip_next = 0; next }
      if ($0 ~ /LockRank::k/) next
      # Initializer may continue on the following line.
      pending = 1; pline = FNR; pfile = FILENAME
      next
    }
    { skip_next = 0 }
    END {
      if (pending) {
        printf "%s:%d: vcd::Mutex declared without a LockRank\n", pfile, pline
        fail = 1
      }
      exit fail
    }
  ' $(find src -path src/util/mutex.h -prune \
        -o \( -name '*.cc' -o -name '*.h' \) -print) || true)
  if [ -n "$bad" ]; then
    echo "FAIL: vcd::Mutex declaration without a named LockRank (rank every" \
         "lock per src/util/lock_rank.h, or annotate NOLINT(vcd-lock-rank)):"
    echo "$bad"
    FAILED=1
  fi

  # Rule 9 (vcd-simd-guard): raw SIMD intrinsics live ONLY under
  # src/sketch/kernels/ — everything else goes through the KernelOps
  # dispatch table (DESIGN.md §15), so ISA assumptions can't leak into code
  # that runs on every machine. Flags intrinsic headers (immintrin & co.)
  # and _mm/_mm256/_mm512/NEON vq* calls. Annotate a deliberate exception
  # with `NOLINT(vcd-simd-guard)` and a reason.
  bad=$(grep -nE '#[[:space:]]*include[[:space:]]*<(immintrin|x86intrin|emmintrin|smmintrin|tmmintrin|nmmintrin|wmmintrin|avxintrin|arm_neon)\.h>|(^|[^[:alnum:]_])_mm(256|512)?_[a-z0-9_]+[[:space:]]*\(' \
        $(find src tools bench \
            -path src/sketch/kernels -prune \
            -o \( -name '*.cc' -o -name '*.h' \) -print) \
        | grep -vE '^[^:]*:[0-9]+:[[:space:]]*(//|\*|///)' \
        | grep -vE 'NOLINT\(vcd-simd-guard\)' || true)
  if [ -n "$bad" ]; then
    echo "FAIL: raw SIMD intrinsics outside src/sketch/kernels/ (dispatch" \
         "through kernels::KernelOps, or annotate NOLINT(vcd-simd-guard)):"
    echo "$bad"
    FAILED=1
  fi

  echo "=== [lint:grep] done ==="
}

run_tidy() {
  local tidy
  tidy=$(find_tool "${CLANG_TIDY:-}" clang-tidy)
  if [ -z "$tidy" ]; then
    if [ "${LINT_REQUIRE_TOOLS:-0}" = "1" ]; then
      echo "=== [lint:tidy] FAIL: clang-tidy not found and LINT_REQUIRE_TOOLS=1 ==="
      FAILED=1
      return
    fi
    echo "=== [lint:tidy] SKIPPED: clang-tidy not found (set CLANG_TIDY=...) ==="
    return
  fi
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "=== [lint:tidy] configuring $BUILD_DIR for compile_commands.json ==="
    cmake -B "$BUILD_DIR" -S . >/dev/null
  fi
  echo "=== [lint:tidy] $tidy over src/ tools/ bench/ tests/ ==="
  local rc=0
  # xargs -P parallelises across TUs; clang-tidy reads .clang-tidy itself.
  find src tools bench tests -name '*.cc' | sort \
    | xargs -P "$JOBS" -n 4 "$tidy" -p "$BUILD_DIR" --quiet || rc=$?
  if [ $rc -ne 0 ]; then
    echo "FAIL: clang-tidy reported errors"
    FAILED=1
  fi
  echo "=== [lint:tidy] done ==="
}

run_format() {
  local fmt
  fmt=$(find_tool "${CLANG_FORMAT:-}" clang-format)
  if [ -z "$fmt" ]; then
    if [ "${LINT_REQUIRE_TOOLS:-0}" = "1" ]; then
      echo "=== [lint:format] FAIL: clang-format not found and LINT_REQUIRE_TOOLS=1 ==="
      FAILED=1
      return
    fi
    echo "=== [lint:format] SKIPPED: clang-format not found (set CLANG_FORMAT=...) ==="
    return
  fi
  echo "=== [lint:format] $fmt --dry-run ==="
  local rc=0
  all_sources | xargs "$fmt" --dry-run -Werror || rc=$?
  if [ $rc -ne 0 ]; then
    echo "FAIL: formatting drift — run: $(all_sources | head -1 >/dev/null; echo "$fmt -i \$(git ls-files '*.cc' '*.h')")"
    FAILED=1
  fi
  echo "=== [lint:format] done ==="
}

case "$LEG" in
  grep) run_grep_lint ;;
  tidy) run_tidy ;;
  format) run_format ;;
  all)
    run_grep_lint
    run_tidy
    run_format
    ;;
  *) echo "unknown lint leg: $LEG (want grep|tidy|format|all)" >&2; exit 2 ;;
esac

if [ "$FAILED" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
