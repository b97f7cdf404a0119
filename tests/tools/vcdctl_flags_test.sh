#!/usr/bin/env bash
# Pins vcdctl monitor's flag validation: malformed --threads/--queue/
# --backpressure/--on-corruption/--watchdog-ms/--push-deadline-ms/--qos*
# values must exit 2 with a usage message BEFORE any file
# I/O happens — the query-db path below does not exist, so reaching the
# loader would fail with a different error and no usage line.
#
# Usage: vcdctl_flags_test.sh <path-to-vcdctl>
set -u

VCDCTL="${1:?usage: $0 <path-to-vcdctl>}"
FAILED=0

expect_flag_error() {
  local desc="$1"
  shift
  local err rc
  err=$("$VCDCTL" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ $rc -ne 2 ]; then
    echo "FAIL: $desc: expected exit 2, got $rc"
    FAILED=1
  fi
  if ! echo "$err" | grep -q "usage: vcdctl monitor"; then
    echo "FAIL: $desc: stderr lacks the usage message:"
    echo "$err"
    FAILED=1
  fi
}

# Valid flags with a missing db must get PAST flag validation: non-zero exit
# from the loader, but no usage message (it is not a usage error).
expect_loader_failure() {
  local desc="$1"
  shift
  local err rc
  err=$("$VCDCTL" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ $rc -eq 0 ] || [ $rc -eq 2 ]; then
    echo "FAIL: $desc: expected a loader failure, got rc=$rc"
    FAILED=1
  fi
  if echo "$err" | grep -q "usage: vcdctl monitor"; then
    echo "FAIL: $desc: printed the usage message"
    FAILED=1
  fi
}

NO_SUCH_DB="/nonexistent/queries.vcdq"
NO_SUCH_STREAM="/nonexistent/stream.vcds"

expect_flag_error "negative --threads" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=-1
expect_flag_error "zero --queue" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --queue=0
expect_flag_error "negative --queue" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --queue=-5
expect_flag_error "bad --backpressure" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --backpressure=banana
expect_flag_error "missing stream operand" \
  monitor "$NO_SUCH_DB"
expect_flag_error "bad --on-corruption" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --on-corruption=banana
expect_flag_error "negative --watchdog-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --watchdog-ms=-1
expect_flag_error "unknown --kernel" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --kernel=banana
expect_flag_error "negative --checkpoint-interval-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" \
  --checkpoint-dir=/nonexistent/ckpt --checkpoint-interval-ms=-1
expect_flag_error "--checkpoint-interval-ms without --checkpoint-dir" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --checkpoint-interval-ms=500
expect_flag_error "--restore without --checkpoint-dir" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --restore
expect_flag_error "negative --throttle-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --throttle-ms=-1
expect_flag_error "negative --push-deadline-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --push-deadline-ms=-1
expect_flag_error "--qos-tick-ms without --qos" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --qos-tick-ms=50
expect_flag_error "--priority-map without --qos" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --priority-map=1=high
expect_flag_error "--degrade-policy without --qos" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --degrade-policy=probe=2
expect_flag_error "malformed --priority-map entry" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --priority-map=banana --qos
expect_flag_error "out-of-range --priority-map index" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --priority-map=2=high --qos
expect_flag_error "bad --priority-map class" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --priority-map=1=urgent --qos
expect_flag_error "bad --degrade-policy key" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --degrade-policy=banana=1 --qos
expect_flag_error "zero --degrade-policy probe" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --degrade-policy=probe=0 --qos
expect_flag_error "removed --degrade-policy cap" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --degrade-policy=cap=16 --qos
expect_flag_error "removed --degrade-policy nogeo" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --degrade-policy=nogeo --qos
expect_flag_error "negative --qos-tick-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --qos-tick-ms=-1 --qos

# A --kernel the CPU/build cannot run must also be a usage error (exit 2),
# not a crash or silent fallback. neon is never supported on x86 hosts and
# every other name stays valid, so probe via `vcdctl kernels`.
if ! "$VCDCTL" kernels | grep -q "^neon .*yes"; then
  expect_flag_error "unsupported --kernel" \
    monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --kernel=neon
fi

# A supported --kernel must get PAST flag validation (scalar is always
# supported).
expect_loader_failure "--kernel=scalar + missing db" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --kernel=scalar

# A fully valid QoS flag set must also get PAST validation.
expect_loader_failure "valid qos flags + missing db" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 \
  --push-deadline-ms=250 --qos-tick-ms=50 --priority-map=1=high \
  --degrade-policy=probe=2 --qos
expect_loader_failure "valid flags + missing db" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 \
  --on-corruption=quarantine --watchdog-ms=250

# Every monitor run goes through the executor (--threads defaults to 1), so
# --qos and --push-deadline-ms need no --threads.
expect_loader_failure "--push-deadline-ms without --threads" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --push-deadline-ms=100
expect_loader_failure "--qos without --threads" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --qos

if [ $FAILED -ne 0 ]; then
  exit 1
fi
echo "OK: vcdctl monitor flag validation behaves as pinned"
exit 0
