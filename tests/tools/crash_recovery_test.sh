#!/usr/bin/env bash
# Crash-recovery contract of `vcdctl monitor --checkpoint-dir` (DESIGN.md
# §16): SIGKILL the monitor at randomized (but seeded) points mid-ingest,
# restart with --restore, and require the resumed run's match output to be
# byte-identical to an uninterrupted run. Also pins the graceful-drain path:
# SIGTERM stops intake, takes a final checkpoint, and exits 0; a restore
# then completes the job with identical matches. A second fixture feeds
# three files round-robin at --threads=2, where a checkpoint is cut only
# at the top of a round-robin cycle, and pins that the default run prints
# the same MATCH lines as --threads=2. A third fixture has two files whose
# matches fire one key frame apart, later file first, so a checkpoint cut
# mid-cycle flips their MATCH order after a restore. Snapshots of another
# format version are refused by version, not restored or called corrupt.
#
# Usage: crash_recovery_test.sh <path-to-vcdctl> [seed]
set -u

VCDCTL="${1:?usage: $0 <path-to-vcdctl> [seed]}"
SEED="${2:-${CRASH_RECOVERY_SEED:-20260809}}"
FAILED=0

WORK=$(mktemp -d /tmp/vcd_crash_recovery_XXXXXX)
trap 'rm -rf "$WORK"' EXIT

# Deterministic kill-delay sequence from the seed (no $RANDOM: two runs with
# the same seed must kill at the same wall-clock points). Sets RAND_VALUE
# rather than printing it: a $(...) caller would advance a subshell's copy
# of the state, and every round would kill at the same point.
RAND_STATE=$SEED
next_rand() {
  RAND_STATE=$(( (RAND_STATE * 1103515245 + 12345) % 2147483648 ))
  RAND_VALUE=$(( RAND_STATE % $1 ))
}

# kill_restore_round NAME REF MONITOR-ARGS...: runs a throttled,
# checkpointing `vcdctl monitor MONITOR-ARGS`, SIGKILLs it at a seeded
# random point, restores from its checkpoint dir and requires the resumed
# run's MATCH lines to equal the file REF.
kill_restore_round() {
  local name="$1" ref="$2"
  shift 2
  local dir="$WORK/ckpt-$name"
  "$VCDCTL" monitor "$@" --checkpoint-dir="$dir" --checkpoint-interval-ms=30 \
    --throttle-ms=15 > "$WORK/$name.out" 2>/dev/null &
  local pid=$!
  next_rand 400
  local delay_ms=$(( 80 + RAND_VALUE ))
  sleep "$(awk "BEGIN{print $delay_ms/1000}")"
  kill -9 "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  local rc=$?
  if [ $rc -ne 137 ]; then
    # The run finished before the kill landed; the final checkpoint must
    # still restore to the complete match list below.
    echo "note: $name: monitor finished before SIGKILL (rc=$rc)"
  fi
  "$VCDCTL" monitor "$@" --checkpoint-dir="$dir" --restore \
    > "$WORK/$name-resumed.out" \
    || { echo "FAIL: $name: --restore run failed"; FAILED=1; return; }
  if ! grep -q '^restored checkpoint epoch' "$WORK/$name-resumed.out"; then
    echo "FAIL: $name: restore did not report a loaded snapshot"
    FAILED=1
  fi
  grep '^MATCH' "$WORK/$name-resumed.out" > "$WORK/$name-resumed.matches"
  if ! diff -u "$ref" "$WORK/$name-resumed.matches"; then
    echo "FAIL: $name (kill after ${delay_ms}ms, seed $SEED):" \
         "resumed matches differ from the uninterrupted run"
    FAILED=1
  fi
}

# --- fixture: a synthetic stream that is its own query (self-copy) --------
"$VCDCTL" generate --out="$WORK/clip.y4m" --seconds=10 --seed=7 \
  --w=176 --h=144 >/dev/null || { echo "FAIL: generate"; exit 1; }
"$VCDCTL" encode "$WORK/clip.y4m" "$WORK/stream.vcds" >/dev/null \
  || { echo "FAIL: encode"; exit 1; }
"$VCDCTL" build-queries "$WORK/q.vcdq" 1="$WORK/stream.vcds" --k=128 \
  >/dev/null || { echo "FAIL: build-queries"; exit 1; }

# --- reference: uninterrupted run (no checkpointing at all) ---------------
"$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" > "$WORK/ref.out" \
  || { echo "FAIL: reference monitor run"; exit 1; }
grep '^MATCH' "$WORK/ref.out" > "$WORK/ref.matches"
if [ ! -s "$WORK/ref.matches" ]; then
  echo "FAIL: reference run produced no matches (fixture broken)"
  exit 1
fi

# A checkpointing-but-uninterrupted run must change nothing. Throttled so
# several interval checkpoints actually land (the torn-snapshot stage below
# needs at least two manifest entries to fall back across).
"$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
  --checkpoint-dir="$WORK/ckpt-clean" --checkpoint-interval-ms=30 \
  --throttle-ms=10 > "$WORK/clean.out" \
  || { echo "FAIL: checkpointing run"; exit 1; }
grep '^MATCH' "$WORK/clean.out" > "$WORK/clean.matches"
if ! diff -u "$WORK/ref.matches" "$WORK/clean.matches"; then
  echo "FAIL: checkpointing perturbed the match output"
  FAILED=1
fi

# --- SIGKILL at randomized points, then restore ---------------------------
for round in 1 2 3; do
  kill_restore_round "round-$round" "$WORK/ref.matches" \
    "$WORK/q.vcdq" "$WORK/stream.vcds"
done

# --- graceful drain: SIGTERM → final checkpoint → exit 0 → restore --------
DIR="$WORK/ckpt-drain"
"$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
  --checkpoint-dir="$DIR" --throttle-ms=15 > "$WORK/drain.out" 2>/dev/null &
PID=$!
sleep 0.2
kill -TERM "$PID" 2>/dev/null
wait "$PID"
RC=$?
if [ $RC -ne 0 ]; then
  echo "FAIL: drain: expected exit 0 after SIGTERM, got $RC"
  FAILED=1
fi
if ! grep -q 'drain requested' "$WORK/drain.out"; then
  # The run may have finished before the signal; that is not a drain test.
  if ! grep -q 'matches total' "$WORK/drain.out"; then
    echo "FAIL: drain: neither drain message nor completion in output:"
    cat "$WORK/drain.out"
    FAILED=1
  else
    echo "note: drain round finished before SIGTERM landed"
  fi
fi
"$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
  --checkpoint-dir="$DIR" --restore > "$WORK/drain-resumed.out" \
  || { echo "FAIL: restore after drain failed"; FAILED=1; }
grep '^MATCH' "$WORK/drain-resumed.out" > "$WORK/drain-resumed.matches"
if ! diff -u "$WORK/ref.matches" "$WORK/drain-resumed.matches"; then
  echo "FAIL: drain+restore matches differ from the uninterrupted run"
  FAILED=1
fi

# --- torn-manifest resilience: corrupt the newest snapshot ----------------
DIR="$WORK/ckpt-clean"
NEWEST=$(tail -n 1 "$DIR/MANIFEST" | awk '{print $2}')
if [ -n "$NEWEST" ] && [ -f "$DIR/$NEWEST" ]; then
  SIZE=$(wc -c < "$DIR/$NEWEST")
  head -c $(( SIZE / 2 )) "$DIR/$NEWEST" > "$DIR/$NEWEST.torn" &&
    mv "$DIR/$NEWEST.torn" "$DIR/$NEWEST"
  "$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
    --checkpoint-dir="$DIR" --restore > "$WORK/torn.out" 2> "$WORK/torn.err"
  RC=$?
  if [ $RC -ne 0 ]; then
    echo "FAIL: torn newest snapshot: restore crashed (rc=$RC) instead of" \
         "falling back to the previous manifest entry"
    cat "$WORK/torn.err"
    FAILED=1
  fi
  if ! grep -q 'unreadable snapshot' "$WORK/torn.err"; then
    echo "FAIL: torn snapshot fallback did not log a warning"
    FAILED=1
  fi
  grep '^MATCH' "$WORK/torn.out" > "$WORK/torn.matches"
  if ! diff -u "$WORK/ref.matches" "$WORK/torn.matches"; then
    echo "FAIL: fallback restore matches differ from the uninterrupted run"
    FAILED=1
  fi
else
  echo "FAIL: no manifest entry to corrupt in $DIR"
  FAILED=1
fi

# --- format version: a version-1 directory is refused, by version ---------
DIR="$WORK/ckpt-v1"
cp -r "$WORK/ckpt-drain" "$DIR"
for f in "$DIR"/ckpt-*.vck; do
  # format_version is the little-endian u32 right after the 4-byte magic.
  printf '\001' | dd of="$f" bs=1 seek=4 count=1 conv=notrunc 2>/dev/null
done
"$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
  --checkpoint-dir="$DIR" --restore > "$WORK/v1.out" 2> "$WORK/v1.err"
RC=$?
if [ $RC -eq 0 ]; then
  echo "FAIL: version-1 snapshots: restore exited 0 instead of refusing them"
  FAILED=1
fi
if ! grep -q '^error: .*format version 1' "$WORK/v1.err"; then
  echo "FAIL: version-1 snapshots: the error does not name the format version:"
  cat "$WORK/v1.err"
  FAILED=1
fi
if grep -q '^MATCH' "$WORK/v1.out"; then
  echo "FAIL: version-1 snapshots: a refused restore still printed matches"
  FAILED=1
fi

# --- three files round-robin at --threads=2 --------------------------------
# The queries are prefixes of two of the streams, so their matches fire
# mid-feed and the round-robin interleaving decides the MATCH order.
for s in 8 9; do
  "$VCDCTL" generate --out="$WORK/clip$s.y4m" --seconds=$(( s + 1 )) \
    --seed=$s --w=176 --h=144 >/dev/null &&
    "$VCDCTL" encode "$WORK/clip$s.y4m" "$WORK/stream$s.vcds" >/dev/null \
    || { echo "FAIL: fixture stream $s"; exit 1; }
done
for s in 7 8; do
  "$VCDCTL" generate --out="$WORK/q$s.y4m" --seconds=$(( s - 3 )) \
    --seed=$s --w=176 --h=144 >/dev/null &&
    "$VCDCTL" encode "$WORK/q$s.y4m" "$WORK/q$s.vcds" >/dev/null \
    || { echo "FAIL: fixture query $s"; exit 1; }
done
"$VCDCTL" build-queries "$WORK/q3.vcdq" 1="$WORK/q7.vcds" 2="$WORK/q8.vcds" \
  --k=128 >/dev/null || { echo "FAIL: build-queries (3 files)"; exit 1; }
THREE=("$WORK/q3.vcdq" "$WORK/stream.vcds" "$WORK/stream8.vcds" "$WORK/stream9.vcds")
"$VCDCTL" monitor "${THREE[@]}" > "$WORK/ref3.out" \
  || { echo "FAIL: 3-file reference run"; exit 1; }
grep '^MATCH' "$WORK/ref3.out" > "$WORK/ref3.matches"
if [ "$(wc -l < "$WORK/ref3.matches")" -lt 2 ]; then
  echo "FAIL: 3-file reference run printed fewer than 2 matches (fixture broken)"
  exit 1
fi
"$VCDCTL" monitor "${THREE[@]}" --threads=2 > "$WORK/ref3-t2.out" \
  || { echo "FAIL: 3-file --threads=2 run"; exit 1; }
grep '^MATCH' "$WORK/ref3-t2.out" > "$WORK/ref3-t2.matches"
if ! diff -u "$WORK/ref3.matches" "$WORK/ref3-t2.matches"; then
  echo "FAIL: the default run and --threads=2 print different MATCH lines"
  FAILED=1
fi
for round in 1 2 3; do
  kill_restore_round "three-$round" "$WORK/ref3.matches" "${THREE[@]}" --threads=2
done

# --- two files whose matches fire one key frame apart ----------------------
# A checkpoint cut mid-cycle (after file a fed its frame of the cycle, before
# file b did) leaves a one frame ahead of b after a restore, so a's frame
# k+1 is submitted before b's frame k. Here b's match fires at key frame 75
# and a's at key frame 76, so such a cut prints a's MATCH line first. The
# files use different GOPs to get there: a (GOP 4) has 38 key frames per
# 5-s window and holds query 1 as its window 1; b (GOP 6) has 25 and holds
# query 2 as its window 2. Both matches fire long after the kill rounds'
# checkpoints. Frames are cut and spliced from generated Y4M clips.
W=128 H=96
# y4m_frames IN FIRST COUNT: the frame payload of frames [FIRST, FIRST+COUNT)
# of IN (C420 frames behind a bare "FRAME" line).
y4m_frames() {
  local header
  header=$(head -n 1 "$1")
  local frame=$(( 6 + W * H * 3 / 2 ))
  tail -c +$(( ${#header} + 1 + $2 * frame + 1 )) "$1" | head -c $(( $3 * frame ))
}
for s in 31 41 42; do
  "$VCDCTL" generate --out="$WORK/g$s.y4m" --seconds=11 --seed=$s     --w=$W --h=$H >/dev/null || { echo "FAIL: fixture clip $s"; exit 1; }
done
{ head -n 1 "$WORK/g31.y4m"; y4m_frames "$WORK/g31.y4m" 0 152
  y4m_frames "$WORK/g41.y4m" 0 152; y4m_frames "$WORK/g31.y4m" 152 16; } > "$WORK/a.y4m"
{ head -n 1 "$WORK/g41.y4m"; y4m_frames "$WORK/g41.y4m" 0 152; } > "$WORK/qa.y4m"
{ head -n 1 "$WORK/g31.y4m"; y4m_frames "$WORK/g31.y4m" 0 300
  y4m_frames "$WORK/g42.y4m" 0 150; y4m_frames "$WORK/g31.y4m" 300 24; } > "$WORK/b.y4m"
{ head -n 1 "$WORK/g42.y4m"; y4m_frames "$WORK/g42.y4m" 0 150; } > "$WORK/qb.y4m"
for f in a:4 qa:4 b:6 qb:6; do
  "$VCDCTL" encode "$WORK/${f%%:*}.y4m" "$WORK/${f%%:*}.vcds" --gop="${f##*:}"     >/dev/null || { echo "FAIL: encode ${f%%:*}"; exit 1; }
done
"$VCDCTL" build-queries "$WORK/ab.vcdq" 1="$WORK/qa.vcds" 2="$WORK/qb.vcds"   --k=128 >/dev/null || { echo "FAIL: build-queries (one frame apart)"; exit 1; }
AB=("$WORK/ab.vcdq" "$WORK/a.vcds" "$WORK/b.vcds")
"$VCDCTL" monitor "${AB[@]}" --threads=2 > "$WORK/ref-ab.out" \
  || { echo "FAIL: one-frame-apart reference run"; exit 1; }
grep '^MATCH' "$WORK/ref-ab.out" > "$WORK/ref-ab.matches"
if [ "$(grep -c . "$WORK/ref-ab.matches")" -ne 2 ] ||
   ! head -n 1 "$WORK/ref-ab.matches" | grep -q "query 2 on $WORK/b.vcds" ||
   ! tail -n 1 "$WORK/ref-ab.matches" | grep -q "query 1 on $WORK/a.vcds"; then
  echo "FAIL: one-frame-apart fixture broken: expected b's match, then a's:"
  cat "$WORK/ref-ab.matches"
  exit 1
fi
for round in 1 2 3; do
  kill_restore_round "ab-$round" "$WORK/ref-ab.matches" "${AB[@]}" --threads=2
done

if [ $FAILED -ne 0 ]; then
  exit 1
fi
echo "OK: kill-restore equivalence (1, 2 and 3 files), graceful drain, torn-snapshot fallback and format-version refusal hold (seed $SEED)"
exit 0
