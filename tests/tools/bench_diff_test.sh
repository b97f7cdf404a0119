#!/usr/bin/env bash
# Pins tools/bench_diff.py's contract: a self-compare passes, a doctored
# best-ISA windows/sec regression fails with exit 1 (both absolute and
# --ratio modes), a slowdown on both ISAs fails only the absolute mode, a
# lost pooled_alloc_free meta fails even when every rate improved, and
# malformed invocations exit 2.
#
# Usage: bench_diff_test.sh <path-to-bench_diff.py> <baseline-json>
set -u

DIFF="${1:?usage: $0 <bench_diff.py> <baseline.json>}"
BASELINE="${2:?usage: $0 <bench_diff.py> <baseline.json>}"
PY="${PYTHON:-python3}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
FAILED=0

check_rc() {
  local desc="$1" want="$2"
  shift 2
  "$PY" "$DIFF" "$@" > "$TMP/out.log" 2>&1
  local rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: $desc: expected exit $want, got $rc"
    cat "$TMP/out.log"
    FAILED=1
  fi
}

# Self-compare: identical documents regress nothing, in either mode.
check_rc "self-compare absolute" 0 "$BASELINE" "$BASELINE"
check_rc "self-compare ratio" 0 "$BASELINE" "$BASELINE" --ratio

# Doctor a 50% windows/sec drop into every best-ISA row: fails the default
# 10% absolute gate and the ratio gate (scalar-ISA rows untouched, so the
# best/scalar speedup halves too).
"$PY" - "$BASELINE" "$TMP/slow.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for row in doc["rows"]:
    if row.get("isa") != "scalar":
        row["windows_per_sec"] *= 0.5
json.dump(doc, open(sys.argv[2], "w"))
EOF
check_rc "best-ISA 2x slowdown, absolute" 1 "$BASELINE" "$TMP/slow.json"
check_rc "best-ISA 2x slowdown, ratio" 1 "$BASELINE" "$TMP/slow.json" --ratio
# A loose-enough threshold must tolerate the same drop.
check_rc "slowdown within threshold" 0 "$BASELINE" "$TMP/slow.json" \
  --ratio --max-regress=0.75

# A slowdown that hits both ISAs alike leaves the ratio unchanged: only the
# absolute (same-machine) mode sees it.
"$PY" - "$BASELINE" "$TMP/bothslow.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for row in doc["rows"]:
    row["windows_per_sec"] *= 0.5
json.dump(doc, open(sys.argv[2], "w"))
EOF
check_rc "both-ISA 2x slowdown, absolute" 1 "$BASELINE" "$TMP/bothslow.json"
check_rc "both-ISA 2x slowdown, ratio (blind)" 0 "$BASELINE" \
  "$TMP/bothslow.json" --ratio

# Losing the zero-allocation contract fails even with better numbers.
"$PY" - "$BASELINE" "$TMP/leaky.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for row in doc["rows"]:
    row["windows_per_sec"] *= 2.0
doc.setdefault("meta", {})["pooled_alloc_free"] = False
json.dump(doc, open(sys.argv[2], "w"))
EOF
check_rc "pooled_alloc_free lost" 1 "$BASELINE" "$TMP/leaky.json"
check_rc "pooled_alloc_free lost, ratio" 1 "$BASELINE" "$TMP/leaky.json" --ratio

# Dropping the checkpoint_pause_ms measurement fails in both modes; a
# blown-up pause fails the absolute gate but is not compared across
# machines (--ratio), where only presence is required.
"$PY" - "$BASELINE" "$TMP/nopause.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc.setdefault("meta", {}).pop("checkpoint_pause_ms", None)
json.dump(doc, open(sys.argv[2], "w"))
EOF
check_rc "checkpoint_pause_ms lost" 1 "$BASELINE" "$TMP/nopause.json"
check_rc "checkpoint_pause_ms lost, ratio" 1 "$BASELINE" "$TMP/nopause.json" \
  --ratio
# A baseline without the meta never demands it (pre-metric baselines).
check_rc "old baseline, no pause meta" 0 "$TMP/nopause.json" "$TMP/nopause.json"
"$PY" - "$BASELINE" "$TMP/slowpause.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
meta = doc.setdefault("meta", {})
meta["checkpoint_pause_ms"] = meta.get("checkpoint_pause_ms", 1.0) * 10 + 10
json.dump(doc, open(sys.argv[2], "w"))
EOF
check_rc "10x checkpoint pause, absolute" 1 "$BASELINE" "$TMP/slowpause.json"
check_rc "10x checkpoint pause, ratio (ungated)" 0 "$BASELINE" \
  "$TMP/slowpause.json" --ratio

# Dropping the qos_governor_overhead_pct measurement fails in both modes;
# blowing its fixed 1% budget fails in both modes too (the percentage is
# already machine-relative, so --ratio gates it as well).
"$PY" - "$BASELINE" "$TMP/noqos.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc.setdefault("meta", {}).pop("qos_governor_overhead_pct", None)
json.dump(doc, open(sys.argv[2], "w"))
EOF
check_rc "qos overhead lost" 1 "$BASELINE" "$TMP/noqos.json"
check_rc "qos overhead lost, ratio" 1 "$BASELINE" "$TMP/noqos.json" --ratio
# A baseline without the meta never demands it (pre-metric baselines).
check_rc "old baseline, no qos meta" 0 "$TMP/noqos.json" "$TMP/noqos.json"
"$PY" - "$BASELINE" "$TMP/slowqos.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc.setdefault("meta", {})["qos_governor_overhead_pct"] = 3.5
json.dump(doc, open(sys.argv[2], "w"))
EOF
check_rc "qos overhead over budget, absolute" 1 "$BASELINE" "$TMP/slowqos.json"
check_rc "qos overhead over budget, ratio" 1 "$BASELINE" "$TMP/slowqos.json" \
  --ratio

# Rows present on only one side are reported but never fail.
"$PY" - "$BASELINE" "$TMP/fewer.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["rows"] = [r for r in doc["rows"] if r.get("K") != 256]
json.dump(doc, open(sys.argv[2], "w"))
EOF
check_rc "baseline-only rows" 0 "$BASELINE" "$TMP/fewer.json"
check_rc "current-only rows" 0 "$TMP/fewer.json" "$BASELINE"

# Usage errors: wrong arity, unknown flag, malformed threshold, not-a-bench
# document, unreadable path.
check_rc "no args" 2
check_rc "one arg" 2 "$BASELINE"
check_rc "unknown flag" 2 "$BASELINE" "$BASELINE" --frobnicate
check_rc "bad threshold" 2 "$BASELINE" "$BASELINE" --max-regress=banana
echo '{"bench":"other"}' > "$TMP/other.json"
check_rc "not a hotpath doc" 2 "$TMP/other.json" "$BASELINE"
check_rc "missing file" 2 "$TMP/nonexistent.json" "$BASELINE"

if [ $FAILED -ne 0 ]; then
  exit 1
fi
echo "OK: bench_diff regression gate behaves as pinned"
exit 0
