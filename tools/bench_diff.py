#!/usr/bin/env python3
"""Compares two BENCH_hotpath.json documents and fails on regression.

Usage:
  bench_diff.py BASELINE.json CURRENT.json [--max-regress FRAC] [--ratio]

Rows are matched on (order, representation, K, isa) and compared by
windows_per_sec. bench_hotpath runs every configuration on the scalar kernel
ISA and on the dispatched (best) ISA, recorded in each row's "isa". Two
modes:

  absolute (default)  every matched row's windows/sec must be at least
                      (1 - FRAC) x the baseline row. Meaningful only when
                      both documents come from the same machine — use for
                      local before/after runs.

  --ratio             compares the best-ISA/scalar-ISA windows-per-sec
                      ratio per (order, representation, K) instead of raw
                      rates. Both rows run the same code path on the same
                      host, so the ratio divides out absolute machine speed;
                      this is the mode CI uses against the checked-in
                      baseline (tests/data/hotpath_baseline.json), which was
                      recorded on different hardware. A slowdown that hits
                      both ISAs alike (an algorithmic regression outside the
                      kernels) leaves the ratio unchanged: only absolute
                      mode on one machine catches it.

FRAC defaults to 0.10 (a >10% regression fails). Rows present in only one
document are reported but never fail the diff (new configurations must not
need a baseline edit to land). The current document's pooled_alloc_free
meta (every row, both ISAs) must be true in both modes — losing the
zero-allocation contract is a regression regardless of speed.

checkpoint_pause_ms meta (the steady-state intake pause of one checkpoint
barrier, export+encode): when the baseline records it, the current document
must too — dropping the measurement is a regression in both modes. The
value itself is compared only in absolute (same-machine) mode, with a
0.25 ms absolute grace on top of FRAC so timer noise on sub-millisecond
pauses cannot flake the gate.

qos_governor_overhead_pct meta (the relative cost of an enabled-but-idle
overload governor on the executor frame path): when the baseline records
it, the current document must too, and — because a percentage of the same
run on the same machine is already machine-relative — the value is gated
in both modes against a fixed 1% budget.

Exit codes: 0 ok, 1 regression, 2 usage.
"""

import json
import sys

# The idle QoS governor's frame-path overhead budget, in percent.
QOS_OVERHEAD_LIMIT_PCT = 1.0


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"bench_diff: cannot read {path}: {e}\n")
        sys.exit(2)
    if doc.get("bench") != "hotpath" or "rows" not in doc:
        sys.stderr.write(f"bench_diff: {path} is not a hotpath bench document\n")
        sys.exit(2)
    return doc


def row_key(row):
    return (row.get("order"), row.get("representation"), row.get("K"),
            row.get("isa"))


def by_key(doc):
    return {row_key(r): r for r in doc["rows"]}


def ratios(doc):
    """(order, rep, K) -> best-ISA windows/sec divided by scalar-ISA's."""
    out = {}
    rows = by_key(doc)
    for (order, rep, k, isa), row in rows.items():
        if isa == "scalar":
            continue
        scalar = rows.get((order, rep, k, "scalar"))
        if scalar and scalar.get("windows_per_sec", 0) > 0:
            out[(order, rep, k)] = (
                row["windows_per_sec"] / scalar["windows_per_sec"]
            )
    return out


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = [a for a in argv[1:] if a.startswith("--")]
    max_regress = 0.10
    ratio_mode = False
    for f in flags:
        if f == "--ratio":
            ratio_mode = True
        elif f.startswith("--max-regress="):
            try:
                max_regress = float(f.split("=", 1)[1])
            except ValueError:
                sys.stderr.write(f"bench_diff: bad {f}\n")
                return 2
        else:
            sys.stderr.write(f"bench_diff: unknown flag {f}\n{__doc__}")
            return 2
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2

    base_doc, cur_doc = load(args[0]), load(args[1])
    base_isa = base_doc.get("meta", {}).get("kernel_isa", "?")
    cur_isa = cur_doc.get("meta", {}).get("kernel_isa", "?")
    mode = "ratio (best ISA/scalar ISA)" if ratio_mode else "absolute windows/sec"
    print(f"bench_diff: {mode}, max regression {max_regress:.0%}")
    print(f"  baseline: {args[0]} (kernel {base_isa})")
    print(f"  current:  {args[1]} (kernel {cur_isa})")

    failed = []
    if ratio_mode:
        base, cur = ratios(base_doc), ratios(cur_doc)
        for key in sorted(base, key=str):
            if key not in cur:
                print(f"  MISSING {key} (baseline-only; not failing)")
                continue
            change = cur[key] / base[key] - 1.0
            status = "ok"
            if cur[key] < base[key] * (1.0 - max_regress):
                status = "REGRESSION"
                failed.append(key)
            order, rep, k = key
            print(
                f"  {status:>10}  {order}-{rep} K={k}: speedup "
                f"{base[key]:.2f}x -> {cur[key]:.2f}x ({change:+.1%})"
            )
        for key in sorted(set(cur) - set(base), key=str):
            print(f"  NEW {key} (current-only; not failing)")
    else:
        base, cur = by_key(base_doc), by_key(cur_doc)
        for key in sorted(base, key=str):
            if key not in cur:
                print(f"  MISSING {key} (baseline-only; not failing)")
                continue
            b = base[key].get("windows_per_sec", 0.0)
            c = cur[key].get("windows_per_sec", 0.0)
            if b <= 0:
                continue
            change = c / b - 1.0
            status = "ok"
            if c < b * (1.0 - max_regress):
                status = "REGRESSION"
                failed.append(key)
            order, rep, k, isa = key
            print(
                f"  {status:>10}  {order}-{rep} K={k} {isa}: "
                f"{b:.0f} -> {c:.0f} w/s ({change:+.1%})"
            )
        for key in sorted(set(cur) - set(base), key=str):
            print(f"  NEW {key} (current-only; not failing)")

    if cur_doc.get("meta", {}).get("pooled_alloc_free") is not True:
        print("  REGRESSION  pooled_alloc_free is not true in current")
        failed.append("pooled_alloc_free")

    base_pause = base_doc.get("meta", {}).get("checkpoint_pause_ms")
    cur_pause = cur_doc.get("meta", {}).get("checkpoint_pause_ms")
    if base_pause is not None:
        if not isinstance(cur_pause, (int, float)):
            print("  REGRESSION  checkpoint_pause_ms missing in current")
            failed.append("checkpoint_pause_ms")
        elif ratio_mode:
            # Cross-machine: absolute pause is not comparable; presence is.
            print(
                f"          ok  checkpoint_pause_ms: {base_pause:.3f} -> "
                f"{cur_pause:.3f} ms (not gated across machines)"
            )
        else:
            limit = base_pause * (1.0 + max_regress) + 0.25
            status = "ok" if cur_pause <= limit else "REGRESSION"
            if status == "REGRESSION":
                failed.append("checkpoint_pause_ms")
            print(
                f"  {status:>10}  checkpoint_pause_ms: {base_pause:.3f} -> "
                f"{cur_pause:.3f} ms (limit {limit:.3f})"
            )

    base_qos = base_doc.get("meta", {}).get("qos_governor_overhead_pct")
    cur_qos = cur_doc.get("meta", {}).get("qos_governor_overhead_pct")
    if base_qos is not None:
        if not isinstance(cur_qos, (int, float)):
            print("  REGRESSION  qos_governor_overhead_pct missing in current")
            failed.append("qos_governor_overhead_pct")
        else:
            # Already machine-relative (a percentage of the same run on the
            # same box), so unlike the pause it is gated in BOTH modes: the
            # idle governor must cost at most QOS_OVERHEAD_LIMIT_PCT.
            status = "ok" if cur_qos <= QOS_OVERHEAD_LIMIT_PCT else "REGRESSION"
            if status == "REGRESSION":
                failed.append("qos_governor_overhead_pct")
            print(
                f"  {status:>10}  qos_governor_overhead_pct: {base_qos:.2f} -> "
                f"{cur_qos:.2f} % (limit {QOS_OVERHEAD_LIMIT_PCT:.2f})"
            )

    if failed:
        print(f"bench_diff: FAIL ({len(failed)} regression(s))")
        return 1
    print("bench_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
