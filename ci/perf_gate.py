#!/usr/bin/env python3
"""Perf gate: compare a freshly benched CSV against its checked-in baseline.

Usage: perf_gate.py BASELINE.csv CANDIDATE.csv [--threshold 0.25]
       perf_gate.py --ratio RESULTS.csv [--threshold 0.03]

Both files are the per-op CSVs the benches record through the shared
harness (`results/dispatch.csv`, `results/tracker_scale.csv`, ...): a
header row, then one row per variant. The value is the column headed
`median_ns`; the columns before it form the variant key, and columns
after it (`iqr_ns`, a hit rate, a measured/modeled mode) are ignored.

In the default two-file mode the gate fails (exit 1) when

* any baseline variant is missing from the candidate (a bench leg
  silently disappeared), or
* any variant's per-op time exceeds its baseline by more than the
  threshold (default 25%).

Variants new in the candidate are reported but never fail the gate, and
improvements are simply printed — the checked-in baseline is only ratcheted
down by re-recording it deliberately.

In `--ratio` mode a single freshly benched CSV is checked against itself:
rows whose last key column is the on-tag (default `on`) are paired with
the row sharing every other key column but tagged with the off-tag
(default `off`), and the gate fails when any `on` time exceeds its `off`
partner by more than the threshold (default 3%, the continuous profiler's
overhead budget), or when either side of a pair is missing. A *negative*
threshold turns the gate into a speedup floor: `--threshold=-0.5` with
`--on-tag workers4 --off-tag serial` demands the 4-worker decode run in
under half the serial time (`results/parallel_decode.csv`).

A referenced CSV that is missing or unreadable is a clean, explicit
failure (`perf-gate: <path>: cannot read: ...`), not a traceback — the
usual cause is the bench that records it not having run.
"""

import argparse
import csv
import sys


VALUE_COL = "median_ns"


def load(path):
    """Returns {variant-key-tuple: median per-op ns} for one CSV."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as e:
        sys.exit(f"perf-gate: {path}: cannot read: {e.strerror or e} "
                 "(did the bench that records this CSV run?)")
    if not rows or VALUE_COL not in rows[0]:
        sys.exit(f"perf-gate: {path}: no {VALUE_COL!r} column in header")
    if len(rows) < 2:
        sys.exit(f"perf-gate: {path}: no data rows")
    col = rows[0].index(VALUE_COL)
    if col == 0:
        sys.exit(f"perf-gate: {path}: no key columns before {VALUE_COL!r}")
    out = {}
    for row in rows[1:]:
        if len(row) <= col:
            sys.exit(f"perf-gate: {path}: row {row!r} has no {VALUE_COL} "
                     "value")
        try:
            out[tuple(row[:col])] = float(row[col])
        except ValueError:
            sys.exit(f"perf-gate: {path}: non-numeric per-op value in {row!r}")
    return out


def ratio_gate(args):
    """On/off self-comparison of one CSV (see module docstring)."""
    threshold = args.threshold if args.threshold is not None else 0.03
    rows = load(args.baseline)
    on = {k[:-1]: v for k, v in rows.items() if k[-1] == args.on_tag}
    off = {k[:-1]: v for k, v in rows.items() if k[-1] == args.off_tag}
    if not on and not off:
        sys.exit(f"perf-gate: {args.baseline}: no "
                 f"{args.on_tag!r}/{args.off_tag!r} rows to pair")

    failures = []
    print(f"perf-gate: {args.baseline} {args.on_tag} vs {args.off_tag} "
          f"(threshold {threshold:+.0%})")
    for key in sorted(set(on) | set(off)):
        name = "/".join(key) or "(all)"
        if key not in on or key not in off:
            tag = args.on_tag if key not in on else args.off_tag
            failures.append(f"{name}: no {tag!r} row to pair")
            print(f"  {name:<24} UNPAIRED (missing {tag!r})")
            continue
        o, f = on[key], off[key]
        ratio = o / f if f > 0 else (1.0 if o == 0 else float("inf"))
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {args.on_tag} {o:.2f} ns/op vs "
                f"{args.off_tag} {f:.2f} ({ratio - 1.0:+.1%})")
        print(f"  {name:<24} {f:>10.2f} -> {o:>10.2f} ns/op  "
              f"({ratio - 1.0:+7.1%})  {verdict}")

    if failures:
        print("perf-gate: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    print("perf-gate: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate", nargs="?")
    ap.add_argument("--threshold", type=float, default=None,
                    help="allowed fractional per-op regression "
                         "(default 0.25, or 0.03 in --ratio mode); a "
                         "negative value in --ratio mode demands a speedup "
                         "(-0.5: on-tag rows must halve their off-tag "
                         "partner). Use --threshold=-0.5 syntax for "
                         "negative values")
    ap.add_argument("--ratio", action="store_true",
                    help="self-compare one CSV: pair rows by key, gating "
                         "on-tag rows against their off-tag partners")
    ap.add_argument("--on-tag", default="on",
                    help="variant tag of the gated rows (default 'on')")
    ap.add_argument("--off-tag", default="off",
                    help="variant tag of the reference rows (default 'off')")
    args = ap.parse_args()

    if args.ratio:
        if args.candidate is not None:
            ap.error("--ratio takes a single CSV")
        return ratio_gate(args)
    if args.candidate is None:
        ap.error("two-file mode needs BASELINE and CANDIDATE")
    if args.threshold is None:
        args.threshold = 0.25

    base = load(args.baseline)
    cand = load(args.candidate)

    failures = []
    print(f"perf-gate: {args.candidate} vs {args.baseline} "
          f"(threshold +{args.threshold:.0%})")
    for key in sorted(base):
        name = "/".join(key)
        if key not in cand:
            failures.append(f"{name}: present in baseline but not benched")
            print(f"  {name:<24} MISSING")
            continue
        b, c = base[key], cand[key]
        # A zero baseline is a hard pin (e.g. cold-start trap counts):
        # staying at zero is fine, any non-zero value is a regression.
        ratio = c / b if b > 0 else (1.0 if c == 0 else float("inf"))
        verdict = "ok"
        if ratio > 1.0 + args.threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {c:.2f} ns/op vs baseline {b:.2f} "
                f"({ratio - 1.0:+.1%})")
        print(f"  {name:<24} {b:>10.2f} -> {c:>10.2f} ns/op  "
              f"({ratio - 1.0:+7.1%})  {verdict}")
    for key in sorted(set(cand) - set(base)):
        print(f"  {'/'.join(key):<24} (new variant, {cand[key]:.2f} ns/op — "
              f"not gated)")

    if failures:
        print("perf-gate: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    print("perf-gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
