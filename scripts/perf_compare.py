#!/usr/bin/env python3
"""Compare two BENCH_*.json exports (schema eden-bench-v1).

    scripts/perf_compare.py BASELINE.json AFTER.json [--threshold PCT]

Prints, for every counter and gauge present in either file, the before/after
values and the relative change, and for every histogram the mean and p99
deltas. Rows whose |change| is below --threshold (default 1%) are folded into
a summary line so regressions stand out.

By default this is a reporting tool and always exits 0. With --gate PCT it
becomes a CI gate: any histogram mean_us/p99_us that grew by more than PCT
percent (histograms record latencies, so growth is a regression) is listed
and the exit status is 1.

Typical use, from the repository root:

    ./build/bench/bench_throughput --json=/tmp/before.json   # on main
    ./build/bench/bench_throughput --json=/tmp/after.json    # on your branch
    scripts/perf_compare.py /tmp/before.json /tmp/after.json

or `cmake --build build --target bench_compare` after dropping the two files
at BENCH_baseline.json / BENCH_after.json in the build directory.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    if doc.get("schema") != "eden-bench-v1":
        print(f"warning: {path} has schema {doc.get('schema')!r}, "
              "expected eden-bench-v1", file=sys.stderr)
    return doc


def fmt(value):
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.2f}"
    return f"{int(value):,}"


def change_pct(before, after):
    if before == 0:
        return None if after == 0 else float("inf")
    return 100.0 * (after - before) / before


def emit_row(name, before, after, threshold, folded):
    pct = change_pct(before, after)
    if pct is None or (pct != float("inf") and abs(pct) < threshold):
        folded.append(name)
        return
    arrow = "new" if pct == float("inf") else f"{pct:+8.1f}%"
    print(f"  {name:<42} {fmt(before):>16} -> {fmt(after):>16}  {arrow}")


def compare_section(title, before, after, threshold):
    names = sorted(set(before) | set(after))
    if not names:
        return
    print(f"{title}:")
    folded = []
    for name in names:
        emit_row(name, before.get(name, 0), after.get(name, 0),
                 threshold, folded)
    if folded:
        print(f"  ({len(folded)} within +/-{threshold:g}%: "
              f"{', '.join(folded[:4])}{', ...' if len(folded) > 4 else ''})")
    print()


def compare_histograms(before, after, threshold, gate=None):
    """Prints the histogram diff; returns [(row, pct)] rows that grew > gate."""
    names = sorted(set(before) | set(after))
    rows = []
    for name in names:
        b, a = before.get(name, {}), after.get(name, {})
        if b.get("count", 0) == 0 and a.get("count", 0) == 0:
            continue
        for stat in ("mean_us", "p99_us"):
            rows.append((f"{name}.{stat}", b.get(stat, 0), a.get(stat, 0)))
    regressions = []
    if not rows:
        return regressions
    print("histograms:")
    folded = []
    for name, b, a in rows:
        emit_row(name, b, a, threshold, folded)
        if gate is not None and b > 0:
            pct = change_pct(b, a)
            if pct is not None and pct > gate:
                regressions.append((name, pct))
    if folded:
        print(f"  ({len(folded)} within +/-{threshold:g}%)")
    print()
    return regressions


def main():
    parser = argparse.ArgumentParser(
        description="Diff two eden-bench-v1 JSON exports.")
    parser.add_argument("baseline")
    parser.add_argument("after")
    parser.add_argument("--threshold", type=float, default=1.0,
                        help="fold rows changing less than this %% (default 1)")
    parser.add_argument("--gate", type=float, default=None, metavar="PCT",
                        help="exit 1 if any histogram mean/p99 grew by more "
                             "than PCT%% (latency regression gate)")
    args = parser.parse_args()

    base = load(args.baseline)
    new = load(args.after)
    if base.get("bench") != new.get("bench"):
        print(f"warning: comparing different benches "
              f"({base.get('bench')!r} vs {new.get('bench')!r})",
              file=sys.stderr)

    print(f"bench: {new.get('bench')}   "
          f"baseline: {args.baseline}   after: {args.after}\n")
    bm, nm = base.get("metrics", {}), new.get("metrics", {})
    compare_section("counters", bm.get("counters", {}),
                    nm.get("counters", {}), args.threshold)
    compare_section("gauges", bm.get("gauges", {}),
                    nm.get("gauges", {}), args.threshold)
    regressions = compare_histograms(bm.get("histograms", {}),
                                     nm.get("histograms", {}), args.threshold,
                                     args.gate)
    if args.gate is not None and regressions:
        print(f"GATE FAILED: {len(regressions)} histogram stat(s) regressed "
              f"more than {args.gate:g}%:")
        for name, pct in regressions:
            print(f"  {name}  +{pct:.1f}%")
        sys.exit(1)


if __name__ == "__main__":
    main()
