#!/usr/bin/env python3
"""Diff a fresh Google-Benchmark JSON against a committed BENCH_*.json.

Two kinds of gates, both machine-readable and CI-friendly:

  * --tolerance: per-benchmark regression check of `--metric` (default
    real_time) for every name present in both files. Only meaningful when
    baseline and fresh ran on comparable hardware, so it is the LOCAL
    gate: rerun the bench on the machine that produced the baseline and
    fail on > tolerance slowdowns.

  * --speedup SLOW FAST MIN: asserts fresh[SLOW]/fresh[FAST] >= MIN using
    only the fresh file. Scale-free, so it is the CI gate — e.g. the
    blocked matmul backend must stay >= 3x faster than naive at 512^3
    whatever the runner's absolute speed.

  * --max-value NAME LIMIT: asserts fresh[NAME] <= LIMIT on the raw
    metric. For count-like benchmarks (e.g. BM_ServeSteadyAllocs reports
    allocations-per-request in real_time), a hard absolute ceiling —
    `--max-value BM_ServeSteadyAllocs 0` is the zero-allocation gate.

Exit code 0 iff every requested gate holds.

Examples:
  scripts/bench_compare.py --fresh fresh.json --baseline BENCH_kernels.json \
      --tolerance 0.5
  scripts/bench_compare.py --fresh fresh.json \
      --speedup 'BM_MatmulBackend/n:512/backend:0' \
                'BM_MatmulBackend/n:512/backend:2' 3.0
"""

import argparse
import json
import re
import sys


def load_benchmarks(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    medians = {}
    for b in doc.get("benchmarks", []):
        # A repeated run (--benchmark_repetitions) is read as its median
        # under the plain benchmark name; the other aggregates (mean,
        # stddev, cv) are skipped so nothing double-counts.
        if b.get("run_type", "iteration") == "iteration":
            out[b["name"]] = b
        elif b.get("aggregate_name") == "median":
            medians[b["run_name"]] = b
    out.update(medians)
    return out


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--fresh", required=True, help="freshly produced bench JSON")
    ap.add_argument("--baseline", help="committed BENCH_*.json to diff against")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="max allowed relative slowdown vs baseline (0.5 = +50%%)",
    )
    ap.add_argument(
        "--metric",
        default="real_time",
        help="benchmark field to compare (real_time, cpu_time, ...)",
    )
    ap.add_argument(
        "--filter",
        default="",
        help="regex; only baseline-compare benchmarks whose name matches",
    )
    ap.add_argument(
        "--speedup",
        nargs=3,
        action="append",
        default=[],
        metavar=("SLOW", "FAST", "MIN"),
        help="require fresh[SLOW]/fresh[FAST] >= MIN (repeatable)",
    )
    ap.add_argument(
        "--max-value",
        nargs=2,
        action="append",
        default=[],
        metavar=("NAME", "LIMIT"),
        help="require fresh[NAME] <= LIMIT on the raw metric (repeatable)",
    )
    ap.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless NAME exists in the fresh file (repeatable)",
    )
    args = ap.parse_args()

    fresh = load_benchmarks(args.fresh)
    failures = []
    checked = 0

    for name in args.require:
        checked += 1
        if name in fresh:
            print(f"ok    present {name}")
        else:
            failures.append(f"MISSING   {name}: not in {args.fresh}")

    for slow, fast, min_ratio in args.speedup:
        for name in (slow, fast):
            if name not in fresh:
                failures.append(f"MISSING   {name}: needed by --speedup")
        if slow not in fresh or fast not in fresh:
            continue
        checked += 1
        ratio = fresh[slow][args.metric] / fresh[fast][args.metric]
        ok = ratio >= float(min_ratio)
        print(
            f"{'ok   ' if ok else 'FAIL '} speedup {fast} vs {slow}: "
            f"{ratio:.2f}x (want >= {float(min_ratio):.2f}x)"
        )
        if not ok:
            failures.append(
                f"SPEEDUP   {fast} only {ratio:.2f}x over {slow} "
                f"(want >= {float(min_ratio):.2f}x)"
            )

    for name, limit in args.max_value:
        if name not in fresh:
            failures.append(f"MISSING   {name}: needed by --max-value")
            continue
        checked += 1
        value = fresh[name][args.metric]
        ok = value <= float(limit)
        print(
            f"{'ok   ' if ok else 'FAIL '} max-value {name}: "
            f"{value:g} (want <= {float(limit):g})"
        )
        if not ok:
            failures.append(
                f"MAX-VALUE {name}: {value:g} exceeds limit {float(limit):g}"
            )

    if args.baseline:
        base = load_benchmarks(args.baseline)
        pattern = re.compile(args.filter) if args.filter else None
        common = [
            n
            for n in base
            if n in fresh and (pattern is None or pattern.search(n))
        ]
        if not common:
            failures.append(
                f"NO-OVERLAP no benchmark names shared between "
                f"{args.baseline} and {args.fresh}"
            )
        for name in sorted(common):
            checked += 1
            b = base[name][args.metric]
            f = fresh[name][args.metric]
            rel = (f - b) / b if b > 0 else 0.0
            ok = rel <= args.tolerance
            print(
                f"{'ok   ' if ok else 'FAIL '} {name}: "
                f"{b:.0f} -> {f:.0f} {base[name].get('time_unit', 'ns')} "
                f"({rel:+.1%})"
            )
            if not ok:
                failures.append(
                    f"REGRESSION {name}: {rel:+.1%} vs baseline "
                    f"(tolerance {args.tolerance:+.1%})"
                )
        only_base = sorted(set(base) - set(fresh))
        if only_base:
            print(f"note: {len(only_base)} baseline benchmarks not re-run "
                  f"(filter or bench change): {', '.join(only_base[:5])}...")

    if checked == 0 and not failures:
        print("bench_compare: nothing to check (no gates requested?)")
        return 1
    if failures:
        print(f"\nbench_compare: {len(failures)} gate(s) failed")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nbench_compare: all {checked} gate(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
