"""Paired benchmark runs of two checkouts, parent against change.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

Before the first pair it prints the line count of ``src/cirjump/*.py`` in
both checkouts, in total and for every file whose count differs, with the
change's difference from the parent. It also compiles ``src/`` and
``perfbench/`` of both checkouts (``compileall``, with this interpreter),
so both start with the same up-to-date bytecode caches: ``setup_s`` times
``import cirjump`` in a fresh interpreter, and a checkout without a cache
would otherwise compile every module on every run under
``PYTHONDONTWRITEBYTECODE=1``.

Pair i runs ``perfbench/run.py --workload W --seed K+i --seconds S --trace 0``
in both checkouts, one after the other; even pairs run the parent first, odd
pairs the change. For every end-to-end metric of the change's
``BENCHMARK.json`` it prints both sides' medians, the parent's quartiles and
the pairs the change wins in the direction of the metric's ``better`` (ties
count for neither side). After the pairs it makes one traced run
(``--trace 1``, seed K) in each checkout, whose result is checked alone.
It exits 1 when any run fails, that is exits nonzero, prints no result or
gives ``correct`` false or ``failed`` above 0. A failed run's line names
why: every failed check of its report line with that check's summary (for
instance ``second_seed: laplace_K_max_abs_z=3.26``), so a known false
failure of a check can be told from a fault.

Stdlib only. It writes no file of its own but the bytecode caches; each
``perfbench/run.py`` run writes its report under its own checkout, as it
always does.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import json
import os
import statistics
import subprocess
import sys


def end_to_end_metrics(checkout):
    """The ``end_to_end`` entries of ``BENCHMARK.json`` in ``checkout``."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def failed_checks(report_line):
    """Every check that the ``{"report": ...}`` line marks failed, with its
    summary: ``label: key=value ...``, joined by "; "."""
    try:
        checks = json.loads(report_line)["report"]["checks"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return ""
    return "; ".join(
        label + ":" + "".join(f" {k}={v:.3g}" if isinstance(v, float) else f" {k}={v}"
                              for k, v in check.items() if k != "passed")
        for label, check in checks.items() if not check.get("passed", True))


def source_lines(checkout):
    """Line count of every ``src/cirjump/*.py`` in ``checkout``, by file name."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(checkout, "src", "cirjump", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = sum(1 for _ in fh)
    return counts


def size_report(parent, change):
    """Lines of the package in both checkouts, total first, then every file
    whose count differs: ``name parent -> change (difference)``."""
    def line(name, p, c):
        return f"{name} {p} -> {c} ({c - p:+d})"

    rows = [line("src/cirjump/*.py lines", sum(parent.values()), sum(change.values()))]
    for name in sorted(set(parent) | set(change)):
        p, c = parent.get(name, 0), change.get(name, 0)
        if p != c:
            rows.append("  " + line(name, p, c))
    return rows


def compile_caches(checkout):
    """Compile the modules a run imports, ``src/`` and ``perfbench/`` of
    ``checkout``, into their ``__pycache__``; returns the directories
    compiled."""
    dirs = [d for d in ("src", "perfbench")
            if os.path.isdir(os.path.join(checkout, d))]
    for d in dirs:
        if not compileall.compile_dir(os.path.join(checkout, d), quiet=1):
            raise SystemExit(f"compileall failed in {os.path.join(checkout, d)}")
    return dirs


def run_once(checkout, workload, seed, seconds, trace=0):
    """One benchmark run: (the JSON result, None), or (None, why it
    failed)."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=600 + 20 * seconds)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.stderr.write(out.stderr)
        return None, f"exit {out.returncode}, no result"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, "no result line"
    if not result.get("correct") or result.get("failed", 1) > 0:
        why = failed_checks(lines[-2]) if len(lines) > 1 else ""
        return None, why or (f"correct={result.get('correct')} "
                             f"failed={result.get('failed')}")
    return result, None


def _status(result, why):
    return "ok" if result else f"FAILED ({why})"


def quartiles(values):
    """(first quartile, third quartile), inclusive method; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent_runs, change_runs, metrics):
    """One row per metric from paired results (the i-th run of each side is
    pair i): name, unit, parent median, parent quartiles, change median,
    relative change of the median, and the pairs the change wins."""
    rows = []
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        par = [r["metrics"][name]["value"] for r in parent_runs]
        chg = [r["metrics"][name]["value"] for r in change_runs]
        p50, c50 = statistics.median(par), statistics.median(chg)
        rows.append({
            "name": name, "unit": m["unit"], "parent": p50,
            "parent_quartiles": quartiles(par), "change": c50,
            "rel": (c50 - p50) / p50 if p50 else float("nan"),
            "wins": sum(sign * (c - p) > 0 for p, c in zip(par, chg)),
            "pairs": len(par)})
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for row in size_report(*(source_lines(c) for c in sides.values())):
        print(row, flush=True)
    for side, checkout in sides.items():
        dirs = compile_caches(checkout)
        print(f"compiled {', '.join(d + '/' for d in dirs) or 'nothing'} of "
              f"{side}: bytecode caches up to date", flush=True)
    runs = {"parent": [], "change": []}
    failed = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            results[side], why = run_once(sides[side], args.workload, seed,
                                          args.seconds)
            print(f"pair {i + 1} seed {seed} {side}: "
                  + _status(results[side], why), flush=True)
        if None in results.values():
            failed += 1
            continue
        for side in runs:
            runs[side].append(results[side])
    if runs["parent"]:
        print(f"{args.workload}: {len(runs['parent'])} pairs, {args.seconds:g} s runs, "
              "median parent [quartiles] -> change, change wins")
        for r in summarize(runs["parent"], runs["change"],
                           end_to_end_metrics(sides["change"])):
            q1, q3 = r["parent_quartiles"]
            print(f"  {r['name']:18s} {r['parent']:.6g} [{q1:.6g}, {q3:.6g}] -> "
                  f"{r['change']:.6g} {r['unit']} ({100 * r['rel']:+.1f} %), "
                  f"{r['wins']}/{r['pairs']}")
    for side, checkout in sides.items():
        ok, why = run_once(checkout, args.workload, args.seed, args.seconds,
                           trace=1)
        print(f"traced seed {args.seed} {side}: " + _status(ok, why), flush=True)
        failed += ok is None
    if failed:
        print(f"{failed} pair(s) or traced run(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
