"""cirjump benchmark: batched exact draws, density transforms and path
simulation, driven in-process through the public library API.

    python3 perfbench/run.py --workload sample_jump --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one caller, closed loop. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is the separate traced run that gives the per-layer
metrics (see README.md). ``--workload all`` runs every workload untraced and
traced in child processes and prints every metric. The last line of
standard output is the JSON result; the line before it is a JSON report with
the environment, op counts and the workload's own named metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import startup
from tracing import Tracer

SETUP_PROBES = 6          # fresh-interpreter start-ups besides this process's own
# operations in a timed loop at least (whole cycles), and in an untimed pass:
# the traced pass over the other workloads and the second-seed re-check
MIN_OPS = {"sample_jump": 2, "transform_density": 8, "paths_jump": 6}
PASS_OPS = {"sample_jump": 2, "transform_density": 2, "paths_jump": 6}
OUT_DIR = os.path.join(startup.ROOT, ".bench_out")


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(startup.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tail(values):
    """(value, percentile): the highest whole percentile, by nearest rank,
    with at least ten values above it; the median when there are too few."""
    v = sorted(values)
    for p in range(99, 49, -1):
        rank = math.ceil(p * len(v) / 100)
        if len(v) - rank >= 10:
            return v[rank - 1], p
    return statistics.median(v), 50


def closed_loop(wl, seed, seconds, min_ops):
    """Run operations back to back for ``seconds`` (and at least ``min_ops``).

    A host probe runs between operations; each operation's time is also
    given scaled by PROBE_REF_MS over the mean of the probes around it.
    Returns rows (kind, op_ms, scaled_ms, units, ok) and the run verdict.
    """
    tr, rows = wl.tr, []
    wl.reset()
    deadline = perf_counter() + seconds
    probe = startup.host_probe()
    i = 0
    while i < min_ops or perf_counter() < deadline:
        tr.op = f"{wl.name}:{seed}:{i}"
        try:
            t0 = perf_counter()
            with tr.span("op." + wl.name):
                kind, units, out = wl.op(seed, i)
            ms = (perf_counter() - t0) * 1e3
            ok = wl.check(seed, i, out)
            if tr.enabled:
                wl.traced_extras(seed, i, out)
        except Exception:
            traceback.print_exc()
            kind, units, ms, ok = "error", 0, math.nan, False
        after = startup.host_probe()
        rows.append((kind, ms, ms * startup.PROBE_REF_MS / (0.5 * (probe + after)),
                     units, ok))
        probe = after
        i += 1
    tr.op = None
    return rows, wl.finish(seed)


def end_to_end(wl, rows, col):
    """End-to-end numbers of one closed loop from time column ``col`` (1 raw,
    2 scaled to the reference host speed), plus the workload's named rates.
    Operations after the last whole cycle are left out, so every run
    weighs the workload's operation classes alike.

    Rates are units per second at each operation kind's median time, so a
    few seconds of a slowed host do not move them more than they move the
    median itself.
    """
    good = [r for r in rows[:len(rows) // wl.cycle * wl.cycle] if r[4]]
    by_kind = {}
    for r in good:
        by_kind.setdefault(r[0], []).append((r[col], r[3]))
    med = {k: (statistics.median(m for m, _ in v), sum(u for _, u in v), len(v))
           for k, v in by_kind.items()}
    primary = [ms for ms, _ in by_kind[wl.primary]]
    op_tail, pct = tail(primary)
    named = {name: 1e3 * med[k][1] / (med[k][0] * med[k][2])
             for k, name in wl.throughputs.items()}
    rate = 1e3 * sum(u for _, u, _ in med.values()) / sum(m * n for m, _, n in med.values())
    return ({"op_ms_p50": med[wl.primary][0], "op_ms_tail": op_tail,
             "throughput_per_s": rate},
            {"tail_percentile": pct, "primary_ops": len(primary),
             "ops_beyond_tail": sum(ms > op_tail for ms in primary), **named})


def setup_times(workload, own):
    """Start-up timings of this process plus SETUP_PROBES fresh interpreters."""
    runs = [own]
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, os.path.join(startup.ROOT, "perfbench", "startup.py"),
                              workload], capture_output=True, text=True,
                             timeout=120, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    for r in runs:
        r["scaled_setup_s"] = r["setup_s"] * startup.PROBE_REF_MS / r["probe_ms"]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def environment():
    import numpy
    import scipy
    digest = hashlib.sha256()
    src = os.path.join(startup.SRC, "cirjump")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(),
            "src_sha256": digest.hexdigest()}


def git_commit():
    """HEAD of the enclosing git checkout, read from .git; None outside one."""
    git = os.path.join(startup.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def make_workload(name, tracer, cfg=None, engine=None):
    """The workload ``name``, loading its configuration and engine unless given.
    Imported here, after the timed start-up, because it loads numpy."""
    import cirjump as cj
    import workloads
    if cfg is None:
        cfg = cj.load_config(startup.config_path(name))
        engine = startup.build_engine(cj, name, cfg)
    return workloads.WORKLOADS[name](cfg, engine, tracer)


def run(args):
    tracer = Tracer(enabled=bool(args.trace))
    cfg, engine, own = startup.start(args.workload, tracer.span)
    setup = setup_times(args.workload, own)
    wl = make_workload(args.workload, tracer, cfg, engine)
    wl.warm_up(args.seed)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "workers": 1, "environment": environment()}
    ok_all, attempted, failed = True, 0, 0

    def account(w, rows, passed, label):
        nonlocal ok_all, attempted, failed
        n_bad = len(rows) if not passed else sum(not r[4] for r in rows)
        attempted += len(rows)
        failed += n_bad
        ok_all = ok_all and n_bad == 0
        report.setdefault("ops", {})[label] = len(rows)
        report.setdefault("checks", {})[label] = {"passed": n_bad == 0, **w.summary()}

    metrics = {}
    if not args.trace:
        rows, passed = closed_loop(wl, args.seed, args.seconds, MIN_OPS[wl.name])
        account(wl, rows, passed, "main")
        e2e, named = end_to_end(wl, rows, 2)
        metrics = {"setup_s": setup["scaled_setup_s"],
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   **e2e}
        raw, raw_named = end_to_end(wl, rows, 1)
        report["named"] = named
        report["raw"] = {"setup_s": setup["setup_s"], **raw, **raw_named}
    else:
        half = args.seconds / 2.0
        tracer.enabled = False
        rows, passed = closed_loop(wl, args.seed, half, MIN_OPS[wl.name])
        account(wl, rows, passed, "untraced")
        untraced, _ = end_to_end(wl, rows, 2)
        tracer.enabled = True
        layer = {"cli.import_s": setup["import_s"],
                 "config.load_config_ms": setup["load_config_ms"],
                 "kernels.engine_build_ms": setup["engine_build_ms"]}
        counts = [{}, {}]
        others = [make_workload(n, tracer) for n in startup.CONFIGS if n != wl.name]
        for w, seconds, n in [(wl, half, MIN_OPS[wl.name])] + [
                (w, 0.0, PASS_OPS[w.name]) for w in others]:
            if w is not wl:
                w.warm_up(args.seed)
            with w.tracing():
                rows, passed = closed_loop(w, args.seed, seconds, n)
            account(w, rows, passed, "traced:" + w.name)
            if w is wl:
                traced, _ = end_to_end(w, rows, 2)
            layer.update(w.layer_metrics(args.seed))
            for k in range(2):
                counts[k].update(w.counts(args.seed))
        if counts[0] != counts[1]:
            ok_all = False
        report["counts_repeat"] = counts[0] == counts[1]
        layer.update(counts[0])
        layer["trace.overhead.op_ms_p50"] = traced["op_ms_p50"] - untraced["op_ms_p50"]
        layer["trace.overhead.throughput_per_s"] = (traced["throughput_per_s"]
                                                    - untraced["throughput_per_s"])
        report["untraced"], report["traced"] = untraced, traced
        metrics = layer
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
        tracer.enabled = False

    # every correctness check again, on a second seed
    seed2 = args.seed + 1_000_003
    rows, passed = closed_loop(wl, seed2, 0.0, PASS_OPS[wl.name])
    account(wl, rows, passed, "second_seed")
    report["second_seed"] = seed2
    report.setdefault("named", {})["failed_frac"] = failed / attempted

    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result = {"correct": ok_all, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": u}
                          for k, u in units.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


NAMED_UNITS = {"draws_per_s": "1/s", "transforms_per_s": "1/s",
               "skeleton_paths_per_s": "1/s", "euler_paths_per_s": "1/s",
               "branching_paths_per_s": "1/s", "failed_frac": "1",
               "tail_percentile": "%", "primary_ops": "count",
               "ops_beyond_tail": "count"}


def run_all(args):
    """Every workload, untraced then traced, each in a child process."""
    code = 0
    for name in startup.CONFIGS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = out.stdout.strip().splitlines()
            if out.returncode or len(lines) < 2:
                sys.stderr.write(out.stderr)
                code = 1
                continue
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            print(f"== {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for key, m in result["metrics"].items():
                print(f"  {key:42s} {m['value']:14.6g} {m['unit']}")
            for key, v in report.get("named", {}).items():
                print(f"  {key:42s} {v:14.6g} {NAMED_UNITS[key]}")
    return code


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=list(startup.CONFIGS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    needed = [os.path.join(startup.SRC, "cirjump", "__init__.py")]
    needed += sorted({startup.config_path(w) for w in startup.CONFIGS})
    absent = [path for path in needed if not os.path.isfile(path)]
    if absent:
        sys.stderr.write("not a cirjump checkout; missing: "
                         + ", ".join(os.path.relpath(a, startup.ROOT) for a in absent) + "\n")
        return 2
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
