"""The benchmark's traced hooks, on a short run of every workload.

Each workload of ``perfbench/`` is built with an enabled tracer, warmed up
and run for a few operations inside its ``tracing()`` context, as the
traced benchmark run does; then its per-layer metrics and counts are read.
Every per-layer metric of ``BENCHMARK.json`` that the workloads produce
must come back finite. ``Tracer.median_ms`` raises for a span that was
never recorded, so a change that stops making a traced call (by caching
it away, say) fails here rather than in a full benchmark run.
"""

import importlib
import json
import math
import os
import sys

import pytest

from cirjump.verify import CHUNK_SIZE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED = 3
# a paths_jump pass makes two branching paths; on seed 1 neither draws a
# jump, on seeds 2 and 3 one does, so a span that only some paths reach is
# missing on one of these seeds
PATH_SEEDS = (1, 2, 3)
# per-layer metrics that perfbench/run.py measures itself, not the workloads
RUN_LEVEL = ("cli.", "config.", "kernels.engine_build_ms", "trace.overhead.")


@pytest.fixture(scope="module")
def bench():
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    return importlib.import_module("run"), importlib.import_module("tracing")


def _workload_metrics(bench, name, seed):
    run, tracing = bench
    wl = run.make_workload(name, tracing.Tracer(enabled=True))
    wl.warm_up(seed)
    with wl.tracing():
        rows, passed = run.closed_loop(wl, seed, 0.0, run.PASS_OPS[name])
    assert passed and rows and all(r[4] for r in rows), (name, seed)
    return {**wl.layer_metrics(seed), **wl.counts(seed)}


def test_traced_hooks_give_every_layer_metric(bench):
    run, _ = bench
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {}
    for w in spec["workloads"]:
        seeds = PATH_SEEDS if w["name"] == "paths_jump" else (SEED,)
        for seed in seeds:
            metrics.update(_workload_metrics(bench, w["name"], seed))
    wanted = {m["name"] for m in spec["per_layer"]
              if not m["name"].startswith(RUN_LEVEL)}
    assert set(metrics) == wanted
    assert all(math.isfinite(float(v)) for v in metrics.values()), metrics


def test_sample_jump_counts_the_driving_measure(bench):
    # jumps per draw on the benchmark's own path: its mean is
    # mass * int_s^t a~(v) dv, within 4 standard errors of a Poisson mean
    run, tracing = bench
    wl = run.make_workload("sample_jump", tracing.Tracer(enabled=True))
    c, smp = wl.cfg, wl.smp
    rate = smp.nu.mass_above(smp.delta) * c.coeffs.a_tilde.integral(c.s, c.t)
    got = wl.counts(SEED)["samplers.jumps_per_draw"]
    assert abs(got - rate) <= 4.0 * math.sqrt(rate / CHUNK_SIZE), (got, rate)
