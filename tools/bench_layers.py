"""Per-layer sampler and transform timings, written to ``BENCH_<LABEL>.json``.

    python3 tools/bench_layers.py LABEL

For every configuration under ``demos/configs`` and each of ``sample_h``,
``sample_i``, ``sample_itilde`` (given a jump measure) and ``sample_k`` it
draws 10^6 values at the configuration's (s, t, y), in chunks on
substreams (``SEED``, j) as ``verify`` draws them, three times in this one
process. A row gives every repeat's sampler time as seconds per 10^6
draws, their best and their median (two runs of unchanged code can differ
by tens of percent, so compare the repeats, not one number), and the max
|z| of the draws' empirical transform against the
component's closed form on the configuration's lambda grid: a change that
is faster but draws the wrong law shows in the same row. Only the sampler
calls are timed, not the transform sums.

Transform rows time ``laplace_K``, ``laplace_H``, ``laplace_I`` and
``laplace_Itilde`` (given a jump measure) as ``cirjump laplace`` computes
them, on every demo configuration's lambda grid at its (s, t, y): one
measure kind each, none, atoms or a density. A row gives every repeat's
milliseconds per call (a repeat is ``CALLS`` calls), their best and their
median, and the largest error estimate the transform returns.

``bd`` rows time the kernel pair (B, D) on every demo configuration and
on ``jump_model_tabulated``, jump_model with the smooth ``TABULATED_BETA``
and ``TABULATED_SIGMA``, whose primitive table is tabulated: the
primitive-table build, ``kernels.bd`` on the configuration's (s, t) (one
scalar pair), and ``kernels.bd`` on ``NODES`` points of [s, t) against the
scalar t (a node array, as a transform's integrand reads it). A row gives
every repeat's microseconds per call (a repeat is ``BD_CALLS`` calls),
their best and their median, and whether the table is exact.

One more row set, ``jump_model_sine_a``, times ``sample_i`` and
``sample_k`` on ``jump_model`` with the clipped-sine input rate ``SINE_A``:
a non-piecewise-constant ``alpha``, so I is drawn on the 64-cell grid of
``n_cells``. Its law converges only as the grid refines, so its max |z|
records that known I-grid bias and its ``transform_passed`` is null: no
bound applies.

The file also records the environment: the core count and the cores
this process may run on (from two on, a batch ``sample_k`` draws ITilde
on a second thread, so its row depends on them), the Python, numpy and
PyYAML versions, the bit generator of every stream, the git revision,
whether the tree differs from it, and a digest of ``src/cirjump``, which
names the code measured when the file is made before that code is
committed. It is written at the root of the
checkout; the tool imports ``cirjump`` from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import cirjump as cj  # noqa: E402
from cirjump.kernels import _PrimitiveTable  # noqa: E402
from cirjump.numerics import BIT_GENERATOR  # noqa: E402
from cirjump.verify import _engines, mc_statistics  # noqa: E402

CONFIGS = os.path.join(ROOT, "demos", "configs")
# component of COMPONENTS timed for each sampler method
LAYERS = {"sample_h": "H", "sample_i": "I", "sample_itilde": "Itilde",
          "sample_k": "K"}
SEED = 20201019
CALLS = 50    # transform calls timed per repeat
# the clipped-sine input rate of the jump_model_sine_a row set
SINE_A = cj.clipped_sine(0.4, 0.5, 3.0)
# smooth beta and sigma of the jump_model_tabulated bd rows
TABULATED_BETA = cj.piecewise_linear([0.0, 0.8, 2.0], [0.5, 1.5, 1.0])
TABULATED_SIGMA = cj.clipped_sine(1.2, 0.3, 2.0, 0.4)
BD_CALLS = 2000    # bd calls (or table builds) timed per repeat
NODES = 128        # points of the node-array bd row


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    """Core counts, library versions, bit generator, git revision and
    source digest."""
    digest = hashlib.sha256()
    src = os.path.join(SRC, "cirjump")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "pyyaml": yaml.__version__,
            "bit_generator": BIT_GENERATOR,
            "git_revision": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def layer_row(cfg, layer, draws, repeats, seed, bounded=True):
    """Seconds per 10^6 draws of every one of ``repeats`` runs, their best
    and median, and the transform's max |z| of one sampler method on one
    configuration; its pass flag is None where the law is not ``bounded``."""
    comp = cj.COMPONENTS[LAYERS[layer]]
    sampler, kernels = _engines(cfg.coeffs, cfg.nu, cfg.n_cells, cfg.delta)
    grid = np.asarray(cfg.lambda_grid, dtype=float)
    s, t, y = cfg.s, cfg.t, cfg.y
    spent = []

    def draw(g, m):
        t0 = perf_counter()
        x = comp.draw(sampler, g, s, t, y, m)
        spent.append(perf_counter() - t0)
        return x

    times = []
    for _ in range(repeats):    # the same seed: every repeat draws the same values
        spent.clear()
        stats = mc_statistics(draw, draws, grid, seed)
        times.append(sum(spent) * 1e6 / draws)
    cmp = cj.LaplaceComparison.from_stats(
        stats, comp.laplace(kernels, s, t, y, grid)[0], grid, seed=seed)
    return {"layer": layer, "s_per_1e6_draws": min(times),
            "s_per_1e6_draws_median": statistics.median(times),
            "s_per_1e6_draws_repeats": times,
            "transform_max_abs_z": float(cmp.max_abs_z),
            "transform_passed": bool(cmp.passed) if bounded else None}


def transform_row(cfg, name, repeats, calls=CALLS):
    """Milliseconds per call of every one of ``repeats`` runs of ``calls``
    calls, their best and median, and the largest error estimate of the
    transform of component ``name`` on one configuration's lambda grid."""
    comp = cj.COMPONENTS[name]
    kernels = cj.get_kernels(cfg.coeffs, cfg.nu, tol=cfg.kernel_tol,
                             nu_tol=cfg.nu_tol)    # as ``cirjump laplace``
    grid = np.asarray(cfg.lambda_grid, dtype=float)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            _, err = comp.laplace(kernels, cfg.s, cfg.t, cfg.y, grid)
        times.append((perf_counter() - t0) * 1e3 / calls)
    return {"layer": f"laplace_{name}", "ms_per_call": min(times),
            "ms_per_call_median": statistics.median(times),
            "ms_per_call_repeats": times,
            "max_error_estimate": float(np.max(err))}


def bd_rows(cfg, name, repeats, calls=BD_CALLS):
    """Microseconds per call of every one of ``repeats`` runs of ``calls``
    calls, their best and median, of the primitive-table build and of
    ``kernels.bd`` on one pair and on a node array of one configuration."""
    kernels = cj.get_kernels(cfg.coeffs)
    nodes = np.linspace(cfg.s, cfg.t, NODES + 1)[:-1]
    work = {"table_build": lambda: _PrimitiveTable(cfg.coeffs),
            "bd_pair": lambda: kernels.bd(cfg.s, cfg.t),
            "bd_nodes": lambda: kernels.bd(nodes, cfg.t)}
    rows = []
    for layer, call in work.items():
        n = max(1, calls // 100) if layer == "table_build" else calls
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(n):
                call()
            times.append((perf_counter() - t0) * 1e6 / n)
        rows.append({"config": name, "s": cfg.s, "t": cfg.t, "layer": layer,
                     "exact": kernels.table.exact, "us_per_call": min(times),
                     "us_per_call_median": statistics.median(times),
                     "us_per_call_repeats": times})
    return rows


def row_sets():
    """(name, configuration, layers, bounded) of every row set: each demo
    config with every layer it can draw, then jump_model_sine_a."""
    sets = []
    for name in sorted(os.listdir(CONFIGS)):
        if not name.endswith(".yaml"):
            continue
        cfg = cj.load_config(os.path.join(CONFIGS, name))
        # no jump input: no ITilde to draw, no transform
        layers = [l for l in LAYERS if l != "sample_itilde" or cfg.nu is not None]
        sets.append((name[:-len(".yaml")], cfg, layers, True))
    jump = cj.load_config(os.path.join(CONFIGS, "jump_model.yaml"))
    sine = dataclasses.replace(jump, coeffs=dataclasses.replace(jump.coeffs,
                                                                a=SINE_A))
    sets.append(("jump_model_sine_a", sine, ["sample_i", "sample_k"], False))
    return sets


def bench_layers(draws=10 ** 6, repeats=3, seed=SEED, calls=CALLS,
                 bd_calls=BD_CALLS):
    """The content of a ``BENCH_<LABEL>.json`` file."""
    rows, transforms, bd = [], [], []
    for name, cfg, layers, bounded in row_sets():
        if bounded:
            bd += bd_rows(cfg, name, repeats, bd_calls)
        for layer in layers:
            at = {"config": name, "s": cfg.s, "t": cfg.t, "y": cfg.y}
            rows.append({**at, **layer_row(cfg, layer, draws, repeats, seed,
                                           bounded)})
            if bounded:    # a demo config: the transform of every component
                transforms.append({**at, **transform_row(cfg, LAYERS[layer],
                                                         repeats, calls)})
    jump = cj.load_config(os.path.join(CONFIGS, "jump_model.yaml"))
    tabulated = dataclasses.replace(jump, coeffs=dataclasses.replace(
        jump.coeffs, beta=TABULATED_BETA, sigma=TABULATED_SIGMA))
    bd += bd_rows(tabulated, "jump_model_tabulated", repeats, bd_calls)
    return {"environment": environment(), "draws": draws, "repeats": repeats,
            "seed": seed, "calls": calls, "bd_calls": bd_calls, "rows": rows,
            "transforms": transforms, "bd": bd}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("label")
    args = p.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        p.error("LABEL may hold letters, digits, '_', '.' and '-' only")
    result = bench_layers()
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for r in result["rows"]:
        print(f"{r['config']:18s} {r['layer']:14s} {r['s_per_1e6_draws']:8.3f} s/1e6 "
              f"(median {r['s_per_1e6_draws_median']:.3f}) "
              f"max|z| {r['transform_max_abs_z']:.2f}")
    for r in result["transforms"]:
        print(f"{r['config']:18s} {r['layer']:14s} {r['ms_per_call']:8.3f} ms/call "
              f"(median {r['ms_per_call_median']:.3f}) "
              f"max error {r['max_error_estimate']:.2g}")
    for r in result["bd"]:
        print(f"{r['config']:20s} {r['layer']:12s} {r['us_per_call']:8.2f} us/call "
              f"(median {r['us_per_call_median']:.2f}) exact {r['exact']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
