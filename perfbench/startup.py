"""Timed start-up: ``import cirjump``, ``load_config`` and the first engine
build, as a user of the library or the CLI pays them.

Run as a script (``python3 perfbench/startup.py WORKLOAD``) it performs one
start-up in a fresh interpreter and prints its timings as JSON; the
benchmark runs it several times to report a median start-up time.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Time of host_probe() on an unloaded 2-core x86-64 VM (Python 3.11,
# numpy 2.4): its lower decile there. Reported times are scaled to this
# host speed (see README.md).
PROBE_REF_MS = 2.2

# workload -> configuration file under demos/configs
CONFIGS = {
    "sample_jump": "jump_model.yaml",
    "transform_density": "infinite_activity.yaml",
    "paths_jump": "jump_model.yaml",
}


def config_path(workload):
    return os.path.join(ROOT, "demos", "configs", CONFIGS[workload])


def build_engine(cj, workload, cfg):
    """The engine a workload drives: kernels for transforms, else a sampler."""
    if workload == "transform_density":
        return cj.get_kernels(cfg.coeffs, cfg.nu, tol=cfg.kernel_tol,
                              nu_tol=cfg.nu_tol)
    return cj.get_sampler(cfg.coeffs, cfg.nu, n_cells=cfg.n_cells,
                          delta=cfg.delta)


def host_probe():
    """Milliseconds taken by a fixed loop of Python arithmetic and small
    numpy calls, the instruction mix of the operations measured: the speed
    the host gives this process now."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 64)
    t0 = perf_counter()
    s = 0
    for i in range(30000):
        s += i * i
    for i in range(150):
        np.exp(-x * (i % 7)).sum()
    return (perf_counter() - t0) * 1e3


def start(workload, span):
    """Import the package, load the workload's configuration and build its
    engine, each under ``span(name)``; returns (cfg, engine, timings).
    ``probe_ms`` is the host probe right after (it needs numpy loaded)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = perf_counter()
    with span("cli.import"):
        import cirjump as cj
        import cirjump.cli  # noqa: F401  (what the command line loads)
    t1 = perf_counter()
    with span("config.load_config"):
        cfg = cj.load_config(config_path(workload))
    t2 = perf_counter()
    with span("kernels.engine_build"):
        engine = build_engine(cj, workload, cfg)
    t3 = perf_counter()
    return cfg, engine, {"setup_s": t3 - t0, "probe_ms": host_probe(),
                         "import_s": t1 - t0,
                         "load_config_ms": (t2 - t1) * 1e3,
                         "engine_build_ms": (t3 - t2) * 1e3}


if __name__ == "__main__":
    from contextlib import nullcontext
    print(json.dumps(start(sys.argv[1], lambda name: nullcontext())[2]))
