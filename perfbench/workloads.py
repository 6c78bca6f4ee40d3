"""The three benchmark workloads, each a closed loop with one caller.

Every workload takes its inputs from the workload seed only, times one
operation (``op``), checks its output outside the timed region (``check``)
and, after the loop, checks the run as a whole (``finish``). In the traced
run, ``tracing()`` wraps the public methods the operation reaches,
``traced_extras`` makes direct calls into the other public functions of the
layers the workload loads, and ``layer_metrics`` turns the spans into the
per-layer numbers.
"""

from __future__ import annotations

import io
from contextlib import ExitStack, contextmanager, nullcontext
from time import perf_counter

import numpy as np

import cirjump as cj
from cirjump.verify import CHUNK_SIZE, LaplaceComparison, mc_statistics
from oracle import TemperedPowerReference
from startup import config_path

WARM_STREAM = 1 << 40     # substream id no operation uses


class Workload:
    """Defaults for the hooks a workload does not need.

    Operation ``i`` is of kind ``i % cycle`` in the workload's own sense
    (interval class, path scheme); latency statistics use whole cycles only.
    """

    cycle = 1

    def reset(self):
        pass

    def finish(self, seed):
        return True

    def summary(self):
        return {}

    def tracing(self):
        return nullcontext()

    def traced_extras(self, seed, i, out):
        pass

    def counts(self, seed):
        return {}


class SampleJump(Workload):
    """Batched exact draws of K = H * I * ITilde on the two-atom model.

    One operation draws CHUNK_SIZE values of ``sample_k`` on substream
    (seed, j) and folds them into transform sums with ``mc_statistics``,
    as ``verify transition-K`` does chunk by chunk.
    """

    name = "sample_jump"
    primary = "chunk"
    throughputs = {"chunk": "draws_per_s"}

    def __init__(self, cfg, sampler, tracer):
        self.cfg, self.smp, self.tr = cfg, sampler, tracer
        self.grid = np.asarray(cfg.lambda_grid, dtype=float)
        self.analytic = None
        self.comparison = None
        self.reset()

    def reset(self):
        self.chunks = []

    def warm_up(self, seed):
        c = self.cfg
        self.smp.sample_k(cj.RngStream(seed, WARM_STREAM).generator(),
                          c.s, c.t, c.y, size=1024)
        self.analytic = self.smp.kernels.laplace_K(c.s, c.t, c.y, self.grid)[0]

    def op(self, seed, j):
        c, drawn = self.cfg, []

        def draw(g, m):
            with self.tr.span("samplers.sample_k.chunk"):
                drawn.append(self.smp.sample_k(g, c.s, c.t, c.y, size=m))
            return drawn[-1]

        with self.tr.span("verify.mc_statistics"):
            stats = mc_statistics(draw, CHUNK_SIZE, self.grid, seed,
                                  stream_base=j)
        return self.primary, CHUNK_SIZE, (drawn[0], stats)

    def check(self, seed, j, out):
        x, stats = out
        ok = (x.shape == (CHUNK_SIZE,) and bool(np.all(np.isfinite(x)))
              and bool(np.all(x >= 0.0)) and stats["n"] == CHUNK_SIZE
              and bool(np.all(np.isfinite(stats["mean"]))))
        if ok:
            self.chunks.append(stats)
        return ok

    def finish(self, seed):
        """Pool the chunks and compare with ``laplace_K``; the run fails
        when the comparison fails."""
        if not self.chunks:
            return False
        n = np.array([st["n"] for st in self.chunks], dtype=float)
        means = np.array([st["mean"] for st in self.chunks])
        var = np.array([st["std_err"] ** 2 * st["n"] for st in self.chunks])
        total = n.sum()
        mean = (n[:, None] * means).sum(axis=0) / total
        pooled = ((n[:, None] - 1.0) * var
                  + n[:, None] * (means - mean) ** 2).sum(axis=0) / (total - 1.0)
        se = np.sqrt(pooled / total)
        c = self.cfg
        self.comparison = LaplaceComparison(
            self.grid, mean, se, self.analytic, (mean - self.analytic) / se,
            int(total), seed=seed, label=f"K[{c.s},{c.t}] y={c.y}")
        return bool(self.comparison.passed)

    def summary(self):
        cmp = self.comparison
        return {"laplace_K_max_abs_z": cmp.max_abs_z if cmp else None,
                "laplace_K_passed": bool(cmp.passed) if cmp else False}

    @contextmanager
    def tracing(self):
        with self.tr.wrapped(self.smp, {"sample_h": "samplers.sample_h",
                                        "sample_i": "samplers.sample_i",
                                        "sample_itilde": "samplers.sample_itilde"}):
            yield

    def traced_extras(self, seed, j, out):
        with self.tr.span("numerics.rng_stream"):
            cj.RngStream(seed, j).generator()

    def counts(self, seed):
        """Cells of the I-grid and jumps realized per draw on chunk 0."""
        c, jumps = self.cfg, []
        prm = self.smp.prm_points_batch

        def counted(*args, **kwargs):
            out = prm(*args, **kwargs)
            jumps.append(int(out[1].size))
            return out

        self.smp.prm_points_batch = counted
        try:
            self.smp.sample_k(cj.RngStream(seed, 0).generator(), c.s, c.t, c.y,
                              size=CHUNK_SIZE)
        finally:
            del self.smp.prm_points_batch
        return {"samplers.i_cells": len(self.smp.i_grid(c.s, c.t)) - 1,
                "samplers.jumps_per_draw": sum(jumps) / CHUNK_SIZE}

    def layer_metrics(self, seed):
        c, tr, eng = self.cfg, self.tr, self.smp.kernels
        for _ in range(5):
            with tr.span("kernels.laplace_K.atoms"):
                eng.laplace_K(c.s, c.t, c.y, self.grid)

        def draw(g, m):
            return self.smp.sample_k(g, c.s, c.t, c.y, size=m)

        wall, stats = {}, {}
        for workers in (1, 2):
            t0 = perf_counter()
            stats[workers] = mc_statistics(draw, 4 * CHUNK_SIZE, self.grid, seed,
                                           stream_base=100, workers=workers)
            wall[workers] = perf_counter() - t0
        same = all(np.array_equal(np.asarray(stats[1][k]), np.asarray(stats[2][k]))
                   for k in stats[1])
        if not same:
            raise AssertionError("mc_statistics differs between 1 and 2 workers")
        return {
            "samplers.sample_h_ms": tr.median_ms("samplers.sample_h"),
            "samplers.sample_i_ms": tr.median_ms("samplers.sample_i"),
            "samplers.sample_itilde_ms": tr.median_ms("samplers.sample_itilde"),
            "verify.chunk_stats_ms": tr.median_ms("verify.mc_statistics",
                                                  self_time=True),
            "numerics.rng_stream_us": 1e3 * tr.median_ms("numerics.rng_stream"),
            "kernels.laplace_K_ms.atoms": tr.median_ms("kernels.laplace_K.atoms"),
            "verify.speedup_2w": wall[1] / wall[2],
        }


class _CountingDensity:
    """The same density, counting the points it is evaluated at."""

    def __init__(self, density):
        self.density, self.n = density, 0

    def __call__(self, y):
        self.n += np.size(y)
        return self.density(y)


class TransformDensity(Workload):
    """Transition transforms with the infinite-activity tempered-power measure.

    One operation is ``laplace_K`` over the configured eight-point grid at a
    point (s, t, y) drawn from substream (seed, i). Interval lengths are
    stratified over ``cycle`` classes by ``i``, because the cost of a transform
    depends mostly on t - s: every run then sees the same mix of short and
    long intervals, and runs differ only in where inside each class they fall.
    """

    name = "transform_density"
    primary = "transform"
    throughputs = {"transform": "transforms_per_s"}
    cycle = 8             # interval-length classes
    MIN_GAP = 0.05

    def __init__(self, cfg, kernels, tracer):
        self.cfg, self.eng, self.tr = cfg, kernels, tracer
        self.grid = np.asarray(cfg.lambda_grid, dtype=float)
        self.ref = TemperedPowerReference(config_path(self.name))
        self.worst_gap = 0.0

    def point(self, seed, i):
        u = cj.RngStream(seed, i).generator().random(3)
        t_max = self.cfg.coeffs.t_max
        length = self.MIN_GAP + (t_max - self.MIN_GAP) * ((i % self.cycle) + u[0]) / self.cycle
        s = (t_max - length) * u[1]
        return s, min(s + length, t_max), 2.0 * u[2]

    def warm_up(self, seed):
        self.op(seed, WARM_STREAM)

    def op(self, seed, i):
        s, t, y = self.point(seed, i)
        vals, errs = self.eng.laplace_K(s, t, y, self.grid)
        return self.primary, 1, (s, t, y, vals, errs)

    def check(self, seed, i, out):
        s, t, y, vals, errs = out
        ref, _ = self.ref.laplace_K(s, t, y, self.grid)
        gap = np.abs(vals - ref)
        self.worst_gap = max(self.worst_gap, float(gap.max()))
        return bool(np.all(np.isfinite(vals)) and np.all((vals > 0) & (vals <= 1))
                    and np.all(gap <= errs + self.cfg.kernel_tol))

    def summary(self):
        return {"max_abs_gap_to_reference": self.worst_gap}

    def traced_extras(self, seed, i, out):
        s, t, _, _, _ = out
        with self.tr.span("kernels.laplace_I.density"):
            self.eng.laplace_I(s, t, self.grid)
        with self.tr.span("kernels.laplace_Itilde.density"):
            self.eng.laplace_Itilde(s, t, self.grid)
        psi = self.eng.psi(s, t, self.grid)
        with self.tr.span("jumps.one_minus_exp_integral.density"):
            self.eng.nu.one_minus_exp_integral(psi, tol=self.eng.nu_tol)

    def counts(self, seed):
        """Density evaluations of one transform at the point of operation 0,
        through a measure that wraps the same density."""
        c, nu = self.cfg, self.cfg.nu
        density = _CountingDensity(nu.density)
        measure = cj.DensityJumpMeasure(density, rho=nu.rho, lower=nu.lower,
                                        label=nu.label)
        eng = cj.TransitionKernels(c.coeffs, measure, tol=c.kernel_tol,
                                   nu_tol=c.nu_tol)
        s, t, y = self.point(seed, 0)
        eng.laplace_K(s, t, y, self.grid)
        return {"jumps.density_evals_per_transform": density.n}

    def layer_metrics(self, seed):
        tr = self.tr
        return {
            "kernels.laplace_K_ms.density": tr.median_ms("op." + self.name),
            "kernels.laplace_I_ms.density": tr.median_ms("kernels.laplace_I.density"),
            "kernels.laplace_Itilde_ms.density": tr.median_ms("kernels.laplace_Itilde.density"),
            "jumps.one_minus_exp_integral_ms.density":
                tr.median_ms("jumps.one_minus_exp_integral.density"),
        }


class PathsJump(Workload):
    """Path simulation on the two-atom model, on the configured ``step`` grid.

    Operation i simulates one path on stream RngStream(seed, i), as
    ``cirjump simulate`` does, cycling through the exact skeleton, Euler and
    the branching construction, and writes it as CSV to memory.
    """

    name = "paths_jump"
    primary = "exact_skeleton"
    throughputs = {"exact_skeleton": "skeleton_paths_per_s",
                   "euler": "euler_paths_per_s",
                   "branching": "branching_paths_per_s"}
    SCHEMES = ("exact_skeleton", "euler", "branching")
    cycle = len(SCHEMES)

    def __init__(self, cfg, sampler, tracer):
        self.cfg, self.smp, self.tr = cfg, sampler, tracer
        n_steps = max(1, int(round((cfg.t - cfg.s) / cfg.step)))
        self.grid = np.linspace(cfg.s, cfg.t, n_steps + 1)

    def warm_up(self, seed):
        for k in range(self.cycle):
            self.op(seed, WARM_STREAM + k)

    def _simulate(self, scheme, g, info):
        c, delta = self.cfg, self.smp.delta
        if scheme == "exact_skeleton":
            with self.tr.span("paths.exact_skeleton"):
                return cj.exact_skeleton(g, c.coeffs, c.nu, self.grid,
                                         n_cells=c.n_cells, delta=delta,
                                         y0=c.y, seed_info=info)
        if scheme == "euler":
            with self.tr.span("paths.euler_path"):
                return cj.euler_path(g, c.coeffs, c.nu, self.grid, delta=delta,
                                     y0=c.y, seed_info=info)
        with self.tr.span("paths.branching_path"):
            return cj.branching_path(g, c.coeffs, c.nu, c.s, c.t, c.y,
                                     delta=delta, grid=self.grid,
                                     n_cells=c.n_cells, seed_info=info)

    def op(self, seed, i):
        scheme = self.SCHEMES[i % self.cycle]
        path = self._simulate(scheme, cj.RngStream(seed, i).generator(), (seed, i))
        buf = io.StringIO()
        with self.tr.span("paths.write_csv"):
            path.write_csv(buf)
        return scheme, 1, (path, buf.getvalue())

    def check(self, seed, i, out):
        path, text = out
        v = path.values
        nonneg = path.scheme == "euler" or bool(np.all(v >= 0.0))
        return (bool(np.all(np.isfinite(v))) and nonneg
                and np.array_equal(path.times, self.grid)
                and text.count("\n") == self.grid.size + 1)

    @contextmanager
    def tracing(self):
        with ExitStack() as stack:
            stack.enter_context(self.tr.wrapped(
                self.smp, {"sample_k": "samplers.sample_k.scalar"}))
            stack.enter_context(self.tr.wrapped(self.smp.kernels, {"bd": "kernels.bd"}))
            yield

    def traced_extras(self, seed, i, out):
        path, _ = out
        if path.scheme != "euler":
            return
        co = self.cfg.coeffs
        with self.tr.span("coefficients.call"):
            for tk in self.grid[:-1]:
                co.a(tk), co.beta(tk), co.sigma(tk)

    def layer_metrics(self, seed):
        tr, calls = self.tr, 3 * (self.grid.size - 1)
        return {
            "samplers.sample_k_scalar_ms": tr.median_ms("samplers.sample_k.scalar"),
            "kernels.bd_us": 1e3 * tr.median_ms("kernels.bd"),
            "paths.exact_skeleton.self_ms": tr.median_ms("paths.exact_skeleton",
                                                         self_time=True),
            "coefficients.call_us": 1e3 * tr.median_ms("coefficients.call") / calls,
            "paths.euler_path_ms": tr.median_ms("paths.euler_path"),
            "paths.branching_path_ms": tr.median_ms("paths.branching_path"),
            "paths.write_csv_ms": tr.median_ms("paths.write_csv"),
        }


WORKLOADS = {cls.name: cls for cls in (SampleJump, TransformDensity, PathsJump)}

