"""Statistical verification harness tying the samplers back to the analytic
transforms.

Comparisons live in transform space: for a batch of draws X_1..X_N the
empirical transform mean of exp(-lam X) is set against the analytic value
with a per-point z-score. A comparison passes when no |z| exceeds
``Z_HARD`` and at most one point per eight exceeds ``Z_SOFT``.
``compare_component`` makes that comparison for each transition-law
component (K, H, I, ITilde) through the one ``COMPONENTS`` table; its
result keeps the chunk statistics, so moment and zero-fraction checks read
the same draws.

Monte Carlo batches are split into fixed-size chunks; chunk j always uses
the substream ``(seed, stream_base + j)`` and partial sums are reduced in
chunk order, so reports are byte-identical across runs and worker counts.
Transform variances and the central moments of X come from per-chunk
centred sums merged with the pairwise updates of Chan, Golub & LeVeque and
of Pebay, which do not cancel when exp(-lam X) is nearly constant or X sits
far from zero. A chunk forms its transform sums one lambda at a time in one
chunk-length buffer, never a grid-by-chunk array.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateIntermediate, InsufficientSamples
from .kernels import get_kernels
from .numerics import RngStream
from .samplers import DEFAULT_CELLS, get_component, get_sampler

__all__ = [
    "Z_HARD",
    "Z_SOFT",
    "SOFT_ALLOWANCE_PER",
    "CHUNK_SIZE",
    "LaplaceComparison",
    "MomentCheck",
    "transform_comparison",
    "compare_component",
    "chapman_kolmogorov",
    "psi_semigroup_check",
    "moment_check_from_sums",
    "mc_statistics",
    "DEFAULT_LAMBDA_GRID",
]

Z_HARD = 4.0               # no point may exceed this |z|
Z_SOFT = 3.0               # soft threshold with a family-wise allowance
SOFT_ALLOWANCE_PER = 8     # one soft exceedance allowed per 8 grid points
CHUNK_SIZE = 1 << 16       # draws per substream chunk

# spans tail and bulk sensitivity for kernels with p of order one
DEFAULT_LAMBDA_GRID = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def _zscores(diff, se):
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, diff / np.where(se > 0, se, 1.0),
                     np.where(diff == 0.0, 0.0, math.inf))
    return z


@dataclass(frozen=True)
class LaplaceComparison:
    """Empirical vs analytic transform values on a lambda grid. ``stats``
    keeps the :func:`mc_statistics` record it was built from, if any (zero
    count and central moments of the draws)."""

    lambda_grid: np.ndarray
    empirical: np.ndarray
    std_err: np.ndarray
    analytic: np.ndarray
    z_scores: np.ndarray
    n_samples: int
    seed: Optional[int] = None
    label: str = ""
    stats: Optional[dict] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_stats(cls, stats, analytic, lambda_grid, seed=None, label=""):
        """The transform statistics of :func:`mc_statistics` against the
        analytic values on the same grid."""
        analytic = np.asarray(analytic, dtype=float)
        z = _zscores(stats["mean"] - analytic, stats["std_err"])
        return cls(np.asarray(lambda_grid, dtype=float), stats["mean"],
                   stats["std_err"], analytic, z, stats["n"], seed=seed,
                   label=label, stats=stats)

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z_scores)))

    @property
    def soft_exceedances(self) -> int:
        return int(np.sum(np.abs(self.z_scores) > Z_SOFT))

    @property
    def passed(self) -> bool:
        allowance = max(1, len(self.lambda_grid) // SOFT_ALLOWANCE_PER)
        return (np.all(np.abs(self.z_scores) <= Z_HARD)
                and self.soft_exceedances <= allowance)

    def as_dict(self):
        return {
            "label": self.label,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "lambda_grid": [float(x) for x in self.lambda_grid],
            "empirical": [float(x) for x in self.empirical],
            "std_err": [float(x) for x in self.std_err],
            "analytic": [float(x) for x in self.analytic],
            "z_scores": [float(x) for x in self.z_scores],
            "max_abs_z": self.max_abs_z,
            "passed": bool(self.passed),
        }

    def __str__(self):
        rows = [f"{'lambda':>10s} {'empirical':>14s} {'analytic':>14s} "
                f"{'std_err':>10s} {'z':>8s}"]
        for lam, e, a, se, z in zip(self.lambda_grid, self.empirical,
                                    self.analytic, self.std_err, self.z_scores):
            rows.append(f"{lam:10.4g} {e:14.8f} {a:14.8f} {se:10.2e} {z:8.2f}")
        verdict = "pass" if self.passed else "FAIL"
        rows.append(f"[{verdict}] {self.label}  max|z| = {self.max_abs_z:.2f}")
        return "\n".join(rows)


@dataclass(frozen=True)
class MomentCheck:
    sample_mean: float
    sample_var: float
    expected_mean: float
    expected_var: float
    z_mean: float
    z_var: float
    n_samples: int

    @property
    def passed(self) -> bool:
        return abs(self.z_mean) <= Z_HARD and abs(self.z_var) <= Z_HARD


def _chunk_plan(n, chunk_size):
    sizes = [chunk_size] * (n // chunk_size)
    if n % chunk_size:
        sizes.append(n % chunk_size)
    return sizes


def _merge(na, a, nb, b):
    """Pairwise merge of the centred sums ``(mean, M2[, M3, M4])`` of two
    batches of na and nb draws (Chan, Golub & LeVeque 1983; Pebay 2008)."""
    tot = na + nb
    d = b[0] - a[0]
    out = [a[0] + d * (nb / tot), a[1] + b[1] + d * d * (na * nb / tot)]
    if len(a) > 2:
        out.append(a[2] + b[2] + d ** 3 * (na * nb * (na - nb) / tot ** 2)
                   + 3.0 * d * (na * b[1] - nb * a[1]) / tot)
        out.append(a[3] + b[3]
                   + d ** 4 * (na * nb * (na * na - na * nb + nb * nb) / tot ** 3)
                   + 6.0 * d * d * (na * na * b[1] + nb * nb * a[1]) / tot ** 2
                   + 4.0 * d * (na * b[2] - nb * a[2]) / tot)
    return out


def mc_statistics(draw: Callable[[np.random.Generator, int], np.ndarray],
                  n_samples: int, lambda_grid, seed: int,
                  stream_base: int = 0, workers: int = 1,
                  chunk_size: int = CHUNK_SIZE):
    """Chunked, worker-count-independent transform and moment statistics.

    ``draw(rng, m)`` must return m draws using only the supplied generator.
    Returns per-lambda transform means/standard errors, the count of zero
    draws, and the mean and second and fourth central moments of the draws.
    """
    if n_samples < 2:
        raise InsufficientSamples("need at least two samples")
    grid = np.asarray(lambda_grid, dtype=float)
    sizes = _chunk_plan(n_samples, chunk_size)
    means = np.zeros((len(sizes), grid.size))
    m2s = np.zeros((len(sizes), grid.size))
    # per chunk: zero count, mean, centred sums of powers 2, 3 and 4
    xs = np.zeros((len(sizes), 5))

    def run(j):
        rng = RngStream(seed, stream_base + j).generator()
        x = np.asarray(draw(rng, sizes[j]), dtype=float)
        e = np.empty_like(x)
        for i, lam in enumerate(grid):
            np.exp(np.multiply(x, -lam, out=e), out=e)
            means[j, i] = e.mean()
            e -= means[j, i]
            m2s[j, i] = np.square(e, out=e).sum()
        xbar = x.mean()
        c = x - xbar
        c2 = c * c
        xs[j] = (np.count_nonzero(x == 0.0), xbar, c2.sum(),
                 (c2 * c).sum(), (c2 * c2).sum())

    workers = min(workers, len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(sizes))))
    else:
        for j in range(len(sizes)):
            run(j)

    # merged in chunk order
    n, (mean, m2), xm = float(sizes[0]), (means[0], m2s[0]), xs[0, 1:]
    for nb, mb, m2b, xb in zip(sizes[1:], means[1:], m2s[1:], xs[1:, 1:]):
        mean, m2 = _merge(n, (mean, m2), nb, (mb, m2b))
        xm = _merge(n, xm, nb, xb)
        n += nb
    se = np.sqrt(m2 / (n - 1.0) / n)
    return {"mean": mean, "std_err": se, "zeros": xs[:, 0].sum(),
            "x_mean": xm[0], "x_m2": xm[1] / n, "x_m4": xm[3] / n,
            "n": n_samples}


def transform_comparison(draw, analytic, lambda_grid, n_samples, seed,
                         stream_base=0, workers=1, label="",
                         chunk_size=CHUNK_SIZE) -> LaplaceComparison:
    """Compare a sampler against analytic transform values on a grid."""
    stats = mc_statistics(draw, n_samples, lambda_grid, seed,
                          stream_base=stream_base, workers=workers,
                          chunk_size=chunk_size)
    return LaplaceComparison.from_stats(stats, analytic, lambda_grid,
                                        seed=seed, label=label)


def _engines(coeffs, nu, n_cells, delta):
    """The sampler and the kernels of the law it draws: the jump measure
    restricted to (delta, inf) when the sampler truncates it."""
    sampler = get_sampler(coeffs, nu, n_cells=n_cells, delta=delta)
    if nu is not None and sampler.delta > 0:
        nu = nu.truncated(sampler.delta)
    return sampler, get_kernels(coeffs, nu)


def compare_component(coeffs, nu, s, t, y, component, n_samples, lambda_grid,
                      seed, n_cells=DEFAULT_CELLS, delta=None, workers=1,
                      stream_base=0, label=None) -> LaplaceComparison:
    """Empirical transform of one transition-law component vs its formula."""
    comp = get_component(component)
    sampler, eng = _engines(coeffs, nu, n_cells, delta)
    grid = np.asarray(lambda_grid, dtype=float)
    return transform_comparison(
        lambda g, m: comp.draw(sampler, g, s, t, y, m),
        comp.laplace(eng, s, t, y, grid)[0], grid, n_samples, seed,
        stream_base=stream_base, workers=workers,
        label=label or f"{component}[{s},{t}] y={y}")


def chapman_kolmogorov(coeffs, nu, s, u, t, y, n_samples, lambda_grid, seed,
                       n_cells=DEFAULT_CELLS, delta=None, workers=1,
                       stream_base=0) -> LaplaceComparison:
    """Two-step sampling through an intermediate time vs the one-step formula."""
    if not (s < u < t):
        raise DegenerateIntermediate("need s < u < t")
    sampler, eng = _engines(coeffs, nu, n_cells, delta)
    grid = np.asarray(lambda_grid, dtype=float)
    analytic = eng.laplace_K(s, t, y, grid)[0]

    def draw(g, m):
        x1 = sampler.sample_k(g, s, u, y, size=m)
        return sampler.sample_k(g, u, t, x1)

    return transform_comparison(
        draw, analytic, grid, n_samples, seed, stream_base=stream_base,
        workers=workers, label=f"CK[{s}->{u}->{t}] y={y}")


def psi_semigroup_check(coeffs, triples: Sequence, lambda_grid) -> float:
    """Max defect of the functional-iteration identity over time triples."""
    eng = get_kernels(coeffs)
    grid = np.asarray(lambda_grid, dtype=float)
    worst = 0.0
    for t1, t2, t3 in triples:
        if not (t1 < t2 < t3):
            continue
        inner = eng.psi(t2, t3, grid)
        lhs = eng.psi(t1, t2, inner)
        rhs = eng.psi(t1, t3, grid)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def moment_check_from_sums(stats, expected_mean, expected_var) -> MomentCheck:
    """Moment z-scores from the central moments of :func:`mc_statistics`."""
    n, m, m2, m4 = stats["n"], stats["x_mean"], stats["x_m2"], stats["x_m4"]
    s2 = m2 * n / (n - 1)
    se_mean = math.sqrt(m2 / n)
    se_var = math.sqrt(max(m4 - m2 ** 2, 0.0) / n)
    z_mean = float(_zscores(np.asarray(m - expected_mean), np.asarray(se_mean)))
    z_var = float(_zscores(np.asarray(s2 - expected_var), np.asarray(se_var)))
    return MomentCheck(float(m), float(s2), float(expected_mean),
                       float(expected_var), z_mean, z_var, int(n))


def zero_fraction_z(n_zeros, n, p0) -> float:
    """Binomial z-score of the observed zero fraction against probability p0."""
    se = math.sqrt(p0 * (1.0 - p0) / n)
    phat = n_zeros / n
    if se == 0.0:
        return 0.0 if phat == p0 else math.inf
    return (phat - p0) / se
