"""Trajectory-level simulation of the jump CIR equation.

Three schemes are provided:

``euler_path`` -- Euler-Maruyama with full truncation inside the diffusion
coefficient (the square root is taken of the positive part, matching the
equation itself; the drift uses the raw state). Jumps are realized once per
path from the driving random measure and deposited at the end of the grid
cell containing their time.

``exact_skeleton`` -- Markov chaining of the exact one-step transition
sampler over consecutive grid cells: marginally exact at every grid time,
no step-size bias.

``absorbed_cir_path`` / ``branching_path`` -- the building blocks of the
branching construction: input-free square-root diffusions started at
(s, u), absorbed at their first nonpositive grid value, superposed over the
started mass, the per-cell immigration and the realized jump points. Used
for cross-validation of the exact samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .coefficients import CoefficientSet
from .jumps import JumpMeasure
from .numerics import _as_generator
from .samplers import PrmRealization, get_sampler

__all__ = [
    "PathRealization",
    "euler_path",
    "euler_terminal_batch",
    "exact_skeleton",
    "absorbed_cir_path",
    "branching_path",
]


@dataclass(frozen=True, eq=False)
class PathRealization:
    """A simulated trajectory with the jump marks and stream that produced it."""

    times: np.ndarray
    values: np.ndarray
    jumps: Optional[PrmRealization]
    seed: Optional[Tuple[int, int]]
    scheme: str

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must align")

    @property
    def jump_flags(self) -> np.ndarray:
        """True at grid index k when a jump time lies in (times[k-1], times[k]]."""
        flags = np.zeros(self.times.size, dtype=bool)
        if self.jumps is not None and len(self.jumps):
            idx = np.searchsorted(self.times, self.jumps.times, side="left")
            flags[np.clip(idx, 0, self.times.size - 1)] = True
        return flags

    def write_csv(self, fileobj) -> None:
        """A ``time,value,jump_flag`` header and one row per grid time, 17
        significant digits, in one write; lines end in ``\r\n``, as
        ``csv.writer`` ends them (no field needs quoting)."""
        rows = zip(self.times.tolist(), self.values.tolist(),
                   self.jump_flags.tolist())
        fileobj.write("time,value,jump_flag\r\n" + "".join(
            f"{t:.17g},{v:.17g},{f:d}\r\n" for t, v, f in rows))


def _grid_checked(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be an increasing array with >= 2 points")
    return grid


def _deposits(grid, prm):
    out = np.zeros(grid.size)
    if len(prm):
        idx = np.searchsorted(grid, prm.times, side="left")
        np.add.at(out, np.clip(idx, 1, grid.size - 1), prm.sizes)
    return out


def _coefficients_on(coeffs, grid):
    """a, beta and sigma at the left end of every grid step, and the steps."""
    left = grid[:-1]
    return (np.asarray(coeffs.a(left), dtype=float),
            np.asarray(coeffs.beta(left), dtype=float),
            np.asarray(coeffs.sigma(left), dtype=float), np.diff(grid))


def _euler_step(x, a, beta, sigma, h, z):
    """One Euler-Maruyama step; the square root takes the positive part."""
    return x + (a - beta * x) * h + sigma * np.sqrt(np.maximum(x, 0.0) * h) * z


def euler_path(rng, coeffs: CoefficientSet, nu: Optional[JumpMeasure] = None,
               grid=None, delta: Optional[float] = None,
               y0: Optional[float] = None, seed_info=None) -> PathRealization:
    """One Euler-Maruyama trajectory on the given grid."""
    g = _as_generator(rng)
    grid = _grid_checked(grid)
    sampler = get_sampler(coeffs, nu, delta=delta)
    prm = sampler.sample_prm(g, grid[0], grid[-1])
    dep = _deposits(grid, prm)
    z = g.standard_normal(grid.size - 1)
    a, beta, sigma, h = _coefficients_on(coeffs, grid)
    x = np.empty(grid.size)
    x[0] = coeffs.x0 if y0 is None else float(y0)
    for k in range(grid.size - 1):
        x[k + 1] = _euler_step(x[k], a[k], beta[k], sigma[k], h[k],
                               z[k]) + dep[k + 1]
    return PathRealization(grid, x, prm, seed_info, "euler")


def euler_terminal_batch(rng, coeffs, nu, s, t, n_steps, size,
                         delta=None, y0=None) -> np.ndarray:
    """Terminal values of Euler paths, vectorized across ``size`` paths."""
    g = _as_generator(rng)
    grid = np.linspace(s, t, int(n_steps) + 1)
    sampler = get_sampler(coeffs, nu, delta=delta)
    dep = np.zeros((size, grid.size))
    rows, times, sizes = sampler.prm_points_batch(g, s, t, size)
    if times.size:
        cols = np.clip(np.searchsorted(grid, times, side="left"),
                       1, grid.size - 1)
        np.add.at(dep, (rows, cols), sizes)
    a, beta, sigma, h = _coefficients_on(coeffs, grid)
    x = np.full(size, coeffs.x0 if y0 is None else float(y0))
    for k in range(grid.size - 1):
        z = g.standard_normal(size)
        x = _euler_step(x, a[k], beta[k], sigma[k], h[k], z) + dep[:, k + 1]
    return x


def exact_skeleton(rng, coeffs, nu=None, grid=None, n_cells=None, delta=None,
                   y0=None, seed_info=None) -> PathRealization:
    """Path sampled at grid times from the exact one-step transition law.

    Marginals at grid times carry no step-size bias (up to the truncation
    level, and the I-grid of a non-piecewise-constant ``alpha``); individual
    jumps are integrated out, so no jump marks are attached.
    """
    g = _as_generator(rng)
    grid = _grid_checked(grid)
    kwargs = {} if n_cells is None else {"n_cells": n_cells}
    sampler = get_sampler(coeffs, nu, delta=delta, **kwargs)
    x = np.empty(grid.size)
    x[0] = coeffs.x0 if y0 is None else float(y0)
    for k in range(grid.size - 1):
        x[k + 1] = sampler.sample_k(g, grid[k], grid[k + 1], x[k])
    return PathRealization(grid, x, None, seed_info, "exact_skeleton")


def _absorbed_batch(g, coeffs, grid, start_idx, start_val):
    """Superposable absorbed square-root diffusions on a common grid.

    Piece ``i`` starts at ``grid[start_idx[i]]`` with value ``start_val[i]``,
    follows d xi = -beta xi dt + sigma sqrt(xi+) dW with its own noise
    column, and is absorbed at its first nonpositive grid value.
    """
    n = start_val.size
    _, beta, sigma, h = _coefficients_on(coeffs, grid)
    vals = np.zeros((n, grid.size))
    x = np.zeros(n)
    for k in range(grid.size - 1):
        x = np.where(start_idx == k, start_val, x)
        vals[:, k] = x
        z = g.standard_normal(n)
        step = _euler_step(x, 0.0, beta[k], sigma[k], h[k], z)
        x = np.where(x > 0.0, np.maximum(step, 0.0), 0.0)
    x = np.where(start_idx == grid.size - 1, start_val, x)
    vals[:, -1] = x
    return vals


def absorbed_cir_path(rng, coeffs, s, u, grid, seed_info=None) -> PathRealization:
    """Input-free CIR started at (s, u), absorbed at zero.

    Absorption is detected at grid resolution: the first nonpositive Euler
    value clamps the path to zero from then on.
    """
    g = _as_generator(rng)
    grid = _grid_checked(grid)
    if u < 0:
        raise ValueError("starting mass must be nonnegative")
    if not np.isclose(grid[0], s):
        raise ValueError("grid must start at s")
    vals = _absorbed_batch(g, coeffs, grid, np.zeros(1, dtype=int),
                           np.array([float(u)]))
    return PathRealization(grid, vals[0], None, seed_info, "absorbed")


def branching_path(rng, coeffs, nu, s, t, y, delta=None, grid=None,
                   n_cells=None, seed_info=None) -> PathRealization:
    """Superposition realizing the branching construction at truncation delta.

    Pieces, in this order: the started mass (s, y); one per realized jump
    point (T_i, Y_i), started at the first grid time at or after T_i; one
    immigration piece per cell of the sampler's uniform ``cell_grid``
    (``n_cells`` cells, knots included) where ``alpha`` is positive, with
    Gamma(alpha_cell, p(cell)) mass at the first grid time at or after the
    cell's right end. The cells' masses are one array draw. Each piece is
    an absorbed square-root diffusion driven by its own noise.
    """
    g = _as_generator(rng)
    grid = _grid_checked(grid)
    if not (np.isclose(grid[0], s) and np.isclose(grid[-1], t)):
        raise ValueError("grid must span [s, t]")
    kwargs = {} if n_cells is None else {"n_cells": n_cells}
    sampler = get_sampler(coeffs, nu, delta=delta, **kwargs)

    prm = sampler.sample_prm(g, s, t)
    starts, masses = [grid[:1], prm.times], [np.array([float(y)]), prm.sizes]
    if coeffs.a.max_on(s, t) > 0.0:
        # uniform cells even where alpha is piecewise constant: they set the
        # times at which immigration enters the path
        cells = sampler.cell_grid(s, t, n_cells)
        alpha = coeffs.alpha(0.5 * (cells[:-1] + cells[1:]))
        on = alpha > 0.0
        _, d_cell = sampler.kernels.bd(cells[:-1][on], cells[1:][on])
        starts.append(cells[1:][on])
        masses.append(g.gamma(alpha[on], d_cell))
    idx = np.searchsorted(grid, np.concatenate(starts), side="left")
    vals = _absorbed_batch(g, coeffs, grid, np.clip(idx, 0, grid.size - 1),
                           np.concatenate(masses))
    return PathRealization(grid, vals.sum(axis=0), prm, seed_info, "branching")
