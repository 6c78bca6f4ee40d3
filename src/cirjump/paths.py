"""Trajectory-level simulation of the jump CIR equation.

Three schemes are provided:

``euler_path`` / ``euler_terminal_batch`` -- Euler-Maruyama with full
truncation inside the diffusion coefficient (the square root is taken of the
positive part, matching the equation itself; the drift uses the raw state),
for one path or for a batch of paths through one loop. Jumps are realized
once per path from the driving random measure and deposited at the end of
the grid step containing their time.

``exact_skeleton`` -- Markov chaining of the exact one-step transition
sampler over consecutive grid cells: marginally exact at every grid time,
no step-size bias.

``absorbed_cir_path`` / ``branching_path`` -- the branching construction
as a Markov chain on the grid: an input-free piece observed at grid times
moves by the kernel H, so the started mass, one draw of I per step and
every realized jump point, carried through H to the end of its step, add
up to a path that is exact at every grid time and carries its jump marks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .coefficients import CoefficientSet
from .jumps import JumpMeasure
from .numerics import _as_generator
from .samplers import PrmRealization, _push, get_sampler

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
        if self.jumps is not None:
            flags[_step_of(self.times, self.jumps.times)] = True
        return flags

    def write_csv(self, fileobj) -> None:
        """A ``time,value,jump_flag`` header and one row per grid time, 17
        significant digits, in one write; lines end in ``\r\n``, as
        ``csv.writer`` ends them (no field needs quoting)."""
        rows = zip(self.times.tolist(), self.values.tolist(),
                   self.jump_flags.tolist())
        fileobj.write("time,value,jump_flag\r\n" + "".join(
            "%.17g,%.17g,%d\r\n" % row for row in rows))


def _grid_checked(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or (grid[1:] <= grid[:-1]).any():
        raise ValueError("grid must be an increasing array with >= 2 points")
    return grid


def _near(a, b):
    """``np.isclose(a, b)`` for two floats, without its array machinery."""
    return abs(a - b) <= 1e-8 + 1e-5 * abs(b)


def _step_of(grid, times):
    """Grid index k >= 1 of the step (grid[k-1], grid[k]] that holds each
    time: the first with grid[k] >= T; past the end of the grid, the last."""
    return grid[1:-1].searchsorted(times) + 1


def _euler_step(x, a, beta, sigma, h, z):
    """One Euler-Maruyama step; the square root takes the positive part."""
    return x + (a - beta * x) * h + sigma * np.sqrt(np.maximum(x, 0.0) * h) * z


def _euler(g, sampler, grid, x0, size=None):
    """Euler-Maruyama values at every grid time, shape (grid.size,) for one
    path (``size`` None) or (grid.size, size), and the times and sizes of
    the driving-measure points, each added at the end of its grid step.
    The stream gives the points, then at each step one normal per path."""
    rows, times, sizes = sampler.prm_points_batch(g, grid[0], grid[-1],
                                                  size)[:3]
    if size is None:    # one path deposits, and returns, its points in time order
        order = times.argsort()
        times, sizes = times[order], sizes[order]
    # the deposits, then the path
    x = np.zeros((grid.size,) if size is None else (grid.size, size))
    if times.size:
        np.add.at(x.reshape(grid.size, -1), (_step_of(grid, times), rows),
                  sizes)
    # the coefficients at the left end of every step
    co, left, h = sampler.coeffs, grid[:-1], np.diff(grid)
    a = np.asarray(co.a(left), dtype=float)
    beta = np.asarray(co.beta(left), dtype=float)
    sigma = np.asarray(co.sigma(left), dtype=float)
    x[0] = x0
    for k in range(grid.size - 1):
        x[k + 1] += _euler_step(x[k], a[k], beta[k], sigma[k], h[k],
                                g.standard_normal(size))
    return x, times, sizes


def euler_path(rng, coeffs: CoefficientSet, nu: Optional[JumpMeasure] = None,
               grid=None, delta: Optional[float] = None,
               y0: Optional[float] = None, seed_info=None) -> PathRealization:
    """One Euler-Maruyama trajectory on the given grid."""
    grid = _grid_checked(grid)
    sampler = get_sampler(coeffs, nu, delta=delta)
    x, times, sizes = _euler(_as_generator(rng), sampler, grid,
                             coeffs.x0 if y0 is None else float(y0))
    prm = PrmRealization(times, sizes, sampler.delta)
    return PathRealization(grid, x, prm, seed_info, "euler")


def euler_terminal_batch(rng, coeffs, nu, s, t, n_steps, size,
                         delta=None, y0=None) -> np.ndarray:
    """Terminal values of ``size`` Euler paths on n_steps equal steps."""
    x, _, _ = _euler(_as_generator(rng), get_sampler(coeffs, nu, delta=delta),
                     np.linspace(s, t, int(n_steps) + 1),
                     coeffs.x0 if y0 is None else float(y0), int(size))
    return x[-1].copy()


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
    times = grid.tolist()
    x = [coeffs.x0 if y0 is None else float(y0)]
    for k in range(1, grid.size):
        x.append(sampler.sample_k(g, times[k - 1], times[k], x[-1]))
    return PathRealization(grid, np.array(x), None, seed_info, "exact_skeleton")


def _arrivals(g, sampler, grid, prm):
    """Every point (T, Y) of ``prm`` carried to the end t_k of its grid step
    through H, summed per grid index k. A point on a grid time enters as Y,
    H over an empty interval being the identity; the others get B and D from
    one array ``bd`` call, made also when there are none, and are pushed as
    a one-draw ITilde pushes its points."""
    k = _step_of(grid, prm.times)
    inside = prm.times < grid[k]
    B, D = sampler.kernels.bd(prm.times[inside], grid[k][inside])
    pushed = iter(_push(g, prm.sizes[inside], B, D, scalar=True))
    out = [0.0] * grid.size
    for j, y, on in zip(k.tolist(), prm.sizes.tolist(), inside.tolist()):
        out[j] += next(pushed) if on else y
    return out


def _h_chain(g, sampler, grid, y, arrivals=None):
    """Values at the grid times of the mass y started at grid[0], carried
    step by step by H; with ``arrivals`` (per grid index) each step also adds
    one I draw and the arrivals at its end. Exact at every grid time, by the
    branching property."""
    times = grid.tolist()
    x = [float(y)]
    for k in range(1, grid.size):
        v = sampler.sample_h(g, times[k - 1], times[k], x[-1])
        if arrivals is not None:
            v = v + sampler.sample_i(g, times[k - 1], times[k]) + arrivals[k]
        x.append(v)
    return np.array(x)


def absorbed_cir_path(rng, coeffs, s, u, grid, seed_info=None) -> PathRealization:
    """Input-free CIR started at (s, u), absorbed at zero: the H chain on the
    grid, exact at every grid time (an H draw from 0 is 0)."""
    g = _as_generator(rng)
    grid = _grid_checked(grid)
    if u < 0:
        raise ValueError("starting mass must be nonnegative")
    if not _near(grid[0], s):
        raise ValueError("grid must start at s")
    vals = _h_chain(g, get_sampler(coeffs), grid, u)
    return PathRealization(grid, vals, None, seed_info, "absorbed")


def branching_path(rng, coeffs, nu, s, t, y, delta=None, grid=None,
                   n_cells=None, seed_info=None) -> PathRealization:
    """The branching construction at truncation delta, exact at grid times.

    The driving measure is realized once; every point (T_i, Y_i) is carried
    through H to the first grid time at or after T_i. The mass is then
    chained over the grid: each step carries it through H, adds one draw of
    I over the step and the points that arrived at the step's end.
    ``n_cells`` refines the I-grid of a non-piecewise-constant ``alpha``.
    """
    g = _as_generator(rng)
    grid = _grid_checked(grid)
    if not (_near(grid[0], s) and _near(grid[-1], t)):
        raise ValueError("grid must span [s, t]")
    kwargs = {} if n_cells is None else {"n_cells": n_cells}
    sampler = get_sampler(coeffs, nu, delta=delta, **kwargs)
    prm = sampler.sample_prm(g, s, t)
    vals = _h_chain(g, sampler, grid, y, _arrivals(g, sampler, grid, prm))
    return PathRealization(grid, vals, prm, seed_info, "branching")
