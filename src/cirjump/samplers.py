"""Exact (discretization-free) sampling from the transition-law components.

The one-step transition law of the full equation factorizes as

    K_{s,t}(y, .) = H_{s,t}(y, .) * I_{s,t} * ITilde_{s,t}

with three independent ingredients:

``H`` -- the started-mass component. It is a Poisson mixture of Gamma laws:
draw M ~ Poisson(y gamma(s,t)); M = 0 gives an exact zero (the atom at 0),
otherwise the value is Gamma(shape M, rate p(s,t)).

``I`` -- the continuous-input component. On a grid s = r_0 < ... < r_n = t
take alpha_j = 2 a / sigma^2 evaluated inside cell j. The last cell, which
ends at t, is Gamma(alpha_n, scale D(r_{n-1}, t)). Every other cell is its
Gamma input pushed to t through H, which is a compound Poisson: with
D(v,t) = B(0,t) C(v,t), a Psi_{v,t}(lam) = -alpha d/dv log(1 + lam D(v,t))
is the exponent of points at rate alpha (sigma^2/2) B/D(v,t) with values
Exp(scale D(v,t)). On a cell with constant alpha_j that is
Poisson(alpha_j L_j) points, L_j = log1p(c_j) = log(D(r_{j-1},t)/D(r_j,t))
with c_j = D(r_{j-1},r_j) B(r_j,t)/D(r_j,t), each of value
D(r_{j-1},t) exp(-L_j U) E, U uniform and E standard exponential. Its
transform ((1 + lam D(r_{j-1},t)) / (1 + lam D(r_j,t)))^-alpha_j is the
exact transform of I over the cell, and its mean count grows only as
log c_j, also for a cell ending just before t. The pushed cells are
entries of rate alpha_j L_j, laid out as ITilde's below, and one draw is a
batch of one. When ``a`` and ``sigma`` are piecewise constant the cells
are s, their knots inside (s, t), and t, and the draw is exact;
``n_cells`` refines a non-piecewise-constant ``alpha``, whose law
converges weakly as the grid refines.

``ITilde`` -- the jump-input component. Realize the driving Poisson random
measure on [s, t) x (delta, inf) and propagate every point (T_i, Y_i) to t
through H. Truncation at delta is only needed for infinite-activity
measures; the discarded sqrt-mass diagnostic controls the bias. On each
piece [lo, hi] of [s, t] between the knots of a~, beta and sigma the
measure is one homogeneous Poisson process per atom (y_k, w_k) of the mark
law, of rate a~ w_k (for a density, one process with i.i.d. marks from the
normalized restriction): the entries of the step's jump table. A point at
distance Delta = (hi - lo)(1 - U) in (0, hi - lo] from hi gets the
piece's closed forms

    B(T,t) = B(hi,t) exp(-beta Delta)
    D(T,t) = D(hi,t) + B(hi,t) sigma^2/(2 beta) (1 - exp(-beta Delta)),

sigma^2/2 Delta in place of the fraction where beta = 0, which subtract
no primitives and are positive. A batch of m draws of any entries is one
Poisson(m R) total of points, R the summed entry rates, split over the
entries by one multinomial and laid out entry by entry, each point with a
uniform draw label in [0, m) and a uniform U: by Poisson splitting the
counts of each entry and draw are independent Poisson, the law of m
separate draws, and no point needs a table search. Three inputs fall back:
an a~ that is not piecewise constant is thinned against each piece's max,
a tabulated primitive table gives B and D by ``bd_vec``, and a density's
marks come from its mark table. One draw (``size`` None) has
few points, so it pushes them through H with scalar calls, made in the
order of the batch's array calls: it reads the stream as a size-1 batch
does and returns the same bits.

``K`` -- the sum of the three, which are independent. One draw and a
batch of one take H, then I, then ITilde from the stream. A larger batch
on a step whose jump table has entries first takes two 64-bit words of the
stream and seeds ITilde's own generator with them (Philox through a
``SeedSequence``, as ``RngStream`` does), then takes H and then I from the
stream, and ITilde from its own generator. With two streams, a batch of
``LANE_MIN`` draws or more draws ITilde on the lane, one extra thread of
the process made at the first such batch, while the calling thread draws
H and I; it waits for the lane before it returns or raises. It draws
ITilde inline instead, with the same bits, where the process may use one
core only or another lane-sized batch draws at the same time (chunk
workers), so no batch waits for the lane's one thread. The lane is not a
chunk worker: ``--workers`` and ``CIRJUMP_THREADS`` still count chunk
workers only. A step without jumps reads no words, and a batch there is H
then I from the stream.

All samplers are pure given a generator; batch draws use the same
construction vectorized across draws, so a fixed stream reproduces bit-equal
output. A batch Gamma with shape alpha < 1 is drawn as
Gamma(alpha + 1) V^(1/alpha) with V = 1 - U uniform on (0, 1], the same law
(Stuart's identity), because numpy draws a shape below 1 more slowly than
one above it; scalar draws call ``g.gamma`` as is.

Every law parameter of a step depends on (s, t) alone: B/D and D of H, the
pushed I cells' alpha_j L_j, L_j and D(r_{j-1}, t), the last cell's alpha
and D, and the jump table. A sampler keeps them in two records per (s, t),
the step record and the jump table, for the ``STEP_CACHE`` most recently
used intervals, so the draws of a path or a batch on one grid compute them
once; only y and the stream change from draw to draw. The jump table needs
no D(s, t), so the driving measure is drawn also on an interval too short
for H. A record is built with the calls, in the order of operations, that
the draws would make without it, and its entries are floats and read-only
float arrays, so a hit and a miss give the same bits.

``COMPONENTS`` is the one table of the four laws K, H, I and ITilde: for
each, its transform on a ``TransitionKernels`` and its draws on a
``TransitionSampler``.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .coefficients import CoefficientSet
from .errors import DegenerateInterval, InvalidDelta
from .jumps import JumpMeasure, MarkSampler, delta_for_budget
from .kernels import get_kernels
from .numerics import _as_generator

__all__ = [
    "COMPONENTS",
    "Component",
    "PrmRealization",
    "TransitionSampler",
    "get_component",
    "get_sampler",
    "DELTA_BUDGET",
    "POISSON_MEAN_MAX",
]

DELTA_BUDGET = 4.0 ** -8   # default sqrt-tail budget for the truncation level
DEFAULT_CELLS = 64         # I-grid refinement of a non-piecewise-constant alpha
STEP_CACHE = 4096          # (s, t) step records a sampler keeps (LRU)
MAX_POINTS = 2 ** 26       # expected driving-measure points of one batch call
# largest Poisson mean numpy's generator accepts
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max
                         - 10.0 * np.sqrt(np.iinfo(np.int64).max))
# (draw_index, times, sizes, B, D) of every batch without points: read-only
_NO_POINTS = tuple(np.frombuffer(b"", dtype=d) for d in (int,) + (float,) * 4)
# batch draws from which ITilde may take the lane: below 2048 draws the lane
# costs about 100-200 us more than drawing inline (the submit, the
# interpreter lock passed back and forth, the result; 2 cores), and it
# wins from about 6000 draws on the demo configs
LANE_MIN = 8192


class _Lane:
    """One thread that draws a batch's ITilde beside its H and I. A batch
    may use it only where the process has two usable cores or more and no
    other lane-sized batch draws, so the lane never queues work and chunk
    workers draw ITilde inline. The thread is made at the first batch that
    uses it, never at import."""

    def __init__(self):
        self.lock = threading.Lock()
        self.cores = (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1)
        self.pool = None
        self.drawing = 0      # batches inside ``slot``

    @contextmanager
    def slot(self):
        """The block of one lane-sized batch: yields the executor where the
        batch may use the lane, else None."""
        with self.lock:
            self.drawing += 1
            free = self.drawing < min(self.cores, 2)
            if free and self.pool is None:
                self.pool = ThreadPoolExecutor(1, "cirjump-itilde")
        try:
            yield self.pool if free else None
        finally:
            with self.lock:
                self.drawing -= 1


_LANE = _Lane()


def _new_lane():
    """A forked child has none of the parent's threads: it makes its own."""
    global _LANE
    _LANE = _Lane()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lane)


def _gamma_counts(g, k, scale):
    """Gamma(k, scale) draws, exactly 0 where k == 0, bit for bit
    ``g.gamma(k, scale)``: numpy draws shape 0 as 0 without touching the
    stream, and gamma(k, scale) is scale * standard_gamma(k). An array
    ``k`` (any shape, ``scale`` a float or one per count) is drawn and
    scaled only at its nonzero counts."""
    if not isinstance(k, np.ndarray):   # numpy's scalar call is ten times cheaper
        return scale * g.standard_gamma(k) if k > 0 else 0.0
    x = np.zeros(k.shape)
    pos = np.flatnonzero(k > 0)
    if np.ndim(scale):
        scale = scale.ravel()[pos]
    x.ravel()[pos] = g.standard_gamma(k.ravel()[pos]) * scale
    return x


def _gamma(g, alpha, scale, size=None):
    """``g.gamma(alpha, scale, size)`` in law; an array draw with alpha < 1
    takes the boost of the module docstring, its power formed as
    exp(log1p(-U)/alpha) so that log(0) cannot occur."""
    if size is None or alpha >= 1.0:
        return g.gamma(alpha, scale, size)
    x = g.gamma(alpha + 1.0, scale, size)
    v = g.random(size)
    np.negative(v, out=v)
    np.log1p(v, out=v)
    v /= alpha
    x *= np.exp(v, out=v)
    return x


class _Entries(NamedTuple):
    """Homogeneous Poisson processes that ``_lay_out`` draws together, one
    per entry: ``rate`` is the mean count of points per draw over all
    entries, ``p`` each entry's share of it, and ``cols`` the entries'
    constants, one row per quantity and one column per entry."""

    rate: float
    p: np.ndarray
    cols: np.ndarray


def _entries(rates, rows) -> _Entries:
    """The entries of positive rate among ``rates`` (mean counts per draw),
    with their columns of ``rows``, read-only."""
    rates = np.asarray(rates, dtype=float).ravel()
    keep = rates > 0.0
    rate = float(rates[keep].sum())
    p = rates[keep] / rate
    cols = np.array(rows, dtype=float)[:, keep]
    for a in (p, cols):
        a.flags.writeable = False
    return _Entries(rate, p, cols)


def _lay_out(g, entries, tot, m):
    """The ``tot`` points, a Poisson(m rate) total, of ``m`` draws of
    ``entries``: split over the entries by one multinomial and laid out
    entry by entry, each with a uniform draw label in [0, m) and a uniform
    U on [0, 1). By Poisson splitting the counts of each entry and draw are
    independent Poisson(rate p_e), the law of separate draws. Returns the
    entry constants per point (the rows of ``cols``; read-only views that
    repeat nothing for a one-entry table, whose multinomial would read no
    stream), the labels and U."""
    if entries.p.size == 1:
        cols = np.broadcast_to(entries.cols, (entries.cols.shape[0], tot))
    else:
        cols = np.repeat(entries.cols, g.multinomial(tot, entries.p), axis=1)
    # integers(0, 1, tot) reads no stream, so one draw skips the call
    idx = g.integers(0, m, tot) if m > 1 else np.zeros(tot, int)
    return cols, idx, g.random(tot)


class _Step(NamedTuple):
    """What a step (s, t) draws H and I with, whatever y and the stream are.

    ``cells`` are the pushed I cells [r0, r1] (r1 < t, alpha > 0), entry
    rate alpha L, with rows L = log1p(c) and D(r0, t). ``last`` is (alpha,
    D(r0, t)) of the cell that ends at t, None where its alpha is 0."""

    gamma: float          # B/D of (s, t): H's Poisson rate per unit of mass
    d: float              # D(s, t): the scale of H's Gamma
    cells: _Entries
    last: Optional[tuple]


class _Jumps(NamedTuple):
    """The jump table of a step (s, t): one entry per piece [lo, hi] of
    [s, t] between the knots of a~, beta and sigma and per atom (y, w) of
    the mark law (one per piece for a density, w its mass), of rate a~ w
    (hi - lo). Its rows are hi - lo, hi, -beta, -B(hi, t) sigma^2/(2 beta)
    (-B(hi, t) sigma^2/2 where beta = 0), B(hi, t), D(hi, t), the piece's
    max of a~ where a~ is not piecewise constant, and y for atoms."""

    entries: _Entries
    marks: Optional[MarkSampler]   # a density's mark table; None for atoms
    flat: bool                     # some piece has beta = 0


_NO_JUMPS = _Jumps(_entries([], [[]]), None, False)


@dataclass(frozen=True, eq=False)
class PrmRealization:
    """Points (T_i, Y_i) of the driving random measure, ordered by time."""

    times: np.ndarray
    sizes: np.ndarray
    delta: float = 0.0

    def __post_init__(self):
        if self.times.shape != self.sizes.shape:
            raise ValueError("times and sizes must align")

    def __len__(self):
        return self.times.size


class TransitionSampler:
    """Sampling engine bound to one coefficient set and jump measure.

    ``delta`` is the truncation level for the jump measure; by default it is
    0 for finite-activity measures and the largest level whose sqrt-tail
    diagnostic stays under ``DELTA_BUDGET`` otherwise. ``n_cells`` refines
    the I-grid of a non-piecewise-constant ``alpha`` (cells never wider than
    (t-s)/n_cells, knots of the input and volatility functions always
    included); with piecewise-constant ``a`` and ``sigma`` the I-grid is one
    exact cell per constant-``alpha`` piece.

    ``_step(s, t)`` is the step record H and I read (B/D and D of H, the
    I cells) and ``_jumps(s, t)`` the jump table of the driving measure,
    each computed on the first draw on (s, t) and kept for the
    ``STEP_CACHE`` most recently used intervals. They hold exactly the
    floats the draws would compute, so cached draws keep their bits. An
    invalid interval raises ``DegenerateInterval`` on every call (errors
    are not cached), and so does a step record where the primitive table
    gives no positive D(s, t) or D(r1, t) of a pushed I cell.
    """

    def __init__(self, coeffs: CoefficientSet, nu: Optional[JumpMeasure] = None,
                 n_cells: int = DEFAULT_CELLS, delta: Optional[float] = None):
        self.coeffs = coeffs
        self.nu = nu
        self.n_cells = int(n_cells)
        if self.n_cells < 1:
            raise ValueError("n_cells must be at least 1")
        self.kernels = get_kernels(coeffs, nu)
        self.alpha_piecewise_constant = (coeffs.a.is_piecewise_constant
                                         and coeffs.sigma.is_piecewise_constant)
        if nu is None:
            self.delta = 0.0
        elif delta is None:
            self.delta = delta_for_budget(nu, DELTA_BUDGET) \
                if nu.infinite_activity else 0.0
        else:
            if delta < 0:
                raise InvalidDelta("truncation level must be nonnegative")
            self.delta = float(delta)
        # built at the first jump draw, under the lock (engines are shared
        # across threads): building may raise, which must not stop an
        # engine that draws no jumps
        self._marks = None
        self._marks_lock = threading.Lock()
        self._step = lru_cache(maxsize=STEP_CACHE)(self._step_record)
        self._jumps = lru_cache(maxsize=STEP_CACHE)(self._jump_record)

    # -- plumbing ----------------------------------------------------------

    def _mark_sampler(self):
        if self._marks is None:
            with self._marks_lock:
                if self._marks is None:
                    self.nu.require_sampling(self.delta)
                    self._marks = self.nu.mark_sampler(self.delta)
        return self._marks

    def _bd_positive(self, s, t):
        """``kernels.bd(s, t)``, refused where D(s, t), which the step
        record divides by, is not positive: the primitive table cannot
        resolve an interval that short."""
        B, D = self.kernels.bd(s, t)
        if not D > 0.0:
            raise DegenerateInterval(
                f"D({float(s)!r}, {float(t)!r}) = {D:g} is not positive: "
                f"the interval is too short for the primitive table")
        return B, D

    def _step_record(self, s, t) -> _Step:
        """The record ``_step`` memoizes (see the class docstring)."""
        B, D = self._bd_positive(s, t)
        rates, log_c, scales, last = [], [], [], None
        if self.coeffs.a.max_on(s, t) > 0.0:
            grid = self.i_grid(s, t)
            alphas = self.coeffs.alpha(0.5 * (grid[:-1] + grid[1:])).tolist()
            for r0, r1, alpha in zip(grid[:-1], grid[1:], alphas):
                if alpha <= 0.0:
                    continue
                _, d0 = self.kernels.bd(r0, t)
                if r1 < t:
                    _, d_cell = self.kernels.bd(r0, r1)
                    bt, dt = self._bd_positive(r1, t)
                    log_c.append(math.log1p(d_cell * (bt / dt)))
                    rates.append(alpha * log_c[-1])
                    scales.append(d0)
                else:
                    last = (alpha, d0)
        return _Step(B / D, D, _entries(rates, [log_c, scales]), last)

    def _jump_record(self, s, t) -> _Jumps:
        """The record ``_jumps`` memoizes (see the class docstring)."""
        self.kernels._check(s, t)
        co = self.coeffs
        if self.nu is None or co.a_tilde.max_on(s, t) == 0.0:
            return _NO_JUMPS
        marks = self._mark_sampler()
        if marks.mass == 0.0:
            return _NO_JUMPS
        edges = np.concatenate((
            [s], co.breakpoints(s, t, which=("a_tilde", "beta", "sigma")), [t]))
        lo, hi = edges[:-1], edges[1:]
        length = hi - lo
        # hi - length must not round below lo: a jump at hi - length U' with
        # U' in (0, 1] then lies in [lo, hi]
        length = np.where(hi - length < lo, np.nextafter(length, 0.0), length)
        mids = 0.5 * (lo + hi)
        beta = np.asarray(co.beta(mids), dtype=float)
        half_s2 = 0.5 * np.square(np.asarray(co.sigma(mids), dtype=float))
        b_hi, d_hi = self.kernels.bd(hi[:-1], t)
        b_hi, d_hi = np.append(b_hi, 1.0), np.append(d_hi, 0.0)
        flat = beta == 0.0
        nbc = -b_hi * half_s2 / np.where(flat, 1.0, beta)
        thin = not co.a_tilde.is_piecewise_constant
        a_tilde = np.array([co.a_tilde.max_on(a, b) for a, b in zip(lo, hi)]) \
            if thin else np.asarray(co.a_tilde(mids), dtype=float)
        sizes, weights = marks.atoms or ([], [marks.mass])
        rows = [np.repeat(r, len(weights)) for r in
                [length, hi, -beta, nbc, b_hi, d_hi] + [a_tilde] * thin]
        if marks.atoms:
            rows.append(np.tile(sizes, lo.size))
        return _Jumps(_entries(np.outer(a_tilde * length, weights), rows),
                      None if marks.atoms else marks, bool(flat.any()))

    def i_grid(self, s, t):
        """Cells ``sample_i`` draws on: the knots of the input and volatility
        functions on [s, t], one cell per piece when ``a`` and ``sigma`` are
        piecewise constant, else each piece refined into cells no wider than
        (t-s)/``n_cells``."""
        n = 1 if self.alpha_piecewise_constant else self.n_cells
        knots = self.coeffs.breakpoints(s, t, which=("a", "sigma"))
        edges = np.concatenate(([s], knots, [t]))
        counts = np.ceil((edges[1:] - edges[:-1]) / ((t - s) / n))
        if counts.max() <= 1:    # every piece is one cell
            return edges
        pieces = [np.linspace(lo, hi, max(1, int(k)) + 1)[:-1]
                  for lo, hi, k in zip(edges[:-1], edges[1:], counts)]
        return np.concatenate(pieces + [[t]])

    def prm_points_batch(self, rng, s, t, size):
        """Flattened driving-measure realizations for ``size`` independent
        draws: (draw_index, times, sizes, B, D), with B(T, t) and D(T, t)
        of every point (T, Y). The points come entry by entry from the
        step's jump table (module docstring). ``size`` None is one draw,
        which reads the stream as ``size=1`` does. Raises
        :class:`InvalidDelta` before any draw when more than ``MAX_POINTS``
        points are expected."""
        g = _as_generator(rng)
        jumps, m = self._jumps(s, t), 1 if size is None else size
        mean = jumps.entries.rate
        if mean * m > MAX_POINTS:
            raise InvalidDelta(
                f"truncation level delta={self.delta:g} gives {mean:.3g} "
                f"expected jumps per draw, over {MAX_POINTS} points per call")
        tot = g.poisson(mean * m) if mean else 0   # a rate of 0 reads no stream
        if not tot:
            return _NO_POINTS
        (length, hi, nbeta, nbc, b_hi, d_hi, *more), idx, u = \
            _lay_out(g, jumps.entries, tot, m)
        sizes = more.pop() if jumps.marks is None else None
        gap = 1.0 - u    # distance to the piece's right end, in (0, length]
        gap *= length
        times = hi - gap
        # hi - gap may round to t
        np.minimum(times, math.nextafter(t, -math.inf), out=times)
        if more:    # thinned against the piece's max of a~
            keep = g.random(times.size) * more[0] < self.coeffs.a_tilde(times)
            idx, times, gap, nbeta, nbc, b_hi, d_hi = (
                a[keep] for a in (idx, times, gap, nbeta, nbc, b_hi, d_hi))
            sizes = None if sizes is None else sizes[keep]
        if sizes is None:
            sizes = jumps.marks.sample(g, times.size)
        if not self.kernels.table.exact:
            return (idx, times, sizes, *self.kernels.bd_vec(times, t))
        # the piece's closed forms from its right end: no cancellation
        w = nbeta * gap
        b = np.exp(w)
        b *= b_hi
        d = np.expm1(w)
        if jumps.flat:
            d = np.where(nbeta == 0.0, -gap, d)
        d *= nbc
        d += d_hi
        return idx, times, sizes, b, d

    @staticmethod
    def _starts(y, size):
        """Started masses and draw size: an array y gives one draw per
        element, a scalar y one draw (size None) or ``size`` draws."""
        if not isinstance(y, float) and np.ndim(y) > 0:
            y, size = np.asarray(y, dtype=float), None
            negative = (y < 0).any()
        else:
            y, size = float(y), None if size is None else int(size)
            negative = y < 0
        if negative:
            raise ValueError("y must be nonnegative")
        return y, size

    # -- component samplers --------------------------------------------------

    def sample_h(self, rng, s, t, y, size=None):
        """Draw from the started-mass component H_{s,t}(y, .)."""
        g = _as_generator(rng)
        y, size = self._starts(y, size)
        step = self._step(s, t)
        return _gamma_counts(g, g.poisson(y * step.gamma, size), step.d)

    def sample_i(self, rng, s, t, size=None):
        """Draw from the continuous-input component I_{s,t} on the cells of
        ``i_grid``: the last cell's Gamma(alpha, scale D(r0, t)), plus the
        points of the cells [r0, r1] that end before t, Poisson(alpha L)
        a cell with L = log1p(c), each of value D(r0, t) exp(-L U) E. The
        points of all cells and draws are laid out cell by cell from one
        Poisson total (module docstring). One draw (``size`` None) is a
        batch of one that returns a float."""
        g = _as_generator(rng)
        size = None if size is None else int(size)
        m = 1 if size is None else size
        step = self._step(s, t)
        if step.last is not None:
            x = _gamma(g, *step.last, size)
        else:
            x = 0.0 if size is None else np.zeros(m)
        rate = step.cells.rate
        tot = g.poisson(rate * m) if rate else 0
        if tot:
            (log_c, scales), idx, u = _lay_out(g, step.cells, tot, m)
            u *= log_c
            np.negative(u, out=u)
            v = np.exp(u, out=u)
            v *= scales
            v *= g.standard_exponential(v.size)
            v = np.bincount(idx, weights=v, minlength=m)
            x = x + (v if size is not None else float(v[0]))
        return x

    def sample_itilde(self, rng, s, t, size=None):
        """Draw from the jump-input component ITilde_{s,t} (at truncation
        delta): every point of the driving measure pushed to t through H."""
        g = _as_generator(rng)
        m = None if size is None else int(size)
        idx, _, sizes, bv, dv = self.prm_points_batch(g, s, t, m)
        if not dv.size:
            return 0.0 if m is None else np.zeros(m)
        with np.errstate(divide="ignore"):   # D = 0 is refused below
            lam = sizes * bv / dv
        if not lam.max() <= POISSON_MEAN_MAX:
            raise DegenerateInterval(
                f"D(T, {float(t)!r}) of a jump at T is too small for its H "
                f"count: mean {lam.max():.3g} over {POISSON_MEAN_MAX:.3g}")
        if m is None:
            # the array calls' order: every count, then every Gamma, added
            # from 0.0 in point order as bincount adds (sum() may compensate)
            counts = [g.poisson(mu) for mu in lam.tolist()]
            x = 0.0
            for k, d in zip(counts, dv.tolist()):
                x += _gamma_counts(g, k, d)
            return x
        x = _gamma_counts(g, g.poisson(lam), dv)
        # bincount adds in draw order; x.sum() would add pairwise
        return np.bincount(idx, weights=x, minlength=m)

    def _itilde_stream(self, g, s, t):
        """The generator a batch draws ITilde from: Philox seeded from two
        64-bit words of ``g``, or None, reading nothing, where the step's
        jump table is empty. A table that cannot be built counts as not
        empty, so ITilde raises its error again, after H's and I's."""
        try:
            if not self._jumps(s, t).entries.rate:
                return None
        except Exception:   # e.g. a density without mass above delta
            pass
        words = g.integers(0, 2 ** 64, 2, dtype=np.uint64).tolist()
        ss = np.random.SeedSequence(words)
        return np.random.Generator(np.random.Philox(ss))

    def sample_k(self, rng, s, t, y, size=None):
        """Draw from the one-step transition law K_{s,t}(y, .).

        The three components are independent and summed. One draw (``size``
        None, a scalar y) and a batch of one take H, then I, then ITilde
        from the stream. A larger batch takes ITilde's own generator from
        the stream first (where the step has jumps), then H and I, and draws
        ITilde from that generator, on the lane from ``LANE_MIN`` draws
        (module docstring). Errors come in the order H's, I's, ITilde's.
        """
        g = _as_generator(rng)
        if size is None and (isinstance(y, float) or np.ndim(y) == 0):
            return (self.sample_h(g, s, t, y) + self.sample_i(g, s, t)
                    + self.sample_itilde(g, s, t))
        y, size = self._starts(y, size)
        m = y.size if size is None else size
        # a batch of one reads the stream as one draw does
        child = g if m == 1 else self._itilde_stream(g, s, t)
        slot = (_LANE.slot() if child is not None and m >= LANE_MIN
                else nullcontext())
        with slot as pool:
            job = pool and pool.submit(self.sample_itilde, child, s, t, m)
            try:
                # one I and one ITilde per element of h, in h's order and shape
                h = self.sample_h(g, s, t, y, size=size)
                h += self.sample_i(g, s, t, size=m).reshape(h.shape)
            finally:
                if job is not None:
                    job.exception()    # waits: no lane work outlives the call
            if child is not None:
                it = job.result() if job else self.sample_itilde(child, s, t, m)
                h += it.reshape(h.shape)
        return h

    def sample_prm(self, rng, s, t) -> PrmRealization:
        """One realization of the driving measure on [s, t) x (delta, inf)."""
        g = _as_generator(rng)
        times, sizes = self.prm_points_batch(g, s, t, None)[1:3]
        order = np.argsort(times)
        return PrmRealization(times[order], sizes[order], self.delta)


@lru_cache(maxsize=64)
def _cached_sampler(coeffs, nu, n_cells, delta):
    return TransitionSampler(coeffs, nu, n_cells=n_cells, delta=delta)


def get_sampler(coeffs, nu=None, n_cells: int = DEFAULT_CELLS,
                delta: Optional[float] = None) -> TransitionSampler:
    """Shared sampling engine (memoized per configuration)."""
    return _cached_sampler(coeffs, nu, int(n_cells), delta)


@dataclass(frozen=True)
class Component:
    """One transition-law component. ``laplace(kernels, s, t, y, lam)``
    returns its transform as (value, error estimate), and
    ``draw(sampler, rng, s, t, y, size)`` returns ``size`` draws. The input
    components I and ITilde start at zero and ignore ``y``."""

    laplace: Callable
    draw: Callable


COMPONENTS = {
    "K": Component(lambda k, s, t, y, lam: k.laplace_K(s, t, y, lam),
                   lambda smp, g, s, t, y, n: smp.sample_k(g, s, t, y, size=n)),
    "H": Component(lambda k, s, t, y, lam: k.laplace_H(s, t, y, lam),
                   lambda smp, g, s, t, y, n: smp.sample_h(g, s, t, y, size=n)),
    "I": Component(lambda k, s, t, y, lam: k.laplace_I(s, t, lam),
                   lambda smp, g, s, t, y, n: smp.sample_i(g, s, t, size=n)),
    "Itilde": Component(lambda k, s, t, y, lam: k.laplace_Itilde(s, t, lam),
                        lambda smp, g, s, t, y, n: smp.sample_itilde(g, s, t, size=n)),
}


def get_component(name: str) -> Component:
    """The entry of ``COMPONENTS`` called ``name``."""
    if name not in COMPONENTS:
        raise ValueError(f"unknown component {name!r}; choose from {sorted(COMPONENTS)}")
    return COMPONENTS[name]
