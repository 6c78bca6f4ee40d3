"""Shared deterministic numerics: quadrature rules and reproducible
random-variate streams.

One quadrature rule lives here. ``panel_integral`` is order 16
Gauss-Legendre on caller-given panels, with an error estimate from order 8
on the same panels and a bounded number of bisections of the panels whose
estimate is too large; the transforms' v-rule calls it on its time panels
(``kernels`` has the u-rule's fixed panels of its own).
``integrate`` serves the one-off measure integrals (certificates, masses,
truncation diagnostics) with the same rule, on panels geometric in ``y``,
halved toward a declared algebraic endpoint singularity and mapped by
``y = cap/u`` on an infinite tail. ``gauss_legendre_panels`` gives the
nodes and weights of such panels for callers that build their own node
sets, and ``_hermite`` is the cubic Hermite interpolant that the primitive
table and the mark table share.

Every random stream is numpy's ``BIT_GENERATOR`` (PCG64DXSM), which
``seeded_generator`` builds from a ``numpy.random.SeedSequence``; an
``RngStream`` keys it by ``(seed, stream_id)``, so a worker substream
reproduces the same variates regardless of scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonIntegrable

__all__ = [
    "QuadratureResult",
    "RngStream",
    "integrate",
    "panel_integral",
    "seeded_generator",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with an honest error estimate.

    ``converged`` is False when the requested tolerance was not certified;
    the value and estimate are still the best available.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool = True

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")


BISECT_ROUNDS = 6         # bisection rounds of panel_integral
HALVINGS = 64             # halvings of a graded piece toward its start

_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)
_HALVES = np.exp2(-np.arange(HALVINGS, -1, -1.0))    # 2^-HALVINGS, ..., 1/2, 1


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
    singular_exponent: Optional[float] = None,
) -> QuadratureResult:
    """Integral of a vectorized ``f`` over ``[lo, hi]`` (``hi`` may be
    ``np.inf``) by ``panel_integral``; a scalar return of ``f`` is broadcast.

    The range is cut at the finite ``breakpoints`` inside it. A piece
    ``[a, b]`` with ``a > 0`` gets geometric panels (edge ratio at most 2);
    a piece with ``a <= 0``, and the first one when ``singular_exponent`` is
    given, gets panels halved toward ``a`` down to ``2^-HALVINGS`` of the
    piece. An infinite ``hi`` adds the tail ``[cap, inf)``, ``cap = max(1,
    2 lo, breakpoints)``, mapped by ``y = cap/u`` onto ``(0, 1]`` and
    halved toward ``u = 0`` the same way. ``singular_exponent`` e > -1
    declares ``f(y) ~ (y - lo)**e`` as ``y`` decreases to ``lo``; the sliver
    below the first edge ``y1`` is then ``f(y1) (y1 - lo) / (1 + e)``, exact
    for a pure power. ``converged`` is ``error <= tol max(1, |value|)``:
    ``tol`` is absolute up to a value of 1 and relative above.
    """
    if hi < lo:
        raise ValueError("integrate needs lo <= hi")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if hi == lo:
        return QuadratureResult(0.0, 0.0, 1)
    e = singular_exponent
    if e is not None and e <= -1.0:
        raise NonIntegrable(f"endpoint exponent {e} <= -1 gives a divergent integral")
    evals = [0]

    def g(y):
        evals[0] += y.size
        return np.broadcast_to(np.asarray(f(y), dtype=float), y.shape)

    pts = [p for p in breakpoints if lo < p < hi and np.isfinite(p)]
    end = max([1.0, 2.0 * lo] + pts) if np.isinf(hi) else hi
    knots = sorted(set([lo, end] + pts))
    edges = [knots[:1]] if e is None else []
    for a, b in zip(knots[:-1], knots[1:]):
        if a <= 0.0 or (a == lo and e is not None):
            edges.append(a + (b - a) * _HALVES)
        else:
            n = max(1, math.ceil(math.log2(b / a)))
            edges.append(np.geomspace(a, b, n + 1)[1:])
    y1 = edges[0][:1]     # with e, the sliver [lo, y1] is taken as a pure power
    value = 0.0 if e is None else g(y1)[0] * (y1[0] - lo) / (1.0 + e)
    v, err = panel_integral(g, np.concatenate(edges), tol)
    value, error = value + v[0], err[0]
    if np.isinf(hi):
        cap = knots[-1]
        v, err = panel_integral(lambda u: g(cap / u) * (cap / (u * u)),
                                np.concatenate(([0.0], _HALVES)), tol)
        value, error = value + v[0], error + err[0]
    return QuadratureResult(float(value), float(error), max(evals[0], 1),
                            converged=error <= tol * max(1.0, abs(value)))


def _hermite_weights(v, x0, x1):
    """Cubic-Hermite weights of (y0, d0, y1, d1) at v on [x0, x1]."""
    h = x1 - x0
    u = (v - x0) / h
    u2 = u * u
    u3 = u2 * u
    return (2 * u3 - 3 * u2 + 1, (u3 - 2 * u2 + u) * h, -2 * u3 + 3 * u2,
            (u3 - u2) * h)


def _hermite(w, y0, d0, y1, d1):
    return w[0] * y0 + w[1] * d0 + w[2] * y1 + w[3] * d1


@dataclass(frozen=True)
class RngStream:
    """Identifier of a reproducible random stream.

    Identical ``(seed, stream_id)`` pairs reproduce identical variate
    sequences across runs, platforms and worker counts. Callers are
    responsible for keeping the ids they hand out disjoint.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return seeded_generator(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id,)))


BIT_GENERATOR = "PCG64DXSM"   # by name, so importing does not load numpy.random


def seeded_generator(ss: np.random.SeedSequence) -> np.random.Generator:
    """The generator of every stream, ``RngStream``'s and a batch K's ITilde's."""
    return np.random.Generator(getattr(np.random, BIT_GENERATOR)(ss))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    raise TypeError("rng must be a numpy Generator or an RngStream")


def panel_integral(f, edges, tol: float):
    """Integral of a vector-valued ``f`` over ``[edges[0], edges[-1]]``.

    ``f`` maps an array of m points to an ``(m, k)`` array. Each panel
    ``[edges[i], edges[i+1]]`` is integrated by Gauss-Legendre of order 16,
    and its error is estimated as the difference from order 8 on the same
    panel. A panel whose estimate, at its largest over the k components,
    exceeds ``tol`` divided by the initial panel count is bisected and
    integrated again, for at most ``BISECT_ROUNDS`` rounds; the panels still
    above it after the last round are kept as they are.

    Returns ``(value, error_estimate)``, each of shape ``(k,)``; the estimate
    is the sum of the final panels' estimates, whether or not it meets
    ``tol``.
    """
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)
    limit = tol / lo.size
    x = np.concatenate((_GL16[0], _GL8[0]))
    value = error = 0.0
    for rnd in range(BISECT_ROUNDS + 1):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        vals = np.asarray(f((mid[:, None] + half[:, None] * x).ravel()), dtype=float)
        vals = vals.reshape(lo.size, x.size, -1)
        q16 = (vals[:, :16] * _GL16[1][:, None]).sum(axis=1) * half[:, None]
        q8 = (vals[:, 16:] * _GL8[1][:, None]).sum(axis=1) * half[:, None]
        est = np.abs(q16 - q8)
        split = est.max(axis=1) > limit
        if rnd == BISECT_ROUNDS:
            split[:] = False
        value = value + q16[~split].sum(axis=0)
        error = error + est[~split].sum(axis=0)
        if not split.any():
            break
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    return value, error


def gauss_legendre_panels(panel_edges: np.ndarray):
    """Order-16 Gauss-Legendre nodes and weights for a sequence of panels.

    Returns flat ``(nodes, weights)`` arrays covering all panels; exact for
    polynomials of degree 31 on each panel.
    """
    x, w = _GL16
    lo = panel_edges[:-1][:, None]
    hi = panel_edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights
