"""Shared deterministic numerics: quadrature rules and reproducible
random-variate streams.

Two quadratures live here. ``integrate`` wraps the adaptive Gauss-Kronrod
integrator from scipy, adding forced breakpoints (knots of piecewise
coefficient functions must be subdivision boundaries) and a power
substitution that removes declared algebraic endpoint singularities; it
serves the one-off measure integrals (certificates, masses, truncation
diagnostics). ``panel_integral`` is the fixed rule of the transforms: order
16 Gauss-Legendre on caller-given panels, with an error estimate from order
8 on the same panels and a bounded number of bisections of the panels whose
estimate is too large. ``gauss_legendre_panels`` gives the nodes and
weights of such panels for callers that build their own node sets.

Random streams are built on the counter-based Philox generator keyed by
``(seed, stream_id)`` through ``numpy.random.SeedSequence``, so a worker
substream reproduces the same variates regardless of scheduling or worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonIntegrable

__all__ = [
    "QuadratureResult",
    "RngStream",
    "integrate",
    "panel_integral",
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

_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)


def _quad_piece(f, lo, hi, tol, points=None):
    from scipy.integrate import quad   # deferred: scipy.integrate is slow to import

    out = quad(f, lo, hi, epsabs=tol, epsrel=tol, limit=500,
               points=points, full_output=1)
    value, err, info = out[0], out[1], out[2]
    ok = len(out) == 3
    return value, err, info["neval"], ok


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
    singular_exponent: Optional[float] = None,
) -> QuadratureResult:
    """Adaptive integration of ``f`` over ``[lo, hi]``.

    Parameters
    ----------
    f : callable
        Scalar integrand, finite on (lo, hi).
    lo, hi : float
        Integration bounds, ``lo <= hi``; ``hi`` may be ``np.inf``.
    tol : float
        Absolute tolerance target. The returned estimate may exceed it, in
        which case the result is flagged as not converged.
    breakpoints : sequence of float
        Forced subdivision points (knots of piecewise integrands). Points
        outside (lo, hi) are ignored.
    singular_exponent : float, optional
        When given, the integrand behaves like ``(y - lo)**e`` as ``y``
        decreases to ``lo``. The substitution ``y = lo + w**(1/(1+e))``
        makes the transformed integrand bounded. Requires ``e > -1``.
    """
    if hi < lo:
        raise ValueError("integrate needs lo <= hi")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if hi == lo:
        return QuadratureResult(0.0, 0.0, 1)

    pts = sorted(p for p in breakpoints if lo < p < hi and np.isfinite(p))

    total, err_total, nev = 0.0, 0.0, 0
    ok = True

    a = lo
    if singular_exponent is not None:
        e = float(singular_exponent)
        if e <= -1.0:
            raise NonIntegrable(
                f"endpoint exponent {e} <= -1 gives a divergent integral")
        q = 1.0 / (1.0 + e)
        split = pts[0] if pts else (min(lo + 1.0, hi) if np.isinf(hi) else hi)

        def g(w):
            y = lo + w ** q
            return f(y) * q * w ** (q - 1.0)

        v, er, ne, k = _quad_piece(g, 0.0, (split - lo) ** (1.0 / q), tol)
        total += v
        err_total += er
        nev += ne
        ok = ok and k
        a = split
        pts = [p for p in pts if p > split]

    if np.isinf(hi):
        cap = max([a + 1.0] + pts)
        if cap > a:
            v, er, ne, k = _quad_piece(f, a, cap, tol, points=pts or None)
            total += v
            err_total += er
            nev += ne
            ok = ok and k
        v, er, ne, k = _quad_piece(f, cap, np.inf, tol)
        total += v
        err_total += er
        nev += ne
        ok = ok and k
    elif hi > a:
        v, er, ne, k = _quad_piece(f, a, hi, tol, points=pts or None)
        total += v
        err_total += er
        nev += ne
        ok = ok and k

    return QuadratureResult(total, err_total, max(nev, 1),
                            converged=ok and err_total <= tol)


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
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))


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


def gauss_legendre_panels(panel_edges: np.ndarray, order: int = 16):
    """Gauss-Legendre nodes and weights for a sequence of panels.

    Returns flat ``(nodes, weights)`` arrays covering all panels; exact for
    polynomials of degree ``2*order - 1`` on each panel.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    lo = panel_edges[:-1][:, None]
    hi = panel_edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights
