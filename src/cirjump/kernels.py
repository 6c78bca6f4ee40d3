"""Analytic transition-law machinery for the jump CIR equation.

For a time pair ``0 <= s < t`` the four kernel quantities are

    C(s,t) = int_s^t sigma^2(v)/2 * exp(int_0^v beta) dv
    B(s,t) = exp(-int_s^t beta)
    p(s,t) = 1 / (B(0,t) C(s,t))        gamma(s,t) = 1 / (B(0,s) C(s,t))

and the transform kernels

    Psi_{s,t}(lam)    = gamma lam / (p + lam)
    PsiTilde_{s,t}    = int (1 - exp(-y Psi_{s,t}(lam))) nu(dy).

The one-step transition transform of the full equation is

    E[exp(-lam xi_t) | xi_s = y]
        = exp(-y Psi_{s,t}(lam)
              - int_s^t [a(v) Psi_{v,t}(lam) + a~(v) PsiTilde_{v,t}(lam)] dv)

which factorizes into the three component transforms handled below
(``laplace_H`` for the started mass, ``laplace_I`` for the continuous input,
``laplace_Itilde`` for the jump input).

Internally everything is computed from two primitives cached on a shared
grid: ``Lam(v) = int_0^v beta`` and ``E(v) = int_0^v sigma^2/2 exp(Lam)``,
so that B(s,t) = exp(Lam(s) - Lam(t)), D(s,t) := B(0,t) C(s,t) =
exp(-Lam(t)) (E(t) - E(s)), p = 1/D, gamma = B/D and Psi(lam) = B lam /
(1 + lam D), finite for t -> s. Where beta and sigma are piecewise
constant the table is exact, and its one formula of the pair subtracts
nothing: on a piece with constant beta and sigma, at distance gap before a
point hi of the piece,

    B = B(hi,t) exp(-beta gap),
    D = D(hi,t) + B(hi,t) sigma^2/2 (1 - exp(-beta gap))/beta

(sigma^2/2 gap at beta = 0), from hi = min(end of s's piece, t), whose
pair comes from t back to its piece's start plus the E increments of the
whole pieces between. Otherwise the primitives are tabulated by per-panel
Gauss-Legendre quadrature with cubic-Hermite evaluation between panel
ends, and ``bd`` subtracts them, losing digits as t - s shrinks.

The time integral of the transforms is a fixed rule
(``numerics.panel_integral``): order-16 Gauss-Legendre panels whose edges
are s, t and the coefficient breakpoints, no wider than 1/32 of the
coefficients' smoothness scale, and graded geometrically (ratio 2) toward
v = t down to the scale ``2 / (lam_max sigma_max^2)`` below which
``Psi_{v,t}(lam)`` is nearly linear in v. The error estimate is the
difference from order 8 on the same panels; panels above the tolerance are
bisected a bounded number of times and the final estimate is returned as it
is. ``PsiTilde`` at every node is ``nu.one_minus_exp_integral``: the closed
form of a named density on (0, inf) (exponential, gamma, tempered power), or
the fixed node-set sum for atoms, truncated measures and other densities
(``jumps``). The engine builds that node set when it is made, and only for a
measure that uses it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .coefficients import CoefficientSet
from .errors import BetaNotStrictlyPositiveWarning, DegenerateInterval
from .jumps import JumpMeasure
from .numerics import _hermite, _hermite_weights, panel_integral

__all__ = ["KernelValue", "TransitionKernels", "get_kernels"]

DEFAULT_TOL = 1e-9       # absolute tolerance of kernel time-integrals
DEFAULT_NU_TOL = 1e-8    # absolute tolerance of jump-measure integrals


@dataclass(frozen=True)
class KernelValue:
    """The quadruple (C, B, p, gamma) for one time pair."""

    s: float
    t: float
    C: float
    B: float
    p: float
    gamma: float
    quadrature_error: float


class _PrimitiveTable:
    """Primitives Lam(v) and E(v) on [0, t_max] and the pair (B, D),
    vectorized in v (module docstring)."""

    def __init__(self, coeffs: CoefficientSet):
        beta, sigma, t_max = coeffs.beta, coeffs.sigma, coeffs.t_max
        self.t_max = t_max
        base = np.unique(np.concatenate((
            [0.0, t_max],
            beta.breakpoints(0.0, t_max),
            sigma.breakpoints(0.0, t_max))))
        self.exact = beta.is_piecewise_constant and sigma.is_piecewise_constant
        if self.exact:
            self.edges = edges = base
            mids = 0.5 * (edges[:-1] + edges[1:])
            b = np.asarray(beta(mids), dtype=float)
            half_s2 = 0.5 * np.square(np.asarray(sigma(mids), dtype=float))
            # per piece -beta and sigma^2/2 over it (sigma^2/2 at beta = 0)
            self._nb, self._c = -b, half_s2 / np.where(b != 0.0, -b, 1.0)
            self._flat = (b == 0.0) if (b == 0.0).any() else None
            self._lam = lam = np.concatenate(([0.0], np.cumsum(b * np.diff(edges))))
            # E's increment over a piece: exp(Lam(its end)) D(piece)
            d_piece = self.before(np.arange(b.size), np.diff(edges), 1.0, 0.0)[1]
            self._E = np.concatenate(([0.0], np.cumsum(np.exp(lam[1:]) * d_piece)))
            self.error_scale = 1e-15
        else:
            scale = coeffs.smoothness_scale()
            hmax = t_max / 512.0
            if math.isfinite(scale):
                hmax = min(hmax, scale / 32.0)
            pieces = []
            for lo, hi in zip(base[:-1], base[1:]):
                n = max(1, min(int(math.ceil((hi - lo) / hmax)), 4096))
                pieces.append(np.linspace(lo, hi, n + 1)[:-1])
            edges = np.concatenate(pieces + [[t_max]])
            gx, gw = np.polynomial.legendre.leggauss(16)
            lo = edges[:-1][:, None]
            hi = edges[1:][:, None]
            half = 0.5 * (hi - lo)
            nodes = 0.5 * (hi + lo) + half * gx[None, :]
            bw = np.asarray(beta(nodes.ravel()), float).reshape(nodes.shape)
            lam_inc = np.sum(bw * half * gw[None, :], axis=1)
            lam = np.concatenate(([0.0], np.cumsum(lam_inc)))
            dlam = np.asarray(beta(edges), dtype=float)
            ends = (lam[:-1][:, None], dlam[:-1][:, None], lam[1:][:, None],
                    dlam[1:][:, None])
            # exp(Lam) at panel-interior quadrature nodes via Hermite on Lam
            lam_nodes = _hermite(_hermite_weights(nodes, lo, hi), *ends)
            s2n = np.square(np.asarray(sigma(nodes.ravel()), float)).reshape(nodes.shape)
            e_inc = np.sum(0.5 * s2n * np.exp(lam_nodes) * half * gw[None, :], axis=1)
            E = np.concatenate(([0.0], np.cumsum(e_inc)))
            # coarse re-integration gives an honest resolution estimate
            gx8, gw8 = np.polynomial.legendre.leggauss(8)
            nodes8 = 0.5 * (hi + lo) + half * gx8[None, :]
            lam8 = _hermite(_hermite_weights(nodes8, lo, hi), *ends)
            s28 = np.square(np.asarray(sigma(nodes8.ravel()), float)).reshape(nodes8.shape)
            e_inc8 = np.sum(0.5 * s28 * np.exp(lam8) * half * gw8[None, :], axis=1)
            err = float(np.sum(np.abs(e_inc - e_inc8)))
            self.edges = edges
            self._lam, self._E = lam, E
            self._dlam = dlam
            self._dE = 0.5 * np.square(np.asarray(sigma(edges), float)) * np.exp(lam)
            self.error_scale = max(err / max(E[-1], 1.0), 1e-15)
        self._inner = self.edges[1:-1]

    def _idx(self, v):
        """Panel of every v: below 0 the first, from t_max on (and NaN) the
        last, on an interior edge the panel that starts there."""
        return self._inner.searchsorted(v, side="right")

    def primitives(self, v):
        """(Lam(v), E(v)) of a tabulated table by Hermite interpolation,
        floats for a scalar v, arrays of v's shape else."""
        v = np.asarray(v, dtype=float)
        k = self._idx(v)
        w = _hermite_weights(v, self.edges[k], self.edges[k + 1])
        lam = _hermite(w, self._lam[k], self._dlam[k], self._lam[k + 1],
                       self._dlam[k + 1])
        E = _hermite(w, self._E[k], self._dE[k], self._E[k + 1], self._dE[k + 1])
        return (lam, E) if v.ndim else (float(lam), float(E))

    def before(self, k, gap, b_hi, d_hi):
        """The pair at hi - gap from (B(hi, t), D(hi, t)), both points in
        piece k of an exact table; exactly (b_hi, d_hi) at gap 0."""
        w = self._nb[k] * gap
        grow = np.expm1(w)
        if self._flat is not None:    # no mean reversion: linear growth
            grow = np.where(self._flat[k], gap, grow)
        return np.exp(w) * b_hi, d_hi + b_hi * (self._c[k] * grow)

    def ends(self, k, t):
        """hi = min(end of piece k, t) and its pair to t, for the pieces k up
        to t's of an exact table; exactly (t, 1.0, 0.0) for t's piece."""
        kt = self._idx(t)
        hi = np.minimum(self.edges[k + 1], t)
        b_t, d_t = self.before(kt, t - np.maximum(hi, self.edges[kt]), 1.0, 0.0)
        j = np.minimum(k + 1, kt)
        # E(edge kt) - E(edge j): a sum of positive increments, 0 for j == kt
        d_mid = (self._E[kt] - self._E[j]) * np.exp(-self._lam[kt])
        return hi, b_t * np.exp(self._lam[j] - self._lam[kt]), d_t + b_t * d_mid

    def bd(self, s, t, ends=None):
        """(B(s,t), D(s,t)) without the interval check, ``ends`` those of
        every piece for a scalar t: floats for a scalar pair, at s == t
        exactly (1.0, 0.0). A tabulated table's nonpositive D, which its
        subtraction gives on intervals too short for it, is 0."""
        if self.exact:
            k = self._idx(s)
            hi, b_hi, d_hi = self.ends(k, t) if ends is None else (e[k] for e in ends)
            B, D = self.before(k, hi - s, b_hi, d_hi)
        else:
            lam_s, e_s = self.primitives(s)
            lam_t, e_t = self.primitives(t)
            B = np.exp(lam_s - lam_t)
            D = np.maximum(np.exp(-lam_t) * (e_t - e_s), 0.0)
        return (B, D) if np.ndim(B) else (float(B), float(D))


class TransitionKernels:
    """Evaluator of kernel quantities and transition-law transforms.

    Pure functions over an immutable coefficient set (plus an optional jump
    measure). The shared primitive grid, and the jump measure's node set
    when its kernel is not a closed form, are built here, once, so
    instances hold no state that changes afterwards and can be used
    concurrently; a measure that is not summable raises
    :class:`~cirjump.errors.NonIntegrable` here. ``tol`` bounds the time
    integrals; ``nu_tol`` is kept for callers, the jump kernel having a
    fixed accuracy.
    """

    def __init__(self, coeffs: CoefficientSet, nu: Optional[JumpMeasure] = None,
                 tol: float = DEFAULT_TOL, nu_tol: float = DEFAULT_NU_TOL):
        self.coeffs = coeffs
        self.nu = nu
        self.tol = tol
        self.nu_tol = nu_tol
        self.table = _PrimitiveTable(coeffs)
        if nu is not None:
            # builds the node set if the measure uses one; NonIntegrable here
            nu.one_minus_exp_integral(0.0)

    # -- kernel quantities -------------------------------------------------

    def _check(self, s, t):
        ok = (0.0 <= s) & (s < t) & (t <= self.coeffs.t_max + 1e-12)
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise DegenerateInterval(
                f"need 0 <= s < t <= t_max, got s={s}, t={t}")

    def bd(self, s, t):
        """(B(s,t), D(s,t)) with D = B(0,t) C(s,t); the stable pair, from
        the table's one formula after the interval check.

        ``s`` and ``t`` broadcast against each other, and every element is
        bit-identical to the call on that one pair: numpy's ``exp`` gives a
        float the bits it gives that float as an array element, which
        ``math.exp`` may miss by an ulp.
        """
        if isinstance(s, np.ndarray) and not s.size:    # skip check and lookups
            return np.empty(0), np.empty(0)
        self._check(s, t)
        return self.table.bd(s, t)

    def kernel_value(self, s, t) -> KernelValue:
        B, D = self.bd(s, t)
        C = D / self.table.bd(0.0, t)[0]
        p = 1.0 / D
        gamma = B / D
        err = self.table.error_scale * max(abs(C), abs(p), abs(gamma))
        return KernelValue(s=s, t=t, C=C, B=B, p=p, gamma=gamma,
                           quadrature_error=err)

    @staticmethod
    def _check_lam(lam):
        if np.any(np.asarray(lam) < 0):
            raise ValueError("transform arguments must be nonnegative")

    @staticmethod
    def _psi_from_bd(B, D, lam):
        """B lam / (1 + lam D) for every finite lam; the limit gamma = B/D
        only at lam = inf."""
        lam = np.asarray(lam, dtype=float)
        if np.isinf(lam).any():
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(np.isinf(lam), B / np.asarray(D, dtype=float),
                               B * lam / (1.0 + lam * D))
        else:
            out = B * lam / (1.0 + lam * D)
        return out if lam.ndim else float(out)

    def psi(self, s, t, lam):
        """Psi_{s,t}(lam); increasing, concave, Psi(0)=0, Psi(inf)=gamma."""
        self._check_lam(lam)
        B, D = self.bd(s, t)
        return self._psi_from_bd(B, D, lam)

    # -- transforms --------------------------------------------------------

    def _v_panels(self, s, t, lam):
        """Panel edges of the time integral over [s, t] (module docstring)."""
        co = self.coeffs
        edges = [np.array([s, t]), co.breakpoints(s, t)]
        lam_max = float(np.max(lam, initial=0.0, where=np.isfinite(lam)))
        if lam_max > 0.0:
            scale = 2.0 / (lam_max * co.sigma.max_on(s, t) ** 2)
            grade = math.ceil(math.log2((t - s) / scale)) if t - s > scale else 0
            edges.append(t - (t - s) * 0.5 ** np.arange(1, grade + 1))
        edges = np.unique(np.concatenate(edges))
        hmax = co.smoothness_scale() / 32.0
        if math.isfinite(hmax):
            n = np.maximum(np.ceil(np.diff(edges) / hmax).astype(int), 1)
            edges = np.concatenate([np.linspace(lo, hi, k + 1)[:-1] for lo, hi, k
                                    in zip(edges[:-1], edges[1:], n)] + [[t]])
        return edges

    def laplace_H(self, s, t, y, lam):
        """Transform of the component started from mass y: ``laplace_K``
        with both inputs switched off."""
        return self._transform(s, t, y, lam, continuous=False, jumps=False)

    def laplace_I(self, s, t, lam):
        """Transform of the continuous-input component: ``laplace_K`` at
        y = 0 with the jump input switched off."""
        return self._transform(s, t, 0.0, lam, jumps=False)

    def laplace_Itilde(self, s, t, lam):
        """Transform of the jump-input component: ``laplace_K`` at y = 0
        with the continuous input switched off."""
        return self._transform(s, t, 0.0, lam, continuous=False)

    def laplace_K(self, s, t, y, lam):
        """One-step transition transform of the full equation."""
        return self._transform(s, t, y, lam, warn=True)

    def _transform(self, s, t, y, lam, continuous=True, jumps=True, warn=False):
        """exp(-y Psi_{s,t}(lam) - int_s^t [a Psi_{v,t} + a~ PsiTilde_{v,t}]
        (lam) dv) over the inputs that are switched on, vectorized in lam; an
        input whose rate vanishes on [s, t] adds 0."""
        self._check(s, t)
        self._check_lam(lam)
        if y < 0:
            raise ValueError("y must be nonnegative")
        if warn and not self.coeffs.beta_strictly_positive:
            warnings.warn(
                "mean reversion is not strictly positive; the transform "
                "formula is applied outside its proved hypothesis",
                BetaNotStrictlyPositiveWarning, stacklevel=3)
        a, at = self.coeffs.a, self.coeffs.a_tilde
        use_a = continuous and a.max_on(s, t) > 0.0
        use_atilde = jumps and at.max_on(s, t) > 0.0
        if use_atilde and self.nu is None:
            raise ValueError("transform with jump input needs a jump measure")
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        table = self.table    # the ends of every piece to t, formed once
        ends = table.ends(np.arange(table.edges.size - 1), t) if table.exact else None

        def integrand(v):
            B, D = table.bd(v, t, ends)    # nodes may round onto t: no check
            psi_v = self._psi_from_bd(B[:, None], D[:, None], lam_arr)
            out = np.zeros_like(psi_v)
            if use_a:
                out += a(v)[:, None] * psi_v
            if use_atilde:
                out += at(v)[:, None] * self.nu.one_minus_exp_integral(psi_v)
            return out

        ex, err = (panel_integral(integrand, self._v_panels(s, t, lam_arr), self.tol)
                   if use_a or use_atilde else (np.zeros_like(lam_arr), 0.0))
        B, D = table.bd(s, t, ends)
        val = np.exp(-(y * self._psi_from_bd(B, D, lam_arr) + ex))
        e = np.abs(val) * (err + (1.0 + y) * self.table.error_scale)
        scalar = np.ndim(lam) == 0
        return (float(val[0]), float(e[0])) if scalar else (val, e)


@lru_cache(maxsize=64)
def _cached_engine(coeffs, nu, tol, nu_tol):
    return TransitionKernels(coeffs, nu, tol=tol, nu_tol=nu_tol)


def get_kernels(coeffs: CoefficientSet, nu: Optional[JumpMeasure] = None,
                tol: float = DEFAULT_TOL,
                nu_tol: float = DEFAULT_NU_TOL) -> TransitionKernels:
    """Shared evaluator for a coefficient set (engines are memoized)."""
    return _cached_engine(coeffs, nu, tol, nu_tol)

