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

Internally everything is computed from ``Lam(v) = int_0^v beta`` and
``E(v) = int_0^v sigma^2/2 exp(Lam)`` at the edges of the primitive table's
pieces, so that B(s,t) = exp(Lam(s) - Lam(t)), D(s,t) := B(0,t) C(s,t) =
exp(-Lam(t)) (E(t) - E(s)), p = 1/D, gamma = B/D and Psi(lam) = B lam /
(1 + lam D), finite for t -> s. The table's one formula of the pair
subtracts nothing inside a piece: at distance gap before a point hi of
the piece (``before``),

    B = B(hi,t) exp(Lam(hi - gap) - Lam(hi)),
    D = D(hi,t) + B(hi,t) int_{hi-gap}^hi sigma^2/2 exp(Lam(u) - Lam(hi)) du,

from hi = min(end of s's piece, t), whose pair comes from t back to its
piece's start plus the E increments of the whole pieces between
(``ends``), so D > 0 for every s < t. Where beta and sigma are piecewise
constant the table is exact: its pieces are theirs, and ``before`` is the
closed form B(hi,t) exp(-beta gap), D(hi,t) + B(hi,t) sigma^2/2 (1 -
exp(-beta gap))/beta (sigma^2/2 gap at beta = 0). Otherwise it is
tabulated: panels no wider than t_max/512 or 1/32 of the smoothness
scale, Lam at their edges by 16-node Gauss-Legendre and inside a panel by
its cubic Hermite, and ``before``'s integral by 16 Gauss-Legendre nodes.
On both kinds the E increments are ``before`` over whole pieces.
``error_scale``, the relative error of the pair, is the larger of the
Hermite's error (at the panel midpoints, against the Gauss-Legendre rule
over half a panel) and the rounding of the E differences, and at least
1e-15.

Each term of the time integral takes one route, fixed when the engine is
built from the coefficient kinds alone, on [s, t] cut at the knots of all
four coefficients. As dD(v,t)/dv = -sigma^2/2 B(v,t) for any beta, on a
piece of constant alpha = 2 a / sigma^2

    int a Psi_{v,t}(lam) dv = alpha log((1 + lam D(lo,t)) / (1 + lam D(hi,t))),

so the a term is this closed form, from the table's (B, D) at the cut
points, wherever alpha is piecewise constant, on either kind of table: no
quadrature. On an exact table with piecewise-constant a~ the a~ term takes
the u-rule: on each piece psi(v) = Psi_{v,t}(lam) solves the Riccati
equation d psi/dv = beta psi + sigma^2/2 psi^2, psi(t) = lam, so that

    int a~ PsiTilde(psi) dv = a~ int PsiTilde(e^u) / (beta + sigma^2/2 e^u) du

with u = log psi between log psi(lo) and log psi(hi), beta = 0 included.
It is smooth in u and needs no grading: equal u-panels no wider than
``U_PANEL``, order-32 Gauss-Legendre with the difference from order 16 as
the estimate, vectorized over pieces x lam x nodes. Above psi =
``PSI_CAP`` (where a density's node set stops resolving the kernel) the
integrand is continued by its decay exp(-u / q), q = 1/(1 - rho) for an
infinite-activity measure and 1 else, in closed form out to log psi(hi)
(inf on t's piece at lam = inf), with 2 q |g(U) - g(U - q log 2) / 2| as
that part's estimate (g the integrand, U its start). lam = 0 gives exactly
1 and lam = inf the mass at 0.

The v-rule (``numerics.panel_integral``), callable for every input as the
tests' oracle, takes the rest: the a term where alpha is not piecewise
constant, the a~ term on a tabulated table or where a~ is not piecewise
constant. Its order-16 Gauss-Legendre panels have edges s, t and the
coefficient breakpoints, are no wider than 1/32 of the coefficients'
smoothness scale, and are graded geometrically (ratio 2) toward v = t down
to the scale ``2 / (lam_max sigma_max^2)`` below which ``Psi_{v,t}(lam)``
is nearly linear in v; nothing grades them at lam = inf. The error
estimate is the difference from order 8 on the same panels; panels above
the tolerance are bisected a bounded number of times and the final
estimate is returned as it is. ``PsiTilde`` at every node is
``nu.one_minus_exp_integral``: the closed form of a named density on (0,
inf) (exponential, gamma, tempered power), or the fixed node-set sum for
atoms, truncated measures and other densities (``jumps``). The engine
builds that node set when it is made, and only for a measure that uses it.
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
PSI_CAP = 1e10           # psi above which the u-rule extrapolates its integrand
U_PANEL = 2.0            # widest initial u-panel of the u-rule

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


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
    """Lam(v) and E(v) at the table's edges on [0, t_max] and the pair
    (B, D) from positive terms only, vectorized in v (module docstring)."""

    def __init__(self, coeffs: CoefficientSet):
        beta, sigma, t_max = coeffs.beta, coeffs.sigma, coeffs.t_max
        self.t_max = t_max
        base = np.unique(np.concatenate((
            [0.0, t_max],
            beta.breakpoints(0.0, t_max),
            sigma.breakpoints(0.0, t_max))))
        self.exact = beta.is_piecewise_constant and sigma.is_piecewise_constant
        if self.exact:
            edges = base
            mids = 0.5 * (edges[:-1] + edges[1:])
            b = np.asarray(beta(mids), dtype=float)
            half_s2 = 0.5 * np.square(np.asarray(sigma(mids), dtype=float))
            # per piece -beta and sigma^2/2 over it (sigma^2/2 at beta = 0)
            self._nb, self._c = -b, half_s2 / np.where(b != 0.0, -b, 1.0)
            self._flat = (b == 0.0) if (b == 0.0).any() else None
            lam_inc, hermite_err = b * np.diff(edges), 0.0
            self.before = self._closed_form
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
            # node j of a part [hi - gap, hi] at hi - gap x_j, between its
            # ends, and the weights over a gap of 1
            self._x = np.concatenate(([1.0], 0.5 * (1.0 - gx), [0.0]))
            self._w = 0.5 * gw
            self._sigma = sigma

            def integral(lo, hi):    # int_lo^hi beta, elementwise
                v = hi[..., None] - (hi - lo)[..., None] * self._x[1:-1]
                return (np.asarray(beta(v), float) * self._w).sum(axis=-1) * (hi - lo)

            lo, hi = edges[:-1], edges[1:]
            lam_inc = integral(lo, hi)
            self._dlam = dlam = np.asarray(beta(edges), dtype=float)
            # Lam(mid) - Lam(lo) by the panel's cubic Hermite, lam_inc / 2 +
            # (hi - lo)(beta(lo) - beta(hi)) / 8, against the rule over half
            # the panel: the Hermite's error, which is largest at the midpoint
            hermite_err = float(np.max(np.abs(
                0.5 * lam_inc + 0.125 * (hi - lo) * (dlam[:-1] - dlam[1:])
                - integral(lo, 0.5 * (lo + hi)))))
            self.before = self._gauss_legendre
        self.edges = edges
        self._inner = edges[1:-1]
        self._lam = lam = np.concatenate(([0.0], np.cumsum(lam_inc)))
        # E's increment over a piece: exp(Lam(its end)) D(piece)
        d_piece = self.before(np.arange(edges.size - 1), edges[1:], np.diff(edges),
                              1.0, 0.0)[1]
        self._E = E = np.concatenate(([0.0], np.cumsum(np.exp(lam[1:]) * d_piece)))
        # relative errors of (B, D): the Hermite's, and the rounding of the E
        # differences of ``ends``, eps E over the increment just below it
        self.error_scale = max(hermite_err, _EPS * float(np.max(E[1:] / np.diff(E))),
                               1e-15)

    def _idx(self, v):
        """Panel of every v: below 0 the first, from t_max on (and NaN) the
        last, on an interior edge the panel that starts there."""
        return self._inner.searchsorted(v, side="right")

    def _closed_form(self, k, hi, gap, b_hi, d_hi):
        """``before`` of an exact table: its closed form on piece k."""
        w = self._nb[k] * gap
        grow = np.expm1(w)
        if self._flat is not None:    # no mean reversion: linear growth
            grow = np.where(self._flat[k], gap, grow)
        return np.exp(w) * b_hi, d_hi + b_hi * (self._c[k] * grow)

    def _gauss_legendre(self, k, hi, gap, b_hi, d_hi):
        """``before`` of a tabulated table: B = B(hi, t) exp(Lam(lo) -
        Lam(hi)) and D = D(hi, t) + B(hi, t) int_lo^hi sigma^2/2
        exp(Lam(u) - Lam(hi)) du, lo = hi - gap, by 16 Gauss-Legendre
        nodes, with Lam from the Hermite of panel k."""
        gap = np.asarray(gap, dtype=float)[..., None]
        v = np.asarray(hi, dtype=float)[..., None] - gap * self._x
        k = np.asarray(k)[..., None]
        lam = _hermite(_hermite_weights(v, self.edges[k], self.edges[k + 1]),
                       self._lam[k], self._dlam[k], self._lam[k + 1], self._dlam[k + 1])
        grow = np.exp(lam - lam[..., -1:])    # exp(Lam(v) - Lam(hi))
        half_s2 = 0.5 * np.square(np.asarray(self._sigma(v[..., 1:-1]), float))
        part = (half_s2 * grow[..., 1:-1] * self._w).sum(axis=-1)
        return b_hi * grow[..., 0], d_hi + b_hi * (part * gap[..., 0])

    def ends(self, k, t):
        """hi = min(end of piece k, t) and its pair to t, for the pieces k up
        to t's, with the pair over t's partial piece formed once per t;
        exactly (t, 1.0, 0.0) for t's piece."""
        kt = self._idx(t)
        hi = np.minimum(self.edges[k + 1], t)
        b_t, d_t = self.before(kt, t, t - self.edges[kt], 1.0, 0.0)
        inside = k < kt    # else t's piece: exactly (1.0, 0.0)
        b_t, d_t = np.where(inside, b_t, 1.0), np.where(inside, d_t, 0.0)
        j = np.minimum(k + 1, kt)
        # E(edge kt) - E(edge j): a sum of positive increments, 0 for j == kt
        d_mid = (self._E[kt] - self._E[j]) * np.exp(-self._lam[kt])
        return hi, b_t * np.exp(self._lam[j] - self._lam[kt]), d_t + b_t * d_mid

    def bd(self, s, t, ends=None):
        """(B(s,t), D(s,t)) without the interval check, ``ends`` those of
        every piece for a scalar t: floats for a scalar pair, at s == t
        exactly (1.0, 0.0), D > 0 for every s < t."""
        k = self._idx(s)
        hi, b_hi, d_hi = self.ends(k, t) if ends is None else (e[k] for e in ends)
        B, D = self.before(k, hi, hi - s, b_hi, d_hi)
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
        # the exact routes, fixed by the coefficient kinds: the knots of all
        # four coefficients inside (0, t_max), and on each piece alpha for
        # the a term's closed form and a~, beta, sigma^2/2 for the u-rule
        self._knots = knots = coeffs.breakpoints(0.0, coeffs.t_max)
        edges = np.concatenate(([0.0], knots, [coeffs.t_max]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        half_s2 = 0.5 * np.square(coeffs.sigma(mids))
        self._alpha = coeffs.a(mids) / half_s2 if coeffs.alpha_piecewise_constant \
            else None
        self._riccati = None
        if self.table.exact and coeffs.a_tilde.is_piecewise_constant:
            self._riccati = tuple(np.reshape(c, (-1, 1, 1)) for c in (
                coeffs.a_tilde(mids), coeffs.beta(mids), half_s2))
        # decay of the u-integrand at large psi: exp(-u / q), q = 1/(1 - rho)
        self._q = 1.0 / (1.0 - nu.rho) if nu is not None and nu.infinite_activity \
            else 1.0

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
        if not np.all(np.asarray(lam) >= 0):    # NaN fails too
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
        (lam) dv) over the inputs that are switched on, vectorized in lam,
        each term by the route the engine fixed for it (module docstring).
        A rate that vanishes on [s, t] adds exactly 0 on every route: the
        closed form and the v-rule zero their terms where the rate is 0,
        and the u-rule integrand carries the rate as a factor."""
        self._check(s, t)
        self._check_lam(lam)
        if not 0.0 <= y < math.inf:
            raise ValueError("y must be finite and nonnegative")
        if warn and not self.coeffs.beta_strictly_positive:
            warnings.warn(
                "mean reversion is not strictly positive; the transform "
                "formula is applied outside its proved hypothesis",
                BetaNotStrictlyPositiveWarning, stacklevel=3)
        use_a, use_atilde = continuous, jumps and self.nu is not None
        if jumps and self.nu is None and self.coeffs.a_tilde.max_on(s, t) > 0.0:
            raise ValueError("transform with jump input needs a jump measure")
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        # s, the knots inside (s, t), t, and the slice k of the pieces between
        knots = self._knots
        i0, i1 = knots.searchsorted(s, "right"), knots.searchsorted(t, "left")
        cut, k = np.concatenate(([s], knots[i0:i1], [t])), slice(i0, i1 + 1)
        B, D = self.table.bd(cut, t)
        psi = self._psi_from_bd(B[:, None], D[:, None], lam_arr)    # cuts x lam
        ex, err = np.zeros(lam_arr.shape), 0.0
        closed = use_a and self._alpha is not None
        if closed:    # alpha log((1 + lam D(lo)) / (1 + lam D(hi)))
            with np.errstate(divide="ignore"):
                grow = np.log1p((D[:-1] - D[1:])[:, None] / (1.0 / lam_arr + D[1:, None]))
            alpha = self._alpha[k]
            grow[alpha == 0.0] = 0.0    # not 0 * inf on t's piece at lam = inf
            ex += alpha @ grow
        riccati = use_atilde and self._riccati is not None
        if riccati:
            ex_u, err = self._u_rule(psi, k)
            ex += ex_u
        v_a, v_atilde = use_a and not closed, use_atilde and not riccati
        if v_a or v_atilde:
            ex_v, err_v = self._v_rule(s, t, lam_arr, v_a, v_atilde)
            ex += ex_v
            err = err + err_v
        val = np.exp(-(y * psi[0] + ex))
        e = np.abs(val) * (err + (1.0 + y) * self.table.error_scale)
        scalar = np.ndim(lam) == 0
        return (float(val[0]), float(e[0])) if scalar else (val, e)

    def _v_rule(self, s, t, lam, use_a, use_atilde):
        """(exponent, error) of the time integral by ``panel_integral`` on
        the v-panels of ``_v_panels``, for any coefficients."""
        a, at, table = self.coeffs.a, self.coeffs.a_tilde, self.table
        ends = table.ends(np.arange(table.edges.size - 1), t)    # formed once

        def integrand(v):
            B, D = table.bd(v, t, ends)    # nodes may round onto t: no check
            psi_v = self._psi_from_bd(B[:, None], D[:, None], lam)
            out = np.zeros_like(psi_v)
            # a rate of 0 adds 0, also at a node on t, where lam = inf gives inf
            if use_a:
                rate = a(v)[:, None]
                out += rate * np.where(rate > 0.0, psi_v, 0.0)
            if use_atilde:
                rate = at(v)[:, None]
                out += rate * np.where(rate > 0.0, self.nu.one_minus_exp_integral(psi_v), 0.0)
            return out

        return panel_integral(integrand, self._v_panels(s, t, lam), self.tol)

    def _u_rule(self, psi, k):
        """(exponent, error) of the a~ term piece by piece in u = log psi
        (module docstring), psi at the cut points x lam, k the pieces."""
        at, beta, half_s2 = (c[k] for c in self._riccati)
        u = np.log(np.maximum(psi, _TINY))    # psi = 0 at lam = 0: no range
        u0, u1 = u[:-1], u[1:]
        top = np.minimum(u1, np.maximum(u0, math.log(PSI_CAP)))
        width = top - u0

        def g(u):    # a~ PsiTilde(e^u) / (beta + sigma^2/2 e^u) per piece, lam
            c = np.exp(u)
            return self.nu.one_minus_exp_integral(c) * at / (beta + half_s2 * c)

        n = max(1, math.ceil(width.max() / U_PANEL))
        x, w32, w16 = _u_panels(n)
        vals = g(u0[..., None] + width[..., None] * x).reshape(*width.shape, n, 48)
        q32, q16 = vals[..., :32] @ w32, vals[..., 32:] @ w16    # per panel
        val = q32.sum(axis=-1) * width
        est = np.abs(q32 - q16).sum(axis=-1) * width
        far = u1 > top
        if far.any():    # above psi = PSI_CAP: g(top) exp(-(u - top) / q)
            q = self._q
            g_top, g_below = np.moveaxis(
                g(top[..., None] - [0.0, q * math.log(2.0)]), -1, 0)
            share = -np.expm1(-(u1 - top) / q)
            val = val + q * g_top * share
            est = est + 2.0 * q * np.abs(g_top - 0.5 * g_below) * share
        return val.sum(axis=0), est.sum(axis=0)


@lru_cache(maxsize=64)
def _u_panels(n):
    """Nodes on [0, 1] of n equal panels, 32 Gauss-Legendre nodes and then
    16 on each, and the weights of the two rules on one panel."""
    (x32, w32), (x16, w16) = (np.polynomial.legendre.leggauss(m) for m in (32, 16))
    x = (np.arange(n)[:, None] + 0.5 * (np.concatenate((x32, x16)) + 1.0)) / n
    return x.ravel(), 0.5 * w32 / n, 0.5 * w16 / n


@lru_cache(maxsize=64)
def _cached_engine(coeffs, nu, tol, nu_tol):
    return TransitionKernels(coeffs, nu, tol=tol, nu_tol=nu_tol)


def get_kernels(coeffs: CoefficientSet, nu: Optional[JumpMeasure] = None,
                tol: float = DEFAULT_TOL,
                nu_tol: float = DEFAULT_NU_TOL) -> TransitionKernels:
    """Shared evaluator for a coefficient set (engines are memoized)."""
    return _cached_engine(coeffs, nu, tol, nu_tol)

