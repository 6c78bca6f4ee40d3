"""The kernel pair (B, D) and the transition transforms by scipy
quadrature straight over [s, t], as a test oracle for a beta that is linear
between its knots (piecewise constant or piecewise linear) and any sigma.

It shares nothing with the primitive table: ``int_u^t beta`` is the
midpoint rule on each piece between beta's knots, exact for a linear
piece, and

    D(s, t) = int_s^t sigma^2(u)/2 exp(-int_u^t beta) du

is one adaptive ``quad`` over [s, t], split at the knots of beta and sigma
inside it, at a relative tolerance of ``REL_TOL``. The transforms integrate
``a Psi_{v,t} + a~ PsiTilde_{v,t}`` over v by ``quad_vec``, with every
Psi from this pair.
"""

import math

import numpy as np
from scipy.integrate import quad, quad_vec

REL_TOL = 2e-14       # relative tolerance of D's quadrature
PSI_REL_TOL = 1e-12   # the same inside the transforms' integrand
OUTER_TOL = 1e-13     # absolute tolerance of the transforms' time integral


def _beta_integral(beta, knots, u, t):
    """int_u^t beta, exact for a beta linear between ``knots``."""
    cuts = [u] + [k for k in knots if u < k < t] + [t]
    return math.fsum((b - a) * float(beta(0.5 * (a + b)))
                     for a, b in zip(cuts[:-1], cuts[1:]))


def bd(coeffs, s, t, rel_tol=REL_TOL):
    """(B(s, t), D(s, t)) and the estimated error of D, at a relative
    tolerance of ``rel_tol``; (1, 0, 0) at s == t."""
    if not s < t:
        return 1.0, 0.0, 0.0
    beta, sigma = coeffs.beta, coeffs.sigma
    knots = beta.breakpoints(0.0, coeffs.t_max).tolist()
    inner = np.union1d(beta.breakpoints(s, t), sigma.breakpoints(s, t)).tolist()

    def integrand(u):
        return 0.5 * float(sigma(u)) ** 2 * math.exp(-_beta_integral(beta, knots, u, t))

    d, err = quad(integrand, s, t, points=inner or None, epsabs=0.0,
                  epsrel=rel_tol, limit=200)
    return math.exp(-_beta_integral(beta, knots, s, t)), d, err


def transform(coeffs, atoms, s, t, y, lam, jumps=True):
    """``laplace_K`` of a jump measure with ``atoms`` (y_k, w_k), or
    ``laplace_I`` with ``jumps`` False and y = 0, on the array ``lam``:
    the values and their error."""
    lam = np.asarray(lam, dtype=float)

    def psi(v):
        b, d, _ = bd(coeffs, v, t, PSI_REL_TOL)
        return b * lam / (1.0 + lam * d)

    def integrand(v):
        p = psi(v)
        out = coeffs.a(v) * p
        if jumps:
            out = out + coeffs.a_tilde(v) * sum(
                w * -np.expm1(-size * p) for size, w in atoms)
        return out

    knots = coeffs.breakpoints(s, t).tolist()
    ex, err = quad_vec(integrand, s, t, epsabs=OUTER_TOL, epsrel=0.0,
                       points=knots or None, norm="max", limit=400)
    val = np.exp(-(y * psi(s) + ex))
    return val, val * err
