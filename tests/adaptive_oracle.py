"""Nested adaptive quadrature of the transition transforms, as a test oracle.

This is the route the transforms took before the fixed node sets: an
adaptive ``quad_vec`` over the jump size y (the jump kernel
``int (1 - exp(-y c)) nu(dy)``) nested inside an adaptive ``quad_vec`` over
the time v. It shares only the primitive table, through its unchecked
``bd``, with the engine it checks, and runs at tighter tolerances than the
engine's ``kernel_tol``.
"""

import numpy as np
from scipy.integrate import quad_vec

from cirjump.jumps import DensityJumpMeasure

OUTER_TOL = 1e-10    # absolute tolerance of the time integral
INNER_TOL = 1e-11    # absolute and relative tolerance of the jump kernel


def one_minus_exp(nu, c):
    """``int (1 - exp(-y c)) nu(dy)`` for an array ``c >= 0``."""
    c = np.asarray(c, dtype=float)
    if not isinstance(nu, DensityJumpMeasure):
        pts = np.asarray(nu.points, dtype=float)
        return np.sum(pts[:, 1] * -np.expm1(-np.multiply.outer(c, pts[:, 0])),
                      axis=-1)
    out = np.zeros_like(c)
    pos = c > 0
    if not np.any(pos):
        return out
    cp = c[pos]

    def f(y):
        return -np.expm1(-y * cp) * nu.density(y)

    if nu.lower == 0.0 and nu.rho is not None:
        # integrand ~ y**(-rho) at 0+; y = w**q makes it bounded
        q = 1.0 / (1.0 - nu.rho)

        def g(w):
            return f(w ** q) * q * w ** (q - 1.0)

        v1, _ = quad_vec(g, 0.0, 1.0, epsabs=INNER_TOL, epsrel=INNER_TOL)
        v2, _ = quad_vec(f, 1.0, np.inf, epsabs=INNER_TOL, epsrel=INNER_TOL)
        out[pos] = v1 + v2
    else:
        out[pos], _ = quad_vec(f, nu.lower, np.inf, epsabs=INNER_TOL,
                               epsrel=INNER_TOL, points=[max(nu.lower, 1.0) * 2])
    return out


def exponent_integral(eng, s, t, lam, use_a, use_atilde):
    """(value, error) of ``int_s^t [a Psi_{v,t} + a~ PsiTilde_{v,t}](lam) dv``."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    co = eng.coeffs

    def integrand(v):
        B, D = eng.table.bd(v, t)
        psi_v = B * lam / (1.0 + lam * D)
        out = np.zeros_like(lam)
        if use_a:
            out = out + co.a(v) * psi_v
        if use_atilde:
            out = out + co.a_tilde(v) * one_minus_exp(eng.nu, psi_v)
        return out

    pts = [float(p) for p in co.breakpoints(s, t)]
    return quad_vec(integrand, s, t, epsabs=OUTER_TOL, epsrel=1e-13,
                    points=pts or None, limit=2000)


def transforms(eng, s, t, y, lam):
    """Oracle values of ``laplace_I``, ``laplace_Itilde`` and ``laplace_K``."""
    ex_i, _ = exponent_integral(eng, s, t, lam, use_a=True, use_atilde=False)
    ex_it, _ = exponent_integral(eng, s, t, lam, use_a=False, use_atilde=True)
    B, D = eng.bd(s, t)
    lam = np.asarray(lam, dtype=float)
    psi = B * lam / (1.0 + lam * D)
    return {"I": np.exp(-ex_i), "Itilde": np.exp(-ex_it),
            "K": np.exp(-(y * psi + ex_i + ex_it))}
