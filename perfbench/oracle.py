"""Independent reference for the transition transform of a model with
constant coefficients and a tempered-power jump measure.

With constant ``beta`` and ``sigma`` and ``h = t - v``,

    B = exp(-beta h),   D = sigma^2 / (2 beta) (1 - exp(-beta h)),
    Psi_{v,t}(lam) = B lam / (1 + lam D),

and for ``nu(dy) = coef y^-(1+rho) exp(-decay y) dy`` with 0 < rho < 1,

    PsiTilde(c) = coef Gamma(-rho) (decay^rho - (decay + c)^rho).

The exponent ``y Psi_{s,t} + int_s^t [a Psi_{v,t} + a~ PsiTilde(Psi_{v,t})] dv``
is integrated over ``v`` with ``scipy.integrate.quad``. Nothing here calls
the package: the parameters are read from the YAML file itself.
"""

from __future__ import annotations

import math

import numpy as np
import yaml
from scipy.integrate import quad


class TemperedPowerReference:
    def __init__(self, config_path):
        with open(config_path, "r", encoding="utf-8") as fh:
            model = yaml.safe_load(fh)["model"]
        for key in ("a", "a_tilde", "beta", "sigma"):
            if model[key]["kind"] != "constant":
                raise ValueError(f"reference needs a constant '{key}'")
        nu = model["nu"]
        if nu["kind"] != "tempered_power" or not 0.0 < float(nu["rho"]) < 1.0:
            raise ValueError("reference needs a tempered-power measure, 0 < rho < 1")
        self.a = float(model["a"]["value"])
        self.a_tilde = float(model["a_tilde"]["value"])
        self.beta = float(model["beta"]["value"])
        self.sigma2 = float(model["sigma"]["value"]) ** 2
        if self.beta <= 0.0:
            raise ValueError("reference needs beta > 0")
        self.coef = float(nu.get("coef", 1.0))
        self.rho = float(nu["rho"])
        self.decay = float(nu.get("decay", 1.0))

    def psi(self, h, lam):
        b = math.exp(-self.beta * h)
        d = 0.5 * self.sigma2 / self.beta * -math.expm1(-self.beta * h)
        return b * lam / (1.0 + lam * d)

    def psi_tilde(self, c):
        # decay^rho - (decay + c)^rho without cancellation for small c
        diff = -self.decay ** self.rho * math.expm1(self.rho * math.log1p(c / self.decay))
        return self.coef * math.gamma(-self.rho) * diff

    def laplace_K(self, s, t, y, lambda_grid):
        """(values, quadrature error bounds) of E[exp(-lam xi_t) | xi_s = y]."""
        vals, errs = [], []
        for lam in np.asarray(lambda_grid, dtype=float):
            def integrand(v):
                p = self.psi(t - v, lam)
                return self.a * p + self.a_tilde * self.psi_tilde(p)
            ex, err = quad(integrand, s, t, epsabs=1e-14, epsrel=1e-13, limit=200)
            val = math.exp(-(y * self.psi(t - s, lam) + ex))
            vals.append(val)
            errs.append(val * err)
        return np.asarray(vals), np.asarray(errs)
