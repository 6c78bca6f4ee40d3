"""Build a jump CIR model, validate its assumptions, and explore the
analytic kernels.

The model is

    d xi_t = [a(t) - beta(t) xi_t-] dt + int y mu(dt,dy)
             + sigma(t) sqrt(xi_t- v 0) dW_t

with piecewise-constant coefficients and a two-atom jump measure. The
transform kernels (C, B, p, gamma) determine every transition law in
closed form.
"""

import math

import numpy as np

import cirjump as cj

coeffs = cj.CoefficientSet(
    a=cj.piecewise_constant([0.6], [0.3, 0.8]),
    a_tilde=cj.piecewise_constant([1.0], [0.4, 0.2]),
    beta=cj.piecewise_constant([0.4, 1.1], [0.5, 2.0, 1.0]),
    sigma=cj.piecewise_constant([0.7], [1.0, 1.5]),
    x0=0.5, t_max=2.0)
nu = cj.atoms([(0.7, 1.2), (1.8, 0.4)])

print("== validation report ==")
report = cj.validate(coeffs, nu)
print(report)

print("\n== kernel quadruple on a few time pairs ==")
eng = cj.get_kernels(coeffs)
for s, t in ((0.0, 0.5), (0.2, 1.2), (1.0, 2.0)):
    kv = eng.kernel_value(s, t)
    print(f"(s={s:.1f}, t={t:.1f})  C={kv.C:.6f}  B={kv.B:.6f}  "
          f"p={kv.p:.6f}  gamma={kv.gamma:.6f}")

print("\n== the transform kernel iterates like a semigroup ==")
lam = np.array([0.5, 2.0, 10.0])
lhs = eng.psi(0.2, 0.8, eng.psi(0.8, 1.6, lam))
rhs = eng.psi(0.2, 1.6, lam)
print("composition defect:", np.max(np.abs(lhs - rhs)))

print("\n== constant coefficients reduce to closed forms ==")
const = cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                          beta=cj.constant(1.0),
                          sigma=cj.constant(math.sqrt(2.0)), t_max=2.0)
kv = cj.get_kernels(const).kernel_value(0.0, math.log(2.0))
print(f"B={kv.B} (want 0.5)   p={kv.p} (want 2)   gamma={kv.gamma} (want 1)")

print("\n== transition transform of the full model ==")
grid = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
vals, errs = cj.get_kernels(coeffs, nu).laplace_K(0.2, 1.2, 0.8, grid)
for l, v in zip(grid, vals):
    print(f"  lambda={l:5.2f}   E[exp(-lambda X)] = {v:.10f}")
