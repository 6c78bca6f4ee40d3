"""Statistical verification: transforms, Chapman-Kolmogorov, Euler ladder,
and reproducibility across worker counts.

Monte Carlo batches are split into fixed-size chunks, one reproducible
substream per chunk, and reduced in chunk order; the same seed therefore
produces byte-identical reports with any number of workers.
"""

import json

import numpy as np

import cirjump as cj
from cirjump.kernels import get_kernels
from cirjump.paths import euler_terminal_batch
from cirjump.verify import (chapman_kolmogorov, compare_component,
                            mc_statistics)

coeffs = cj.CoefficientSet(
    a=cj.piecewise_constant([0.6], [0.3, 0.8]),
    a_tilde=cj.piecewise_constant([1.0], [0.4, 0.2]),
    beta=cj.piecewise_constant([0.4, 1.1], [0.5, 2.0, 1.0]),
    sigma=cj.piecewise_constant([0.7], [1.0, 1.5]),
    x0=0.5, t_max=2.0)
nu = cj.atoms([(0.7, 1.2), (1.8, 0.4)])
s, t, y = 0.2, 1.2, 0.8
grid = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
N = 200_000

print("== one-step sampler vs the transition transform ==")
cmp = compare_component(coeffs, nu, s, t, y, "K", N, grid, seed=11)
print(cmp)

print("\n== two-step sampling through a midpoint (Chapman-Kolmogorov) ==")
ck = chapman_kolmogorov(coeffs, nu, s, 0.7, t, y, N, grid, seed=12)
print(f"max|z| = {ck.max_abs_z:.2f}  {'pass' if ck.passed else 'FAIL'}")

print("\n== Euler weak-error ladder at lambda = 1 ==")
eng = get_kernels(coeffs, nu)
analytic, _ = eng.laplace_K(s, t, y, np.array([1.0]))
for k in range(4):
    n_steps = 8 * 2 ** k
    stats = mc_statistics(
        lambda g, m: euler_terminal_batch(g, coeffs, nu, s, t, n_steps, m,
                                          y0=y),
        50_000, np.array([1.0]), seed=13, stream_base=100 * k)
    err = abs(stats["mean"][0] - analytic[0])
    print(f"h = (t-s)/{n_steps:3d}: |empirical - analytic| = {err:.5f} "
          f"(+-{stats['std_err'][0]:.5f})")

print("\n== byte-identical reports across worker counts ==")
a = compare_component(coeffs, nu, s, t, y, "K", N, grid, seed=14, workers=1)
b = compare_component(coeffs, nu, s, t, y, "K", N, grid, seed=14, workers=4)
print("workers=1 == workers=4:",
      json.dumps(a.as_dict()) == json.dumps(b.as_dict()))
