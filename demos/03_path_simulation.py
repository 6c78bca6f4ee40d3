"""Trajectory simulation: Euler-Maruyama, the exact Markov skeleton, and
the branching construction.

Euler discretizes the equation (full truncation inside the square root,
jumps deposited at the end of their grid cell). The exact skeleton chains
the exact one-step sampler over grid cells, so its marginals at grid times
carry no step-size bias. The branching path is the same chain with the
jumps realized: every jump is carried through H to the end of its grid
cell, and each step moves the mass by H, adds one draw of I and the jumps
that arrived. It is exact at grid times too, and it keeps the jump marks.
"""

import io
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
grid = np.linspace(0.0, 2.0, 33)

print("== one path per scheme, same seed ==")
for scheme, fn in (
        ("euler", lambda g: cj.euler_path(g, coeffs, nu, grid)),
        ("exact_skeleton", lambda g: cj.exact_skeleton(g, coeffs, nu, grid)),
        ("branching", lambda g: cj.branching_path(g, coeffs, nu, 0.0, 2.0,
                                                  coeffs.x0, grid=grid))):
    path = fn(cj.RngStream(4, 0).generator())
    jumps = 0 if path.jumps is None else len(path.jumps)
    print(f"{scheme:15s} terminal={path.values[-1]:8.5f}  "
          f"max={path.values.max():8.5f}  jumps={jumps}")

print("\n== CSV export (first rows) ==")
path = cj.euler_path(cj.RngStream(4, 0).generator(), coeffs, nu, grid,
                     seed_info=(4, 0))
buf = io.StringIO()
path.write_csv(buf)
print("\n".join(buf.getvalue().splitlines()[:6]))

print("\n== the absorbed square-root diffusion hits zero ==")
absorbed = cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                             beta=cj.constant(0.0), sigma=cj.constant(1.0),
                             x0=0.5, t_max=16.0)
for T in (1.0, 4.0, 16.0):
    tgrid = np.linspace(0.0, T, int(4 * T) + 1)
    hits = 0
    reps = 400
    g = cj.RngStream(5, 0).generator()
    for _ in range(reps):
        p = cj.absorbed_cir_path(g, absorbed, 0.0, 0.5, tgrid)
        hits += p.values[-1] == 0.0
    print(f"T={T:5.1f}: absorbed fraction = {hits / reps:.3f} "
          f"(exact exp(-1/T) = {math.exp(-1.0 / T):.3f})")

print("\n== exact skeleton marginals do not depend on the grid ==")
eng = cj.get_kernels(coeffs, nu)
analytic, _ = eng.laplace_K(0.0, 2.0, coeffs.x0, np.array([1.0]))
sampler = cj.get_sampler(coeffs, nu)


def skeleton_end(g, m, cells):
    x = np.full(m, coeffs.x0)
    for a, b in zip(np.linspace(0, 2, cells + 1)[:-1],
                    np.linspace(0, 2, cells + 1)[1:]):
        x = sampler.sample_k(g, a, b, x)
    return x


for cells in (1, 4):
    stats = cj.mc_statistics(lambda g, m: skeleton_end(g, m, cells), 50_000,
                             [1.0], seed=6)
    emp, se = stats["mean"], stats["std_err"]
    print(f"{cells} cell(s): empirical={emp[0]:.5f} (+-{se[0]:.5f})  "
          f"analytic={analytic[0]:.5f}")
