"""Exact transition sampling through the branching decomposition.

The one-step law factorizes as K = H * I * ITilde: the started mass evolves
as a Poisson mixture of Gamma laws (H), the continuous input adds a grid
convolution of Gamma laws propagated through H (I), and every jump of the
driving measure starts an independent H-piece (ITilde). All three are
sampled without discretizing the equation, and the empirical transform is
checked against the closed form.
"""

import numpy as np

import cirjump as cj
from cirjump.verify import compare_component

coeffs = cj.CoefficientSet(
    a=cj.piecewise_constant([0.6], [0.3, 0.8]),
    a_tilde=cj.piecewise_constant([1.0], [0.4, 0.2]),
    beta=cj.piecewise_constant([0.4, 1.1], [0.5, 2.0, 1.0]),
    sigma=cj.piecewise_constant([0.7], [1.0, 1.5]),
    x0=0.5, t_max=2.0)
nu = cj.atoms([(0.7, 1.2), (1.8, 0.4)])
s, t, y = 0.2, 1.2, 0.8
grid = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]

print("== component-by-component z-scores (N = 200000 draws each) ==")
for component in ("H", "I", "Itilde", "K"):
    cmp = compare_component(coeffs, nu, s, t, y, component,
                            200_000, grid, seed=1)
    print(f"{component:7s} max|z| = {cmp.max_abs_z:5.2f}  "
          f"{'pass' if cmp.passed else 'FAIL'}")

print("\n== full comparison table for the one-step law ==")
cmp = compare_component(coeffs, nu, s, t, y, "K", 200_000, grid, seed=2)
print(cmp)

print("\n== the component table gives each law's draws and transform ==")
law = cj.COMPONENTS["K"]
sampler = cj.get_sampler(coeffs, nu)
g = cj.RngStream(seed=7, stream_id=0).generator()
x = law.draw(sampler, g, s, t, y, 5)
print("five draws:", np.round(x, 6))
print("transform at lambda=1:", law.laplace(sampler.kernels, s, t, y, 1.0)[0])

print("\n== infinite-activity measures need a truncation level ==")
heavy = cj.density_measure(lambda v: v ** -1.4 * np.exp(-v), rho=0.4)
diag = heavy.sqrt_tail(0.05)
print(f"restriction to (0.05, inf): sqrt-tail diagnostic = {diag:.4g}")
sampler = cj.TransitionSampler(coeffs, heavy, delta=0.05)
draws = sampler.sample_itilde(g, s, t, size=20_000)
print(f"jump component under truncation: mean = {draws.mean():.4f}, "
      f"zero fraction = {np.mean(draws == 0.0):.3f} "
      "(small jumps usually die before t)")
