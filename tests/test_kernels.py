import decimal
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import adaptive_oracle
import cirjump as cj
from cirjump.errors import BetaNotStrictlyPositiveWarning, DegenerateInterval
from cirjump.kernels import DEFAULT_TOL, get_kernels
from conftest import NAMED, named_measure

Dec = decimal.Decimal


def constant_closed_form(beta, sigma2, s, t):
    # direct integration of the defining formulas for constant coefficients
    if beta == 0.0:
        C = sigma2 / 2 * (t - s)
    else:
        C = sigma2 / 2 * (math.exp(beta * t) - math.exp(beta * s)) / beta
    B = math.exp(-beta * (t - s))
    p = 1.0 / (math.exp(-beta * t) * C)
    gamma = 1.0 / (math.exp(-beta * s) * C)
    return C, B, p, gamma


class TestKernelValue:
    def test_log2_example(self, const_coeffs):
        kv = get_kernels(const_coeffs).kernel_value(0.0, math.log(2.0))
        assert kv.C == pytest.approx(1.0, rel=1e-12)
        assert kv.B == pytest.approx(0.5, rel=1e-12)
        assert kv.p == pytest.approx(2.0, rel=1e-12)
        assert kv.gamma == pytest.approx(1.0, rel=1e-12)

    def test_zero_beta(self):
        c = cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                              beta=cj.constant(0.0),
                              sigma=cj.constant(math.sqrt(2.0)), t_max=2.0)
        kv = get_kernels(c).kernel_value(0.0, 1.0)
        assert kv.B == 1.0
        assert kv.C == pytest.approx(1.0, rel=1e-13)
        assert kv.p == pytest.approx(1.0, rel=1e-13)
        assert kv.gamma == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sigma2", [1.0, 2.0])
    def test_constant_closed_forms(self, beta, sigma2):
        c = cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                              beta=cj.constant(beta),
                              sigma=cj.constant(math.sqrt(sigma2)), t_max=2.0)
        kv = get_kernels(c).kernel_value(0.3, 1.7)
        C, B, p, gamma = constant_closed_form(beta, sigma2, 0.3, 1.7)
        assert kv.C == pytest.approx(C, rel=1e-10)
        assert kv.B == pytest.approx(B, rel=1e-10)
        assert kv.p == pytest.approx(p, rel=1e-10)
        assert kv.gamma == pytest.approx(gamma, rel=1e-10)

    def test_short_interval_asymptotics(self, const_coeffs):
        # p(s, t) (t - s) -> 2 / sigma^2(s) as t -> s
        s, dt = 0.4, 1e-6
        kv = get_kernels(const_coeffs).kernel_value(s, s + dt)
        assert kv.p * dt == pytest.approx(1.0, abs=1e-3)
        assert kv.gamma * dt == pytest.approx(1.0, abs=1e-3)

    def test_gamma_against_quadrature(self, pc_coeffs):
        # gamma = 1 / (B(0,s) C(s,t)) with C(s,t) = int_s^t sigma^2/2
        # e^{int_0^v beta} dv, integrated outside the primitive table
        s, t = 0.2, 1.4
        beta, sigma = pc_coeffs.beta, pc_coeffs.sigma

        def c_density(v):
            return np.array([sigma(x) ** 2 / 2 * math.exp(beta.integral(0.0, x))
                             for x in v.tolist()])

        c_ref = cj.numerics.integrate(
            c_density, s, t, tol=1e-14,
            breakpoints=pc_coeffs.breakpoints(s, t, which=("beta", "sigma"))).value
        want = math.exp(beta.integral(0.0, s)) / c_ref
        kv = get_kernels(pc_coeffs).kernel_value(s, t)
        assert abs(kv.gamma - want) <= 1e-12 * want

    def test_degenerate_interval(self, pc_coeffs):
        with pytest.raises(DegenerateInterval):
            get_kernels(pc_coeffs).kernel_value(1.0, 1.0)
        with pytest.raises(DegenerateInterval):
            get_kernels(pc_coeffs).kernel_value(1.5, 0.5)

    def test_nonsmooth_branch_against_quad(self):
        # piecewise-linear beta and clipped-sine sigma take the tabulated
        # path; compare against direct adaptive quadrature of the defs
        beta = cj.piecewise_linear([0.0, 0.8, 2.0], [0.5, 1.5, 1.0])
        sigma = cj.clipped_sine(1.2, 0.3, 2.0, 0.4)
        c = cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                              beta=beta, sigma=sigma, t_max=2.0)
        s, t = 0.25, 1.65
        kv = get_kernels(c).kernel_value(s, t)
        int_beta = quad(beta, s, t, points=[0.8], limit=200)[0]
        assert kv.B == pytest.approx(math.exp(-int_beta), rel=1e-9)
        Cref = quad(lambda v: sigma(v) ** 2 / 2
                    * math.exp(quad(beta, 0, v, limit=200)[0]),
                    s, t, limit=200)[0]
        assert kv.C == pytest.approx(Cref, rel=1e-8)


class TestPsi:
    def test_zero(self, const_coeffs):
        assert get_kernels(const_coeffs).psi(0.0, math.log(2.0), 0.0) == 0.0

    def test_halfway_example(self, const_coeffs):
        # gamma = 1, p = 2 at (0, ln 2): psi(2) = 1 * 2 / (2 + 2)
        assert get_kernels(const_coeffs).psi(0.0, math.log(2.0), 2.0) == \
            pytest.approx(0.5, rel=1e-12)

    def test_derivative_at_zero_is_B(self, pc_coeffs):
        eng = get_kernels(pc_coeffs)
        s, t = 0.3, 1.2
        kv = eng.kernel_value(s, t)
        for h in (1e-4, 1e-5):
            d = (4 * eng.psi(s, t, h) - eng.psi(s, t, 2 * h)) / (2 * h)
            assert d == pytest.approx(kv.B, rel=1e-6)
        h = 1e-4
        d2 = (eng.psi(s, t, 2 * h) - 2 * eng.psi(s, t, h)) / h ** 2
        assert d2 == pytest.approx(-2 * kv.B / kv.p, rel=1e-3)

    def test_monotone_concave_bounded(self, pc_coeffs):
        eng = get_kernels(pc_coeffs)
        kv = eng.kernel_value(0.1, 1.9)
        lam = np.linspace(0.0, 80.0, 200)
        vals = eng.psi(0.1, 1.9, lam)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) < 1e-12)
        assert np.all(vals <= kv.gamma)

    def test_large_lambda_limit(self, pc_coeffs):
        # Psi(lam) = gamma lam D / (1 + lam D) with D = 1/p: the limit gamma
        # is attained at lam = inf and approached from below with relative
        # gap 1 / (1 + lam D)
        eng = get_kernels(pc_coeffs)
        kv = eng.kernel_value(0.1, 1.9)
        assert eng.psi(0.1, 1.9, np.inf) == pytest.approx(kv.gamma, rel=1e-12)
        for lam in (1e6, 1e9):
            gap = 1.0 - eng.psi(0.1, 1.9, lam) / kv.gamma
            assert gap == pytest.approx(1.0 / (1.0 + lam / kv.p), rel=1e-3)

    @pytest.mark.parametrize("lam", [0.99e6, 1e6, 1.01e6, 1e8])
    def test_no_cliff_on_short_intervals(self, lam):
        # on a 1e-8 interval lam D is about 0.005 at lam = 1e6, so Psi is
        # still far below its limit gamma = B/D (about 2e8) on both sides of
        # 1e6; reference: the constant-coefficient closed form with expm1
        c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              t_max=2.0)
        s, h = 0.5, 1e-8
        B = math.exp(-h)
        D = 0.5 * -math.expm1(-h)
        want = B * lam / (1.0 + lam * D)
        assert get_kernels(c).psi(s, s + h, lam) == pytest.approx(want, rel=1e-8)
        assert get_kernels(c).psi(s, s + h, np.inf) == pytest.approx(B / D, rel=1e-6)

    def test_functional_iteration(self, pc_coeffs, lambda_grid):
        eng = get_kernels(pc_coeffs)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            t1, t2, t3 = np.sort(rng.uniform(0.0, 2.0, 3))
            if t2 - t1 < 1e-3 or t3 - t2 < 1e-3:
                continue
            lhs = eng.psi(t1, t2, eng.psi(t2, t3, lambda_grid))
            rhs = eng.psi(t1, t3, lambda_grid)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst <= 1e-7

    def test_long_time_decay(self):
        beta0 = 0.8
        c = cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                              beta=cj.piecewise_constant([3.0], [1.1, beta0]),
                              sigma=cj.constant(1.0), t_max=40.0)
        eng = get_kernels(c)
        s = 0.5
        prev = math.inf
        for t in (2.0, 6.0, 12.0, 24.0, 39.0):
            kv = eng.kernel_value(s, t)
            assert kv.B <= math.exp(-beta0 * (t - s)) + 1e-12
            cur = eng.psi(s, t, 5.0)
            assert cur < prev
            prev = cur
        assert prev < 1e-9


class TestPsiTilde:
    """PsiTilde_{s,t}(lam) = nu.one_minus_exp_integral(Psi_{s,t}(lam))."""

    def test_zero(self, pc_coeffs, two_atoms):
        ps = get_kernels(pc_coeffs, two_atoms).psi(0.2, 1.2, 0.0)
        assert two_atoms.one_minus_exp_integral(ps) == 0.0

    def test_unit_atom_reduction(self, pc_coeffs):
        nu = cj.atoms([(1.0, 1.0)])
        lam = 3.0
        ps = get_kernels(pc_coeffs).psi(0.2, 1.2, lam)
        assert nu.one_minus_exp_integral(get_kernels(pc_coeffs, nu).psi(
            0.2, 1.2, lam)) == pytest.approx(1.0 - math.exp(-ps), rel=1e-12)

    def test_exponential_density_closed_form(self, pc_coeffs, exp_density):
        lam = np.array([0.3, 1.0, 4.0])
        ps = get_kernels(pc_coeffs).psi(0.2, 1.2, lam)
        got = exp_density.one_minus_exp_integral(
            get_kernels(pc_coeffs, exp_density).psi(0.2, 1.2, lam))
        assert np.allclose(got, ps / (1 + ps), atol=1e-9)

    def test_composition_identity(self, pc_coeffs, two_atoms, lambda_grid):
        # PsiTilde_{v,t2} o Psi_{t2,t3} = PsiTilde_{v,t3}
        eng = get_kernels(pc_coeffs, two_atoms)
        v, t2, t3 = 0.15, 0.9, 1.8
        inner = eng.psi(t2, t3, lambda_grid)
        lhs = two_atoms.one_minus_exp_integral(eng.psi(v, t2, inner))
        rhs = two_atoms.one_minus_exp_integral(eng.psi(v, t3, lambda_grid))
        assert np.max(np.abs(lhs - rhs)) <= 1e-7


class TestLaplaceH:
    def test_y_zero_is_one(self, pc_coeffs, lambda_grid):
        eng = get_kernels(pc_coeffs)
        vals, _ = eng.laplace_H(0.2, 1.2, 0.0, lambda_grid)
        assert np.all(vals == 1.0)

    def test_large_lambda_mass_at_zero(self, pc_coeffs):
        eng = get_kernels(pc_coeffs)
        kv = eng.kernel_value(0.2, 1.2)
        val, _ = eng.laplace_H(0.2, 1.2, 1.0, 1e9)
        assert val == pytest.approx(math.exp(-kv.gamma), rel=1e-9)

    def test_mean_from_log_derivative(self, pc_coeffs):
        eng = get_kernels(pc_coeffs)
        s, t, y = 0.2, 1.2, 0.7
        kv = eng.kernel_value(s, t)
        h = 1e-6
        v1, _ = eng.laplace_H(s, t, y, h)
        v2, _ = eng.laplace_H(s, t, y, 2 * h)
        d = (4 * math.log(v1) - math.log(v2)) / (2 * h)
        assert -d == pytest.approx(y * kv.B, rel=1e-5)

    def test_needs_no_jump_measure(self, pc_coeffs, lambda_grid):
        # H has no jump input, so a~ > 0 without a measure is no error for
        # its transform; ITilde's transform still needs the measure
        eng = get_kernels(pc_coeffs)
        assert eng.nu is None and pc_coeffs.a_tilde.max_on(0.2, 1.2) > 0.0
        vals, _ = eng.laplace_H(0.2, 1.2, 0.7, lambda_grid)
        assert vals.tobytes() == np.exp(-0.7 * eng.psi(0.2, 1.2, lambda_grid)).tobytes()
        with pytest.raises(ValueError, match="needs a jump measure"):
            eng.laplace_Itilde(0.2, 1.2, lambda_grid)


class TestLaplaceIK:
    def test_lambda_zero_exactly_one(self, pc_coeffs, two_atoms):
        eng = get_kernels(pc_coeffs, two_atoms)
        assert eng.laplace_I(0.2, 1.2, 0.0)[0] == 1.0
        assert eng.laplace_Itilde(0.2, 1.2, 0.0)[0] == 1.0
        assert eng.laplace_K(0.2, 1.2, 0.5, 0.0)[0] == 1.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_gamma_law_reduction(self, alpha, lambda_grid):
        # input rate alpha * sigma^2 / 2 with time-varying sigma: the
        # input component is the Gamma(alpha, p) law
        sigma = cj.piecewise_constant([0.7], [1.0, 1.5])
        a = cj.piecewise_constant([0.7], [alpha * 0.5, alpha * 1.125])
        c = cj.CoefficientSet(a=a, a_tilde=cj.constant(0),
                              beta=cj.piecewise_constant([0.4], [0.5, 2.0]),
                              sigma=sigma, t_max=2.0)
        eng = get_kernels(c)
        s, t = 0.2, 1.5
        kv = eng.kernel_value(s, t)
        got, _ = eng.laplace_I(s, t, lambda_grid)
        want = (1.0 + lambda_grid / kv.p) ** -alpha
        assert np.max(np.abs(got / want - 1.0)) <= 1e-8

    def test_exponential_law_reduction(self, const_coeffs, lambda_grid):
        # alpha = 1: exp(-int sigma^2/2 Psi) is the transform of an
        # exponential law with parameter p(s, t)
        c = cj.CoefficientSet(a=cj.constant(1.0), a_tilde=cj.constant(0),
                              beta=cj.constant(1.0),
                              sigma=cj.constant(math.sqrt(2.0)), t_max=2.0)
        eng = get_kernels(c)
        kv = eng.kernel_value(0.0, 1.3)
        got, _ = eng.laplace_I(0.0, 1.3, lambda_grid)
        want = 1.0 / (1.0 + lambda_grid / kv.p)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-8

    def test_atilde_zero_itilde_is_one(self, two_atoms, lambda_grid):
        c = cj.CoefficientSet(a=cj.constant(0.4), a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              t_max=2.0)
        vals, _ = get_kernels(c, two_atoms).laplace_Itilde(0.1, 1.4, lambda_grid)
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_itilde_single_atom_brute_force(self, pc_coeffs):
        # independent route: scalar quadrature of a_tilde(v) (1 - e^{-y0 Psi})
        nu = cj.atoms([(0.9, 1.3)])
        eng = get_kernels(pc_coeffs, nu)
        s, t = 0.2, 1.6
        for lam in (0.5, 2.0, 8.0):
            ref = quad(lambda v: pc_coeffs.a_tilde(v) * 1.3
                       * (1 - math.exp(-0.9 * eng.psi(v, t, lam))),
                       s, t, points=[1.0], limit=300)[0]
            got, _ = eng.laplace_Itilde(s, t, lam)
            assert got == pytest.approx(math.exp(-ref), rel=1e-9)

    def test_factorization(self, pc_coeffs, two_atoms, lambda_grid):
        eng = get_kernels(pc_coeffs, two_atoms)
        s, t, y = 0.2, 1.7, 0.5
        h, _ = eng.laplace_H(s, t, y, lambda_grid)
        i, _ = eng.laplace_I(s, t, lambda_grid)
        it, _ = eng.laplace_Itilde(s, t, lambda_grid)
        k, _ = eng.laplace_K(s, t, y, lambda_grid)
        assert np.max(np.abs(h * i * it - k)) <= 1e-10

    def test_transform_shape_properties(self, pc_coeffs, two_atoms):
        eng = get_kernels(pc_coeffs, two_atoms)
        lam = np.linspace(0.0, 30.0, 60)
        vals, _ = eng.laplace_K(0.2, 1.7, 0.5, lam)
        assert vals[0] == 1.0
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 1e-14)
        logs = np.log(vals[1:])
        assert np.all(np.diff(logs, 2) >= -1e-10)

    def test_full_transform_against_independent_oracle(self, pc_coeffs,
                                                       two_atoms):
        # dual route: rebuild the transition transform from nothing but
        # scipy.integrate.quad applied to the defining integrals, with no
        # shared machinery, and compare at a handful of points
        s, t, y = 0.2, 1.4, 0.6
        knots = [0.4, 0.6, 0.7, 1.0, 1.1]

        def step(breaks, values):
            return lambda v: values[sum(b <= v for b in breaks)]

        # pc_coeffs and two_atoms, written out
        a, a_tilde = step([0.6], [0.3, 0.8]), step([1.0], [0.4, 0.2])
        sigma = step([0.7], [1.0, 1.5])
        beta_edges, beta_values = [0.0, 0.4, 1.1, math.inf], [0.5, 2.0, 1.0]
        jumps = [(0.7, 1.2), (1.8, 0.4)]
        for v in (0.1, 0.5, 0.65, 0.9, 1.05, 1.3):
            assert (a(v), a_tilde(v), sigma(v)) == \
                (pc_coeffs.a(v), pc_coeffs.a_tilde(v), pc_coeffs.sigma(v))
            assert step(beta_edges[1:-1], beta_values)(v) == pc_coeffs.beta(v)
        assert tuple(jumps) == two_atoms.points

        def int_beta(w):
            # int_0^w beta, piece by piece
            return sum(b * (min(w, hi) - lo) for lo, hi, b
                       in zip(beta_edges[:-1], beta_edges[1:], beta_values)
                       if w > lo)

        def psi_oracle(v, lam):
            pts = [k for k in knots if v < k < t] or None
            C = quad(lambda w: sigma(w) ** 2 / 2 * math.exp(int_beta(w)), v, t,
                     points=pts, limit=200)[0]
            p = math.exp(int_beta(t)) / C
            gam = math.exp(int_beta(v)) / C
            return gam * lam / (p + lam)

        def k_oracle(lam):
            def inner(v):
                psi = psi_oracle(v, lam)
                jump = sum(w * (1 - math.exp(-z * psi)) for z, w in jumps)
                return a(v) * psi + a_tilde(v) * jump
            pts = [k for k in knots if s < k < t] or None
            total = quad(inner, s, t, points=pts, limit=200)[0]
            return math.exp(-y * psi_oracle(s, lam) - total)

        eng = get_kernels(pc_coeffs, two_atoms)
        for lam in (0.5, 3.0):
            got, _ = eng.laplace_K(s, t, y, lam)
            assert got == pytest.approx(k_oracle(lam), rel=1e-6)

    def test_beta_zero_warns(self, two_atoms):
        c = cj.CoefficientSet(a=cj.constant(0.3), a_tilde=cj.constant(0.2),
                              beta=cj.constant(0.0), sigma=cj.constant(1.0),
                              t_max=2.0)
        eng = cj.TransitionKernels(c, two_atoms)
        with pytest.warns(BetaNotStrictlyPositiveWarning):
            eng.laplace_K(0.0, 1.0, 0.3, 1.0)

    def test_negative_lambda_rejected(self, pc_coeffs, two_atoms):
        eng = get_kernels(pc_coeffs, two_atoms)
        with pytest.raises(ValueError):
            eng.psi(0.2, 1.2, -1.0)
        with pytest.raises(ValueError):
            eng.laplace_K(0.2, 1.2, 0.5, np.array([1.0, -0.5]))


def clipped_sine_coeffs():
    # smooth, non-piecewise-constant coefficients: tabulated primitives and
    # v-panels capped by the smoothness scale
    return cj.CoefficientSet(a=cj.clipped_sine(0.4, 0.5, 3.0),
                             a_tilde=cj.clipped_sine(0.3, 0.4, 5.0, 1.0),
                             beta=cj.piecewise_linear([0.0, 0.8, 2.0], [0.5, 1.5, 1.0]),
                             sigma=cj.clipped_sine(1.2, 0.3, 2.0, 0.4),
                             t_max=2.0)


class TestAdaptiveOracle:
    """Fixed node sets and panels against the nested adaptive quadrature
    (tests/adaptive_oracle.py): every gap within the reported error plus
    the kernel tolerance."""

    # (s, t, lambdas): a long interval, and t - s = 1e-5 up to lam = 1e6
    CASES = ((0.2, 1.4, (0.5, 20.0)), (0.7, 0.70001, (0.5, 1e3, 1e6)))

    @pytest.mark.parametrize("coeffs, measure", [
        ("pc_coeffs", "rho04"), ("pc_coeffs", "rho07"),
        ("pc_coeffs", "exp_density"), ("pc_coeffs", "rho04_truncated"),
        ("pc_coeffs", "two_atoms"), ("clipped_sine", "rho04"),
        ("clipped_sine", "two_atoms"), ("pc_coeffs", "exponential"),
        ("pc_coeffs", "gamma2.5"), ("pc_coeffs", "gamma0.5"),
        ("pc_coeffs", "tempered0.4")])
    def test_against_adaptive_oracle(self, request, coeffs, measure):
        # the named kinds are built as a run configuration builds them, so
        # the engine uses their closed forms
        co = clipped_sine_coeffs() if coeffs == "clipped_sine" \
            else request.getfixturevalue(coeffs)
        if measure in NAMED:
            nu = named_measure(NAMED[measure])
        elif measure == "rho04_truncated":
            nu = request.getfixturevalue("rho04").truncated(0.05)
        else:
            nu = request.getfixturevalue(measure)
        eng = get_kernels(co, nu)
        y = 0.6
        for s, t, lams in self.CASES:
            lam = np.array(lams)
            want = adaptive_oracle.transforms(eng, s, t, y, lam)
            got = {"I": eng.laplace_I(s, t, lam),
                   "Itilde": eng.laplace_Itilde(s, t, lam),
                   "K": eng.laplace_K(s, t, y, lam)}
            for name, (val, err) in got.items():
                gap = np.abs(val - want[name])
                assert np.all(gap <= err + DEFAULT_TOL), (name, s, t, gap, err)


DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                            "configs")


def _scipy_modules_after(code):
    """The scipy modules loaded after ``code`` runs in a fresh interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys\n" + code + "\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


@pytest.mark.parametrize("name", ["infinite_activity", "jump_model"])
def test_transforms_load_no_scipy(name):
    # closed-form and atom jump kernels need no quadrature module at all
    assert _scipy_modules_after(
        "import cirjump as cj\n"
        f"cfg = cj.load_config({os.path.join(DEMO_CONFIGS, name + '.yaml')!r})\n"
        "eng = cj.get_kernels(cfg.coeffs, cfg.nu, tol=cfg.kernel_tol, nu_tol=cfg.nu_tol)\n"
        "eng.laplace_K(cfg.s, cfg.t, cfg.y, cfg.lambda_grid)") == "[]"


@pytest.mark.parametrize("argv", [
    ["validate"], ["sample", "--component", "Itilde", "--n", "2000"],
    ["verify", "--suite", "truncation"]], ids=lambda a: a[0])
def test_cli_loads_no_scipy(argv):
    # the runtime is numpy-only: measure integrals, the mark table and the
    # truncation level use no scipy either
    config = os.path.join(DEMO_CONFIGS, "infinite_activity.yaml")
    assert _scipy_modules_after(
        "from cirjump.cli import main\n"
        f"assert main({[argv[0], config] + argv[1:]!r}) == 0") == "[]"


def test_truncated_node_set_loads_no_scipy():
    assert _scipy_modules_after(
        "import cirjump as cj\n"
        f"cfg = cj.load_config({os.path.join(DEMO_CONFIGS, 'infinite_activity.yaml')!r})\n"
        "assert cfg.nu.truncated(cfg.delta).nodes[0].size > 0") == "[]"


def flat_beta_coeffs():
    # beta vanishes on [0.4, 0.9): E grows linearly on that piece
    return cj.CoefficientSet(a=cj.piecewise_constant([0.5], [0.4, 0.0]),
                             a_tilde=cj.constant(0.3),
                             beta=cj.piecewise_constant([0.4, 0.9], [0.8, 0.0, 1.3]),
                             sigma=cj.piecewise_constant([0.3, 1.0], [1.0, 0.7, 1.2]),
                             t_max=2.0)


def _kernel_sets():
    """(label, coefficients, s, t): the demo configurations, a clipped-sine
    set (tabulated primitives) and a set with a piece where beta is 0."""
    out = []
    for name in ("classical_cir", "infinite_activity", "jump_model"):
        cfg = cj.load_config(os.path.join(DEMO_CONFIGS, name + ".yaml"))
        out.append((name, cfg.coeffs, cfg.s, cfg.t))
    out.append(("clipped_sine", clipped_sine_coeffs(), 0.1, 1.9))
    out.append(("flat_beta", flat_beta_coeffs(), 0.2, 1.6))
    return out


KERNEL_SETS = _kernel_sets()


class TestArrayBd:
    """``bd`` on arrays is, element by element, the bits of ``bd`` on one
    pair; ``branching_path`` relies on it for the jumps it carries to the
    ends of their grid steps."""

    @pytest.mark.parametrize("label,coeffs,s,t", KERNEL_SETS,
                             ids=[k[0] for k in KERNEL_SETS])
    def test_cells_bit_identical(self, label, coeffs, s, t):
        eng = get_kernels(coeffs)
        # 64 equal cells and the coefficient knots inside [s, t]
        cells = np.union1d(np.linspace(s, t, 65), coeffs.breakpoints(s, t))
        B, D = eng.bd(cells[:-1], cells[1:])
        pairs = [eng.bd(r0, r1) for r0, r1 in zip(cells[:-1], cells[1:])]
        assert B.shape == D.shape == (cells.size - 1,)
        assert B.tobytes() == np.array([b for b, _ in pairs]).tobytes()
        assert D.tobytes() == np.array([d for _, d in pairs]).tobytes()

    @pytest.mark.parametrize("label,coeffs,s,t", KERNEL_SETS,
                             ids=[k[0] for k in KERNEL_SETS])
    def test_broadcast_against_scalar_end(self, label, coeffs, s, t):
        eng = get_kernels(coeffs)
        starts = np.linspace(s, t, 40)[:-1].reshape(3, 13)
        B, D = eng.bd(starts, t)
        assert B.shape == D.shape == starts.shape
        for v, b, d in zip(starts.ravel(), B.ravel(), D.ravel()):
            want = eng.bd(float(v), t)
            assert (b, d) == want and type(want[0]) is float

    def test_empty_arrays(self, pc_coeffs):
        B, D = get_kernels(pc_coeffs).bd(np.empty(0), np.empty(0))
        assert B.shape == D.shape == (0,)
        assert B.dtype == D.dtype == float

    def test_any_bad_pair_raises(self, pc_coeffs):
        eng = get_kernels(pc_coeffs)
        with pytest.raises(DegenerateInterval):
            eng.bd(np.array([0.1, 0.5]), np.array([0.4, 0.5]))
        with pytest.raises(DegenerateInterval):
            eng.bd(np.array([-0.1, 0.5]), 1.0)


class TestTableBd:
    """The primitive table's one (B, D) formula, which the transforms'
    integrand, the jump table and the tabulated draws call unchecked."""

    def test_exact_and_tabulated_sets(self):
        assert {get_kernels(k[1]).table.exact for k in KERNEL_SETS} == {True, False}

    @pytest.mark.parametrize("label,coeffs,s,t", KERNEL_SETS,
                             ids=[k[0] for k in KERNEL_SETS])
    def test_equal_ends(self, label, coeffs, s, t):
        # exactly (1.0, 0.0) at s == t: the jump table reads its last
        # piece's end t as an array element against the scalar t
        table = get_kernels(coeffs).table
        v = np.concatenate((table.edges, np.linspace(s, t, 17)))
        B, D = table.bd(v, v)
        assert np.all(B == 1.0) and np.all(D == 0.0)
        assert all(table.bd(x, x) == (1.0, 0.0) for x in v.tolist())
        B, D = table.bd(np.array([s, t]), t)
        assert (B[1], D[1]) == (1.0, 0.0) and D[0] > 0.0


def _decimal_bd(coeffs, s, t):
    """(B(s,t), D(s,t)) at 40 digits, independent of the primitive table:
    Lam and E formed piece by piece from the knots of beta and sigma, each
    piece's integral in closed form with ``Decimal.exp``."""
    knots = sorted({0.0, coeffs.t_max, *coeffs.beta.breakpoints(0.0, coeffs.t_max),
                    *coeffs.sigma.breakpoints(0.0, coeffs.t_max)})
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        s, t = Dec(s), Dec(t)
        lam, lam_s, lam_t, int_st = Dec(0), None, None, Dec(0)
        for lo, hi in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (lo + hi)
            b = Dec(float(coeffs.beta(mid)))
            h = Dec(float(coeffs.sigma(mid))) ** 2 / 2
            lo, hi = Dec(lo), Dec(hi)
            if lam_s is None and s <= hi:
                lam_s = lam + b * (s - lo)
            if t <= hi:
                lam_t = lam + b * (t - lo)
            # int of h exp(Lam(v)) over [lo, hi] within [s, t]
            a, c = max(lo, s), min(hi, t)
            if a < c:
                grow = (b * (c - a)).exp() - 1 if b else None
                int_st += h * (lam + b * (a - lo)).exp() * (grow / b if b else c - a)
            if lam_t is not None:
                break
            lam += b * (hi - lo)
        return (lam_s - lam_t).exp(), (-lam_t).exp() * int_st


class TestDecimalBd:
    """``bd`` on exact tables against ``_decimal_bd``: t - s from 1e-12 to
    the horizon, ends on and across the knots, a piece with beta = 0."""

    EXACT = [k for k in KERNEL_SETS if get_kernels(k[1]).table.exact]

    def test_sets(self):
        # the demo configurations and the set with a piece where beta = 0
        assert [k[0] for k in self.EXACT] == ["classical_cir", "infinite_activity",
                                              "jump_model", "flat_beta"]
        assert 0.0 in flat_beta_coeffs().beta(np.linspace(0.0, 2.0, 21))

    @pytest.mark.parametrize("label,coeffs,s,t", EXACT, ids=[k[0] for k in EXACT])
    def test_relative_error(self, label, coeffs, s, t):
        t_max = coeffs.t_max
        knots = coeffs.breakpoints(0.0, t_max).tolist()
        ends = [t, t_max] + knots + [math.nextafter(k, 2.0) for k in knots]
        worst_b = worst_d = 0.0
        for end in ends:
            gaps = np.geomspace(1e-12, end, 60).tolist()
            starts = [end - g for g in gaps] + [k for k in knots if k < end]
            starts += [math.nextafter(end, 0.0)]
            for start in starts:
                if not 0.0 <= start < end:
                    continue
                B, D = get_kernels(coeffs).bd(start, end)
                want_b, want_d = _decimal_bd(coeffs, start, end)
                assert D > 0.0
                worst_b = max(worst_b, abs(float((Dec(B) - want_b) / want_b)))
                worst_d = max(worst_d, abs(float((Dec(D) - want_d) / want_d)))
        assert worst_d <= 1e-15
        assert worst_b <= 1e-15


class TestPrimitiveIndex:
    """The panel lookup without clipping gives the clipped index of the
    full edge array for every v, NaN and infinities included."""

    @pytest.mark.parametrize("label,coeffs,s,t", KERNEL_SETS,
                             ids=[k[0] for k in KERNEL_SETS])
    def test_matches_clipped_lookup(self, label, coeffs, s, t):
        table = get_kernels(coeffs).table
        edges = table.edges
        v = np.concatenate((
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            np.linspace(-1.0, coeffs.t_max + 1.0, 301),
            [-np.inf, -1e300, -0.0, coeffs.t_max * 7, np.inf, np.nan]))
        want = np.clip(np.searchsorted(edges, v, side="right") - 1,
                       0, edges.size - 2)
        assert np.array_equal(table._idx(v), want)
        assert [int(table._idx(x)) for x in v] == want.tolist()
