import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cirjump as cj
from cirjump.coefficients import ClippedSine, PiecewiseConstant, validate
from cirjump.errors import NonPositiveSigma, PermanentConditionViolated
from cirjump.numerics import integrate


class TestTimeFunctions:
    def test_constant(self):
        f = cj.constant(1.5)
        assert f(0.3) == 1.5
        assert np.all(f(np.linspace(0, 2, 5)) == 1.5)
        assert f.integral(0.0, 2.0) == 3.0

    def test_piecewise_constant_right_continuity(self):
        f = cj.piecewise_constant([0.5, 1.0], [1.0, 2.0, 3.0])
        assert f(0.0) == 1.0
        assert f(0.5) == 2.0       # value of [0.5, 1.0) at the knot itself
        assert f(1.0) == 3.0
        assert f(0.4999999) == 1.0

    def test_right_continuity_random_grids(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = rng.integers(1, 6)
            breaks = np.sort(rng.uniform(0.1, 1.9, m))
            breaks = np.unique(breaks)
            vals = rng.uniform(0, 3, breaks.size + 1)
            f = cj.piecewise_constant(breaks, vals)
            for j, b in enumerate(breaks):
                assert f(b) == vals[j + 1]
                assert f(b - 1e-12) == vals[j]

    def test_piecewise_constant_integral_minmax(self):
        f = cj.piecewise_constant([0.5, 1.0], [1.0, 2.0, 3.0])
        assert f.integral(0.0, 2.0) == pytest.approx(0.5 + 1.0 + 3.0)
        assert f.integral(0.25, 0.75) == pytest.approx(0.25 + 0.5)
        assert f.min_on(0.6, 2.0) == 2.0
        assert f.max_on(0.0, 0.49) == 1.0

    def test_piecewise_linear(self):
        f = cj.piecewise_linear([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
        assert f(0.5) == 1.0
        assert f(1.5) == 1.5
        assert f.integral(0.0, 2.0) == pytest.approx(1.0 + 1.5)
        assert f.max_on(0.0, 2.0) == 2.0
        assert f.min_on(0.5, 2.0) == 1.0

    def test_clipped_sine(self):
        f = cj.clipped_sine(0.5, 1.0, 2.0, 0.0)
        t = np.linspace(0, 3, 1000)
        assert np.all(f(t) >= 0.0)
        assert f.min_on(0.0, math.pi) == 0.0
        assert f.max_on(0.0, math.pi) == pytest.approx(1.5)
        ref = integrate(lambda v: np.maximum(0.5 + np.sin(2 * v), 0.0), 0.0, 3.0,
                        tol=1e-12, breakpoints=list(f.breakpoints(0.0, 3.0)))
        assert f.integral(0.0, 3.0) == pytest.approx(ref.value, abs=1e-10)

    def test_clipped_sine_breakpoints_are_zeros(self):
        f = cj.clipped_sine(0.2, 1.0, 3.0, 0.7)
        for b in f.breakpoints(0.0, 4.0):
            assert abs(0.2 + math.sin(3 * b + 0.7)) < 1e-9

    def test_piecewise_constant_range_at_a_knot(self):
        # [0.5, 0.5] holds only the value at the knot, that of the piece after it
        f = cj.piecewise_constant([0.5], [1.0, 2.0])
        assert f.max_on(0.5, 0.5) == 2.0
        assert f.min_on(0.5, 0.5) == 2.0


_VALUE = st.floats(-3.0, 3.0)
_KNOTS = st.lists(st.floats(0.05, 1.95), min_size=1, max_size=5, unique=True)


@st.composite
def _time_functions(draw):
    """A time function of any kind on [0, 2], and its knots."""
    kind = draw(st.sampled_from(["constant", "piecewise_constant",
                                 "piecewise_linear", "clipped_sine"]))
    if kind == "constant":
        return cj.constant(draw(_VALUE))
    if kind == "clipped_sine":
        return cj.clipped_sine(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 2.0)),
                               draw(st.floats(0.5, 20.0)), draw(st.floats(0.0, 6.3)))
    knots = sorted(draw(_KNOTS))
    if kind == "piecewise_constant":
        values = draw(st.lists(_VALUE, min_size=len(knots) + 1, max_size=len(knots) + 1))
        return cj.piecewise_constant(knots, values)
    knots = sorted(set(knots) | {0.0, 2.0})
    values = draw(st.lists(_VALUE, min_size=len(knots), max_size=len(knots)))
    return cj.piecewise_linear(knots, values)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_time_functions(), st.data())
def test_range_and_integral_follow_the_one_rule(f, data):
    # the range matches the values on a dense grid plus the knots (on [lo,
    # hi) for a right-continuous step function), and the integral matches
    # the quadrature rule with the knots as breakpoints
    ends = st.floats(0.0, 2.0)
    knots = list(f.breakpoints(0.0, 2.0))
    if knots:
        ends = st.one_of(ends, st.sampled_from(knots))
    lo, hi = sorted((data.draw(ends), data.draw(ends)))
    inside = f.breakpoints(lo, hi)
    grid = np.linspace(lo, hi, 2001)
    if isinstance(f, PiecewiseConstant) and hi > lo:
        grid = grid[:-1]
    values = f(np.concatenate((grid, inside)))
    slack = 1e-12
    if isinstance(f, ClippedSine):    # the grid may miss a peak
        slack += f.amplitude * (f.omega * (hi - lo) / 2000) ** 2
    assert f.max_on(lo, hi) == pytest.approx(values.max(), abs=slack)
    assert f.min_on(lo, hi) == pytest.approx(values.min(), abs=slack)
    assert values.max() <= f.max_on(lo, hi) + 1e-12
    assert values.min() >= f.min_on(lo, hi) - 1e-12
    ref = integrate(f, lo, hi, tol=1e-12, breakpoints=list(inside))
    assert f.integral(lo, hi) == pytest.approx(ref.value, abs=1e-10)


class TestCoefficientSet:
    def test_alpha_derived(self, pc_coeffs):
        t = 0.65
        assert pc_coeffs.alpha(t) == pytest.approx(
            2 * pc_coeffs.a(t) / pc_coeffs.sigma(t) ** 2)

    def test_beta_flag(self, pc_coeffs):
        assert pc_coeffs.beta_strictly_positive
        c0 = cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                               beta=cj.constant(0.0), sigma=cj.constant(1.0),
                               t_max=1.0)
        assert not c0.beta_strictly_positive

    def test_sigma_gate(self):
        with pytest.raises(NonPositiveSigma):
            cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                              beta=cj.constant(1), sigma=cj.constant(0.0),
                              t_max=1.0)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            cj.CoefficientSet(a=cj.constant(-0.1), a_tilde=cj.constant(0),
                              beta=cj.constant(1), sigma=cj.constant(1),
                              t_max=1.0)

    @pytest.mark.parametrize("make", [
        lambda: cj.constant(math.nan),
        lambda: cj.constant(math.inf),
        lambda: cj.piecewise_constant([0.6], [0.3, math.nan]),
        lambda: cj.piecewise_constant([math.nan], [0.3, 0.8]),
        lambda: cj.piecewise_linear([0.0, 2.0], [0.2, -math.inf]),
        lambda: cj.piecewise_linear([0.0, math.nan], [0.2, 2.0]),
        lambda: cj.clipped_sine(0.3, math.nan, 2.0),
        lambda: cj.clipped_sine(0.3, 0.6, 2.0, math.inf),
    ])
    def test_non_finite_time_function_rejected(self, make):
        # a NaN would pass every later comparison: max_on(...) > 0 is False
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_bad_scalars(self):
        with pytest.raises(ValueError):
            cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                              beta=cj.constant(1), sigma=cj.constant(1),
                              x0=-1.0, t_max=1.0)
        with pytest.raises(ValueError):
            cj.CoefficientSet(a=cj.constant(0), a_tilde=cj.constant(0),
                              beta=cj.constant(1), sigma=cj.constant(1),
                              t_max=0.0)


class TestValidate:
    def test_single_atom_certificates(self, pc_coeffs):
        # atom (y=1, w=2): both gate integrals equal 2 exactly
        nu = cj.atoms([(1.0, 2.0)])
        report = validate(pc_coeffs, nu)
        by_name = {c.name: c for c in report.checks}
        assert by_name["permanent_condition"].value == 2.0
        assert by_name["restrictive_condition"].value == 2.0
        assert report.hard_ok and report.samplers_available

    def test_rho04_certificates(self, pc_coeffs, rho04):
        # frozen oracle values: incomplete-gamma split of the two gate
        # integrals for the density y^-1.4 exp(-y)
        report = validate(pc_coeffs, rho04)
        by_name = {c.name: c for c in report.checks}
        assert by_name["permanent_condition"].value == pytest.approx(
            1.3807400961535124, rel=1e-8)
        assert by_name["restrictive_condition"].value == pytest.approx(
            9.4692772344599863, rel=1e-8)
        assert report.all_ok

    def test_rho07_restrictive_fails(self, pc_coeffs, rho07):
        report = validate(pc_coeffs, rho07)
        by_name = {c.name: c for c in report.checks}
        assert by_name["permanent_condition"].value == pytest.approx(
            2.9044636402404079, rel=1e-8)
        assert by_name["permanent_condition"].passed
        assert not by_name["restrictive_condition"].passed
        assert math.isinf(by_name["restrictive_condition"].value)
        assert report.hard_ok
        assert not report.samplers_available

    def test_permanent_violation_raises(self, pc_coeffs):
        bad = cj.density_measure(
            lambda y: y ** -2.2 * np.exp(-y), rho=1.2, label="rho=1.2")
        with pytest.raises(PermanentConditionViolated):
            validate(pc_coeffs, bad)
        report = validate(pc_coeffs, bad, raise_on_error=False)
        assert not report.hard_ok

    def test_deterministic(self, pc_coeffs, rho04):
        r1 = validate(pc_coeffs, rho04).as_dict()
        r2 = validate(pc_coeffs, rho04).as_dict()
        assert r1 == r2
