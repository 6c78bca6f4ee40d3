"""Property tests of the transition transforms and samplers over random
piecewise-constant coefficients and both kinds of jump measure (fixed node
sets and panels)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cirjump as cj
from cirjump import kernels
from cirjump.kernels import DEFAULT_TOL
from cirjump.samplers import COMPONENTS
from conftest import tempered_power

T_MAX = 2.0
TRUNCATED = tempered_power(0.4).truncated(0.05)
DENSITIES = (tempered_power(0.4), tempered_power(0.7), TRUNCATED,
             cj.density_measure(lambda y: np.exp(-y), label="exp"))

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _refused(*args):
    raise AssertionError("quadrature in v refused")


def step_function(lo, hi, values=None):
    breaks = st.lists(st.floats(0.05, T_MAX - 0.05), max_size=3, unique=True).map(sorted)
    values = st.floats(lo, hi) if values is None else values
    return breaks.flatmap(lambda b: st.lists(
        values, min_size=len(b) + 1, max_size=len(b) + 1).map(
            lambda v: cj.piecewise_constant(b, v)))


coefficient_sets = st.builds(
    lambda a, at, beta, sigma: cj.CoefficientSet(a=a, a_tilde=at, beta=beta,
                                                 sigma=sigma, t_max=T_MAX),
    step_function(0.0, 2.0), step_function(0.0, 2.0), step_function(0.1, 3.0),
    step_function(0.3, 2.0))


def broken_line(lo, hi):
    knots = st.lists(st.floats(0.05, T_MAX - 0.05), max_size=3, unique=True).map(
        lambda k: [0.0] + sorted(k) + [T_MAX])
    return knots.flatmap(lambda k: st.lists(
        st.floats(lo, hi), min_size=len(k), max_size=len(k)).map(
            lambda v: cj.piecewise_linear(k, v)))


# beta, sigma or both broken lines: a tabulated primitive table
tabulated_sets = st.builds(
    lambda a, at, beta, sigma, which: cj.CoefficientSet(
        a=a, a_tilde=at, beta=beta if which != "sigma" else cj.constant(1.0),
        sigma=sigma if which != "beta" else cj.constant(1.0), t_max=T_MAX),
    step_function(0.0, 2.0), step_function(0.0, 2.0), broken_line(0.1, 3.0),
    broken_line(0.3, 2.0), st.sampled_from(["beta", "sigma", "both"]))

# beta with pieces where it is exactly 0, no mean reversion there, under
# a positive a~
flat_sets = st.builds(
    lambda a, at, beta, sigma: cj.CoefficientSet(a=a, a_tilde=at, beta=beta,
                                                 sigma=sigma, t_max=T_MAX),
    step_function(0.0, 2.0), step_function(0.1, 2.0),
    step_function(0.0, 3.0, st.one_of(st.just(0.0), st.floats(0.1, 3.0))),
    step_function(0.3, 2.0))

atom_measures = st.lists(st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 3.0)),
                         min_size=1, max_size=3).map(cj.atoms)
measures = st.one_of(st.sampled_from(DENSITIES), atom_measures)


@st.composite
def intervals(draw):
    # lengths from 1e-4 to the horizon, uniform on a log scale
    s = draw(st.floats(0.0, T_MAX - 1e-3))
    length = 1e-4 * ((T_MAX - s) / 1e-4) ** draw(st.floats(0.0, 1.0))
    return s, min(s + length, T_MAX)


@PROPERTY
@given(coefficient_sets, measures, intervals(), st.floats(0.0, 3.0),
       st.floats(1.0, 50.0))
def test_transform_shape(coeffs, nu, interval, y, lam_max):
    s, t = interval
    eng = cj.TransitionKernels(coeffs, nu)
    lam = np.linspace(0.0, lam_max, 12)
    vals, _ = eng.laplace_K(s, t, y, lam)
    assert vals[0] == 1.0
    assert np.all((vals > 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) <= 1e-14)
    logs = np.log(vals)
    assert np.all(np.diff(logs, 2) >= -1e-12 * max(1.0, float(np.max(-logs))))


@settings(PROPERTY, max_examples=90)    # 30 a kind of coefficient set
@given(st.one_of(coefficient_sets, tabulated_sets, flat_sets), measures, intervals())
def test_u_rule_against_v_rule(coeffs, nu, interval):
    # each term takes its exact route where the coefficient kinds give one:
    # the a term the closed form where alpha is piecewise constant, the a~
    # term the u-rule on an exact table (beta = 0 pieces included), so
    # neither runs quadrature in v there; the v-rule, the route of every
    # other input, is their oracle
    s, t = interval
    eng = cj.TransitionKernels(coeffs, nu)
    lam = np.array([0.0, 0.05, 1.0, 50.0, 1e6])
    for name, inputs, exact in (
            ("laplace_I", (True, False), coeffs.alpha_piecewise_constant),
            ("laplace_Itilde", (False, True), eng.table.exact)):
        with pytest.MonkeyPatch.context() as m:
            if exact:
                m.setattr(kernels, "panel_integral", _refused)
            val, est = getattr(eng, name)(s, t, lam)
        ex, err = eng._v_rule(s, t, lam, *inputs)
        want = np.exp(-ex)
        assert val[0] == 1.0
        assert np.all(np.abs(val - want) <= est + want * err + DEFAULT_TOL), name


@PROPERTY
@given(coefficient_sets, st.lists(st.floats(0.0, T_MAX), min_size=3, max_size=3,
                                  unique=True).map(sorted),
       st.floats(0.0, 100.0))
def test_psi_semigroup(coeffs, times, lam):
    t1, t2, t3 = times
    assume(min(t2 - t1, t3 - t2) >= 1e-3)
    eng = cj.TransitionKernels(coeffs)
    lhs = eng.psi(t1, t2, eng.psi(t2, t3, lam))
    assert math.isclose(lhs, eng.psi(t1, t3, lam), rel_tol=1e-9, abs_tol=1e-300)


@PROPERTY
@given(coefficient_sets, intervals(), st.floats(0.0, 3.0))
def test_h_zero_mass(coeffs, interval, y):
    s, t = interval
    eng = cj.TransitionKernels(coeffs)
    gamma = eng.kernel_value(s, t).gamma
    val, _ = eng.laplace_H(s, t, y, math.inf)
    assert math.isclose(val, math.exp(-y * gamma), rel_tol=1e-12, abs_tol=1e-300)


@PROPERTY
@given(coefficient_sets, st.one_of(st.just(TRUNCATED), atom_measures),
       intervals(), st.floats(0.0, 3.0), st.integers(0, 2 ** 32 - 1))
def test_draws_finite_and_nonnegative(coeffs, nu, interval, y, seed):
    s, t = interval
    smp = cj.TransitionSampler(coeffs, nu, n_cells=8)
    for name, comp in COMPONENTS.items():
        x = comp.draw(smp, cj.RngStream(seed).generator(), s, t, y, 200)
        assert x.shape == (200,), name
        assert np.all(np.isfinite(x)) and np.all(x >= 0.0), name


@PROPERTY
@given(tabulated_sets, atom_measures, st.floats(0.5, T_MAX), st.floats(0.0, 3.0),
       st.integers(0, 2 ** 32 - 1))
def test_one_ulp_step_on_tabulated_tables(coeffs, nu, t, y, seed):
    # D > 0 one ulp below t, so the step is drawn; from t = 0.5 on, y
    # gamma stays under what numpy's Poisson draws
    s = math.nextafter(t, 0.0)
    smp = cj.TransitionSampler(coeffs, nu, n_cells=8)
    assert not smp.kernels.table.exact
    assert smp.kernels.bd(s, t)[1] > 0.0
    x = smp.sample_k(cj.RngStream(seed).generator(), s, t, y, size=4)
    assert x.shape == (4,) and np.all(np.isfinite(x))
