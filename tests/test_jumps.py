import math

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

import cirjump as cj
from cirjump.errors import (InvalidDelta, NonIntegrable,
                            RestrictiveConditionViolated)
from cirjump.jumps import (delta_for_budget, one_minus_exp_sum,
                           truncation_schedule)
from cirjump.numerics import RngStream
from conftest import NAMED, named_measure, tempered_power


class TestNuIntegral:
    def test_atoms_linear(self):
        nu = cj.atoms([(1.0, 2.0), (3.0, 1.0)])
        value, err = nu.integral(lambda y: y)
        assert value == 5.0 and err == 0.0

    def test_single_atom_exponential(self):
        nu = cj.atoms([(1.0, 1.0)])
        value, _ = nu.integral(lambda y: 1.0 - np.exp(-y))
        assert value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_exponential_density_mean(self, exp_density):
        # int y e^-y dy = 1
        value, err = exp_density.integral(lambda y: y, g_exponent_at_zero=1.0)
        assert value == pytest.approx(1.0, abs=1e-8)
        assert err < 1e-7

    def test_nonintegrable_combination(self, rho04):
        with pytest.raises(NonIntegrable):
            rho04.integral(lambda y: np.ones_like(y), g_exponent_at_zero=0.0)

    def test_unconverged_integral_raises(self):
        # sin(1/y) oscillates faster than any panel resolves near 0
        nu = cj.density_measure(lambda y: np.exp(-y) * (1.0 + np.sin(1.0 / y)),
                                label="oscillating")
        with pytest.raises(NonIntegrable, match="mass above 1e-09"):
            nu.mass_above(1e-9)
        with pytest.raises(NonIntegrable, match="sqrt tail below 0.5"):
            nu.sqrt_tail(0.5)
        with pytest.raises(NonIntegrable):
            nu.mark_sampler(1e-9)


    @pytest.mark.parametrize("points", [[(math.nan, 1.2)], [(0.7, math.inf)],
                                        [(math.inf, 1.0)], [(0.7, math.nan)],
                                        [(0.7, 1.2), (1.8, 0.0)]])
    def test_atoms_must_be_finite_and_positive(self, points):
        with pytest.raises(ValueError):
            cj.atoms(points)


class TestOneMinusExp:
    def test_atoms_matches_definition(self, two_atoms):
        c = np.array([0.0, 0.3, 2.0, 50.0])
        got = two_atoms.one_minus_exp_integral(c)
        want = np.array([sum(w * (1 - math.exp(-y * ci))
                             for y, w in two_atoms.points) for ci in c])
        assert np.allclose(got, want, rtol=1e-14)
        assert got[0] == 0.0

    def test_exponential_closed_form(self, exp_density):
        # int (1 - e^-yc) e^-y dy = c / (1 + c)
        c = np.array([0.1, 1.0, 7.5])
        got = exp_density.one_minus_exp_integral(c)
        assert np.allclose(got, c / (1 + c), atol=1e-9)

    def test_tempered_power_vs_quad_oracle(self, rho04):
        for c in (0.5, 3.0, 25.0):
            ref, _ = quad(lambda y: (1 - math.exp(-y * c))
                          * y ** -1.4 * math.exp(-y), 0.0, np.inf, limit=400)
            got = rho04.one_minus_exp_integral(np.array([c]))[0]
            assert got == pytest.approx(ref, rel=1e-6)


    @pytest.mark.parametrize("rho", [0.0, 0.4, 0.7, 0.95])
    def test_tempered_power_closed_form(self, rho):
        # int (1 - e^-yc) y^-(1+rho) e^-y dy = Gamma(-rho) (1 - (1+c)^rho),
        # log(1 + c) at rho = 0: the fixed node set is exact to rounding
        # from the head atom up to the tail atom
        c = np.geomspace(1e-3, 1e9, 13)
        got = tempered_power(rho).one_minus_exp_integral(c)
        want = np.log1p(c) if rho == 0.0 else \
            math.gamma(-rho) * -np.expm1(rho * np.log1p(c))
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    def test_nonsummable_density_has_no_nodes(self):
        with pytest.raises(NonIntegrable):
            tempered_power(1.2).nodes


class TestClosedForms:
    """The named densities of a run configuration evaluate the jump kernel
    in closed form; their own node set is the oracle."""

    C = np.geomspace(1e-6, 1e9, 61)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_closed_form_matches_node_set(self, name):
        nu = named_measure(NAMED[name])
        got = nu.one_minus_exp_integral(self.C)
        assert got.tobytes() == nu.density.one_minus_exp(self.C).tobytes()
        want = one_minus_exp_sum(nu.nodes, self.C)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
        assert nu.one_minus_exp_integral(0.0) == 0.0
        assert type(nu.one_minus_exp_integral(1.0)) is float

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_truncated_measure_uses_node_set(self, name):
        cut = named_measure(NAMED[name]).truncated(0.05)
        got = cut.one_minus_exp_integral(self.C)
        assert got.tobytes() == one_minus_exp_sum(cut.nodes, self.C).tobytes()

    @pytest.mark.parametrize("rho", [1.0, 1.2])
    def test_nonsummable_named_density_raises(self, rho):
        nu = named_measure({"kind": "tempered_power", "rho": rho})
        with pytest.raises(NonIntegrable):
            nu.one_minus_exp_integral(1.0)
        co = cj.CoefficientSet(a=cj.constant(0.3), a_tilde=cj.constant(0.3),
                               beta=cj.constant(1.0), sigma=cj.constant(1.0))
        with pytest.raises(NonIntegrable):
            cj.TransitionKernels(co, nu)


class TestTailCap:
    def test_slow_power_tail_is_resolved(self):
        # int (1 - e^-cy) y^-1.4 dy = -Gamma(-0.4) c^0.4; the mass beyond
        # the cap falls like cap^-0.4, which a premature cap drops
        nu = cj.density_measure(lambda y: np.asarray(y, dtype=float) ** -1.4,
                                rho=0.4)
        for c in (1e-6, 1.0, 1e3):
            want = -math.gamma(-0.4) * c ** 0.4
            assert nu.one_minus_exp_integral(c) == pytest.approx(want, rel=1e-9)

    def test_tail_without_a_cap_raises(self):
        nu = cj.density_measure(lambda y: np.asarray(y, dtype=float) ** -1.0001,
                                rho=1e-4)
        with pytest.raises(NonIntegrable):
            nu.nodes


class TestTruncation:
    def test_atom_above_delta_unchanged(self):
        nu = cj.atoms([(1.0, 1.0)])
        cut, bound = nu.truncated(0.5), nu.sqrt_tail(0.5)
        assert cut.points == nu.points
        assert bound == 0.0

    def test_invalid_delta(self, two_atoms):
        c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.2),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0))
        with pytest.raises(InvalidDelta):
            cj.TransitionSampler(c, two_atoms, delta=-0.5)

    def test_budget_rootfind(self, rho04):
        # delta solving int_0^delta y^-0.9 e^-y dy = 4^-3, against the
        # independent incomplete-gamma oracle
        d = delta_for_budget(rho04, 4.0 ** -3)
        diag = rho04.sqrt_tail(d)
        assert diag <= 4.0 ** -3
        assert diag >= 0.9 * 4.0 ** -3
        ref, _ = quad(lambda y: y ** -0.9 * math.exp(-y), 0.0, d,
                      points=None, limit=400)
        assert diag == pytest.approx(ref, rel=1e-6)

    def test_bound_vanishes_with_delta(self, rho04):
        deltas = [1e-2, 1e-3, 1e-4, 1e-5]
        bounds = [rho04.sqrt_tail(d) for d in deltas]
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
        # near zero the diagnostic follows delta^(1/2 - rho) / (1/2 - rho)
        assert bounds[-1] == pytest.approx(1e-5 ** 0.1 / 0.1, rel=1e-3)

    def test_schedule_shrinks_geometrically(self, rho04):
        sched = truncation_schedule(rho04, 5)
        diags = [d for _, d in sched]
        for n, d in enumerate(diags, start=1):
            assert 0.0 < d < 4.0 ** -n
        for a, b in zip(diags, diags[1:]):
            assert b <= a / 4.0 * (1 + 1e-6)

    def test_truncated_measure_finite_activity(self, rho04):
        cut = rho04.truncated(0.01)
        assert not cut.infinite_activity
        assert math.isfinite(cut.mass_above(0.0))


class TestMarkSampling:
    def test_atom_frequencies(self, two_atoms):
        ms = two_atoms.mark_sampler(0.0)
        g = RngStream(21).generator()
        x = ms.sample(g, 200_000)
        frac = np.mean(x == 0.7)
        p = 1.2 / 1.6
        se = math.sqrt(p * (1 - p) / x.size)
        assert abs(frac - p) < 4 * se
        assert set(np.unique(x)) == {0.7, 1.8}

    def test_atoms_respect_delta(self, two_atoms):
        ms = two_atoms.mark_sampler(1.0)
        g = RngStream(22).generator()
        assert np.all(ms.sample(g, 1000) == 1.8)
        assert ms.mass == pytest.approx(0.4)

    def test_exponential_marks_are_exponential(self, exp_density):
        ms = exp_density.mark_sampler(0.0)
        g = RngStream(23).generator()
        x = ms.sample(g, 200_000)
        ks = stats.kstest(x, stats.expon().cdf)
        assert ks.pvalue > 1e-3

    def test_truncated_density_marks(self, rho04):
        delta = 0.05
        ms = rho04.mark_sampler(delta)
        g = RngStream(24).generator()
        x = ms.sample(g, 100_000)
        assert np.all(x >= delta * (1 - 1e-9))
        # distribution check against the normalized restriction
        mass = rho04.mass_above(delta)
        grid = np.array([0.1, 0.3, 1.0, 2.5])
        for q in grid:
            ref, _ = quad(lambda y: y ** -1.4 * math.exp(-y), delta, q)
            p = ref / mass
            se = math.sqrt(p * (1 - p) / x.size)
            assert abs(np.mean(x <= q) - p) < 4 * se

    def test_compact_support_marks(self):
        # the density vanishes at the table's last node: its slope is capped
        # there, and the marks stay finite, inside (0, 1) and uniform
        nu = cj.density_measure(lambda y: np.where(np.asarray(y) < 1.0, 2.0, 0.0),
                                label="uniform")
        x = nu.mark_sampler(0.0).sample(RngStream(25).generator(), 200_000)
        assert np.all((x > 0.0) & (x < 1.0))
        assert stats.kstest(x, stats.uniform().cdf).pvalue > 1e-3

    def test_infinite_activity_needs_delta(self, rho04):
        with pytest.raises(InvalidDelta):
            rho04.mark_sampler(0.0)

    def test_rho07_sampling_blocked(self, rho07):
        with pytest.raises(RestrictiveConditionViolated):
            rho07.mark_sampler(0.01)


class TestCertificates:
    def test_cached_once(self, rho04):
        c1 = rho04.certificates
        c2 = rho04.certificates
        assert c1 is c2

    def test_exponential_density_certificates(self, exp_density):
        cert = exp_density.certificates
        assert cert.summable_value == pytest.approx(1 - math.exp(-1), abs=1e-9)
        assert cert.sqrt_value == pytest.approx(0.74682413281242703, abs=1e-9)


def _upper_gamma(s, x):
    """Gamma(s, x) for s > -1: scipy's regularized form for s > 0, E1 at 0,
    Gamma(s, x) = (Gamma(s + 1, x) - x^s e^-x) / s below."""
    if s > 0:
        return special.gammaincc(s, x) * special.gamma(s)
    if s == 0:
        return special.exp1(x)
    return (_upper_gamma(s + 1, x) - x ** s * np.exp(-x)) / s


def _power_exp(spec):
    """(coef, p, r) of a named kind, whose density is coef y^(p-1) e^(-r y)."""
    coef = spec.get("coef", 1.0)
    if spec["kind"] == "exponential":
        return coef, 1.0, spec["rate"]
    if spec["kind"] == "gamma":
        return coef, spec["shape"], spec["rate"]
    return coef, -spec["rho"], spec.get("decay", 1.0)


def _mass_above(spec, delta):
    coef, p, r = _power_exp(spec)
    return coef * r ** -p * _upper_gamma(p, r * delta)


def _moment_below(spec, q, delta):
    """int_(0, delta] y^q nu(dy), inf where it diverges."""
    coef, p, r = _power_exp(spec)
    if p + q <= 0:
        return math.inf
    return coef * r ** -(p + q) * special.gammainc(p + q, r * delta) \
        * special.gamma(p + q)


def _close(got, want):
    """Equal to 1e-12 relative, or both infinite."""
    return got == want if math.isinf(want) else abs(got / want - 1.0) <= 1e-12


class TestIncompleteGammaOracles:
    """Measure integrals of the named kinds against incomplete gamma
    functions, from the truncation levels of the samplers down to 1e-12."""

    DELTAS = (1e-12, 1e-8, 3e-6, 1e-6, 1e-3, 0.05, 1.0)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_mass_above_and_sqrt_tail(self, name):
        spec, nu = NAMED[name], named_measure(NAMED[name])
        for delta in self.DELTAS:
            assert _close(nu.mass_above(delta), _mass_above(spec, delta))
            assert _close(nu.sqrt_tail(delta), _moment_below(spec, 0.5, delta))

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_certificates(self, name):
        spec = NAMED[name]
        cert = named_measure(spec).certificates
        above = _mass_above(spec, 1.0)
        assert _close(cert.summable_value, _moment_below(spec, 1.0, 1.0) + above)
        assert _close(cert.sqrt_value, _moment_below(spec, 0.5, 1.0) + above)

    @pytest.mark.parametrize("name,want", [("tempered0", 5.820754450272123e-11),
                                           ("tempered0.4", 6.842209235368254e-59)])
    def test_budget_level(self, name, want):
        # the levels a root finder on the same bracket gave
        nu = named_measure(NAMED[name])
        delta = delta_for_budget(nu, 4.0 ** -8)
        assert _close(delta, want)
        assert nu.sqrt_tail(delta) <= 4.0 ** -8

    def test_mark_table_inversion_error(self):
        # max |F(F^-1(u)) - u| of infinite_activity's measure at delta = 0.05,
        # F the normalized restriction by incomplete gamma
        delta = 0.05
        table = named_measure(NAMED["tempered0.4"]).mark_sampler(delta)
        u = np.linspace(0.0, 1.0, 100_001)[:-1]

        class Uniforms:
            def random(self, size):
                return u

        y = table.sample(Uniforms(), u.size)
        mass = _upper_gamma(-0.4, delta)
        err = np.abs((mass - _upper_gamma(-0.4, y)) / mass - u)
        assert np.all(np.diff(y) >= 0.0)
        assert err.max() <= 2.5e-9
