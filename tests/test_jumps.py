import dataclasses
import hashlib
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
        # every atom below 1: int (y & 1) nu = int y nu = 0.25 * 2 + 0.75
        nu = cj.atoms([(0.25, 2.0), (0.75, 1.0)])
        cert = nu.certificates
        assert cert.summable_value == 1.25 and cert.summable_error == 0.0

    def test_single_atom_exponential(self):
        nu = cj.atoms([(1.0, 1.0)])
        assert nu.one_minus_exp_integral(1.0) == \
            pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        assert nu.mass_above(0.5) == 1.0 and nu.sqrt_tail(1.0) == 1.0

    def test_exponential_density_mass(self, exp_density):
        # int e^-y dy = 1 and int (y & 1) e^-y dy = 1 - e^-1
        assert exp_density.mass_above(0.0) == pytest.approx(1.0, abs=1e-8)
        cert = exp_density.certificates
        assert cert.summable_value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)
        assert cert.summable_error < 1e-7

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.4, 0.5, 0.95, 1.0, 1.2])
    def test_one_divergence_rule(self, rho):
        # int_0 y^e nu diverges iff rho >= e: at e = 0 for the mass, 1/2 for
        # the square-root condition and 1 for summability
        nu = tempered_power(rho)
        assert nu.infinite_activity is (rho >= 0.0)
        assert (nu.mass_above(0.0) == math.inf) is (rho >= 0.0)
        cert = nu.certificates
        assert (cert.summable_value == math.inf) is (rho >= 1.0)
        assert (cert.sqrt_value == math.inf) is (rho >= 0.5)
        assert (nu.sqrt_tail(0.5) == math.inf) is (rho >= 0.5)
        if rho >= 1.0:
            with pytest.raises(NonIntegrable):
                nu.nodes
        else:
            assert np.all(np.isfinite(np.concatenate(nu.nodes)))

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
        # a sampler draws atoms by count, one jump-table entry per atom
        co = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(1.0),
                               beta=cj.constant(1.0), sigma=cj.constant(1.0),
                               t_max=2.0)
        sampler = cj.TransitionSampler(co, two_atoms)
        g = RngStream(21).generator()
        x = sampler.prm_points_batch(g, 0.0, 1.0, 125_000)[2]
        assert x.size > 190_000
        frac = np.mean(x == 0.7)
        p = 1.2 / 1.6
        se = math.sqrt(p * (1 - p) / x.size)
        assert abs(frac - p) < 4 * se
        assert set(np.unique(x)) == {0.7, 1.8}

    def test_atoms_respect_delta(self, two_atoms):
        ms = two_atoms.mark_sampler(1.0)
        assert [a.tolist() for a in ms.atoms] == [[1.8], [0.4]]
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


# Bit pins of the jump-measure values. Each digest is the SHA-256 of the
# quantities of ``_jump_values`` for one measure, whole or truncated; a
# quantity that raises enters as the name of its exception. The whole
# code0.7 and tempered0.95 digests were re-recorded when ``delta_for_budget``
# on a summable measure without the square-root condition began raising
# RestrictiveConditionViolated in place of NonIntegrable; every value kept
# its bits. The twelve atoms digests were re-recorded when an atoms
# restriction stopped drawing marks by a table search (the sampler draws
# atoms by count): they pin the restriction's sizes and weights in place of
# 4096 draws from them. Every density digest kept its bits.
JUMP_MEASURES = {
    **{name: (lambda spec=spec: named_measure(spec)) for name, spec in NAMED.items()},
    "code0.4": lambda: tempered_power(0.4),
    "code0.7": lambda: tempered_power(0.7),
    "atoms-jump_model": lambda: cj.atoms([(0.7, 1.2), (1.8, 0.4)]),
    "atoms-one": lambda: cj.atoms([(1.0, 1.0)]),
    "atoms-spread": lambda: cj.atoms([(1e-7, 5.0), (0.3, 1.0), (4.0, 0.5)]),
}
JUMP_CUTS = (None, 1e-6, 0.05, 1.0)


def _jump_values(nu):
    """The quantities pinned by ``JUMP_DIGESTS``, as thunks."""
    yield lambda: dataclasses.astuple(nu.certificates)
    for delta in (0.0, 1e-12, 1e-6, 3e-6, 0.05, 0.5, 1.0, 3.0):
        yield lambda: nu.mass_above(delta)
        yield lambda: nu.sqrt_tail(delta)
    yield lambda: np.concatenate(nu.nodes)
    yield lambda: nu.one_minus_exp_integral(np.array([0.0, 0.3, 2.0, 50.0, 1e6]))
    for delta in (1e-6, 0.05, 1.0):
        yield lambda: nu.mark_sampler(delta).mass
        yield lambda: _marks(nu.mark_sampler(delta))
    for budget in (4.0 ** -3, 4.0 ** -8):
        yield lambda: delta_for_budget(nu, budget)


def _marks(ms):
    """The atoms of a discrete restriction, or 4096 draws of a mark table."""
    if ms.atoms is not None:
        return np.concatenate(ms.atoms)
    return ms.sample(RngStream(7, 0).generator(), 4096)


def _jump_digest(nu):
    h = hashlib.sha256()
    for value in _jump_values(nu):
        try:
            h.update(np.asarray(value(), dtype=float).tobytes())
        except Exception as exc:
            h.update(type(exc).__name__.encode())
    return h.hexdigest()


JUMP_DIGESTS = {
    ('exponential', None):
        "06dd392f37dbfaff66f0607e8e9dce93cb5d1df9653b2d8e3d9129993c573fe2",
    ('exponential', 1e-06):
        "57f5f29077573c0cc4c7263ba78a5fea6ff1f5dcf407a7505a479fbf08d574c0",
    ('exponential', 0.05):
        "2e9a293ff64b3040d08b4a7bb2c71e8b06e0e3ae6b5370009c6ba5b5e1b86c68",
    ('exponential', 1.0):
        "91209b8b99c6de83feee29024490d414b5af1967b6d49b41e2643f4b39c6039e",
    ('gamma2.5', None):
        "0a00230971e60d958466ecb11ae6fe55f0a18ad70d5937c4ae5667ac343ab409",
    ('gamma2.5', 1e-06):
        "a224093bde891cd5fa1367b898713f8d58970cffe82c48d5c13b754e07e6aa20",
    ('gamma2.5', 0.05):
        "077e862485dd96cd82937d89195306d216a12ebfc68e337c13663ab2c4c93a60",
    ('gamma2.5', 1.0):
        "3b65315b2fa077e98c3594c023ea69612481a70c6c44f392a6e4ade74f6a4bce",
    ('gamma0.5', None):
        "706c322e816d54e40d55365be6237f837626e6c730b98d9dabc08ff662641b9a",
    ('gamma0.5', 1e-06):
        "17ec874e4d7c193b1e64e7ed17edda5b6b0e24f79874b90748c31ada3f0ad9fa",
    ('gamma0.5', 0.05):
        "33007f4262a12ece16c1e68c0b370b382cafa1077ef0c1e950321a112f23b2b2",
    ('gamma0.5', 1.0):
        "4be19e188a3737e0c079307dcf82c20f315b23d788d766ad5696585679df1dbc",
    ('tempered-0.5', None):
        "d9046f7c6b39ecb87655f80b67228516e31687e138694e54cdcfd5e4840fe354",
    ('tempered-0.5', 1e-06):
        "22f64cad4e9b97e6d93426329e5ce2c27661ad9e9f013e43b8f7cc60760d29ec",
    ('tempered-0.5', 0.05):
        "e1d83f0cb907e400c3c7f5b7edefc9e54cf13ee66fb6d56ffe29b1f2735e13ab",
    ('tempered-0.5', 1.0):
        "5dc252681c9adbc7012004cba018c8c30d54c04e29e7e7e7603c9b72d88b188d",
    ('tempered0', None):
        "ae868f5b8f02d81600d5a23241ed37222f1723ce60f3d8b2354ec6e848fe9489",
    ('tempered0', 1e-06):
        "d7fcd8689a71eb1171be94585337fc87a88738cee7e58aa32bb4bf92db4c3e6c",
    ('tempered0', 0.05):
        "b46a78076303551e1b2f4b99c49be186faab8e373edcb1b4db05491df4297887",
    ('tempered0', 1.0):
        "c28eb2b75aee1066d5b445c37fb6f14627fd0ba9ba2d9977737fde88fe71e639",
    ('tempered0.4', None):
        "cb944ba0760cb7be2cc3b7173ff978e6c423a80fcd9339578e4fb47d1337e729",
    ('tempered0.4', 1e-06):
        "66d0348f739d312b0a41affa443fd73b5dfaa16e97ca30ac1c84b42d41dbfde2",
    ('tempered0.4', 0.05):
        "33a41d5a5a855eb285f11bdcf85ba9122cee9a26338b4c60e018f3212990f588",
    ('tempered0.4', 1.0):
        "b5a9b1fec647bbfe7550026906f466b8e26422c2e0db75ad6e74b4b3172fc7d9",
    ('tempered0.95', None):
        "fe5f83b1462204330b91e2ca38dccff5bb184e5d0c833b762dffdd8444ce8963",
    ('tempered0.95', 1e-06):
        "fa3e741e23a0da0cfc07daa7e65d2a74f2b84244a829483e9062c77b280e9231",
    ('tempered0.95', 0.05):
        "495c49f03cc4994b371e5f43272ed9a646779073759a5312f5bd00d9d3c28402",
    ('tempered0.95', 1.0):
        "bf8a78af6a4a94b92a4b84cd42154675f16c47b21de67b8d490f06f042973525",
    ('code0.4', None):
        "b3b6c07bb3f079f036c077c4046d12fcb350deddd63f169bf13cad7f66b8606a",
    ('code0.4', 1e-06):
        "66d0348f739d312b0a41affa443fd73b5dfaa16e97ca30ac1c84b42d41dbfde2",
    ('code0.4', 0.05):
        "33a41d5a5a855eb285f11bdcf85ba9122cee9a26338b4c60e018f3212990f588",
    ('code0.4', 1.0):
        "b5a9b1fec647bbfe7550026906f466b8e26422c2e0db75ad6e74b4b3172fc7d9",
    ('code0.7', None):
        "e29593de2115f96d3bf231db7b4c1196ea75fa4491519047c8e11de3ce1d77dc",
    ('code0.7', 1e-06):
        "ac00a81456e5c94161029338df592761f7e32b4495454ffdaf4a30a6ceaaf592",
    ('code0.7', 0.05):
        "940a458e26497c498c06b7bf8e4878ca9b81db8e398a22c38e76f811b9452699",
    ('code0.7', 1.0):
        "40fc47af1de5aab35667f6485beb003c24aa883c3159b27ffccadd55b0de57a6",
    ('atoms-jump_model', None):
        "e451ecb77f370ba297bb4194ffae63fa989662521de4ece2d99cffa6cd8c6ad4",
    ('atoms-jump_model', 1e-06):
        "e451ecb77f370ba297bb4194ffae63fa989662521de4ece2d99cffa6cd8c6ad4",
    ('atoms-jump_model', 0.05):
        "e451ecb77f370ba297bb4194ffae63fa989662521de4ece2d99cffa6cd8c6ad4",
    ('atoms-jump_model', 1.0):
        "6bb2e4ff40d59fe43760ea25da2aac33d58d3f54b9f9c02f564f3505134f5734",
    ('atoms-one', None):
        "6f80097deb7b0b92fc761d25cc36875ed9dc763a96e3c9f2739b51303cc79a91",
    ('atoms-one', 1e-06):
        "6f80097deb7b0b92fc761d25cc36875ed9dc763a96e3c9f2739b51303cc79a91",
    ('atoms-one', 0.05):
        "6f80097deb7b0b92fc761d25cc36875ed9dc763a96e3c9f2739b51303cc79a91",
    ('atoms-one', 1.0):
        "f86e62ee49bd3fb4282fb287951148598c30d0a0d82a09ea2713d1f1bb08722b",
    ('atoms-spread', None):
        "3eb84e0551726eb914c2ce2f7b31b2ead65ae6865080365589a7e998a5d2b607",
    ('atoms-spread', 1e-06):
        "25c46a38a6f9f50c0438e39ebe81d0299c58823819e5713331d82b0bba4636d6",
    ('atoms-spread', 0.05):
        "25c46a38a6f9f50c0438e39ebe81d0299c58823819e5713331d82b0bba4636d6",
    ('atoms-spread', 1.0):
        "f9e9ecf37f394d4848bbda47de04d67becc1e6ea42a8fcab4778b0bdbad02d19",
}


@pytest.mark.parametrize("name,cut", sorted(JUMP_DIGESTS, key=str))
def test_jump_values_bit_identical(name, cut):
    nu = JUMP_MEASURES[name]()
    if cut is not None:
        nu = nu.truncated(cut)
    assert _jump_digest(nu) == JUMP_DIGESTS[(name, cut)]
