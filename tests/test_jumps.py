import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

import cirjump as cj
from cirjump import jumps
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


@pytest.mark.parametrize("nodes", ["density", "atoms", "empty"])
def test_blocks_keep_each_value_bit_identical(nodes, monkeypatch):
    # c arrays of several blocks of c (x) y give each element the bits of
    # the sum for that c alone; a small block size makes them many
    nu = {"density": tempered_power(0.4), "empty": cj.atoms([]),
          "atoms": cj.atoms([(0.7, 1.2), (1.8, 0.4)])}[nodes]
    y = nu.nodes[0]
    monkeypatch.setattr(jumps, "BLOCK_SIZE", 4 * max(y.size, 1) + 1)
    c = np.geomspace(1e-3, 1e6, 31).reshape(-1, 1)
    got = one_minus_exp_sum(nu.nodes, c)
    assert got.shape == c.shape
    assert got.tobytes() == np.array([[one_minus_exp_sum(nu.nodes, x)]
                                      for x in c.ravel().tolist()]).tobytes()


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
# 4096 draws from them. Every density digest kept its bits. Every digest
# that holds the 4096 mark-table draws was re-recorded when the stream family
# became PCG64DXSM in place of Philox (``numerics.seeded_generator``): the
# same mark law, new variates. The atoms digests and the whole code0.7 and
# tempered0.95 digests (whose mark tables raise) draw nothing and keep their
# bits.
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
        "8cb95aef5ebce91f449ec4a7915c5c9000bcc13cb1bba8a384be5a14443ed06a",
    ('exponential', 1e-06):
        "8dda8424c12b210812e3c2a042ebaff83d283393e2dd3b6350b342824116aa6d",
    ('exponential', 0.05):
        "f734e72ada5367f51c6ed63009d3a3caf361246d5df397b798704c3622d2c955",
    ('exponential', 1.0):
        "db1222c51aaa3605d4c421e4c770ecafcdd774b60b18a3005ad7f08876660ada",
    ('gamma2.5', None):
        "fcec4c45ae71d88b9297e565ca1eec6148baae17bb50610fb344c10e1f1ca00f",
    ('gamma2.5', 1e-06):
        "068e5c547bf605392c5c3448e210848ea04bb785f8845fe47b365a2e00c9efb5",
    ('gamma2.5', 0.05):
        "3b0ce08b5782df735bf92742ab92936a9085a629e641b7329d932931025add43",
    ('gamma2.5', 1.0):
        "8cd3dc1c24adb999cb5c6e959a722bcd9d68c81128522cf5c309886f33ac0f1b",
    ('gamma0.5', None):
        "55b20eeed216c291c20aa8558c8ee28c1104d652d5e827177624b4f4ee242546",
    ('gamma0.5', 1e-06):
        "f97cd1fcca2b5dd71f779aa0cb513f95e080d0724b722843cab9a42fc3c584e6",
    ('gamma0.5', 0.05):
        "6ac6965147f8311bcb144efe69d3c5981e4791989689a3ac72e3d646eb0e79af",
    ('gamma0.5', 1.0):
        "c650e6bb872d614d1d30de2ce83166233114ca53402ace40e3fb75040113203d",
    ('tempered-0.5', None):
        "f9c9a9aa32c536372faa194b693afada46bd686040b20705bc7f8225ccc53160",
    ('tempered-0.5', 1e-06):
        "1aad3724f581e6b37b40faeec1f47fb3be78e327b3eba1959380d1937b3512cd",
    ('tempered-0.5', 0.05):
        "04ec98ababb1e2e7ed07b0c04bfd8add9747c9d82b2d7216c84ca87062c99003",
    ('tempered-0.5', 1.0):
        "92864f6c4d5929d99d99ee7166eca7aee9facdfa8db7b20e04efd1f465097377",
    ('tempered0', None):
        "0fd3f796bc2e8e9a4d08b9b7a223a27b4e40b9e5b5ff98218d0f70972d997a72",
    ('tempered0', 1e-06):
        "adf2f99d55f555d95391d9428bfd4cf1bf51b58d3c9fe234620e144b810d4ba8",
    ('tempered0', 0.05):
        "9afb058b0feaf22eb85e5bc22fc431705c53d2df9ad64f12d02223f8f2978768",
    ('tempered0', 1.0):
        "c71859070510502a858c644b945e02e95ddf5285c4d64165be7aeb04c757dd6f",
    ('tempered0.4', None):
        "eef8c31791e54eed1aa2adbf4cf30597c226e8ac465931f0090b87111ed6530d",
    ('tempered0.4', 1e-06):
        "3896a0cce7d126cf2a77067e19a706d3e9aea4a371fc5be97f1d71d18910d090",
    ('tempered0.4', 0.05):
        "d7ecf5a77b325012fddd13327e531a7c07f7cd487e55a002820bcd6652b26887",
    ('tempered0.4', 1.0):
        "36a268c3153889ab4ba4815ef8b6f44eae52879bd013279fec264924c7e5bef6",
    ('tempered0.95', None):
        "fe5f83b1462204330b91e2ca38dccff5bb184e5d0c833b762dffdd8444ce8963",
    ('tempered0.95', 1e-06):
        "9789a428365514a9227023a2844026d8770c3265f2937593e7a59bc57403be98",
    ('tempered0.95', 0.05):
        "f1c8caa04da869afe8456b3dd04e58f41f89e62510b26b80f734d9fe933bee83",
    ('tempered0.95', 1.0):
        "e1cdc9b69df5f59f6c6a85ad4b5dfa1f0d59778cacb2a9f871f350585e95b957",
    ('code0.4', None):
        "2d16fd92122dbe45a41ec1479d662d7c5ab51934abf377d90223816f30a81e42",
    ('code0.4', 1e-06):
        "3896a0cce7d126cf2a77067e19a706d3e9aea4a371fc5be97f1d71d18910d090",
    ('code0.4', 0.05):
        "d7ecf5a77b325012fddd13327e531a7c07f7cd487e55a002820bcd6652b26887",
    ('code0.4', 1.0):
        "36a268c3153889ab4ba4815ef8b6f44eae52879bd013279fec264924c7e5bef6",
    ('code0.7', None):
        "e29593de2115f96d3bf231db7b4c1196ea75fa4491519047c8e11de3ce1d77dc",
    ('code0.7', 1e-06):
        "5440e485ace7777ed4366a2059043a81888e0dd463fa311a6c524f423223f084",
    ('code0.7', 0.05):
        "f097e02bf58896d692fa279d71795902599edca359ae489ca6bc0e77b795745e",
    ('code0.7', 1.0):
        "2be3511fc1d840a56eb815e53ff9c7a22a99bda1cac7d0a3c646303a9b152fea",
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
