import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import cirjump as cj
from cirjump import verify
from cirjump.errors import DegenerateIntermediate, InsufficientSamples
from cirjump.kernels import get_kernels
from cirjump.numerics import RngStream
from cirjump.samplers import get_sampler
from cirjump.verify import (LaplaceComparison, chapman_kolmogorov,
                            compare_component, mc_statistics,
                            moment_check_from_sums, psi_semigroup_check)
from conftest import tempered_power


class TestEmpiricalLaplace:
    """The empirical transform of ``mc_statistics``."""

    def test_degenerate_zeros(self):
        stats = mc_statistics(lambda g, m: np.zeros(m), 100, [0.5, 1.0, 2.0],
                              seed=0)
        assert np.all(stats["mean"] == 1.0)
        assert np.all(stats["std_err"] == 0.0)

    def test_exponential_law(self):
        p = 2.0
        grid = np.array([0.5, 1.0, 4.0])
        stats = mc_statistics(lambda g, m: g.exponential(1.0 / p, m),
                              200_000, grid, seed=100)
        want = 1.0 / (1.0 + grid / p)
        assert np.all(np.abs(stats["mean"] - want) <= 3 * stats["std_err"])

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientSamples):
            mc_statistics(lambda g, m: np.ones(m), 1, [1.0], seed=0)


class TestCompareTransition:
    def test_degenerate_model_all_zero_z(self, two_atoms):
        c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              x0=0.0, t_max=2.0)
        cmp = compare_component(c, two_atoms, 0.2, 1.2, 0.0, "K", 1000,
                                [0.5, 1.0], seed=101)
        assert np.all(cmp.z_scores == 0.0)
        assert cmp.passed

    def test_classical_cir_closed_form(self):
        # constant coefficients with input rate alpha sigma^2 / 2: the
        # transition transform is (1 + lam/p)^-alpha exp(-y Psi)
        alpha, beta, sigma2 = 1.6, 1.0, 2.0
        c = cj.CoefficientSet(a=cj.constant(alpha * sigma2 / 2),
                              a_tilde=cj.constant(0.0),
                              beta=cj.constant(beta),
                              sigma=cj.constant(math.sqrt(sigma2)),
                              x0=0.4, t_max=2.0)
        s, t, y = 0.0, 1.0, 0.4
        grid = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
        eng = get_kernels(c)
        kv = eng.kernel_value(s, t)
        psis = eng.psi(s, t, grid)
        closed = (1 + grid / kv.p) ** -alpha * np.exp(-y * psis)
        analytic, _ = eng.laplace_K(s, t, y, grid)
        assert np.max(np.abs(analytic / closed - 1)) < 1e-9
        cmp = compare_component(c, None, s, t, y, "K", 150_000, grid, seed=102)
        assert cmp.passed

    def test_report_flags_failures(self):
        z = np.array([0.5, 5.0])
        cmp = LaplaceComparison(np.array([1.0, 2.0]), np.zeros(2),
                                np.ones(2), np.zeros(2), z, 10)
        assert not cmp.passed
        assert cmp.max_abs_z == 5.0

    def test_soft_allowance(self):
        z = np.array([3.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        cmp = LaplaceComparison(np.arange(8.0), np.zeros(8), np.ones(8),
                                np.zeros(8), z, 10)
        assert cmp.passed
        z2 = z.copy()
        z2[1] = 3.2
        cmp2 = LaplaceComparison(np.arange(8.0), np.zeros(8), np.ones(8),
                                 np.zeros(8), z2, 10)
        assert not cmp2.passed


class TestChapmanKolmogorov:
    def test_degenerate_intermediate(self, pc_coeffs, two_atoms):
        with pytest.raises(DegenerateIntermediate):
            chapman_kolmogorov(pc_coeffs, two_atoms, 0.2, 0.2, 1.2, 0.5,
                               1000, [1.0], seed=103)

    def test_h_only_model(self, two_atoms):
        c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              x0=0.9, t_max=2.0)
        cmp = chapman_kolmogorov(c, two_atoms, 0.1, 0.7, 1.3, 0.9,
                                 100_000, [0.5, 1.0, 2.0, 5.0], seed=104)
        assert cmp.passed


class TestPsiSemigroupCheck:
    def test_constant_coefficients(self, const_coeffs, lambda_grid):
        triples = [(0.1, 0.5, 1.2), (0.0, 0.9, 1.9), (0.3, 0.4, 0.5)]
        assert psi_semigroup_check(const_coeffs, triples, lambda_grid) <= 1e-8

    def test_random_piecewise(self, pc_coeffs, lambda_grid):
        rng = np.random.default_rng(9)
        triples = np.sort(rng.uniform(0, 2, (50, 3)), axis=1)
        triples = triples[(np.diff(triples, axis=1) > 1e-3).all(axis=1)]
        assert psi_semigroup_check(pc_coeffs, triples, lambda_grid) <= 1e-7


def _moments(draw, n, expected_mean, expected_var, seed=0):
    stats = mc_statistics(draw, n, [1.0], seed=seed)
    return moment_check_from_sums(stats, expected_mean, expected_var)


class TestMomentCheck:
    def test_degenerate_zeros(self):
        mc = _moments(lambda g, m: np.zeros(m), 100, 0.0, 0.0)
        assert mc.z_mean == 0.0 and mc.z_var == 0.0
        assert mc.passed

    def test_h_law_moments(self, pc_coeffs):
        s, t, y = 0.2, 1.2, 0.8
        kv = get_kernels(pc_coeffs).kernel_value(s, t)
        sampler = get_sampler(pc_coeffs)
        mc = _moments(lambda g, m: sampler.sample_h(g, s, t, y, size=m),
                      200_000, y * kv.B, 2 * y * kv.B / kv.p, seed=105)
        assert mc.passed

    def test_mean_decays_like_B(self, pc_coeffs):
        # across a horizon ladder the sample mean of H tracks y B(s, t)
        s, y = 0.1, 1.0
        g = RngStream(106).generator()
        eng = get_kernels(pc_coeffs)
        sampler = get_sampler(pc_coeffs)
        for t in (0.5, 1.0, 1.9):
            x = sampler.sample_h(g, s, t, y, size=50_000)
            kv = eng.kernel_value(s, t)
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert abs(x.mean() - y * kv.B) <= 4 * se

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            _moments(lambda g, m: np.ones(m), 1, 0.0, 1.0)

    @pytest.mark.parametrize("offset", [1e6, 1e7])
    def test_variance_far_from_zero(self, offset):
        # U(0, 1) shifted far from zero: the variance is 1/12 at any offset,
        # and the check must see it, not the rounding of raw power sums
        mc = _moments(lambda g, m: offset + g.random(m), 100_000,
                      offset + 0.5, 1.0 / 12.0, seed=110)
        assert mc.sample_var == pytest.approx(1.0 / 12.0, rel=0.02)
        assert abs(mc.z_mean) <= 4.0 and abs(mc.z_var) <= 4.0
        assert mc.passed
        biased = _moments(lambda g, m: offset + g.random(m), 100_000,
                          offset + 0.5, 1.0 / 12.0 * 1.05, seed=110)
        assert abs(biased.z_var) > 4.0


class TestDeterminism:
    def test_bit_exact_reruns(self, pc_coeffs, two_atoms, lambda_grid):
        a = compare_component(pc_coeffs, two_atoms, 0.2, 1.2, 0.8, "K",
                              30_000, lambda_grid, seed=107)
        b = compare_component(pc_coeffs, two_atoms, 0.2, 1.2, 0.8, "K",
                              30_000, lambda_grid, seed=107)
        assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())

    def test_worker_count_invariance(self, pc_coeffs, two_atoms, lambda_grid):
        a = compare_component(pc_coeffs, two_atoms, 0.2, 1.2, 0.8, "K",
                              200_000, lambda_grid, seed=108, workers=1)
        b = compare_component(pc_coeffs, two_atoms, 0.2, 1.2, 0.8, "K",
                              200_000, lambda_grid, seed=108, workers=4)
        assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())

    def test_seed_changes_output(self, pc_coeffs, two_atoms, lambda_grid):
        a = compare_component(pc_coeffs, two_atoms, 0.2, 1.2, 0.8, "K",
                              30_000, lambda_grid, seed=109)
        b = compare_component(pc_coeffs, two_atoms, 0.2, 1.2, 0.8, "K",
                              30_000, lambda_grid, seed=110)
        assert not np.array_equal(a.empirical, b.empirical)


class TestMcStatistics:
    def test_variance_without_cancellation(self):
        # exp(-lam X) with lam = 1e-10 and X about 1 sits within 1e-10 of 1:
        # s2 - n mean^2 cancels to 0 or noise, centred sums do not
        lam = np.array([1e-10])

        def draw(g, m):
            return 1.0 + g.random(m)

        n, chunk = 50_000, 8_192
        stats = mc_statistics(draw, n, lam, seed=3, chunk_size=chunk)
        e = np.concatenate([
            np.exp(-lam[0] * draw(RngStream(3, j).generator(), m))
            for j, m in enumerate(verify._chunk_plan(n, chunk))])
        want = e.std(ddof=1) / math.sqrt(n)
        assert want > 0
        assert stats["std_err"][0] == pytest.approx(want, rel=1e-6)
        assert stats["mean"][0] == pytest.approx(e.mean(), rel=1e-15)

    def test_transform_sums_match_the_outer_product(self, lambda_grid):
        # one lambda at a time gives the bits of the 2-D exp(-outer) form
        x = RngStream(6).generator().gamma(0.4, 2.0, 20_000)
        x[::7] = 0.0
        stats = mc_statistics(lambda g, m: x, x.size, lambda_grid, seed=6,
                              chunk_size=x.size)
        e = np.exp(-np.multiply.outer(lambda_grid, x))
        mean = e.mean(axis=1)
        e -= mean[:, None]
        m2 = np.square(e).sum(axis=1)
        assert np.array_equal(stats["mean"], mean)
        assert np.array_equal(stats["std_err"],
                              np.sqrt(m2 / (x.size - 1.0) / x.size))

    def test_workers_capped_at_chunks(self, monkeypatch, lambda_grid):
        asked = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers=None):
                asked.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(verify, "ThreadPoolExecutor", Recording)

        def draw(g, m):
            return g.exponential(size=m)

        one = mc_statistics(draw, 3000, lambda_grid, seed=4, chunk_size=2000)
        eight = mc_statistics(draw, 3000, lambda_grid, seed=4, chunk_size=2000,
                              workers=8)
        assert asked == [2]
        for key in one:
            assert np.array_equal(np.asarray(one[key]), np.asarray(eight[key]))

    def test_fresh_density_engine_worker_invariant(self, pc_coeffs):
        # engines built here, not memoized, and shared by the worker threads
        # with frequent thread switches: a lazily built mark table or node
        # set would be raced for
        grid = np.array([0.5, 2.0, 10.0])
        nu = tempered_power(0.4)
        runs = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2):
                runs.append(self._fresh_run(pc_coeffs, nu, grid, workers))
        finally:
            sys.setswitchinterval(switch)
        assert runs[0] == runs[1]

    @staticmethod
    def _fresh_run(pc_coeffs, nu, grid, workers):
        smp = cj.TransitionSampler(pc_coeffs, nu, delta=0.05)
        eng = cj.TransitionKernels(pc_coeffs, nu)
        stats = mc_statistics(
            lambda g, m: smp.sample_k(g, 0.2, 1.2, 0.5, size=m),
            4_000, grid, seed=5, workers=workers, chunk_size=1_000)
        points = [(0.2, 1.2, 0.5), (0.1, 1.9, 1.0), (0.6, 0.7, 0.0)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            laplace = list(pool.map(
                lambda p: eng.laplace_K(*p, grid)[0].tobytes(), points))
        return {k: np.asarray(v).tobytes() for k, v in stats.items()}, laplace
