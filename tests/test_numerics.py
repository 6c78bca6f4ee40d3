import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import cirjump as cj
from cirjump.numerics import RngStream, integrate

N_BIG = 1_000_000
ALPHA = 1e-3  # significance of the distributional tests


class TestIntegrate:
    def test_constant(self):
        res = integrate(lambda x: 1.0, 0.0, 2.0)
        assert res.value == pytest.approx(2.0, abs=1e-14)
        assert res.converged

    def test_exponential(self):
        res = integrate(np.exp, 0.0, 1.0, tol=1e-12)
        assert abs(res.value - (math.e - 1.0)) < 1e-10
        assert abs(res.value - (math.e - 1.0)) <= max(res.error_estimate, 1e-13)

    def test_endpoint_singularity(self):
        # int_0^1 y^-0.9 dy = 10 exactly
        res = integrate(lambda y: y ** -0.9, 0.0, 1.0, tol=1e-10,
                        singular_exponent=-0.9)
        assert abs(res.value - 10.0) < 1e-8

    def test_polynomial_exactness(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            coefs = rng.uniform(-2, 2, 8)
            exact = sum(c / (k + 1) for k, c in enumerate(coefs))
            res = integrate(lambda x: np.polyval(coefs[::-1], x), 0.0, 1.0)
            assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_breakpoints_respected(self):
        f = lambda x: np.where(x < 0.3, 1.0, 2.0)
        res = integrate(f, 0.0, 1.0, breakpoints=[0.3], tol=1e-12)
        assert res.value == pytest.approx(0.3 + 1.4, abs=1e-12)

    def test_infinite_upper(self):
        res = integrate(lambda y: np.exp(-y), 0.5, np.inf, tol=1e-11)
        assert res.value == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, tol=0.0)

    def test_unreached_tolerance_is_flagged(self):
        # wildly oscillatory integrand: the best value is returned with an
        # honest estimate and the converged flag dropped
        res = integrate(lambda x: np.sin(1.0 / x), 1e-9, 1.0, tol=1e-14)
        assert not res.converged
        assert res.error_estimate > 0


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 5).generator().random(16)
        b = RngStream(123, 5).generator().random(16)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = RngStream(123, 0).generator().random(16)
        b = RngStream(123, 1).generator().random(16)
        assert not np.array_equal(a, b)

    def test_substream_independence(self):
        n = 200_000
        x = RngStream(7, 0).generator().standard_normal(n)
        y = RngStream(7, 1).generator().standard_normal(n)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) * math.sqrt(n) < 4.0

    def test_import_does_not_load_numpy_random(self):
        # numpy loads numpy.random at its first use (about 10 ms): naming
        # the stream family must not make every start-up pay it
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import cirjump, "
                "cirjump.cli; print('numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestGammaSample:
    """Gamma variates of a stream generator in the (shape, scale = 1/rate)
    form the samplers draw them; shape 0 must give exact zeros."""

    def test_exponential_reduction(self):
        # shape 1 with rate p is the exponential law with mean 1/p
        g = RngStream(1).generator()
        p = 2.5
        x = g.gamma(1.0, 1.0 / p, size=N_BIG)
        se = x.std(ddof=1) / math.sqrt(N_BIG)
        assert abs(x.mean() - 1.0 / p) < 3 * se
        ks = stats.kstest(x[:100_000], stats.expon(scale=1.0 / p).cdf)
        assert ks.pvalue > ALPHA

    def test_moment_identity(self):
        g = RngStream(2).generator()
        x = g.gamma(2.5, 1.0 / 4.0, size=N_BIG)
        se = x.std(ddof=1) / math.sqrt(N_BIG)
        assert abs(x.mean() - 0.625) < 3 * se

    def test_small_shape(self):
        g = RngStream(3).generator()
        x = g.gamma(0.3, 1.0, size=N_BIG)
        ks = stats.kstest(x[:100_000], stats.gamma(a=0.3).cdf)
        assert ks.pvalue > ALPHA

    def test_zero_shape_is_zero(self):
        g = RngStream(4).generator()
        assert np.all(g.gamma(np.zeros(10), 1.0) == 0.0)

    def test_deterministic(self):
        x = RngStream(5).generator().gamma(1.7, 1.0 / 2.0, size=8)
        y = RngStream(5).generator().gamma(1.7, 1.0 / 2.0, size=8)
        assert np.array_equal(x, y)


class TestPoissonSample:
    """Poisson variates of a stream generator; mean 0 gives exact zeros."""

    def test_zero_mean(self):
        g = RngStream(6).generator()
        assert np.all(g.poisson(0.0, size=100) == 0)

    def test_moments_and_chisquare(self):
        g = RngStream(7).generator()
        x = g.poisson(3.0, size=N_BIG)
        se = x.std(ddof=1) / math.sqrt(N_BIG)
        assert abs(x.mean() - 3.0) < 3 * se
        var = x.var(ddof=1)
        se_var = math.sqrt((np.mean((x - x.mean()) ** 4) - var ** 2) / N_BIG)
        assert abs(var - 3.0) < 3 * se_var
        # chi-square against the Poisson(3) pmf, tail binned together
        kmax = 12
        observed = np.bincount(np.minimum(x, kmax), minlength=kmax + 1)
        expected = np.array([stats.poisson(3.0).pmf(k) for k in range(kmax)]
                            + [stats.poisson(3.0).sf(kmax - 1)]) * N_BIG
        res = stats.chisquare(observed, expected)
        assert res.pvalue > ALPHA

    def test_deterministic(self):
        x = RngStream(8).generator().poisson(2.0, size=16)
        y = RngStream(8).generator().poisson(2.0, size=16)
        assert np.array_equal(x, y)


def _jump_sampler(a_tilde, t_max):
    # a unit atom: the jump-time intensity is a_tilde itself
    c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=a_tilde,
                          beta=cj.constant(1.0), sigma=cj.constant(1.0),
                          t_max=t_max)
    return cj.TransitionSampler(c, cj.atoms([(1.0, 1.0)]))


def _jump_counts(sampler, g, s, t, reps):
    idx = sampler.prm_points_batch(g, s, t, reps)[0]
    return np.bincount(idx, minlength=reps).astype(float)


class TestInhomogeneousTimes:
    """Jump times as ``TransitionSampler.prm_points_batch`` draws them:
    piece by piece, thinned where a~ is not piecewise constant."""

    def test_zero_rate_empty(self):
        g = RngStream(9).generator()
        sampler = _jump_sampler(cj.constant(0.0), 5.0)
        idx, times, sizes = sampler.prm_points_batch(g, 0.0, 5.0, 10)[:3]
        assert idx.size == times.size == sizes.size == 0

    def test_constant_rate_counts(self):
        g = RngStream(10).generator()
        reps = 100_000
        counts = _jump_counts(_jump_sampler(cj.constant(2.0), 5.0), g,
                              0.0, 5.0, reps)
        se = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - 10.0) < 3 * se

    def test_linear_rate_expected_count(self):
        g = RngStream(11).generator()
        reps = 40_000
        sampler = _jump_sampler(cj.piecewise_linear([0.0, 1.0], [0.0, 1.0]), 1.0)
        counts = _jump_counts(sampler, g, 0.0, 1.0, reps)
        se = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - 0.5) < 3 * se

    def test_sorted_inside_interval(self):
        g = RngStream(12).generator()
        out = _jump_sampler(cj.constant(5.0), 3.0).sample_prm(g, 1.0, 3.0).times
        assert out.size > 0
        assert np.all(np.diff(out) >= 0)
        assert np.all((out >= 1.0) & (out <= 3.0))
