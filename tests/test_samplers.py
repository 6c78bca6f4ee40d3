import copy
import dataclasses
import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

import cirjump as cj
from cirjump.errors import (DegenerateInterval, InvalidDelta,
                            RestrictiveConditionViolated)
from cirjump.kernels import get_kernels
from cirjump.numerics import RngStream
from cirjump import samplers
from cirjump.samplers import (COMPONENTS, LANE_MIN, STEP_CACHE, _gamma,
                              _gamma_counts, get_component, get_sampler)
from cirjump.verify import (mc_statistics, moment_check_from_sums,
                            transform_comparison, zero_fraction_z)

N = 150_000
ALPHA = 1e-3  # significance of the distributional tests


def _grid():
    return np.array([0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])


class TestSampleH:
    def test_zero_start_stays_zero(self, pc_coeffs):
        g = RngStream(40).generator()
        x = get_sampler(pc_coeffs).sample_h(g, 0.2, 1.2, 0.0, size=1000)
        assert np.all(x == 0.0)

    def test_moments_zeros_transform(self, pc_coeffs):
        s, t, y = 0.2, 1.2, 0.8
        eng = get_kernels(pc_coeffs)
        kv = eng.kernel_value(s, t)
        sampler = get_sampler(pc_coeffs)
        stats = mc_statistics(lambda g, m: sampler.sample_h(g, s, t, y, size=m),
                              N, _grid(), seed=41)
        mc = moment_check_from_sums(stats, y * kv.B, 2 * y * kv.B / kv.p)
        assert mc.passed
        zf = zero_fraction_z(stats["zeros"], N, math.exp(-y * kv.gamma))
        assert abs(zf) <= 4.0
        analytic, _ = eng.laplace_H(s, t, y, _grid())
        z = (stats["mean"] - analytic) / stats["std_err"]
        assert np.max(np.abs(z)) <= 4.0

    def test_branching_property(self, pc_coeffs):
        # H(y1) + independent H(y2) has the law of H(y1 + y2)
        s, t, y1, y2 = 0.3, 1.5, 0.4, 0.9
        eng = get_kernels(pc_coeffs)
        sampler = get_sampler(pc_coeffs)
        analytic, _ = eng.laplace_H(s, t, y1 + y2, _grid())
        cmp = transform_comparison(
            lambda g, m: sampler.sample_h(g, s, t, y1, size=m)
            + sampler.sample_h(g, s, t, y2, size=m),
            analytic, _grid(), N, seed=42, label="branching")
        assert cmp.passed

    def test_vector_start(self, pc_coeffs):
        g = RngStream(43).generator()
        y = np.array([0.0, 0.5, 2.0])
        x = get_sampler(pc_coeffs).sample_h(g, 0.2, 1.2, y)
        assert x.shape == (3,)
        assert x[0] == 0.0

    def test_scalar_draw_deterministic(self, pc_coeffs):
        sampler = get_sampler(pc_coeffs)
        a = sampler.sample_h(RngStream(44).generator(), 0.2, 1.2, 0.7)
        b = sampler.sample_h(RngStream(44).generator(), 0.2, 1.2, 0.7)
        assert a == b


class TestSampleI:
    def test_no_input_is_zero(self, two_atoms):
        c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.2),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              t_max=2.0)
        g = RngStream(45).generator()
        assert np.all(get_sampler(c).sample_i(g, 0.1, 1.4, size=500) == 0.0)

    def test_transform_piecewise(self, pc_coeffs):
        s, t = 0.2, 1.4
        eng = get_kernels(pc_coeffs)
        sampler = get_sampler(pc_coeffs)
        analytic, _ = eng.laplace_I(s, t, _grid())
        cmp = transform_comparison(
            lambda g, m: sampler.sample_i(g, s, t, size=m),
            analytic, _grid(), N, seed=46, label="I")
        assert cmp.passed

    def test_gamma_law_moments(self):
        # constant alpha: the law is Gamma(alpha, p(s, t))
        alpha = 1.8
        c = cj.CoefficientSet(a=cj.constant(alpha * 0.5),
                              a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              t_max=2.0)
        s, t = 0.2, 1.4
        kv = get_kernels(c).kernel_value(s, t)
        sampler = get_sampler(c)
        stats = mc_statistics(lambda g, m: sampler.sample_i(g, s, t, size=m),
                              N, _grid(), seed=47)
        mc = moment_check_from_sums(stats, alpha / kv.p, alpha / kv.p ** 2)
        assert mc.passed

    def test_piece_grid_is_knots(self, pc_coeffs):
        # piecewise-constant a and sigma: one cell per constant-alpha piece,
        # whatever n_cells asks for
        coarse = cj.TransitionSampler(pc_coeffs, n_cells=1)
        fine = cj.TransitionSampler(pc_coeffs, n_cells=64)
        for s, t, want in ((0.2, 1.4, [0.2, 0.6, 0.7, 1.4]),
                           (0.65, 1.9, [0.65, 0.7, 1.9]),
                           (0.6, 0.7, [0.6, 0.7])):
            assert coarse.i_grid(s, t).tolist() == want
            assert fine.i_grid(s, t).tolist() == want
        a = coarse.sample_i(RngStream(65).generator(), 0.2, 1.4, size=2000)
        b = fine.sample_i(RngStream(65).generator(), 0.2, 1.4, size=2000)
        assert np.array_equal(a, b)

    def test_constant_coefficients_one_gamma(self):
        # a single piece: I_{s,t} is Gamma(alpha, scale D(s, t)) drawn as is
        alpha = 1.8
        c = cj.CoefficientSet(a=cj.constant(alpha * 0.5),
                              a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              t_max=2.0)
        s, t = 0.2, 1.4
        sampler = cj.TransitionSampler(c)
        _, D = sampler.kernels.bd(s, t)
        got = sampler.sample_i(RngStream(66).generator(), s, t, size=1000)
        want = RngStream(66).generator().gamma(alpha, D, 1000)
        assert np.array_equal(got, want)

    def test_knot_aligned_interval_transform(self, pc_coeffs):
        # both ends on knots (a jumps at 0.6, sigma at 0.7): a single cell,
        # checked against the quadrature transform
        s, t = 0.6, 0.7
        sampler = get_sampler(pc_coeffs)
        assert sampler.i_grid(s, t).size == 2
        analytic, _ = get_kernels(pc_coeffs).laplace_I(s, t, _grid())
        cmp = transform_comparison(
            lambda g, m: sampler.sample_i(g, s, t, size=m),
            analytic, _grid(), N, seed=67, label="I-knots")
        assert cmp.passed

    def test_non_piecewise_alpha_is_refined(self):
        c = cj.CoefficientSet(a=cj.piecewise_linear([0.0, 2.0], [0.2, 2.0]),
                              a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              t_max=2.0)
        assert cj.TransitionSampler(c, n_cells=16).i_grid(0.2, 1.8).size == 17
        assert cj.TransitionSampler(c, n_cells=4).i_grid(0.2, 1.8).size == 5

    def test_refinement_ladder(self):
        # piecewise-linear input rate: the cell law is only exact in the
        # limit, and the transform discrepancy shrinks as the grid refines
        c = cj.CoefficientSet(a=cj.piecewise_linear([0.0, 2.0], [0.2, 2.0]),
                              a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              t_max=2.0)
        s, t = 0.2, 1.8
        eng = get_kernels(c)
        analytic, _ = eng.laplace_I(s, t, _grid())
        disc = []
        for n in (1, 4, 16):
            sampler = cj.TransitionSampler(c, n_cells=n)
            stats = mc_statistics(
                lambda g, m: sampler.sample_i(g, s, t, size=m),
                N, _grid(), seed=48)
            disc.append(float(np.max(np.abs(stats["mean"] - analytic))))
        noise = 4.0 * 1.0 / math.sqrt(N)
        assert disc[1] <= disc[0] + noise
        assert disc[2] <= disc[1] + noise
        assert disc[2] < disc[0]

    def test_skew_convolution(self, pc_coeffs):
        # I_{t1,t2} propagated through H(t2, t3) plus fresh I_{t2,t3}
        # has the law of I_{t1,t3}
        t1, t2, t3 = 0.2, 0.9, 1.6
        eng = get_kernels(pc_coeffs)
        sampler = get_sampler(pc_coeffs)
        analytic, _ = eng.laplace_I(t1, t3, _grid())

        def draw(g, m):
            v = sampler.sample_i(g, t1, t2, size=m)
            w = sampler.sample_h(g, t2, t3, v)
            return w + sampler.sample_i(g, t2, t3, size=m)

        cmp = transform_comparison(draw, analytic, _grid(), N, seed=49,
                                   label="skew-I")
        assert cmp.passed


class TestPushedCount:
    """A pushed cell [r0, r1] (r1 < t) with constant alpha sends
    Poisson(alpha log1p(c)) points to t, c = D(r0,r1) B(r1,t)/D(r1,t). Its
    transform is ((1 + lam D(r0,t)) / (1 + lam D(r1,t)))^-alpha, its mean
    alpha c D(r1,t), its variance alpha (D(r0,t)^2 - D(r1,t)^2) and its
    zero fraction (1 + c)^-alpha."""

    @pytest.mark.parametrize("alpha,r0,r1,t,c", [
        (1.6, 0.3, 0.43, 1.43, 0.07),     # jump_model's cells: 0.12 and 0.048
        (2.5, 0.3, 0.8, 0.923, 3.0),
        (0.6, 0.3, 0.8, 0.8008, 500.0),
        (0.6, 0.3, 0.8, 0.800001, 4e5),   # the cell ends 1e-6 before t
    ])
    def test_cell_law(self, alpha, r0, r1, t, c):
        # a = 0 past r1: I_{r0,t} is this one pushed cell
        co = cj.CoefficientSet(a=cj.piecewise_constant([r1], [0.5 * alpha, 0.0]),
                               a_tilde=cj.constant(0.0), beta=cj.constant(1.0),
                               sigma=cj.constant(1.0), t_max=2.0)
        sampler = cj.TransitionSampler(co)
        assert sampler.i_grid(r0, t).tolist() == [r0, r1, t]
        bd = sampler.kernels.bd
        (_, d01), (b1, d1), (_, d0) = bd(r0, r1), bd(r1, t), bd(r0, t)
        assert d01 * b1 / d1 == pytest.approx(c, rel=0.1)
        c = d01 * b1 / d1
        lam = _grid()
        stats = mc_statistics(lambda g, m: sampler.sample_i(g, r0, t, size=m),
                              N, lam, seed=70)
        cmp = cj.LaplaceComparison.from_stats(
            stats, ((1.0 + lam * d0) / (1.0 + lam * d1)) ** -alpha, lam)
        assert cmp.passed
        assert moment_check_from_sums(stats, alpha * c * d1,
                                      alpha * (d0 ** 2 - d1 ** 2)).passed
        assert abs(zero_fraction_z(stats["zeros"], N, (1.0 + c) ** -alpha)) <= 4.0

    @pytest.mark.parametrize("t", [0.6 + 1e-6, 1.2])
    def test_sample_i_transform_both_branches(self, pc_coeffs, t):
        # t just past the knot 0.6 makes the cell [0.2, 0.6] end 1e-6 before
        # t (c about 2e5); t = 1.2 pushes two cells with c of 0.12 and 0.048
        s = 0.2
        sampler = get_sampler(pc_coeffs)
        analytic, _ = get_kernels(pc_coeffs).laplace_I(s, t, _grid())
        cmp = transform_comparison(
            lambda g, m: sampler.sample_i(g, s, t, size=m),
            analytic, _grid(), N, seed=73, label=f"I[{s},{t}]")
        assert cmp.passed

    def test_h_and_itilde_keep_their_bits(self, pc_coeffs, two_atoms):
        # H and ITilde skip shape-0 Gammas, which numpy draws as 0 without
        # using the stream: they match the plain numpy calls bit for bit
        sampler = get_sampler(pc_coeffs, two_atoms)
        s, t, y, m = 0.2, 1.2, 0.8, 5000
        B, D = sampler.kernels.bd(s, t)
        g = RngStream(74).generator()
        assert np.array_equal(sampler.sample_h(RngStream(74).generator(),
                                               s, t, y, size=m),
                              g.gamma(g.poisson(y * (B / D), m), D))
        ys = np.array([0.0, 0.3, 2.0])
        g = RngStream(75).generator()
        assert np.array_equal(sampler.sample_h(RngStream(75).generator(),
                                               s, t, ys),
                              g.gamma(g.poisson(ys * (B / D)), D))
        g, ref = RngStream(76).generator(), RngStream(76).generator()
        one = [sampler.sample_h(g, s, t, y) for _ in range(50)]
        assert all(type(x) is float for x in one) and min(one) == 0.0 < max(one)
        assert one == [ref.gamma(ref.poisson(y * (B / D)), D) for _ in range(50)]

        got = sampler.sample_itilde(RngStream(77).generator(), s, t, size=m)
        want = _dense_itilde(sampler, RngStream(77).generator(), s, t, m)
        assert (got > 0.0).any() and np.array_equal(got, want)


def _dense_gamma(g, alpha, scale, m):
    """A batch Gamma as the samplers draw it: the boost below shape 1."""
    if alpha >= 1.0:
        return g.gamma(alpha, scale, m)
    return g.gamma(alpha + 1.0, scale, m) * np.exp(np.log1p(-g.random(m)) / alpha)


def _dense_gamma_counts(g, k, scale):
    x = np.zeros(k.shape)
    pos = k > 0
    x[pos] = g.standard_gamma(k[pos])
    x *= scale
    return x


def _dense_i(sampler, g, s, t, m):
    """A batch of ``sample_i`` written out with plain numpy calls from the
    kernels: the last cell's Gamma, then one Poisson total of the pushed
    cells' points, split over the cells by a multinomial, each point with a
    draw label, a U and a standard exponential."""
    bd, grid = sampler.kernels.bd, sampler.i_grid(s, t)
    x, rates, log_c, scales = np.zeros(m), [], [], []
    for r0, r1 in zip(grid[:-1], grid[1:]):
        alpha = sampler.coeffs.alpha(0.5 * (r0 + r1))
        if alpha <= 0.0:
            continue
        if r1 == t:
            x += _dense_gamma(g, alpha, bd(r0, t)[1], m)
            continue
        log_c.append(math.log1p(bd(r0, r1)[1] * (bd(r1, t)[0] / bd(r1, t)[1])))
        rates.append(alpha * log_c[-1])
        scales.append(bd(r0, t)[1])
    rate = float(np.sum(rates))
    tot = g.poisson(rate * m) if rate > 0.0 else 0
    if tot:
        cell = np.repeat(np.arange(len(rates)),
                         g.multinomial(tot, np.array(rates) / rate))
        idx = g.integers(0, m, tot)
        v = np.array(scales)[cell] * np.exp(-(g.random(tot) * np.array(log_c)[cell]))
        x += np.bincount(idx, weights=v * g.standard_exponential(tot),
                         minlength=m)
    return x


def _dense_itilde(sampler, g, s, t, m):
    """A batch of ``sample_itilde`` written out with plain numpy calls from
    the documented rows of the step's jump table (exact primitives, a
    piecewise-constant a~, atoms): one Poisson total of points, split over
    the entries by a multinomial, a draw label and a U per point, B and D
    from the piece's closed forms at the distance gap to its right end, and
    each point's H count and Gamma."""
    rate, p, (length, _, nbeta, nbc, b_hi, d_hi, size) = \
        sampler._jumps(s, t).entries
    tot = g.poisson(rate * m)
    if not tot:
        return np.zeros(m)
    e = np.repeat(np.arange(p.size), g.multinomial(tot, p))
    idx = g.integers(0, m, tot)
    gap = length[e] * (1.0 - g.random(tot))
    B = b_hi[e] * np.exp(nbeta[e] * gap)
    D = d_hi[e] + nbc[e] * np.expm1(nbeta[e] * gap)
    return np.bincount(idx, minlength=m, weights=_dense_gamma_counts(
        g, g.poisson(size[e] * B / D), D))


def _child(g):
    """ITilde's generator of a batch K: Philox seeded from the next two
    64-bit words of ``g``."""
    words = g.bit_generator.random_raw(2).tolist()
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


class TestSparseBits:
    """Batches draw and add only where there is something to draw; each
    must give the bits of the construction written out above with plain
    numpy calls, and leave the stream where it leaves it."""

    @staticmethod
    def _same(got, want, g, ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert repr(g.bit_generator.state) == repr(ref.bit_generator.state)

    @pytest.mark.parametrize("t", [1.2, 0.6 + 1e-6])
    @pytest.mark.parametrize("m", [0, 1, 5000])
    def test_sample_i(self, pc_coeffs, t, m):
        # t = 1.2 pushes two cells; at 0.6 + 1e-6 the first ends 1e-6 before t
        sampler = get_sampler(pc_coeffs)
        g, ref = RngStream(90).generator(), RngStream(90).generator()
        self._same(sampler.sample_i(g, 0.2, t, size=m),
                   _dense_i(sampler, ref, 0.2, t, m), g, ref)

    @pytest.mark.parametrize("t", [1.2, 0.6 + 1e-6])
    @pytest.mark.parametrize("m", [0, 1, 5000])
    def test_sample_itilde(self, pc_coeffs, two_atoms, t, m):
        sampler = get_sampler(pc_coeffs, two_atoms)
        g, ref = RngStream(91).generator(), RngStream(91).generator()
        self._same(sampler.sample_itilde(g, 0.2, t, size=m),
                   _dense_itilde(sampler, ref, 0.2, t, m), g, ref)

    @pytest.mark.parametrize("k", [
        np.zeros(300, np.int64),                       # all counts 0
        np.zeros(0, np.int64),                         # no counts
        np.array([0, 3, 0, 0, 1, 7, 0, 2] * 40),
        np.array([[0, 2, 1], [4, 0, 0]]),              # any shape
    ], ids=["zeros", "empty", "sparse", "2d"])
    @pytest.mark.parametrize("per_point", [False, True])
    def test_gamma_counts(self, k, per_point):
        scale = (np.linspace(0.1, 2.0, k.size).reshape(k.shape) if per_point
                 else 0.37)
        g, ref = RngStream(92).generator(), RngStream(92).generator()
        got = _gamma_counts(g, k, scale)
        self._same(got, _dense_gamma_counts(ref, k, scale), g, ref)

    @pytest.mark.parametrize("t", [1.2, 0.6 + 1e-6])
    def test_sample_k(self, pc_coeffs, two_atoms, t):
        # a batch of m != 1 draws: two 64-bit words of the stream seed
        # ITilde's own Philox generator, then H and I come from the stream
        # and ITilde from that generator; a batch of one reads the stream
        # as one draw does (H, I, ITilde). The last size is lane-sized
        sampler = get_sampler(pc_coeffs, two_atoms)
        s, y = 0.2, 0.8
        B, D = sampler.kernels.bd(s, t)
        for m in (0, 1, 5000, 2 * LANE_MIN):
            g, ref = RngStream(93).generator(), RngStream(93).generator()
            got = sampler.sample_k(g, s, t, y, size=m)
            child = ref if m == 1 else _child(ref)
            h = ref.gamma(ref.poisson(y * (B / D), m), D)
            i = _dense_i(sampler, ref, s, t, m)
            it = _dense_itilde(sampler, child, s, t, m)
            assert m < 2 or (it > 0.0).any()
            self._same(got, h + i + it, g, ref)

    def test_sample_k_without_jumps(self, pc_coeffs, two_atoms):
        # no jump measure, or no jump rate on the step: no words are read,
        # and a batch is H then I from the stream
        no_rate = dataclasses.replace(pc_coeffs, a_tilde=cj.constant(0.0))
        s, t, y = 0.2, 1.2, 0.8
        for sampler in (get_sampler(pc_coeffs), get_sampler(no_rate, two_atoms)):
            B, D = sampler.kernels.bd(s, t)
            for m in (5000, 2 * LANE_MIN):
                g, ref = RngStream(95).generator(), RngStream(95).generator()
                got = sampler.sample_k(g, s, t, y, size=m)
                h = ref.gamma(ref.poisson(y * (B / D), m), D)
                self._same(got, h + _dense_i(sampler, ref, s, t, m), g, ref)

    def test_sample_k_any_shape_of_y(self, pc_coeffs, two_atoms):
        # one independent draw per element, as for the flattened y
        sampler = get_sampler(pc_coeffs, two_atoms)
        for shape in [(2, 2), (3, 2), (2, 3, 4)]:
            y = np.linspace(0.0, 3.0, math.prod(shape)).reshape(shape)
            g, ref = RngStream(94).generator(), RngStream(94).generator()
            got = sampler.sample_k(g, 0.2, 1.2, y)
            want = sampler.sample_k(ref, 0.2, 1.2, y.ravel()).reshape(shape)
            self._same(got, want, g, ref)


class _CountingExecutor(ThreadPoolExecutor):
    """The lane's executor, noting at each submit how many of its jobs had
    not finished: a job submitted behind another waits for it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.jobs, self.waiting = [], []

    def submit(self, *args, **kwargs):
        self.waiting.append(sum(not job.done() for job in self.jobs))
        self.jobs.append(super().submit(*args, **kwargs))
        return self.jobs[-1]


@pytest.fixture(params=[2, 4], ids=["2cores", "4cores"])
def lane(request, monkeypatch):
    """A fresh lane that takes 2 or 4 usable cores as given, so that a
    lane-sized batch uses it on any machine, with a counting executor; its
    thread ends with the test."""
    monkeypatch.setattr(samplers, "ThreadPoolExecutor", _CountingExecutor)
    lane = samplers._Lane()
    lane.cores = request.param
    monkeypatch.setattr(samplers, "_LANE", lane)
    yield lane
    if lane.pool is not None:
        lane.pool.shutdown(wait=True)


class TestConcurrentK:
    """A batch K of ``LANE_MIN`` draws or more draws ITilde on the lane, a
    second thread, from its own generator: its bits do not depend on the
    lane, the cores or the scheduling of threads, and its errors are those
    of one thread."""

    def test_one_batch_at_a_time_on_the_lane(self, lane):
        # whatever the cores, a batch that draws while another does goes
        # inline: the lane's one thread never has a job waiting
        with lane.slot() as first, lane.slot() as second, lane.slot() as third:
            assert first is not None and first is lane.pool
            assert second is None and third is None and lane.drawing == 3
        with lane.slot() as again:
            assert again is lane.pool and lane.drawing == 1
        assert lane.drawing == 0

    def test_lane_and_inline_give_the_same_bits(self, pc_coeffs, two_atoms,
                                                monkeypatch, lane):
        # one usable core draws ITilde inline: the same generator, the same
        # bits and the same stream state after the call
        sampler = get_sampler(pc_coeffs, two_atoms)
        out = []
        for use in (lane, samplers._Lane()):
            use.cores = 1 if use is not lane else use.cores
            monkeypatch.setattr(samplers, "_LANE", use)
            g = RngStream(96).generator()
            out.append((sampler.sample_k(g, 0.2, 1.2, 0.8, size=2 * LANE_MIN),
                        repr(g.bit_generator.state)))
            assert (use.pool is None) == (use is not lane) and use.drawing == 0
        assert np.array_equal(out[0][0], out[1][0]) and out[0][1] == out[1][1]

    def test_threads_share_a_fresh_sampler(self, pc_coeffs, exp_density,
                                           lane):
        # as many threads as cores or more, switching often, on one fresh
        # sampler (cold step records, jump tables and mark table): each
        # thread draws what the same calls draw in sequence, no job waited
        # for the lane, and every batch has left the lane's count when the
        # threads end
        def draws(sampler, seed):
            g = RngStream(97, seed).generator()
            x = sampler.sample_k(g, 0.2, 0.7, 0.8, size=2 * LANE_MIN)
            return [x, sampler.sample_k(g, 0.7, 1.2, x),       # y an array
                    sampler.sample_k(g, 0.0, 2.0, 0.8, size=LANE_MIN),
                    sampler.sample_k(g, 0.3, 1.7, 0.8, size=5000),
                    sampler.sample_k(g, 0.2, 1.2, 0.8, size=1)]

        n = 4
        alone = cj.TransitionSampler(pc_coeffs, exp_density)
        want = [draws(alone, seed) for seed in range(n)]
        shared = cj.TransitionSampler(pc_coeffs, exp_density)
        got = [None] * n
        start = threading.Barrier(n)

        def run(seed):
            start.wait(timeout=30)
            got[seed] = draws(shared, seed)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert lane.pool is not None and lane.drawing == 0
        assert lane.pool.jobs and not any(lane.pool.waiting)
        for a, b in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_mc_statistics_same_bytes_at_1_and_2_workers(self, pc_coeffs,
                                                          two_atoms, lane):
        sampler = get_sampler(pc_coeffs, two_atoms)

        def draw(g, m):
            return sampler.sample_k(g, 0.2, 1.2, 0.8, size=m)

        one, two = (mc_statistics(draw, 8 * LANE_MIN, _grid(), seed=98,
                                  workers=w, chunk_size=2 * LANE_MIN)
                    for w in (1, 2))
        assert set(one) == set(two)
        for key in one:
            assert np.asarray(one[key]).tobytes() == np.asarray(two[key]).tobytes()

    @pytest.mark.parametrize("case", ["max_points", "restrictive", "no_mass"])
    def test_itilde_errors_from_the_lane(self, pc_coeffs, rho04, rho07, case,
                                         lane):
        # ITilde's error comes out of the lane as it came out of one
        # thread; an error of H raised meanwhile comes first, and no batch
        # is left on the lane after either
        if case == "max_points":     # the automatic delta: 1e23 jumps a draw
            sampler = cj.TransitionSampler(pc_coeffs, rho04)
            err, match = InvalidDelta, None
        elif case == "restrictive":
            sampler = cj.TransitionSampler(pc_coeffs, rho07, delta=0.05)
            err, match = RestrictiveConditionViolated, None
        else:   # a density without mass above delta has no mark table
            box = cj.density_measure(
                lambda y: np.where(np.asarray(y) < 1.0, 1.0, 0.0), rho=None,
                label="box")
            sampler = cj.TransitionSampler(pc_coeffs, box, delta=2.0)
            err, match = ValueError, "no mass"
        g = RngStream(99).generator()
        for _ in range(2):
            with pytest.raises(err, match=match):
                sampler.sample_k(g, 0.2, 1.2, 0.8, size=2 * LANE_MIN)
            # H's Poisson mean y B/D is past what numpy draws
            with pytest.raises(ValueError, match="lam value too large"):
                sampler.sample_k(g, 0.2, 1.2, 1e300, size=2 * LANE_MIN)
        assert lane.pool is not None and lane.drawing == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_lane(self, pc_coeffs, two_atoms,
                                             lane):
        # a child forked after the lane started has no lane thread: it must
        # make its own, not queue work for a thread that does not exist
        sampler = get_sampler(pc_coeffs, two_atoms)

        def draw():
            return sampler.sample_k(RngStream(100).generator(), 0.2, 1.2, 0.8,
                                    size=2 * LANE_MIN)

        want = draw()
        assert lane.pool is not None
        pid = os.fork()
        if pid == 0:    # the child: exit 0 when its own lane draws the
            code = 2    # parent's values, also on a one-core machine
            try:
                own = samplers._LANE
                if own is not lane:
                    own.cores = 2
                    code = 0 if (np.array_equal(draw(), want)
                                 and own.pool is not None) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its draw")
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        assert os.waitstatus_to_exitcode(status) == 0


class TestGammaBoost:
    """``_gamma`` draws Gamma(alpha, scale): as Gamma(alpha + 1) V^(1/alpha)
    for an array with alpha < 1, as ``g.gamma`` otherwise."""

    @pytest.mark.parametrize("alpha", [0.02, 0.3, 0.6, 0.7111, 0.999])
    def test_transform(self, alpha):
        scale = 0.8
        cmp = transform_comparison(
            lambda g, m: _gamma(g, alpha, scale, m),
            (1.0 + _grid() * scale) ** -alpha, _grid(), N, seed=78,
            label=f"Gamma({alpha})")
        assert cmp.passed

    @pytest.mark.parametrize("alpha,size", [(0.6, None), (1.0, 500), (2.5, 500)])
    def test_numpy_bits_where_no_boost(self, alpha, size):
        g, ref = RngStream(79).generator(), RngStream(79).generator()
        got = [_gamma(g, alpha, 0.8, size) for _ in range(50)]
        want = [ref.gamma(alpha, 0.8, size) for _ in range(50)]
        assert np.array_equal(got, want)

    def test_extreme_uniforms(self):
        # U = 0 gives V = 1; the largest U gives V = 2^-53, no log(0)
        class Uniforms:
            def __init__(self):
                self.g = RngStream(80).generator()

            def random(self, size):
                return np.array([0.0, 1.0 - 2.0 ** -53])

            def __getattr__(self, name):
                return getattr(self.g, name)

        x = _gamma(Uniforms(), 0.5, 1.0, 2)
        ref = RngStream(80).generator().gamma(1.5, 1.0, 2)
        assert x[0] == ref[0]
        assert x[1] == pytest.approx(ref[1] * 2.0 ** -106, rel=1e-13)


class TestSampleItilde:
    def test_no_jump_input_is_zero(self, pc_coeffs, two_atoms):
        c = cj.CoefficientSet(a=pc_coeffs.a, a_tilde=cj.constant(0.0),
                              beta=pc_coeffs.beta, sigma=pc_coeffs.sigma,
                              t_max=2.0)
        g = RngStream(50).generator()
        sampler = get_sampler(c, two_atoms)
        assert np.all(sampler.sample_itilde(g, 0.2, 1.2, size=400) == 0.0)

    def test_transform_unit_atom(self, pc_coeffs):
        nu = cj.atoms([(0.9, 1.3)])
        s, t = 0.2, 1.6
        eng = get_kernels(pc_coeffs, nu)
        sampler = get_sampler(pc_coeffs, nu)
        analytic, _ = eng.laplace_Itilde(s, t, _grid())
        cmp = transform_comparison(
            lambda g, m: sampler.sample_itilde(g, s, t, size=m),
            analytic, _grid(), N, seed=51, label="Itilde")
        assert cmp.passed

    def test_transform_truncated_infinite_activity(self, pc_coeffs, rho04):
        # sampler at truncation delta is exact for the restricted measure
        delta = 0.05
        s, t = 0.2, 1.2
        sampler = cj.TransitionSampler(pc_coeffs, rho04, delta=delta)
        eng = cj.TransitionKernels(pc_coeffs, rho04.truncated(delta))
        analytic, _ = eng.laplace_Itilde(s, t, _grid())
        cmp = transform_comparison(
            lambda g, m: sampler.sample_itilde(g, s, t, size=m),
            analytic, _grid(), N, seed=52, label="Itilde-rho04")
        assert cmp.passed

    def test_jump_count_mean(self, pc_coeffs, two_atoms):
        s, t = 0.2, 1.6
        sampler = get_sampler(pc_coeffs, two_atoms)
        g = RngStream(53).generator()
        reps = 3000
        counts = np.array([len(sampler.sample_prm(g, s, t))
                           for _ in range(reps)], dtype=float)
        expected = two_atoms.mass_above(0.0) \
            * pc_coeffs.a_tilde.integral(s, t)
        se = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - expected) <= 3 * se

    def test_truncated_atoms_consistency(self, pc_coeffs, two_atoms):
        # delta = 1.0 drops the small atom; the sampler then has exactly
        # the law of the restricted measure. Seed 64 gave z down to -3.26
        # once the driving measure was drawn as one Poisson total; over
        # seeds 1000-1199 this comparison fails once with either stream
        s, t = 0.2, 1.4
        sampler = cj.TransitionSampler(pc_coeffs, two_atoms, delta=1.0)
        eng = cj.TransitionKernels(pc_coeffs, two_atoms.truncated(1.0))
        analytic, _ = eng.laplace_Itilde(s, t, _grid())
        cmp = transform_comparison(
            lambda g, m: sampler.sample_itilde(g, s, t, size=m),
            analytic, _grid(), 60_000, seed=65, label="Itilde-cut-atoms")
        assert cmp.passed

    def test_skew_convolution(self, pc_coeffs, two_atoms):
        t1, t2, t3 = 0.2, 0.9, 1.6
        eng = get_kernels(pc_coeffs, two_atoms)
        sampler = get_sampler(pc_coeffs, two_atoms)
        analytic, _ = eng.laplace_Itilde(t1, t3, _grid())

        def draw(g, m):
            v = sampler.sample_itilde(g, t1, t2, size=m)
            w = sampler.sample_h(g, t2, t3, v)
            return w + sampler.sample_itilde(g, t2, t3, size=m)

        cmp = transform_comparison(draw, analytic, _grid(), N, seed=54,
                                   label="skew-Itilde")
        assert cmp.passed


def _fallback(name, pc_coeffs, two_atoms, exp_density):
    """(coefficients, jump measure) on which the jump table takes each of
    its branches: the closed forms, thinning against a clipped-sine a~ (its
    clipping adds knots), a tabulated primitive table, and the marks of a
    density."""
    co, nu = pc_coeffs, two_atoms
    if name == "sine_a_tilde":
        co = dataclasses.replace(co, a_tilde=cj.clipped_sine(0.1, 0.5, 3.0))
    elif name == "tabulated":
        co = dataclasses.replace(co, beta=cj.clipped_sine(0.3, 0.6, 2.0, 0.5),
                                 sigma=cj.clipped_sine(1.2, 0.3, 2.0))
    elif name == "density":
        nu = exp_density
    return co, nu


class _Edges(np.random.Generator):
    """A generator whose uniforms are 0 and 1 - 2^-53 in turn."""

    def random(self, size=None, dtype=np.float64, out=None):
        return 0.0 if size is None else np.resize([0.0, 1.0 - 2.0 ** -53], size)


FALLBACKS = ["closed_form", "sine_a_tilde", "tabulated", "density"]


class TestJumpTable:
    """The driving measure drawn entry by entry from the step's jump table,
    on each of its branches."""

    @pytest.mark.parametrize("name", FALLBACKS[1:])
    def test_fallback_law(self, name, pc_coeffs, two_atoms, exp_density):
        co, nu = _fallback(name, pc_coeffs, two_atoms, exp_density)
        sampler = cj.TransitionSampler(co, nu)
        s, t = 0.2, 1.6
        analytic, _ = get_kernels(co, nu).laplace_Itilde(s, t, _grid())
        cmp = transform_comparison(
            lambda g, m: sampler.sample_itilde(g, s, t, size=m),
            analytic, _grid(), 2 ** 18, seed=86, label=f"Itilde-{name}")
        assert cmp.passed

    @pytest.mark.parametrize("name", FALLBACKS)
    def test_extreme_uniforms(self, name, pc_coeffs, two_atoms, exp_density):
        # U = 0 puts a jump at its piece's left end; U = 1 - 2^-53 puts it
        # within an ulp of the right end, which for the last piece rounds to
        # t unless it is held below t. Two steps are refused, by one error
        # line: bd_vec forms D(T, t) as a difference of primitives, which is
        # 0 an ulp below t (a cancellation-free bd would resolve it); and a
        # density's top mark (U = 1 - 2^-53 again) 6e-18 before t has an H
        # count of mean 1.1e19, past what numpy draws
        refused = {("tabulated", 1.2), ("density", 0.4)}
        co, nu = _fallback(name, pc_coeffs, two_atoms, exp_density)
        sampler = cj.TransitionSampler(co, nu)
        for s, t in ((0.2, 1.2), (0.0, 2.0), (0.35, 0.4)):
            idx, times, sizes, b, d = sampler.prm_points_batch(
                _Edges(np.random.PCG64(87)), s, t, 2000)
            assert times.size > 20
            assert times.min() >= s and times.max() < t
            assert np.isfinite(sizes).all() and (sizes > 0.0).all()
            assert np.isfinite(b).all() and (b > 0.0).all()
            assert np.isfinite(d).all() and (d >= 0.0).all()
            draw = lambda: sampler.sample_itilde(_Edges(np.random.PCG64(87)),
                                                 s, t, size=2000)
            if (name, t) in refused:
                with pytest.raises(DegenerateInterval, match="too small"):
                    draw()
                continue
            assert (d > 0.0).all()
            x = draw()
            assert np.isfinite(x).all() and (x > 0.0).any()

    @pytest.mark.parametrize("beta", [(0.5, 2.0, 1.0), (0.5, 0.0, 1.0)],
                             ids=["positive", "flat"])
    def test_closed_forms_match_the_kernels(self, pc_coeffs, two_atoms, beta):
        # B(T, t) and D(T, t) of every drawn point, from its piece's right
        # end, against kernels.bd at T, which subtracts the primitives: away
        # from t, where that difference keeps its digits, they agree to
        # 1e-12. The flat case has beta = 0 on [0.4, 1.1)
        co = dataclasses.replace(
            pc_coeffs, beta=cj.piecewise_constant([0.4, 1.1], list(beta)))
        sampler = cj.TransitionSampler(co, two_atoms)
        s, t = 0.2, 1.2
        _, times, _, b, d = sampler.prm_points_batch(
            RngStream(88).generator(), s, t, 20_000)
        far = times < t - 0.01
        assert far.mean() > 0.95
        want_b, want_d = sampler.kernels.bd(times[far], t)
        assert np.allclose(b[far], want_b, rtol=1e-12, atol=0.0)
        assert np.allclose(d[far], want_d, rtol=1e-12, atol=0.0)


class TestSampleK:
    def test_reduces_to_H(self, two_atoms):
        c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              t_max=2.0)
        s, t, y = 0.2, 1.2, 0.9
        eng = get_kernels(c, two_atoms)
        kv = eng.kernel_value(s, t)
        sampler = get_sampler(c, two_atoms)
        stats = mc_statistics(lambda g, m: sampler.sample_k(g, s, t, y, size=m),
                              N, _grid(), seed=55)
        mc = moment_check_from_sums(stats, y * kv.B, 2 * y * kv.B / kv.p)
        assert mc.passed
        zf = zero_fraction_z(stats["zeros"], N, math.exp(-y * kv.gamma))
        assert abs(zf) <= 4.0

    def test_full_model_transform(self, pc_coeffs, two_atoms):
        from cirjump.verify import compare_component
        cmp = compare_component(pc_coeffs, two_atoms, 0.2, 1.2, 0.8, "K",
                                N, _grid(), seed=56)
        assert cmp.passed

    def test_two_step_consistency(self, pc_coeffs, two_atoms):
        from cirjump.verify import chapman_kolmogorov
        cmp = chapman_kolmogorov(pc_coeffs, two_atoms, 0.2, 0.7, 1.2, 0.8,
                                 N, _grid(), seed=57)
        assert cmp.passed


class TestPrmAndGates:
    def test_draw_labels_split_one_poisson_total(self, pc_coeffs, two_atoms):
        # the points per draw of a batch are i.i.d. Poisson(mass * int a~)
        s, t = 0.2, 1.2
        sampler = get_sampler(pc_coeffs, two_atoms)
        idx = sampler.prm_points_batch(RngStream(81).generator(), s, t, N)[0]
        k = np.bincount(idx, minlength=N)
        assert k.size == N
        law = stats.poisson(two_atoms.mass_above(0.0)
                            * pc_coeffs.a_tilde.integral(s, t))
        top = int(law.isf(5.0 / N))     # counts of top and up share one bin
        observed = np.bincount(np.minimum(k, top), minlength=top + 1)
        expected = np.append(law.pmf(np.arange(top)), law.sf(top - 1)) * N
        assert stats.chisquare(observed, expected).pvalue > ALPHA
        lag1 = np.corrcoef(k[:-1], k[1:])[0, 1]
        assert abs(lag1) <= 4.0 / math.sqrt(N)

    def test_prm_ordered_and_above_delta(self, pc_coeffs, rho04):
        sampler = cj.TransitionSampler(pc_coeffs, rho04, delta=0.05)
        g = RngStream(58).generator()
        prm = sampler.sample_prm(g, 0.0, 2.0)
        assert np.all(np.diff(prm.times) > 0)
        assert np.all(prm.sizes > 0.05 * (1 - 1e-12))
        assert prm.delta == 0.05

    def test_infinite_activity_delta_zero_rejected(self, pc_coeffs, rho04):
        sampler = cj.TransitionSampler(pc_coeffs, rho04, delta=0.0)
        g = RngStream(59).generator()
        with pytest.raises(InvalidDelta):
            sampler.sample_itilde(g, 0.2, 1.2, size=4)

    def test_unsamplable_delta_rejected_before_drawing(self, pc_coeffs, rho04):
        # the automatic level for rho = 0.4 is 6.8e-59: about 1e23 jumps per
        # draw, refused before the Poisson count reads the stream
        sampler = cj.TransitionSampler(pc_coeffs, rho04)
        g = RngStream(62).generator()
        with pytest.raises(InvalidDelta, match="expected jumps per draw"):
            sampler.sample_itilde(g, 0.2, 1.2, size=4)
        assert np.array_equal(g.random(4), RngStream(62).generator().random(4))

    def test_no_points_are_shared_and_read_only(self, pc_coeffs, two_atoms):
        # no jump intensity: every call returns the one empty triple
        co = cj.CoefficientSet(a=pc_coeffs.a, a_tilde=cj.constant(0.0),
                               beta=pc_coeffs.beta, sigma=pc_coeffs.sigma,
                               t_max=pc_coeffs.t_max)
        sampler = cj.TransitionSampler(co, two_atoms)
        g = RngStream(63).generator()
        first = sampler.prm_points_batch(g, 0.2, 1.2, 8)
        assert first is sampler.prm_points_batch(g, 0.2, 1.2, None)
        assert [a.size for a in first] == [0] * 5
        assert not any(a.flags.writeable for a in first)

    def test_restrictive_gate_blocks_sampling(self, pc_coeffs, rho07):
        sampler = cj.TransitionSampler(pc_coeffs, rho07, delta=0.05)
        g = RngStream(60).generator()
        with pytest.raises(RestrictiveConditionViolated):
            sampler.sample_itilde(g, 0.2, 1.2, size=4)

    def test_all_outputs_nonnegative(self, pc_coeffs, two_atoms):
        g = RngStream(61).generator()
        sampler = get_sampler(pc_coeffs, two_atoms)
        x = sampler.sample_k(g, 0.2, 1.2, 0.8, size=5000)
        assert np.all(x >= 0.0)


class TestNumericKernelBranch:
    def test_sampling_with_nonpiecewise_coefficients(self):
        # clipped-sine mean reversion (with genuine clipping kinks) and
        # sine volatility exercise the tabulated primitive branch end to
        # end: H and the jump component stay exact samplers, so any
        # interpolation bias in the kernel tables would show up as z-drift
        c = cj.CoefficientSet(a=cj.constant(0.0),
                              a_tilde=cj.constant(0.4),
                              beta=cj.clipped_sine(0.3, 0.6, 2.0, 0.5),
                              sigma=cj.clipped_sine(1.2, 0.3, 2.0, 0.0),
                              x0=0.5, t_max=2.0)
        nu = cj.atoms([(0.9, 1.0)])
        from cirjump.errors import BetaNotStrictlyPositiveWarning
        from cirjump.verify import compare_component
        # the clipped mean reversion touches zero, so the transform warns
        # that it is applied outside its proved hypothesis; this comparison
        # is the Monte Carlo verification of exactly that case
        with pytest.warns(BetaNotStrictlyPositiveWarning):
            cmp = compare_component(c, nu, 0.2, 1.6, 0.7, "K", N, _grid(),
                                    seed=63)
        assert cmp.passed


DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                            "configs")


def _demo_sampler(name):
    """A fresh sampler (its own step records) on a demo configuration."""
    cfg = cj.load_config(os.path.join(DEMO_CONFIGS, name + ".yaml"))
    return cj.TransitionSampler(cfg.coeffs, cfg.nu, n_cells=cfg.n_cells,
                                delta=cfg.delta), cfg


class TestStepRecord:
    """Each sampler keeps one record per (s, t) of what a step draws with;
    drawing from a cached record must give the bits of a fresh one."""

    @pytest.mark.parametrize("name", ["jump_model", "infinite_activity",
                                      "classical_cir"])
    def test_hit_equals_miss(self, name):
        sampler, cfg = _demo_sampler(name)
        # the run's interval, one across every knot, and one just past the
        # knot of a at 0.6, where jump_model's first I cell is a mixture
        for s, t in ((cfg.s, cfg.t), (0.0, 2.0), (0.2, 0.6 + 1e-6)):
            for comp in COMPONENTS.values():
                def draw(seed, n):
                    return comp.draw(sampler, RngStream(seed).generator(),
                                     s, t, cfg.y, n)

                sampler._step.cache_clear()
                sampler._jumps.cache_clear()
                miss = draw(80, 1000)
                assert np.array_equal(draw(80, 1000), miss)
                g, ref = RngStream(81).generator(), RngStream(81).generator()
                hits = [comp.draw(sampler, g, s, t, cfg.y, None)
                        for _ in range(40)]
                misses = []
                for _ in range(40):
                    sampler._step.cache_clear()
                    sampler._jumps.cache_clear()
                    misses.append(comp.draw(sampler, ref, s, t, cfg.y, None))
                assert hits == misses
                assert [type(x) for x in hits] == [type(x) for x in misses]

    def test_unresolved_d_is_refused(self):
        # one ulp below t = 1.0 the primitive table gives D = 0: the record,
        # which divides by D(s, t) and by D(r1, t) of a pushed cell, refuses
        # the step on every call instead of dividing by zero
        r1 = math.nextafter(1.0, 0.0)
        co = cj.CoefficientSet(a=cj.piecewise_constant([r1], [0.3, 0.8]),
                               a_tilde=cj.constant(0.0), beta=cj.constant(1.0),
                               sigma=cj.constant(1.0), t_max=2.0)
        sampler = cj.TransitionSampler(co)
        assert sampler.i_grid(0.5, 1.0).tolist() == [0.5, r1, 1.0]
        assert sampler.kernels.bd(r1, 1.0)[1] == 0.0 < sampler.kernels.bd(0.5, 1.0)[1]
        g = RngStream(82).generator()
        for s in (r1, 0.5):     # D(s, t) = 0, then D(r1, t) = 0 of a pushed cell
            for _ in range(2):
                with pytest.raises(DegenerateInterval, match="not positive"):
                    sampler.sample_k(g, s, 1.0, 0.5, size=4)

    @pytest.mark.parametrize("model", ["heavy", "two_atoms"])
    def test_scalar_itilde_is_size_one(self, pc_coeffs, two_atoms, model):
        if model == "heavy":
            # heavy atoms and a high jump rate: about 160 jumps a draw, so a
            # pairwise sum would round differently from the sequential one
            c = cj.CoefficientSet(a=pc_coeffs.a, a_tilde=cj.constant(20.0),
                                  beta=pc_coeffs.beta, sigma=pc_coeffs.sigma,
                                  t_max=2.0)
            sampler, n = get_sampler(c, cj.atoms([(0.7, 5.0), (1.8, 3.0)])), 200
        else:
            # no, one or a few jumps a draw, some of them pushed to 0 by H
            sampler, n = get_sampler(pc_coeffs, two_atoms), 2000
        g = RngStream(82).generator()
        got, want, points = [], [], []
        for _ in range(n):
            one, batch = copy.deepcopy(g), copy.deepcopy(g)
            drawn = sampler.prm_points_batch(one, 0.2, 1.2, None)
            for x, y in zip(drawn, sampler.prm_points_batch(batch, 0.2, 1.2, 1)):
                assert x.dtype == y.dtype and np.array_equal(x, y)
            assert repr(one.bit_generator.state) == repr(batch.bit_generator.state)
            points.append(drawn[1].size)
            clone = copy.deepcopy(g)
            got.append(sampler.sample_itilde(g, 0.2, 1.2))
            want.append(float(sampler.sample_itilde(clone, 0.2, 1.2, size=1)[0]))
            assert g.random() == clone.random()   # the same stream read
        assert got == want
        if model == "heavy":
            assert min(got) > 0.0
        else:
            assert sum(k > 1 for k in points) > 0
            assert sum(k > 0 and x == 0.0 for k, x in zip(points, got)) > 0

    def test_threads_share_a_fresh_sampler(self):
        # four threads switching often: concurrent first draws on one
        # interval may build its record more than once, and every thread
        # still draws what it draws alone
        intervals = [(0.125 * k, 0.125 * (k + 1)) for k in range(16)]

        def path(sampler, seed):
            g, x = RngStream(83, seed).generator(), [0.8]
            for s, t in intervals:
                x.append(sampler.sample_k(g, s, t, x[-1]))
            return x

        n = 4
        alone, _ = _demo_sampler("jump_model")
        want = [path(alone, seed) for seed in range(n)]
        shared, _ = _demo_sampler("jump_model")
        got = [None] * n
        start = threading.Barrier(n)

        def run(seed):
            start.wait(timeout=30)
            got[seed] = path(shared, seed)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == want

    def test_cache_is_bounded(self, pc_coeffs, two_atoms):
        sampler = cj.TransitionSampler(pc_coeffs, two_atoms)
        g = RngStream(84).generator()
        for t in np.linspace(0.5, 1.5, 5000):
            sampler.sample_h(g, 0.2, t, 0.8)
        info = sampler._step.cache_info()
        assert info.maxsize == STEP_CACHE
        assert info.misses == 5000 and info.currsize <= STEP_CACHE

    def test_invalid_interval_raises_every_time(self, pc_coeffs, two_atoms):
        sampler = cj.TransitionSampler(pc_coeffs, two_atoms)
        g = RngStream(85).generator()
        for s, t in ((1.2, 1.2), (1.2, 0.2), (0.2, 2.5), (-0.1, 0.5)):
            for comp in COMPONENTS.values():
                for _ in range(2):
                    with pytest.raises(DegenerateInterval):
                        comp.draw(sampler, g, s, t, 0.8, None)
        assert sampler._step.cache_info().currsize == 0


class TestTransitionLaw:
    """The component table: each law's transform and draws, by name."""

    def test_descriptor_sample_and_laplace(self, pc_coeffs, two_atoms):
        law = get_component("K")
        sampler = get_sampler(pc_coeffs, two_atoms)
        stats = mc_statistics(
            lambda g, m: law.draw(sampler, g, 0.2, 1.2, 0.8, m),
            50_000, [1.0], seed=62)
        analytic = law.laplace(sampler.kernels, 0.2, 1.2, 0.8, 1.0)[0]
        assert abs(stats["mean"][0] - analytic) <= 4 * stats["std_err"][0]

    def test_invalid_component(self):
        with pytest.raises(ValueError):
            get_component("X")

    def test_degenerate_times(self, pc_coeffs, two_atoms):
        eng = get_kernels(pc_coeffs, two_atoms)
        for law in COMPONENTS.values():
            with pytest.raises(DegenerateInterval):
                law.laplace(eng, 1.2, 1.2, 0.0, 1.0)

    def test_table_matches_engine_methods(self, pc_coeffs, two_atoms):
        # each entry calls its own law's methods; y reaches only the laws
        # that start from a mass
        eng = get_kernels(pc_coeffs, two_atoms)
        sampler = get_sampler(pc_coeffs, two_atoms)
        s, t, y, lam = 0.2, 1.2, 0.8, _grid()
        expected = {
            "K": (eng.laplace_K(s, t, y, lam),
                  lambda g: sampler.sample_k(g, s, t, y, size=64)),
            "H": (eng.laplace_H(s, t, y, lam),
                  lambda g: sampler.sample_h(g, s, t, y, size=64)),
            "I": (eng.laplace_I(s, t, lam),
                  lambda g: sampler.sample_i(g, s, t, size=64)),
            "Itilde": (eng.laplace_Itilde(s, t, lam),
                       lambda g: sampler.sample_itilde(g, s, t, size=64)),
        }
        assert set(COMPONENTS) == set(expected)
        for name, (transform, draw) in expected.items():
            law = COMPONENTS[name]
            assert np.array_equal(law.laplace(eng, s, t, y, lam)[0], transform[0])
            assert np.array_equal(law.draw(sampler, RngStream(68).generator(),
                                           s, t, y, 64),
                                  draw(RngStream(68).generator()))
