import math
import os

import numpy as np
import pytest

import cirjump as cj
from cirjump.kernels import get_kernels
from cirjump.numerics import RngStream
from cirjump.paths import _arrivals
from cirjump.samplers import PrmRealization, get_sampler
from cirjump.verify import LaplaceComparison, mc_statistics

DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                            "configs")


class TestEulerPath:
    def test_tracks_ode_for_small_noise(self):
        # sigma -> 0, no jumps: the path follows xi' = a - beta xi
        a, beta, x0 = 0.4, 1.0, 0.2
        c = cj.CoefficientSet(a=cj.constant(a), a_tilde=cj.constant(0.0),
                              beta=cj.constant(beta),
                              sigma=cj.constant(1e-3), x0=x0, t_max=1.0)
        grid = np.linspace(0.0, 1.0, 1001)
        path = cj.euler_path(RngStream(70).generator(), c, None, grid)
        ode = a / beta + (x0 - a / beta) * math.exp(-beta)
        assert abs(path.values[-1] - ode) < 5e-3

    def test_fixed_seed_bit_identical(self, pc_coeffs, two_atoms):
        grid = np.linspace(0.2, 1.2, 65)
        p1 = cj.euler_path(RngStream(71).generator(), pc_coeffs, two_atoms,
                           grid, y0=0.8)
        p2 = cj.euler_path(RngStream(71).generator(), pc_coeffs, two_atoms,
                           grid, y0=0.8)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.jumps.times, p2.jumps.times)

    def test_jump_bookkeeping(self, pc_coeffs):
        # every realized jump is deposited at the end of its grid cell:
        # the residual of the Euler recursion recovers the diffusion term,
        # which stays within a wide Gaussian envelope
        heavy = cj.atoms([(0.7, 6.0), (1.8, 2.0)])
        grid = np.linspace(0.2, 1.2, 33)
        h = grid[1] - grid[0]
        path = cj.euler_path(RngStream(72).generator(), pc_coeffs, heavy,
                             grid, y0=0.8)
        prm = path.jumps
        assert len(prm) > 0
        idx = np.clip(np.searchsorted(grid, prm.times, side="left"),
                      1, grid.size - 1)
        deposits = np.zeros(grid.size)
        np.add.at(deposits, idx, prm.sizes)
        flags = path.jump_flags
        assert set(np.nonzero(deposits)[0]) == set(np.nonzero(flags)[0])
        for k in range(grid.size - 1):
            drift = (pc_coeffs.a(grid[k])
                     - pc_coeffs.beta(grid[k]) * path.values[k]) * h
            resid = path.values[k + 1] - path.values[k] - drift \
                - deposits[k + 1]
            envelope = 8.0 * pc_coeffs.sigma(grid[k]) \
                * math.sqrt(max(path.values[k], 0.0) * h)
            assert abs(resid) <= envelope + 1e-12

    def test_terminal_batch_matches_path_scheme(self, pc_coeffs, two_atoms):
        s, t, y = 0.2, 1.2, 0.8
        eng = get_kernels(pc_coeffs, two_atoms)
        analytic, _ = eng.laplace_K(s, t, y, np.array([1.0]))
        stats = mc_statistics(
            lambda g, m: cj.euler_terminal_batch(g, pc_coeffs, two_atoms,
                                                 s, t, 64, m, y0=y),
            40_000, np.array([1.0]), seed=73)
        # weak bias of the h = 1/64 Euler scheme stays small
        assert abs(stats["mean"][0] - analytic[0]) < 0.01


class TestExactSkeleton:
    def test_single_cell_equals_direct_draw(self, pc_coeffs, two_atoms):
        grid = np.array([0.2, 1.2])
        path = cj.exact_skeleton(RngStream(74).generator(), pc_coeffs,
                                 two_atoms, grid, y0=0.8)
        direct = get_sampler(pc_coeffs, two_atoms).sample_k(
            RngStream(74).generator(), 0.2, 1.2, 0.8)
        assert path.values[-1] == direct

    def test_degenerate_model_is_zero(self, two_atoms):
        c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              x0=0.0, t_max=2.0)
        grid = np.linspace(0.0, 2.0, 9)
        path = cj.exact_skeleton(RngStream(75).generator(), c, two_atoms, grid)
        assert np.all(path.values == 0.0)

    def test_marginals_grid_independent(self, pc_coeffs, two_atoms):
        # chaining exact one-step draws over 1 or 4 cells gives the same
        # terminal law
        s, t, y = 0.2, 1.2, 0.8
        sampler = get_sampler(pc_coeffs, two_atoms)
        eng = get_kernels(pc_coeffs, two_atoms)
        grid = np.array([0.5, 1.0, 2.0, 5.0])
        analytic, _ = eng.laplace_K(s, t, y, grid)

        def chain(g, m, cells):
            x = np.full(m, y)
            edges = np.linspace(s, t, cells + 1)
            for a, b in zip(edges[:-1], edges[1:]):
                x = sampler.sample_k(g, a, b, x)
            return x

        for cells, seed in ((1, 76), (4, 77)):
            stats = mc_statistics(lambda g, m: chain(g, m, cells),
                                  60_000, grid, seed=seed)
            z = (stats["mean"] - analytic) / stats["std_err"]
            assert np.max(np.abs(z)) <= 4.0


class TestAbsorbedCir:
    def test_zero_start_identically_zero(self, pc_coeffs):
        grid = np.linspace(0.3, 1.5, 33)
        path = cj.absorbed_cir_path(RngStream(78).generator(), pc_coeffs,
                                    0.3, 0.0, grid)
        assert np.all(path.values == 0.0)

    def test_paths_nonnegative_and_absorbed(self, pc_coeffs):
        grid = np.linspace(0.0, 2.0, 257)
        path = cj.absorbed_cir_path(RngStream(79).generator(), pc_coeffs,
                                    0.0, 0.5, grid)
        assert np.all(path.values >= 0.0)
        hit = np.nonzero(path.values == 0.0)[0]
        if hit.size:
            assert np.all(path.values[hit[0]:] == 0.0)

    def test_absorption_fraction_grows(self):
        # beta = 0, sigma = 1: the hitting time of 0 is a.s. finite, so the
        # absorbed fraction increases toward 1 with the horizon; the chain
        # is exact at grid times, so it matches P(xi_T = 0) = exp(-2u/T)
        u = 0.5
        c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.0),
                              beta=cj.constant(0.0), sigma=cj.constant(1.0),
                              x0=u, t_max=16.0)
        fracs = []
        reps = 2000
        for T, seed in ((1.0, 80), (4.0, 81), (16.0, 82)):
            grid = np.linspace(0.0, T, 9)
            g = RngStream(seed).generator()
            frac = np.mean([cj.absorbed_cir_path(g, c, 0.0, u, grid).values[-1]
                            == 0.0 for _ in range(reps)])
            exact = math.exp(-2.0 * u / T)
            assert abs(frac - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / reps)
            fracs.append(frac)
        assert fracs[0] < fracs[1] < fracs[2]
        assert fracs[2] > 0.9

    def test_sup_square_scaling(self):
        # E[sup xi^2] over the grid stays within a fitted multiple of
        # (1 + T)(u + u^2)
        c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.0),
                              beta=cj.constant(0.0), sigma=cj.constant(1.0),
                              x0=0.0, t_max=8.0)
        reps = 3000

        def sup_sq(u, T, seed):
            grid = np.linspace(0.0, T, int(8 * T) + 1)
            g = RngStream(seed).generator()
            return float(np.mean([
                cj.absorbed_cir_path(g, c, 0.0, u, grid).values.max() ** 2
                for _ in range(reps)]))

        c_fit = sup_sq(0.5, 1.0, 83) / ((1 + 1.0) * (0.5 + 0.25))
        for u, T, seed in ((1.5, 1.0, 84), (0.5, 8.0, 85), (2.0, 4.0, 86)):
            assert sup_sq(u, T, seed) <= 3.0 * c_fit * (1 + T) * (u + u * u)


class TestBranchingPath:
    def test_reduces_to_absorbed_without_input(self, two_atoms):
        c = cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.0),
                              beta=cj.constant(1.0), sigma=cj.constant(1.0),
                              x0=0.7, t_max=2.0)
        grid = np.linspace(0.2, 1.4, 65)
        bp = cj.branching_path(RngStream(87).generator(), c, two_atoms,
                               0.2, 1.4, 0.7, grid=grid)
        ap = cj.absorbed_cir_path(RngStream(87).generator(), c, 0.2, 0.7, grid)
        assert np.array_equal(bp.values, ap.values)

    @pytest.mark.parametrize("name", ["jump_model", "infinite_activity",
                                      "classical_cir"])
    def test_two_time_law(self, name):
        # E exp(-l1 X_t1 - l2 X_t) at the config's own step, t1 mid-grid:
        # by the Markov property it is laplace_K(s, t1, y, l1 + Psi_{t1,t}(l2))
        # times laplace_K(t1, t, 0, l2); a truncated measure is compared
        # against the kernels of its restriction
        cfg = cj.load_config(os.path.join(DEMO_CONFIGS, name + ".yaml"))
        n = max(1, int(round((cfg.t - cfg.s) / cfg.step)))
        grid = np.linspace(cfg.s, cfg.t, n + 1)
        t1 = grid[n // 2]
        sampler = get_sampler(cfg.coeffs, cfg.nu, n_cells=cfg.n_cells,
                              delta=cfg.delta)
        nu = cfg.nu if sampler.delta == 0.0 else cfg.nu.truncated(sampler.delta)
        eng = cj.TransitionKernels(cfg.coeffs, nu)
        l1, l2 = (a.ravel() for a in np.meshgrid([0.5, 2.0, 10.0],
                                                 [0.5, 2.0, 10.0]))
        oracle = (eng.laplace_K(cfg.s, t1, cfg.y, l1 + eng.psi(t1, cfg.t, l2))[0]
                  * eng.laplace_K(t1, cfg.t, 0.0, l2)[0])
        g, m = RngStream(88).generator(), 4000
        ends = np.array([cj.branching_path(
            g, cfg.coeffs, cfg.nu, cfg.s, cfg.t, cfg.y, delta=cfg.delta,
            grid=grid, n_cells=cfg.n_cells).values[[n // 2, n]]
            for _ in range(m)])
        f = np.exp(-np.outer(ends[:, 0], l1) - np.outer(ends[:, 1], l2))
        mean, se = f.mean(axis=0), f.std(axis=0, ddof=1) / math.sqrt(m)
        cmp = LaplaceComparison(np.column_stack([l1, l2]), mean, se, oracle,
                                (mean - oracle) / se, m, seed=88, label=name)
        assert cmp.passed, cmp.z_scores

    def test_sup_norm_scales_with_jump_mass(self, pc_coeffs):
        # qualitative: heavier jump measures push the expected sup up
        s, t, y = 0.2, 1.2, 0.3
        grid = np.linspace(s, t, 129)
        sups = []
        for scale, seed in ((0.25, 89), (1.0, 90), (4.0, 91)):
            nu = cj.atoms([(0.7, 1.2 * scale), (1.8, 0.4 * scale)])
            g = RngStream(seed).generator()
            vals = [cj.branching_path(g, pc_coeffs, nu, s, t, y, grid=grid,
                                      n_cells=8).values.max()
                    for _ in range(400)]
            sups.append(float(np.mean(vals)))
        assert sups[0] < sups[1] < sups[2]

    def test_jumps_recorded(self, pc_coeffs, two_atoms):
        grid = np.linspace(0.2, 1.2, 65)
        bp = cj.branching_path(RngStream(92).generator(), pc_coeffs,
                               two_atoms, 0.2, 1.2, 0.5, grid=grid)
        assert bp.jumps is not None
        assert np.all(np.diff(bp.jumps.times) > 0) or len(bp.jumps) <= 1

    def test_points_arrive_at_the_end_of_their_step(self, pc_coeffs,
                                                     two_atoms):
        # a point on a grid time enters as its mark; one inside a step is
        # carried through H to the step's end, as sample_h draws it
        grid = np.linspace(0.2, 1.2, 9)
        sampler = get_sampler(pc_coeffs, two_atoms)
        prm = PrmRealization(np.array([grid[2], 0.5 * (grid[4] + grid[5])]),
                             np.array([1.8, 0.7]))
        got = _arrivals(RngStream(93).generator(), sampler, grid, prm)
        want = sampler.sample_h(RngStream(93).generator(), prm.times[1],
                                grid[5], 0.7)
        assert got[2] == 1.8 and got[5] == want
        assert sum(got) == got[2] + got[5]


    def test_matches_step_by_step_loop(self, two_atoms):
        # the chain against its scalar construction, bit for bit, on
        # coefficients whose alpha vanishes on part of the interval
        # (clipped a) and that need tabulated primitives: the points first,
        # carried to the ends of their steps as one ITilde draw carries its
        # points (every H count, then every Gamma), then H + I per step
        c = cj.CoefficientSet(a=cj.clipped_sine(0.1, 0.5, 6.0),
                              a_tilde=cj.constant(3.0),
                              beta=cj.piecewise_linear([0.0, 2.0], [0.5, 1.5]),
                              sigma=cj.clipped_sine(1.2, 0.3, 2.0, 0.4),
                              x0=0.4, t_max=2.0)
        s, t, y, n_cells = 0.1, 1.9, 0.6, 16
        grid = np.linspace(s, t, 9)
        sampler = get_sampler(c, two_atoms, n_cells=n_cells)
        g = RngStream(94).generator()
        prm = sampler.sample_prm(g, s, t)
        ends = np.searchsorted(grid, prm.times).tolist()
        pairs = [sampler.kernels.bd(T, grid[k])
                 for T, k in zip(prm.times.tolist(), ends)]
        counts = [g.poisson(Y * b / d)
                  for Y, (b, d) in zip(prm.sizes.tolist(), pairs)]
        arrived = np.zeros(grid.size)
        for k, n, (_, d) in zip(ends, counts, pairs):
            arrived[k] += g.gamma(n, d)
        want = [y]
        for k in range(1, grid.size):
            want.append(sampler.sample_h(g, grid[k - 1], grid[k], want[-1])
                        + sampler.sample_i(g, grid[k - 1], grid[k])
                        + arrived[k])
        got = cj.branching_path(RngStream(94).generator(), c, two_atoms, s, t,
                                y, grid=grid, n_cells=n_cells)
        assert len(prm) > 2 and np.all(got.values > 0.0)
        assert got.values.tobytes() == np.array(want).tobytes()


class TestPathRealization:
    def test_csv_roundtrip(self, pc_coeffs, two_atoms, tmp_path):
        grid = np.linspace(0.2, 1.2, 17)
        path = cj.euler_path(RngStream(93).generator(), pc_coeffs, two_atoms,
                             grid, y0=0.8, seed_info=(93, 0))
        f = tmp_path / "path.csv"
        with open(f, "w", newline="") as fh:
            path.write_csv(fh)
        rows = f.read_text().strip().splitlines()
        assert rows[0] == "time,value,jump_flag"
        assert len(rows) == grid.size + 1
        got = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.array_equal(got, path.values)
        assert path.seed == (93, 0)
