import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from cirjump.cli import main

GOOD = """\
schema_version: 1
model:
  x0: 0.5
  t_max: 2.0
  a:       {kind: piecewise_constant, breaks: [0.6], values: [0.3, 0.8]}
  a_tilde: {kind: constant, value: 0.4}
  beta:    {kind: constant, value: 1.0}
  sigma:   {kind: constant, value: 1.0}
  nu:
    kind: atoms
    points: [[0.7, 1.2], [1.8, 0.4]]
run:
  s: 0.2
  t: 1.2
  y: 0.8
  n_samples: 20000
  seed: 4242
  lambda_grid: [0.1, 0.5, 1, 2, 5, 10]
controls:
  n_cells: 16
  delta: 0
  step: 0.25
"""

CLASSICAL = """\
model:
  x0: 0.4
  t_max: 2.0
  a:       {kind: constant, value: 1.6}     # alpha sigma^2 / 2 with alpha 1.6
  beta:    {kind: constant, value: 1.0}
  sigma:   {kind: constant, value: 1.4142135623730951}
  a_tilde: {kind: constant, value: 0.0}
run: {s: 0.0, t: 1.0, y: 0.4, n_samples: 20000, seed: 7}
"""

RHO07 = """\
model:
  x0: 0.0
  t_max: 1.0
  a:       {kind: constant, value: 0.1}
  a_tilde: {kind: constant, value: 0.2}
  beta:    {kind: constant, value: 1.0}
  sigma:   {kind: constant, value: 1.0}
  nu: {kind: tempered_power, rho: 0.7}
"""

BAD_SIGMA = GOOD.replace("sigma:   {kind: constant, value: 1.0}",
                         "sigma:   {kind: constant, value: 0.0}")


@pytest.fixture
def cfg(tmp_path):
    p = tmp_path / "model.yaml"
    p.write_text(GOOD)
    return str(p)


class TestValidateCommand:
    def test_good_config(self, cfg, capsys):
        assert main(["validate", cfg]) == 0
        out = capsys.readouterr().out
        assert "permanent_condition" in out

    def test_rho07_rejected(self, tmp_path):
        p = tmp_path / "rho07.yaml"
        p.write_text(RHO07)
        assert main(["validate", str(p)]) == 1

    def test_malformed_yaml(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("model: [unclosed")
        assert main(["validate", str(p)]) == 2

    def test_missing_field(self, tmp_path):
        p = tmp_path / "missing.yaml"
        p.write_text("model:\n  t_max: 1.0\n")
        assert main(["validate", str(p)]) == 2

    def test_nonpositive_sigma(self, tmp_path):
        p = tmp_path / "sigma.yaml"
        p.write_text(BAD_SIGMA)
        assert main(["validate", str(p)]) == 1

    def test_json_report(self, cfg, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", cfg, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["hard_ok"] is True


class TestLaplaceCommand:
    def test_lambda_zero_row(self, cfg, capsys):
        assert main(["laplace", cfg, "--lambdas", "0,1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "lambda,value,error_estimate"
        first = rows[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    def test_byte_identical_reruns(self, cfg, capsys):
        main(["laplace", cfg, "--lambdas", "0.3,1.7,9"])
        a = capsys.readouterr().out
        main(["laplace", cfg, "--lambdas", "0.3,1.7,9"])
        b = capsys.readouterr().out
        assert a == b

    def test_classical_closed_form(self, tmp_path, capsys):
        p = tmp_path / "classical.yaml"
        p.write_text(CLASSICAL)
        assert main(["laplace", str(p), "--lambdas", "0.5,2", "--y", "0.4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        # closed form (1 + lam/p)^-alpha e^{-y psi} for these constants
        beta, sigma2, alpha, t, y = 1.0, 2.0, 1.6, 1.0, 0.4
        C = sigma2 / 2 * (math.exp(beta * t) - 1) / beta
        pk = 1 / (math.exp(-beta * t) * C)
        gam = 1 / C
        for row in rows:
            lam, val, _ = (float(x) for x in row.split(","))
            psi = gam * lam / (pk + lam)
            want = (1 + lam / pk) ** -alpha * math.exp(-y * psi)
            assert val == pytest.approx(want, rel=1e-9)

    def test_component_flag(self, cfg, capsys):
        assert main(["laplace", cfg, "--component", "H",
                     "--lambdas", "1", "--y", "0"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert float(rows[1].split(",")[1]) == 1.0


class TestSampleCommand:
    def test_h_from_zero_is_zero(self, cfg, capsys):
        assert main(["sample", cfg, "--component", "H", "--y", "0",
                     "--n", "50", "--seed", "1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "value"
        assert all(float(r) == 0.0 for r in rows[1:])

    def test_reproducible(self, cfg, tmp_path, capsys):
        f1, f2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sample", cfg, "--n", "200", "--seed", "9",
                     "--out", f1]) == 0
        assert main(["sample", cfg, "--n", "200", "--seed", "9",
                     "--out", f2]) == 0
        assert open(f1).read() == open(f2).read()
        summary = capsys.readouterr().out
        assert "mean=" in summary and "zero_fraction=" in summary


class TestSimulateCommand:
    def test_exact_skeleton_single_cell_matches_sample(self, cfg, tmp_path,
                                                       capsys):
        outdir = str(tmp_path / "paths")
        assert main(["simulate", cfg, "--scheme", "exact_skeleton",
                     "--step", "1.0", "--n-paths", "1", "--outdir", outdir,
                     "--seed", "33"]) == 0
        capsys.readouterr()
        rows = open(os.path.join(outdir, "path_0000.csv")).read().splitlines()
        terminal = float(rows[-1].split(",")[1])
        assert main(["sample", cfg, "--component", "K", "--n", "1",
                     "--seed", "33"]) == 0
        draw = float(capsys.readouterr().out.strip().splitlines()[1])
        assert terminal == draw

    def test_manifest_and_determinism(self, cfg, tmp_path):
        d1, d2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        for d in (d1, d2):
            assert main(["simulate", cfg, "--scheme", "euler", "--step",
                         "0.125", "--n-paths", "3", "--outdir", d,
                         "--seed", "11"]) == 0
        m = json.loads(open(os.path.join(d1, "manifest.json")).read())
        assert m["scheme"] == "euler" and m["n_paths"] == 3
        assert m["streams"] == [[11, 0], [11, 1], [11, 2]]
        # the stream family: paths drawn with another one are other paths
        assert m["bit_generator"] == "PCG64DXSM"
        for name in m["files"]:
            a = open(os.path.join(d1, name)).read()
            b = open(os.path.join(d2, name)).read()
            assert a == b

    def test_branching_scheme_runs(self, cfg, tmp_path):
        outdir = str(tmp_path / "branch")
        assert main(["simulate", cfg, "--scheme", "branching", "--step",
                     "0.0625", "--n-paths", "1", "--outdir", outdir,
                     "--seed", "5"]) == 0
        assert os.path.exists(os.path.join(outdir, "manifest.json"))

    @staticmethod
    def _sampler_misses(config, scheme, outdir):
        from cirjump.samplers import _cached_sampler
        _cached_sampler.cache_clear()
        assert main(["simulate", config, "--scheme", scheme, "--n-paths", "2",
                     "--outdir", outdir]) == 0
        return _cached_sampler.cache_info().misses

    @pytest.mark.parametrize("scheme", ["euler", "exact_skeleton", "branching"])
    def test_one_sampler_per_run(self, scheme, tmp_path, capsys):
        # the paths draw on the engine the command checked, keyed alike
        assert self._sampler_misses(os.path.join(DEMO_CONFIGS, "classical_cir.yaml"),
                                    scheme, str(tmp_path / "out")) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("scheme", ["euler", "exact_skeleton", "branching"])
    def test_one_sampler_per_run_with_n_cells(self, scheme, cfg, tmp_path, capsys):
        # the same with controls.n_cells 16, not the default 64
        assert self._sampler_misses(cfg, scheme, str(tmp_path / "out")) == 1
        capsys.readouterr()

    def test_unknown_scheme_exits_2(self, cfg):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", cfg, "--scheme", "magic", "--outdir", "x"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_kernels_suite_passes(self, cfg, capsys):
        assert main(["verify", cfg, "--suite", "kernels"]) == 0
        assert "suite kernels: pass" in capsys.readouterr().out

    @pytest.mark.parametrize("old,new", [
        ("beta:    {kind: constant, value: 1.0}",
         "beta:    {kind: clipped_sine, offset: 1.0, amplitude: 0.8, "
         "omega: 3.0, phase: 0.2}"),
        ("sigma:   {kind: constant, value: 1.0}",
         "sigma:   {kind: piecewise_linear, knots: [0.0, 0.5, 2.0], "
         "values: [1.0, 2.0, 0.7]}"),
    ])
    def test_kernels_suite_oracles_on_tabulated_primitives(self, tmp_path,
                                                           capsys, old, new):
        # B and C from the tabulated primitive table against exp(-int beta)
        # and a quadrature of sigma^2/2 e^(int_0^v beta)
        assert old in GOOD
        p = tmp_path / "tabulated.yaml"
        p.write_text(GOOD.replace(old, new))
        assert main(["verify", str(p), "--suite", "kernels"]) == 0
        out = capsys.readouterr().out
        assert "[pass] B_equals_exp_minus_beta_integral" in out
        assert "[pass] C_equals_integral" in out

    def test_transition_suite_with_json(self, cfg, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        assert main(["verify", cfg, "--suite", "transition-K",
                     "--json", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[-1]["passed"] is True

    def test_bad_suite_exits_2(self, cfg):
        with pytest.raises(SystemExit) as exc:
            main(["verify", cfg, "--suite", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite", ["sampler-H", "sampler-I",
                                       "sampler-Itilde",
                                       "chapman-kolmogorov",
                                       "euler-convergence", "truncation"])
    def test_every_suite_runs(self, cfg, suite, capsys):
        assert main(["verify", cfg, "--suite", suite]) == 0
        assert f"suite {suite}: pass" in capsys.readouterr().out

    def test_worker_invariant_bytes(self, cfg, tmp_path):
        outs = []
        for w, name in ((1, "w1.jsonl"), (3, "w3.jsonl")):
            out = tmp_path / name
            assert main(["verify", cfg, "--suite", "transition-K",
                         "--workers", str(w), "--json", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                            "configs")

# SHA-256 over path_0000..0002.csv of `simulate --step 0.0625 --n-paths 3
# --seed 17`. The euler and branching digests were recorded with the per-step
# coefficient evaluation that preceded the shared Euler step, the
# exact_skeleton ones with the clipped primitive lookup and size-1 array
# parameters in the scalar draws; none of these changes may move a single bit.
# The jump_model exact_skeleton digest was re-recorded when pushed I cells
# began drawing their H count first (NegBin by inversion): same law, new
# stream. The infinite_activity euler and branching digests were re-recorded
# when the mark table's inversion became a cubic Hermite with exact slopes:
# the same uniforms give marks that moved by the old table's inversion error
# (path values by at most 8e-10 relative); these schemes add the marks to the
# path as they are. The three branching digests were re-recorded when the
# branching scheme became the exact H chain (a new law); without a jump
# measure that chain draws what the exact skeleton draws, so classical_cir
# has one digest for both. The jump_model exact_skeleton and branching
# digests were re-recorded when pushed I cells became compound-Poisson
# points (Poisson(alpha log1p(c)) a cell, each D(r0,t) exp(-L U) E) in place
# of a NegBin count and a Gamma: the same law, a new stream. The other
# configs draw I as one last cell and keep their bits. The jump_model and
# infinite_activity euler, exact_skeleton and branching digests were
# re-recorded when the driving measure came from the step's jump table
# (points laid out piece by piece and atom by atom from one Poisson total
# and one multinomial, B and D from the piece's closed forms) in place of
# thinned proposals with searched marks: the same law, a new stream.
# classical_cir has no jump measure and keeps its bits. The classical_cir
# and infinite_activity exact_skeleton and branching digests were
# re-recorded when kernels.bd took numpy's exp in place of math.exp, which
# differs in the last bit for some arguments: B and D of a step moved by an
# ulp, and the draws with them. jump_model's steps keep their bits. Every
# exact_skeleton and branching digest was re-recorded when an exact
# primitive table's (B, D) became the per-piece formula from the piece's
# right end, which subtracts no primitives: B and D of a step moved in their
# last bits, and the draws with them. The jump_model and infinite_activity
# branching digests also moved when a path's points began to be pushed
# through H as a one-draw ITilde pushes its points (every H count, then
# every Gamma) in place of a count and a Gamma point by point: the same law,
# a new stream. The euler digests read no (B, D) and keep their bits.
# Every digest was re-recorded when the stream family became PCG64DXSM in
# place of Philox (``numerics.seeded_generator``): the same laws, new
# variates for the same seed.
PATH_DIGESTS = {
    ("classical_cir", "exact_skeleton"):
        "4967cea48ca73e314e8ba5597990ce60acfa3ed0023e6d7396b755f7f3fb2f8c",
    ("infinite_activity", "exact_skeleton"):
        "0d807556a6fa0b2591a910d2ed214cb43c7c8afc82ce7dab86bf04ce5ec125db",
    ("jump_model", "exact_skeleton"):
        "0451f393980178910d8dbd805f1e268816409f4b60816ff1a780680c9cf4004c",
    ("classical_cir", "euler"):
        "285d33c22a7c66abfe7932ba6753f6ce7d963faae8decedc77e6286ce7667411",
    ("classical_cir", "branching"):
        "4967cea48ca73e314e8ba5597990ce60acfa3ed0023e6d7396b755f7f3fb2f8c",
    ("infinite_activity", "euler"):
        "c97cf07b87d427e30e0b20703aace3d684b642cc040a8226c8d177d1588e5faa",
    ("infinite_activity", "branching"):
        "d0d674fd0c2d2db294b4245c2a24222fc53545edf240699c38945fe358a511ec",
    ("jump_model", "euler"):
        "4e6718a3db8eee9c390a090a8cf0d7e93d4b27358577c59a48916d20b6c6204e",
    ("jump_model", "branching"):
        "0694a20a136de7603fccfd2521e9f9f8101dbfaf122b3d84304c6d0458f6b45c",
}


@pytest.mark.parametrize("config,scheme", sorted(PATH_DIGESTS))
def test_demo_paths_byte_identical(config, scheme, tmp_path, capsys):
    outdir = str(tmp_path / "paths")
    assert main(["simulate", os.path.join(DEMO_CONFIGS, config + ".yaml"),
                 "--scheme", scheme, "--step", "0.0625", "--n-paths", "3",
                 "--seed", "17", "--outdir", outdir]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for i in range(3):
        with open(os.path.join(outdir, f"path_{i:04d}.csv"), "rb") as fh:
            digest.update(fh.read())
    assert digest.hexdigest() == PATH_DIGESTS[(config, scheme)]


# SHA-256 of the standard output of `laplace --component C` and of `sample
# --component C --n 2000` on each demo config, recorded with the
# per-command component dispatch that the component table replaced.
# classical_cir has no jump measure, so it has no Itilde transform. The
# infinite_activity Itilde and K transforms were re-recorded when the
# tempered-power kernel became its closed form: each value moved by at most
# 1.2e-16, inside the error estimate printed beside it. The jump_model sample
# I and K digests were re-recorded when pushed I cells began drawing their H
# count first (NegBin by inversion): same law, new stream. The other configs
# draw I as one last cell, which keeps its bits, and H and Itilde keep theirs.
# The jump_model and infinite_activity sample I, Itilde and K digests were
# re-recorded when batch draws took a Gamma shape below 1 by the boost
# Gamma(alpha + 1) V^(1/alpha) and the driving measure as one Poisson total
# split over the draws by uniform labels: the same laws, new streams.
# classical_cir draws I with alpha = 1.6 and no jumps, so it keeps its bits.
# The jump_model sample I and K digests were re-recorded when pushed I cells
# became compound-Poisson points in place of a NegBin count and a Gamma: the
# same law, a new stream. H, Itilde and the last I cell keep their bits.
# The jump_model and infinite_activity sample Itilde and K digests, and the
# jump_model sample I digest, were re-recorded when the driving measure and
# the pushed I cells were laid out entry by entry from one Poisson total and
# one multinomial, in place of a table search per point: the same laws, new
# streams. Every H digest, every transform and infinite_activity's I (one
# last cell) keep their bits. The jump_model and infinite_activity sample K
# digests were re-recorded when a batch K began drawing ITilde from its own
# generator, seeded from two words of the stream before H and I: the same
# law, a new stream. classical_cir has no jumps and keeps its bits. The
# three laplace H digests were re-recorded when laplace_H became the shared
# transform with both inputs off: the values keep their bits (except below)
# and the error estimate is (1 + y) times the table's error scale, as every
# transform's is, in place of y times it. The infinite_activity laplace H
# digest and its sample H, I and K digests also moved when kernels.bd took
# numpy's exp in place of math.exp, which differs in the last bit for some
# arguments: B and D of (s, t) and of the I cells moved by an ulp, and the
# draws with them. jump_model's draws keep their bits. The laplace I, Itilde
# and K digests of every config were re-recorded when an exact primitive
# table's (B, D) became the per-piece formula from the piece's right end,
# which subtracts no primitives: each value moved by at most 2.8e-16, at
# most 0.15 of the error estimate printed beside it, and laplace H kept its
# values. The jump_model sample H, I, Itilde and K digests moved with it:
# B and D of (s, t), of the I cells and of the jump table's piece ends
# moved in their last bits. infinite_activity's one-piece table and
# classical_cir's (0, 1) give the same bits as before. Every sample digest
# but classical_cir's Itilde (no jumps, so it prints zeros) was re-recorded
# when the stream family became PCG64DXSM in place of Philox
# (``numerics.seeded_generator``): the same laws, new variates. The laplace
# digests draw nothing and keep their bits. The laplace I, Itilde and K
# digests of every config were re-recorded when the transforms of exact
# tables with piecewise-constant inputs took the u-rule (the a term in
# closed form, the a~ term on u-panels) in place of the v-panels: each value
# moved by at most 1.1e-16, at most 0.17 of the error estimate printed
# beside it, and laplace H kept its values.
CLI_DIGESTS = {
    ("classical_cir", "laplace", "H"):
        "d64e6e3dbaba8f047b0d1ad1837fd0f795707bce73ffed45177fc2daf4133ad1",
    ("classical_cir", "laplace", "I"):
        "e32375a99aa954c13e21f60d1daafaf8909a291a828be77b8539cee6fb8487aa",
    ("classical_cir", "laplace", "K"):
        "6b8711da42277a9ce26b3009c587be0c49102561315a85544d866e4ece223f76",
    ("classical_cir", "sample", "H"):
        "096462f6216c7d66607f904d1302bff6a086957c1e42846e62ce29db28968145",
    ("classical_cir", "sample", "I"):
        "419dd77baa4a062e13c53099c3e59698eab7e13a99f1007e3197745d1c65c236",
    ("classical_cir", "sample", "Itilde"):
        "6d83232eea796161e49f06c74feaa3d16c263825014a7196aa8dbe3c009027d8",
    ("classical_cir", "sample", "K"):
        "7a60abdab185650816609b9e312314cf9dad61b82e3181ad0b0b016c81a9aa02",
    ("infinite_activity", "laplace", "H"):
        "b908cba6e731ae7553f9426b12533651e59002a8bd9f4710765cdb66eb7765b2",
    ("infinite_activity", "laplace", "I"):
        "8b92deb0e12aa60ccdad854b8c0c0b13be26c2d6ed1237007aa06404151f1226",
    ("infinite_activity", "laplace", "Itilde"):
        "fa47615d7a8259400d43a996b2b2a53161d209041f293aef719a6f216f4dba1d",
    ("infinite_activity", "laplace", "K"):
        "5c4b61212d7611cdb5358f6b5f79850a52433f4c3aa398cbb23ac163e578b2a3",
    ("infinite_activity", "sample", "H"):
        "747506e461e69254b1d32e0bd7916cee3040c78c78be7ed004653212da16d869",
    ("infinite_activity", "sample", "I"):
        "552d298ea8d8499c94792bc87e71f720c681874ff9bff3cd80c3fdc8af4babc7",
    ("infinite_activity", "sample", "Itilde"):
        "23ef234e7501cb5053ac297a1e0d56841c820ec0cef71c2ca327a1afeb83c5c8",
    ("infinite_activity", "sample", "K"):
        "dd6299517e03250568f3381ff2137cf8198ba5dfa9fec2e4f43a06a26e19bda7",
    ("jump_model", "laplace", "H"):
        "6ccf9b0c281303fb0ae973cd7d1850c6bc9acbce2a528e4b6281e2857c717264",
    ("jump_model", "laplace", "I"):
        "b3bc2a474d29802466dda453390e4b0be55c09588cd93e2448147016eafa40a0",
    ("jump_model", "laplace", "Itilde"):
        "a3a04fbfa0591770fbfc50d4ca2c24d72e30bc24ecd40928661ceacd87b6e67a",
    ("jump_model", "laplace", "K"):
        "36dea03c972163aa8a3b793db1e05d8d4ab4f6e73621dd87773110fa535ef2d1",
    ("jump_model", "sample", "H"):
        "1a9c992d52c95e490ec0f2fa65b8dca58edc9da1aa6be1e5f0332d7d4040bd94",
    ("jump_model", "sample", "I"):
        "b67bc7811ff5a60c5ea7b3a40aa2f8a1774b4db12ad76b386789de01e20cae25",
    ("jump_model", "sample", "Itilde"):
        "dcc904783cc06fb1a05d754c8d2d466936938be798e813b97d6228aea42cc61d",
    ("jump_model", "sample", "K"):
        "1030dd613e80a9c4c9cfc1cfd2c8fdbe4ab89afb582d2050155f3f10041ff921",
}


@pytest.mark.parametrize("config,command,component", sorted(CLI_DIGESTS))
def test_demo_cli_output_byte_identical(config, command, component, capsys):
    argv = [command, os.path.join(DEMO_CONFIGS, config + ".yaml"),
            "--component", component]
    if command == "sample":
        argv += ["--n", "2000"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        CLI_DIGESTS[(config, command, component)]


# SHA-256 of the ``verify --json`` report of every suite on each demo config,
# with run.n_samples set to 20000, in process. classical_cir has no jump
# measure, so it has no sampler-Itilde report (that suite exits 2 there).
# Recorded when the suites still had their own transition check and their
# own H-sampler loop beside ``compare_component``. The chapman-kolmogorov,
# euler-convergence, sampler-I, sampler-Itilde and transition-K reports of
# jump_model and infinite_activity were re-recorded with the boosted Gamma
# shapes below 1 and the one Poisson total of the driving measure (the same
# laws, new streams; the Euler batch reads the driving measure too). The
# three kernels reports were re-recorded when gamma_equals_B_times_p, which
# checked B/D against B (1/D) from one call, gave way to B against
# exp(-int beta) and C against a quadrature of sigma^2/2 e^(int_0^v beta).
# The jump_model chapman-kolmogorov, sampler-I and transition-K reports were
# re-recorded when pushed I cells became compound-Poisson points in place of
# a NegBin count and a Gamma: the same law, a new stream. The jump_model
# and infinite_activity chapman-kolmogorov, euler-convergence,
# sampler-Itilde and transition-K reports, and the jump_model sampler-I
# report, were re-recorded when the driving measure and the pushed I cells
# were laid out entry by entry from one Poisson total and one multinomial:
# the same laws, new streams. The jump_model and infinite_activity
# chapman-kolmogorov and transition-K reports were re-recorded when a batch
# K began drawing ITilde from its own generator, seeded from two words of
# the stream before H and I: the same law, a new stream. The
# infinite_activity chapman-kolmogorov, kernels, sampler-H and transition-K
# reports were re-recorded when kernels.bd took numpy's exp in place of
# math.exp, which differs in the last bit for some arguments: B and D moved
# by an ulp, and the draws and reported kernel values with them. The
# kernels and chapman-kolmogorov reports of every config, the classical_cir
# sampler-I and transition-K reports and the jump_model sampler-H,
# sampler-I, sampler-Itilde and transition-K reports were re-recorded when
# an exact primitive table's (B, D) became the per-piece formula from the
# piece's right end, which subtracts no primitives: the reported kernel
# values and the draws moved in their last bits. Every report passes.
# Every report but the truncation reports and the infinite_activity and
# jump_model kernels reports was re-recorded when the stream family became
# PCG64DXSM in place of Philox (``numerics.seeded_generator``): the same
# laws, new variates; every report still passes. The classical_cir and
# jump_model sampler-I, the infinite_activity chapman-kolmogorov and the
# jump_model euler-convergence and transition-K reports were re-recorded
# when the transforms they compare with took the u-rule: the analytic
# values moved in their last bits, the reported max |z| by at most 5.2e-14
# and the Euler errors by at most 1.2e-16. The kernels reports keep their
# bits. Every report passes.
SUITE_DIGESTS = {
    ("classical_cir", "chapman-kolmogorov"):
        "4ba41699af4f66970bc51e75d8969d3d58b2d110fb16340205f6ad45bd1ebc62",
    ("classical_cir", "euler-convergence"):
        "a5cfca0168700ce7b29ab78066fe38032763e0a7c0867536c71500d8bf865490",
    ("classical_cir", "kernels"):
        "b215bccf651dbfe066a582c9af6f11cf57d07a2700d44d62c595a840b6686683",
    ("classical_cir", "sampler-H"):
        "0508d81c491f97c97b76ac5104c0fc67abf4c9643bb629d7711351d752173d40",
    ("classical_cir", "sampler-I"):
        "7c0b75516ca2c56719a9fb3f843c6f9192c72681d3c9d98d795d08582528f023",
    ("classical_cir", "transition-K"):
        "a70468c7e9021cde5ed942954b4089fc61fb463604d9c36648d431aa8aeecd66",
    ("classical_cir", "truncation"):
        "8ebfbf52d20ec98dd8be196a9cc3c89e96b042ea95b705836104eee52408ea63",
    ("infinite_activity", "chapman-kolmogorov"):
        "384b83732a2bf4b55471a7ef45588069f1615f4683a21afb0f6a570643b5ddef",
    ("infinite_activity", "euler-convergence"):
        "8a5fa2e7179922c63c404c4e9a6ab5e5f947df2808b7e8fb2437ce141dce794f",
    ("infinite_activity", "kernels"):
        "9a99f8ad35bd90611a611c39f1391a2641debf2f4769e6648d766a92584a20b1",
    ("infinite_activity", "sampler-H"):
        "68f801c849d610ba13e5f8b7316a5d839832763b6a5a9210bea3bef779c1c070",
    ("infinite_activity", "sampler-I"):
        "0bbee9130add77316b2e3a1c824367a6394eadb327ac5aaea4de2ae8426c4d0d",
    ("infinite_activity", "sampler-Itilde"):
        "1dd1fb56e1be888b12c5b3ff88085d08cfded7fe70f234a7c898a1b2f4e49a6f",
    ("infinite_activity", "transition-K"):
        "af16715cb21187f2c80a93b7a4a0fdaa3588b8e88db20901eb463ec972dad93a",
    ("infinite_activity", "truncation"):
        "6eade2616fa0dab7b431549c0fa9ac51042269e6055c995b244899cf2c1a90bf",
    ("jump_model", "chapman-kolmogorov"):
        "fcd25bce7ded06c8a2d87fd420dabedcb6417aed41c5926b6f27a45c7fd9151a",
    ("jump_model", "euler-convergence"):
        "23f28072824d5af1261c946c339ea3c40d4d8670d6dc92d5945ad39fd21e423d",
    ("jump_model", "kernels"):
        "57be4d9ecd617aff2e00648301ff950c06f32df0ff5c4b7a6bdf2fadf26758ac",
    ("jump_model", "sampler-H"):
        "e9a33540d55cf65cee0b3e33fad581c9b67b3f0dc9835dfe7030ccb7aed26dc3",
    ("jump_model", "sampler-I"):
        "d1dbb324d6f5fd284f5ff3ac1e01e2435752a1e9c7ec1167cfebdd7e8a53d962",
    ("jump_model", "sampler-Itilde"):
        "bb5a3fbd0e999cd6cea4b269d08abca4b2d05cd56f6b868094ad2250eb48d5bb",
    ("jump_model", "transition-K"):
        "0e0e1d435e6230c391c68f3f28e316b5d725f51d98519ae2169f014edd9a4c3b",
    ("jump_model", "truncation"):
        "8ebfbf52d20ec98dd8be196a9cc3c89e96b042ea95b705836104eee52408ea63",
}


@pytest.fixture(scope="module")
def small_demo_configs(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_configs")
    for name in ("classical_cir", "infinite_activity", "jump_model"):
        with open(os.path.join(DEMO_CONFIGS, name + ".yaml"),
                  encoding="utf-8") as fh:
            text = re.sub(r"n_samples: \d+", "n_samples: 20000", fh.read())
        (out / (name + ".yaml")).write_text(text, encoding="utf-8")
    return out


@pytest.mark.parametrize("config,suite", sorted(SUITE_DIGESTS))
def test_demo_suite_reports_byte_identical(config, suite, small_demo_configs,
                                           tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", str(small_demo_configs / (config + ".yaml")),
                 "--suite", suite, "--json", str(report)]) in (0, 1)
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        SUITE_DIGESTS[(config, suite)]

def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestUsageErrors:
    """Malformed configuration or usage exits with 2, without a traceback."""

    def test_zero_cells(self, tmp_path, capsys):
        p = tmp_path / "cells.yaml"
        p.write_text(GOOD.replace("n_cells: 16", "n_cells: 0"))
        assert _exit_code(["sample", str(p), "--n", "3"]) == 2
        assert "controls.n_cells" in capsys.readouterr().err

    def test_zero_step(self, tmp_path, capsys):
        p = tmp_path / "step.yaml"
        p.write_text(GOOD.replace("step: 0.25", "step: 0"))
        assert _exit_code(["simulate", str(p), "--scheme", "euler",
                           "--outdir", str(tmp_path / "out")]) == 2
        assert "controls.step" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_zero_step_flag(self, cfg, tmp_path):
        assert _exit_code(["simulate", cfg, "--scheme", "euler", "--step",
                           "0", "--outdir", str(tmp_path / "out")]) == 2

    def test_negative_sample_count(self, cfg, capsys):
        assert _exit_code(["sample", cfg, "--n", "-5"]) == 2
        assert "run.n_samples" in capsys.readouterr().err

    def test_start_mass_too_large_to_sample(self, cfg, capsys):
        assert _exit_code(["sample", cfg, "--y", "1e30", "--n", "3"]) == 2
        assert "too large to sample" in capsys.readouterr().err

    def test_branching_start_mass_too_large_to_sample(self, cfg, tmp_path,
                                                       capsys):
        out = tmp_path / "out"
        assert _exit_code(["simulate", cfg, "--scheme", "branching", "--y",
                           "1e30", "--outdir", str(out)]) == 2
        assert "too large to sample" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("delta,code", [
        ("1e-6", 0), ("-1e-6", 2), (".inf", 2), ("often", 2), ("~", 2)])
    def test_delta_spellings(self, tmp_path, capsys, delta, code):
        # YAML 1.1 reads 1e-6 as a string; it is the number 1e-6 all the same
        p = tmp_path / "delta.yaml"
        p.write_text(GOOD.replace("delta: 0", f"delta: {delta}"))
        assert _exit_code(["sample", str(p), "--n", "3"]) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith("config error: controls.delta must be")
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("delta", [None, "auto", "0.01"])
    @pytest.mark.parametrize("component", ["K", "Itilde"])
    def test_no_square_root_condition(self, tmp_path, capsys, delta,
                                      component):
        # a model error (exit 1), not a usage one: every truncation level,
        # chosen by the budget or given, gets the same one-line refusal
        p = tmp_path / "rho07.yaml"
        p.write_text(RHO07 if delta is None
                     else RHO07 + f"controls: {{delta: {delta}}}\n")
        assert _exit_code(["sample", str(p), "--n", "3",
                           "--component", component]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: RestrictiveConditionViolated: "
                              "infinite-activity jump measure without "
                              "square-root integrability")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("config,s,t", [
        ("classical_cir", "0.9999999999999999", "1.0"),
        ("jump_model", "1.9999999999999998", "2.0"),
    ])
    def test_one_ulp_interval(self, capsys, config, s, t):
        # the exact primitive table resolves D(s, t), about sigma^2/2 (t - s),
        # on these valid intervals: every component samples the step. The
        # draws are finite, and H stays within its standard deviation
        # sqrt(2 y B D), about 2e-8, of y
        path = os.path.join(DEMO_CONFIGS, config + ".yaml")
        for component in ("K", "H", "I", "Itilde"):
            assert _exit_code(["sample", path, "--s", s, "--t", t, "--y", "0.8",
                               "--n", "200", "--component", component]) == 0
            lines = capsys.readouterr().out.splitlines()
            x = np.array([float(v) for v in lines[1:]])
            assert lines[0] == "value" and x.size == 200
            assert np.isfinite(x).all() and (x >= 0.0).all()
            if component == "H":
                assert np.abs(x - 0.8).max() < 1e-6
        assert _exit_code(["laplace", path, "--s", s, "--t", t]) == 0

    @pytest.mark.parametrize("config,s,t", [
        ("classical_cir", "0.9999999999999999", "1.0"),
        ("jump_model", "1.9999999999999998", "2.0"),
    ])
    def test_one_ulp_interval_euler(self, capsys, tmp_path, config, s, t):
        # the exact schemes run on the step as the Euler scheme does: one
        # row per end, finite values
        path = os.path.join(DEMO_CONFIGS, config + ".yaml")
        argv = ["simulate", path, "--s", s, "--t", t, "--outdir"]
        for scheme in ("euler", "exact_skeleton", "branching"):
            assert _exit_code(argv + [str(tmp_path / scheme),
                                      "--scheme", scheme]) == 0
            capsys.readouterr()
            rows = (tmp_path / scheme / "path_0000.csv").read_text().splitlines()
            assert [float(r.split(",")[0]) for r in rows[1:]] == \
                [float(s), float(t)]
            assert all(math.isfinite(float(r.split(",")[1])) for r in rows[1:])

    def test_zero_workers(self, cfg):
        assert _exit_code(["verify", cfg, "--suite", "kernels",
                           "--workers", "0"]) == 2

    def test_zero_workers_from_environment(self, cfg, monkeypatch):
        monkeypatch.setenv("CIRJUMP_THREADS", "0")
        assert _exit_code(["verify", cfg, "--suite", "kernels"]) == 2

    def test_negative_lambda(self, cfg, capsys):
        assert _exit_code(["laplace", cfg, "--lambdas=-1,2"]) == 2
        assert "lambda_grid" in capsys.readouterr().err

    def test_itilde_transform_without_jump_measure(self, capsys):
        cfg = os.path.join(DEMO_CONFIGS, "classical_cir.yaml")
        assert _exit_code(["laplace", cfg, "--component", "Itilde"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "model.nu" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("nu,where", [
        ("{kind: exponential, rate: 0}", "model.nu.rate"),
        ("{kind: exponential, rate: -1}", "model.nu.rate"),
        ("{kind: exponential, coef: .nan}", "model.nu.coef"),
        ("{kind: exponential, coef: -1}", "model.nu.coef"),
        ("{kind: gamma, shape: .inf}", "model.nu.shape"),
        ("{kind: gamma, shape: 200}", "'model.nu' has a mass factor"),
        ("{kind: tempered_power, rho: .nan}", "model.nu.rho"),
        ("{kind: tempered_power, rho: 0.4, decay: 0}", "model.nu.decay"),
    ])
    def test_named_density_parameter_domain(self, tmp_path, capsys, nu, where):
        p = tmp_path / "nu.yaml"
        p.write_text(GOOD.replace("""nu:
    kind: atoms
    points: [[0.7, 1.2], [1.8, 0.4]]""", "nu: " + nu))
        assert _exit_code(["laplace", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and where in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("old,new,where", [
        ("a_tilde: {kind: constant, value: 0.4}",
         "a_tilde: {kind: constant, value: .nan}", "model.a_tilde"),
        ("values: [0.3, 0.8]", "values: [0.3, .nan]", "model.a"),
        ("breaks: [0.6]", "breaks: [.nan]", "model.a"),
        ("beta:    {kind: constant, value: 1.0}",
         "beta:    {kind: constant, value: .inf}", "model.beta"),
        ("[[0.7, 1.2], [1.8, 0.4]]", "[[.nan, 1.2], [1.8, 0.4]]", "model.nu"),
        ("[[0.7, 1.2], [1.8, 0.4]]", "[[0.7, .inf], [1.8, 0.4]]", "model.nu"),
    ])
    def test_non_finite_model_numbers(self, tmp_path, capsys, old, new, where):
        # NaN used to pass: a_tilde = NaN dropped the jump input silently,
        # a NaN atom printed nan rows, both with exit status 0
        assert old in GOOD
        p = tmp_path / "nonfinite.yaml"
        p.write_text(GOOD.replace(old, new))
        assert _exit_code(["laplace", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and where in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["laplace", "--component", "K"],
        ["verify", "--suite", "kernels"],
        ["verify", "--suite", "transition-K"],
        ["sample", "--n", "3"],
        ["simulate", "--scheme", "exact_skeleton", "--outdir", "paths"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[2:3]))
    def test_jump_rate_without_jump_measure(self, tmp_path, capsys, argv):
        # a positive a_tilde without model.nu used to end laplace and verify
        # in a traceback, while sample and simulate drew no jumps
        with open(os.path.join(DEMO_CONFIGS, "jump_model.yaml"),
                  encoding="utf-8") as fh:
            text = fh.read()
        nu = "  nu:\n    kind: atoms\n    points: [[0.7, 1.2], [1.8, 0.4]]\n"
        assert nu in text
        p = tmp_path / "no_nu.yaml"
        p.write_text(text.replace(nu, ""))
        argv = [a if a != "paths" else str(tmp_path / a) for a in argv]
        assert _exit_code(argv[:1] + [str(p)] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: missing field 'model.nu'")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "paths").exists()

    def test_itilde_suite_without_jump_measure(self, capsys):
        cfg = os.path.join(DEMO_CONFIGS, "classical_cir.yaml")
        assert _exit_code(["verify", cfg, "--suite", "sampler-Itilde"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "model.nu" in err
        assert len(err.splitlines()) == 1


INFINITE = os.path.join(DEMO_CONFIGS, "infinite_activity.yaml")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _with_delta(tmp_path, delta):
    """The infinite_activity demo with ``controls.delta: delta``."""
    with open(INFINITE, encoding="utf-8") as fh:
        text = fh.read()
    assert "delta: 0.05" in text
    p = tmp_path / "delta.yaml"
    p.write_text(text.replace("delta: 0.05", f"delta: {delta}"))
    return str(p)


def _address_space_limit():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def _bounded_child(argv):
    """The CLI run in a child with a bounded address space, so a missing
    guard cannot exhaust memory."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "cirjump.cli"] + argv,
                          env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=_address_space_limit)


class TestTruncationLevels:
    def test_small_delta_samples(self, tmp_path, capsys):
        # 187 expected jumps per draw; the mass of the restriction used to
        # come out negative and the draw stopped with a traceback
        argv = ["sample", _with_delta(tmp_path, "1.0e-6"), "--component",
                "Itilde", "--n", "2000"]
        assert _exit_code(argv) == 0
        assert capsys.readouterr().err.startswith("n=2000 mean=")

    @pytest.mark.parametrize("delta", ["auto", "1.0e-20"])
    def test_unsamplable_delta_exits_1(self, tmp_path, delta):
        # 1.4e23 and 7.5e7 expected jumps per draw
        proc = _bounded_child(["sample", _with_delta(tmp_path, delta),
                               "--component", "Itilde", "--n", "1"])
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: InvalidDelta:")
        assert "expected jumps per draw" in err[0]

    @pytest.mark.parametrize("command,flags", [
        ("sample", ["--component", "K", "--n", "2000"]),
        ("sample", ["--component", "Itilde", "--n", "2000"]),
        ("verify", ["--suite", "sampler-Itilde"]),
        ("verify", ["--suite", "transition-K"]),
        ("simulate", ["--scheme", "euler"]),
    ])
    def test_delta_above_all_mass_draws_no_jumps(self, tmp_path, capsys,
                                                 command, flags):
        # the density has no mass above delta = 1000 (e^-1000 underflows),
        # so ITilde is 0, the truncated law, and no command stops
        path = _with_delta(tmp_path, "1000.0")
        cfg = tmp_path / "delta.yaml"
        cfg.write_text(re.sub(r"n_samples: \d+", "n_samples: 20000",
                              cfg.read_text()))
        if command == "simulate":
            flags = flags + ["--outdir", str(tmp_path / "paths")]
        assert _exit_code([command, path] + flags) == 0
        err = capsys.readouterr().err
        if flags[:2] == ["--component", "Itilde"]:
            assert err.startswith("n=2000 mean=0 variance=0 zero_fraction=1")


@pytest.mark.parametrize("command,flags", [
    ("sample", ["--component", "I", "--n", "10"]),
    ("sample", ["--component", "K", "--n", "10"]),
    ("verify", ["--suite", "sampler-I"]),
])
def test_unsamplable_input_rate_exits_1(tmp_path, command, flags):
    # a = 1e12 expects about 9.5e11 pushed points of I per draw: refused
    # before they are drawn, with no word about a truncation level
    p = tmp_path / "big_a.yaml"
    p.write_text(CLASSICAL.replace(
        "a:       {kind: constant, value: 1.6}",
        "a:       {kind: piecewise_constant, breaks: [0.5], "
        "values: [1.0e12, 1.0e12]}"))
    proc = _bounded_child([command, str(p)] + flags)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: TooManyPoints:")
    assert "expected points of I per draw" in err[0]
