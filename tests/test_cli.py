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
PATH_DIGESTS = {
    ("classical_cir", "exact_skeleton"):
        "a0bdd404cbbe4850df34c3fdadc5938db570149d9be43b775c686f6c02333555",
    ("infinite_activity", "exact_skeleton"):
        "e28f9ed402d47a9413ccf65ea01eb2eb664faef28cdf9f91e3c46d025b1787ba",
    ("jump_model", "exact_skeleton"):
        "80d85128e779b84fb14c1ed522c9360e3d10e017a631b8d2ca96ae161240f213",
    ("classical_cir", "euler"):
        "f04d1ca3b0aad3e3bde26ddfecb7869959ed2a2fdd9e3eaf0a038ce37dcd098e",
    ("classical_cir", "branching"):
        "a0bdd404cbbe4850df34c3fdadc5938db570149d9be43b775c686f6c02333555",
    ("infinite_activity", "euler"):
        "5f800c5d2b658c660a2548b8beb44db2a4671a489429681bb6239b60375d307a",
    ("infinite_activity", "branching"):
        "596f6b963a4b5f9f7fb6e5de84d966ddaf95d167c33a1a4ddc1b96da2b339bf5",
    ("jump_model", "euler"):
        "e7ad41bc116a93eecd692c6008675078bf1c23d959dbf0c90a0ce0db6fb9df38",
    ("jump_model", "branching"):
        "3ea9f253f4d95519b132f0b83e4be4baedfbd304ed491a6ac25255226902da63",
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
# classical_cir's (0, 1) give the same bits as before.
CLI_DIGESTS = {
    ("classical_cir", "laplace", "H"):
        "d64e6e3dbaba8f047b0d1ad1837fd0f795707bce73ffed45177fc2daf4133ad1",
    ("classical_cir", "laplace", "I"):
        "c912584ebdf8f8a27a2358300c929537f53a3421ad8062cdbff65ca4c0447508",
    ("classical_cir", "laplace", "K"):
        "03b62bed8b0fd47babdb75782f9b7e13ff32af41c281ecb984579344368ef702",
    ("classical_cir", "sample", "H"):
        "4ca4cb9a4328383a34554607725c9d7e6eab600cd00d8962b650f5435bf72c5c",
    ("classical_cir", "sample", "I"):
        "61c14d824cd31367fd090e82cc576356d7d443b1dda32f60c421650a35b991cd",
    ("classical_cir", "sample", "Itilde"):
        "6d83232eea796161e49f06c74feaa3d16c263825014a7196aa8dbe3c009027d8",
    ("classical_cir", "sample", "K"):
        "525989de307d98f255e8032fd921c389ad40f8d79b91ef67604d19895ef6f09e",
    ("infinite_activity", "laplace", "H"):
        "b908cba6e731ae7553f9426b12533651e59002a8bd9f4710765cdb66eb7765b2",
    ("infinite_activity", "laplace", "I"):
        "80b39337cd9755b20aa901a02b1b9631fb4bedb6ce12785c5c8b66ff734dd660",
    ("infinite_activity", "laplace", "Itilde"):
        "4ac6da0fb1fe0982b00da26211a091a7ddbe6f74e87f61973b65c975f8d15125",
    ("infinite_activity", "laplace", "K"):
        "a8f39ced09d6b39d3fe5505272635a77017a9f5c90c69944bedbec76f366090f",
    ("infinite_activity", "sample", "H"):
        "8273dd3c3e0cc2cbb03c0e23cdd601e9b7670fbd528c545897facf6b8dacca1f",
    ("infinite_activity", "sample", "I"):
        "1f87f379758add676c6acf26114db97ca58f27a7b44b78db682e863d8fb4473c",
    ("infinite_activity", "sample", "Itilde"):
        "62ab5f81bf5b5ebfb6bb40611e574d47c755549478ab7ae1e851d00e096f6329",
    ("infinite_activity", "sample", "K"):
        "ae7057dec7fb2ede1c5f9e8be966bd1ce5a4df506021d7c4a8025e16ab54bda2",
    ("jump_model", "laplace", "H"):
        "6ccf9b0c281303fb0ae973cd7d1850c6bc9acbce2a528e4b6281e2857c717264",
    ("jump_model", "laplace", "I"):
        "d55ddd9c507fc7f91683407f49a258b5b39e2d877e071cd3cfb41c7c424c9771",
    ("jump_model", "laplace", "Itilde"):
        "52b11db4751a24aad8378f9294c08f7a83b4294b314a2d3474b46731e3f458b4",
    ("jump_model", "laplace", "K"):
        "ae4a56658f6b3544e38d2b0a17c9b77d99c3c237494faaeca9f25f2e93f6c409",
    ("jump_model", "sample", "H"):
        "82c206d184cb43531aff7b7dcaa04f3f1bf8584c265fce10d99939e75f363d19",
    ("jump_model", "sample", "I"):
        "4465123cefbab0941a8f2f27af0476816c30f608ba776665b88d50d86bfafcb5",
    ("jump_model", "sample", "Itilde"):
        "975a5dc9fb995752dd4d53f459d7d989cb85a62585362ac4ede01b853431407f",
    ("jump_model", "sample", "K"):
        "abb2a46f95a707dc2437192819f622f4391242e8dc3e22654994b4461e132f3d",
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
SUITE_DIGESTS = {
    ("classical_cir", "chapman-kolmogorov"):
        "69726673af9c322aa3763cc56d848d0c6d17d75c2b4a5a8bfd16d9f779922951",
    ("classical_cir", "euler-convergence"):
        "ff01352c4770454a2de3e41bca91d522f74d3bba16fc0882432b1b570b72658c",
    ("classical_cir", "kernels"):
        "d412e2884fd6930e69a0f28d1f7c65cfa0fb7b731dafcaf6e57ba835431b0610",
    ("classical_cir", "sampler-H"):
        "0ead6db928ea62e09446daa377e1ab8b115be710f171ad106f2ba400ea3b9a04",
    ("classical_cir", "sampler-I"):
        "b3e3015049ff63c853394562c1dbcc5cae30397d0d91bc35cb7cf75c5d696879",
    ("classical_cir", "transition-K"):
        "fb78e729e8e5c171bdd37a19127b42e1cbaa321da1b074ba7c24823acde38f76",
    ("classical_cir", "truncation"):
        "8ebfbf52d20ec98dd8be196a9cc3c89e96b042ea95b705836104eee52408ea63",
    ("infinite_activity", "chapman-kolmogorov"):
        "17c3c707eac481db52ed5c04a2f24f5d2de2ca4d03769e05f96c91bafc598d67",
    ("infinite_activity", "euler-convergence"):
        "f57fd720527187d730f039911b608bb0df718a8fc1d47df5489da7b1188b4efe",
    ("infinite_activity", "kernels"):
        "9a99f8ad35bd90611a611c39f1391a2641debf2f4769e6648d766a92584a20b1",
    ("infinite_activity", "sampler-H"):
        "0654eadacc29f920ab452f01d7f1513a166a92bff8d0d7ada3c91c667d698804",
    ("infinite_activity", "sampler-I"):
        "0fa9f6b8cf2118512c6c48fc9704e3949cf513e967a074146bd74ba17bcc1fa5",
    ("infinite_activity", "sampler-Itilde"):
        "3581ca20b0876057fc94921d60f8450f6c3efbd56cf070d52207e3d6fe34424f",
    ("infinite_activity", "transition-K"):
        "f00c36eb3400e4aedd6c7a5b64977bcfb2a431ba7d58fb2d9628f4f3042e14e7",
    ("infinite_activity", "truncation"):
        "6eade2616fa0dab7b431549c0fa9ac51042269e6055c995b244899cf2c1a90bf",
    ("jump_model", "chapman-kolmogorov"):
        "cb21919d967aae5fec676e016676247fb17bb7bbe12ecb87f195a5808597b17c",
    ("jump_model", "euler-convergence"):
        "0c9ad9dcf39758ee5c5fa5e8b2eb07e580ad4921be8c08021b639b9e8017a8c4",
    ("jump_model", "kernels"):
        "57be4d9ecd617aff2e00648301ff950c06f32df0ff5c4b7a6bdf2fadf26758ac",
    ("jump_model", "sampler-H"):
        "ac0472b953215a31811f3ef9c48df777c39f626aaa3c8fd3c8bdacd47acdc4e3",
    ("jump_model", "sampler-I"):
        "6e1f819657c6f7f2bf1ead0c5376151d155fd9574e451ee4a18fec6a5afae8a0",
    ("jump_model", "sampler-Itilde"):
        "1e3c7689a3985e2b9f6c46cb8a6aab4b72d86ee20abcf889444f44713daf520b",
    ("jump_model", "transition-K"):
        "cbb673a3514276b4baf9e68284eeb7ee15684df4348b8b083d5a723b4fb24fe1",
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
        # 1.4e23 and 7.5e7 expected jumps per draw; run in a child with a
        # bounded address space, so a missing guard cannot exhaust memory
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "cirjump.cli", "sample",
             _with_delta(tmp_path, delta), "--component", "Itilde", "--n", "1"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=_address_space_limit)
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
