import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys

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
# classical_cir has no jump measure and keeps its bits.
PATH_DIGESTS = {
    ("classical_cir", "exact_skeleton"):
        "0729410652cde9c3d614936f02075ec67f3dcb18a4b177da9100338e69896e7a",
    ("infinite_activity", "exact_skeleton"):
        "51a5500813b2321506932004a06b6dfecff0bb016902b98da4462dc5a19ba256",
    ("jump_model", "exact_skeleton"):
        "3ccc569ed41c45e9ac0b1a0d61905a60d66bb7ce1611ecd4e8e9d5bdcc139889",
    ("classical_cir", "euler"):
        "f04d1ca3b0aad3e3bde26ddfecb7869959ed2a2fdd9e3eaf0a038ce37dcd098e",
    ("classical_cir", "branching"):
        "0729410652cde9c3d614936f02075ec67f3dcb18a4b177da9100338e69896e7a",
    ("infinite_activity", "euler"):
        "5f800c5d2b658c660a2548b8beb44db2a4671a489429681bb6239b60375d307a",
    ("infinite_activity", "branching"):
        "155e16e28fd91e99cd48802628771282bf475c3e1678e41155334fe3139cb514",
    ("jump_model", "euler"):
        "e7ad41bc116a93eecd692c6008675078bf1c23d959dbf0c90a0ce0db6fb9df38",
    ("jump_model", "branching"):
        "29c37fb0dce60a65ffb8063fb32147668e13fc725f140ec17fba2be81a2acc6a",
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
# law, a new stream. classical_cir has no jumps and keeps its bits.
CLI_DIGESTS = {
    ("classical_cir", "laplace", "H"):
        "24b7c7ac88ccea5fca100d21681920a4481b889cdaefdbc883ff02b495fd6fa3",
    ("classical_cir", "laplace", "I"):
        "63b8f37f1384287240dbd8e9535e8eb3f023cea92fd967cce44251e108789f06",
    ("classical_cir", "laplace", "K"):
        "ba166cbb6e16ffc0c49adbe516b457487be4731933c02f6d82e9fe39e57b206f",
    ("classical_cir", "sample", "H"):
        "4ca4cb9a4328383a34554607725c9d7e6eab600cd00d8962b650f5435bf72c5c",
    ("classical_cir", "sample", "I"):
        "61c14d824cd31367fd090e82cc576356d7d443b1dda32f60c421650a35b991cd",
    ("classical_cir", "sample", "Itilde"):
        "6d83232eea796161e49f06c74feaa3d16c263825014a7196aa8dbe3c009027d8",
    ("classical_cir", "sample", "K"):
        "525989de307d98f255e8032fd921c389ad40f8d79b91ef67604d19895ef6f09e",
    ("infinite_activity", "laplace", "H"):
        "dd35b21c2c646499f612f1b9b333e060a9c490426404f6ca2e913395a27a5d89",
    ("infinite_activity", "laplace", "I"):
        "c3516d56b44155dfb8387ff94d08ccb66ac0a2bab7d0d36297b756ea000dc15a",
    ("infinite_activity", "laplace", "Itilde"):
        "382abadb0c9759cfe880c4605c84b30edc08377f92a957392473619c0ad1d65a",
    ("infinite_activity", "laplace", "K"):
        "1379cd0c124710a4095e6c5a8d0546923e6810971a0eb37554c3b82075062475",
    ("infinite_activity", "sample", "H"):
        "16fb4f36e589ef72c192e4c159196b15f0dde7325ddc089f9c73f6a36832fbbc",
    ("infinite_activity", "sample", "I"):
        "c0f47b07bf633ef63f940b230ef5cb2cc70184282f0d474fb2a959daf035fa50",
    ("infinite_activity", "sample", "Itilde"):
        "62ab5f81bf5b5ebfb6bb40611e574d47c755549478ab7ae1e851d00e096f6329",
    ("infinite_activity", "sample", "K"):
        "bde4f9c7fda97da3aec1b1f2b051d6e226dd44f9a9829971a255471cd9d93e07",
    ("jump_model", "laplace", "H"):
        "cc5a72addaee507eec15ce73b7a5c4cadd1c1bcda3b606bc06b1d38c6b02bda1",
    ("jump_model", "laplace", "I"):
        "6aa8ce1533be57aeb85531ddf3271dca7b62da1611c0b315f7275417f4557821",
    ("jump_model", "laplace", "Itilde"):
        "0e7cd3749413daf73e4d84abb9f62598292574a8856c0564c8f2517120043cac",
    ("jump_model", "laplace", "K"):
        "4e194e53d12f2049ba4961b57793465e24813f0cbc5f5be0062bdca533c93e11",
    ("jump_model", "sample", "H"):
        "b4bc4efd24ec5741e24c1c21bfe447ea1d4afa08b38be6a2b8a8d1b0f8233444",
    ("jump_model", "sample", "I"):
        "a3d51e76541c1ef14d1cae4c37582c4cfc4b2f3454d2e81473de0820c6fb0dda",
    ("jump_model", "sample", "Itilde"):
        "3ada33c93f78bee9ce40eb4a0039e4780becb75adbb5018fe251375834eaef81",
    ("jump_model", "sample", "K"):
        "b528fc85a6a4330eeb9c5a8ed1dcfc99d1db6b1b1c34003835055b4747baa7df",
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
# the stream before H and I: the same law, a new stream.
SUITE_DIGESTS = {
    ("classical_cir", "chapman-kolmogorov"):
        "65544146863289aa7f9ee15b93c82e7a3b8cb9cfcc882e3290cc4b5812481534",
    ("classical_cir", "euler-convergence"):
        "ff01352c4770454a2de3e41bca91d522f74d3bba16fc0882432b1b570b72658c",
    ("classical_cir", "kernels"):
        "e969d8daaa71a5ec902e5528785013f5a7d37ea8bc38d4a19bc6422e849cc1e9",
    ("classical_cir", "sampler-H"):
        "0ead6db928ea62e09446daa377e1ab8b115be710f171ad106f2ba400ea3b9a04",
    ("classical_cir", "sampler-I"):
        "923ff9dca9910858ff9764b94d740efc5c8257f1d0475ab41031b15cb7da7081",
    ("classical_cir", "transition-K"):
        "7387ce8438dd8cbf41b43951a69d5577ee0994ba101e4eaf0fda8062e7ee7170",
    ("classical_cir", "truncation"):
        "8ebfbf52d20ec98dd8be196a9cc3c89e96b042ea95b705836104eee52408ea63",
    ("infinite_activity", "chapman-kolmogorov"):
        "1ae70efa238f715062df78198c9fc9036c833d5a5157a50099d5ae3f48f73e67",
    ("infinite_activity", "euler-convergence"):
        "f57fd720527187d730f039911b608bb0df718a8fc1d47df5489da7b1188b4efe",
    ("infinite_activity", "kernels"):
        "2e49dac3ea45076ee0ad0c3c1fd6069e77a5ddc28964e30061ebee26e00bead1",
    ("infinite_activity", "sampler-H"):
        "21e180d336c42a859b752a73943d46ccf2993b80a19ad2458db65f6ec50960dd",
    ("infinite_activity", "sampler-I"):
        "0fa9f6b8cf2118512c6c48fc9704e3949cf513e967a074146bd74ba17bcc1fa5",
    ("infinite_activity", "sampler-Itilde"):
        "3581ca20b0876057fc94921d60f8450f6c3efbd56cf070d52207e3d6fe34424f",
    ("infinite_activity", "transition-K"):
        "38e721a31dcea5c613327ccf49665c832b85f166b501e64a7705e67cc0085644",
    ("infinite_activity", "truncation"):
        "6eade2616fa0dab7b431549c0fa9ac51042269e6055c995b244899cf2c1a90bf",
    ("jump_model", "chapman-kolmogorov"):
        "d8ccff03f6d3630aa2805be36651feb6228309add57927e98ea406f808b0cda4",
    ("jump_model", "euler-convergence"):
        "0c9ad9dcf39758ee5c5fa5e8b2eb07e580ad4921be8c08021b639b9e8017a8c4",
    ("jump_model", "kernels"):
        "85703a42365bf7383c798babd0172a0cd5cc82e56a04ee2919ac8d89439ad931",
    ("jump_model", "sampler-H"):
        "0c89363e95a630db258495953782bdf6d39bd41827a477b6152a3aa245ad50f8",
    ("jump_model", "sampler-I"):
        "ceb6afaba0d0c30ac1c6cca2045d288423dd89201d1b26e2b20b09ac8fe1ea28",
    ("jump_model", "sampler-Itilde"):
        "456ba7d1e0c22a984d8df335cf311232b93ca78ef8a862899812808b4c290750",
    ("jump_model", "transition-K"):
        "7028711dc3d0980beaf4d4d8574fe1dec6ef363d95ea7cbac449210f29fc9335",
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
        # D(s, t) rounds to 0 on these valid intervals; sampling used to stop
        # with a ZeroDivisionError traceback, the transform still answers
        path = os.path.join(DEMO_CONFIGS, config + ".yaml")
        assert _exit_code(["sample", path, "--s", s, "--t", t, "--n", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DegenerateInterval: D(")
        assert "not positive" in err and len(err.splitlines()) == 1
        assert _exit_code(["laplace", path, "--s", s, "--t", t]) == 0

    @pytest.mark.parametrize("config,s,t", [
        ("classical_cir", "0.9999999999999999", "1.0"),
        ("jump_model", "1.9999999999999998", "2.0"),
    ])
    def test_one_ulp_interval_euler(self, capsys, tmp_path, config, s, t):
        # the Euler scheme draws only the driving measure, whose jump table
        # needs no D(s, t): it runs where the exact schemes refuse the step
        path = os.path.join(DEMO_CONFIGS, config + ".yaml")
        argv = ["simulate", path, "--s", s, "--t", t, "--outdir"]
        assert _exit_code(argv + [str(tmp_path / "euler"),
                                  "--scheme", "euler"]) == 0
        capsys.readouterr()
        rows = (tmp_path / "euler" / "path_0000.csv").read_text().splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [float(s), float(t)]
        for scheme in ("exact_skeleton", "branching"):
            assert _exit_code(argv + [str(tmp_path / scheme),
                                      "--scheme", scheme]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: DegenerateInterval: D(")
            assert len(err.splitlines()) == 1

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
