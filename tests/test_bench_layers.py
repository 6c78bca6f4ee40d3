"""``tools/bench_layers.py`` at 10^4 draws: the layout of a BENCH file."""

import importlib
import json
import os
import sys

import pytest

import cirjump as cj

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def layers():
    tools = os.path.join(ROOT, "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    return importlib.import_module("bench_layers")


def test_rows_and_environment(layers):
    out = layers.bench_layers(draws=10 ** 4, repeats=3, calls=2, bd_calls=200)
    assert set(out) == {"environment", "draws", "repeats", "seed", "calls",
                        "bd_calls", "rows", "transforms", "bd"}
    assert (out["draws"], out["repeats"], out["seed"], out["calls"],
            out["bd_calls"]) == (10 ** 4, 3, layers.SEED, 2, 200)
    env = out["environment"]
    assert set(env) == {"cores", "usable_cores", "python", "numpy", "pyyaml",
                        "bit_generator", "git_revision", "git_dirty",
                        "src_sha256"}
    assert env["bit_generator"] == "PCG64DXSM"
    assert env["cores"] >= 1 and len(env["src_sha256"]) == 64
    # the sample_k rows depend on it: ITilde takes a second thread at 2 or more
    assert 1 <= env["usable_cores"] <= env["cores"]
    got = {(r["config"], r["layer"]) for r in out["rows"]}
    want = {(c, layer) for c in ("classical_cir", "infinite_activity", "jump_model")
            for layer in ("sample_h", "sample_i", "sample_itilde", "sample_k")}
    # classical_cir has no jump measure, so no ITilde row; the clipped-sine
    # input rate changes only I, so its row set is I and K
    want -= {("classical_cir", "sample_itilde")}
    want |= {("jump_model_sine_a", "sample_i"), ("jump_model_sine_a", "sample_k")}
    assert got == want
    for r in out["rows"]:
        assert set(r) == {"config", "s", "t", "y", "layer", "s_per_1e6_draws",
                          "s_per_1e6_draws_median", "s_per_1e6_draws_repeats",
                          "transform_max_abs_z", "transform_passed"}
        assert r["s_per_1e6_draws"] > 0.0 and r["transform_max_abs_z"] >= 0.0
        # every repeat's time, the best of them and their median
        times = r["s_per_1e6_draws_repeats"]
        assert len(times) == 3 and r["s_per_1e6_draws"] == min(times)
        assert r["s_per_1e6_draws_median"] == sorted(times)[1]
        # the 64-cell I-grid has a known bias: recorded, not judged
        assert (r["transform_passed"] is None) == (r["config"] == "jump_model_sine_a")
    # transform rows: each demo config, no ITilde transform without a jump
    # measure, and lam = inf rows of Itilde and K where there is one
    got = {(r["config"], r["layer"]) for r in out["transforms"]}
    want = {(c, "laplace_" + comp)
            for c in ("classical_cir", "infinite_activity", "jump_model")
            for comp in ("K", "H", "I", "Itilde")}
    want |= {(c, f"laplace_{comp}_inf") for c in ("infinite_activity", "jump_model")
             for comp in ("K", "Itilde")}
    assert got == want - {("classical_cir", "laplace_Itilde")}
    for r in out["transforms"]:
        assert set(r) == {"config", "s", "t", "y", "layer", "ms_per_call",
                          "ms_per_call_median", "ms_per_call_repeats",
                          "max_error_estimate"}
        times = r["ms_per_call_repeats"]
        assert len(times) == 3 and r["ms_per_call"] == min(times) > 0.0
        assert r["ms_per_call_median"] == sorted(times)[1]
        if r["layer"] == "laplace_K_inf":
            # a > 0 up to t on both: K is 0 at lam = inf, with error 0
            assert r["max_error_estimate"] == 0.0
        else:
            assert 0.0 < r["max_error_estimate"] < 1e-6
    # bd rows: each demo config and the tabulated set, the table build, one
    # pair and a node array
    configs = ("classical_cir", "infinite_activity", "jump_model",
               "jump_model_tabulated")
    got = {(r["config"], r["layer"]) for r in out["bd"]}
    assert got == {(c, layer) for c in configs
                   for layer in ("table_build", "bd_pair", "bd_nodes")}
    for r in out["bd"]:
        assert set(r) == {"config", "s", "t", "layer", "exact", "us_per_call",
                          "us_per_call_median", "us_per_call_repeats"}
        assert r["exact"] == (r["config"] != "jump_model_tabulated")
        times = r["us_per_call_repeats"]
        assert len(times) == 3 and r["us_per_call"] == min(times) > 0.0
        assert r["us_per_call_median"] == sorted(times)[1]
    json.dumps(out)    # plain JSON types only


def test_sine_row_set_draws_64_cells(layers):
    _, cfg, _, bounded = layers.row_sets()[-1]
    sampler = cj.TransitionSampler(cfg.coeffs, cfg.nu, n_cells=cfg.n_cells)
    assert not bounded and len(sampler.i_grid(cfg.s, cfg.t)) - 1 == 64


def test_label_is_checked(layers, capsys):
    with pytest.raises(SystemExit) as exc:
        layers.main(["../elsewhere"])
    assert exc.value.code == 2
    assert "LABEL" in capsys.readouterr().err
