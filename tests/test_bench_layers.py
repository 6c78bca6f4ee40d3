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
    out = layers.bench_layers(draws=10 ** 4, repeats=3)
    assert set(out) == {"environment", "draws", "repeats", "seed", "rows"}
    assert (out["draws"], out["repeats"], out["seed"]) == (10 ** 4, 3, layers.SEED)
    env = out["environment"]
    assert set(env) == {"cores", "usable_cores", "python", "numpy", "pyyaml",
                        "git_revision", "git_dirty", "src_sha256"}
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
