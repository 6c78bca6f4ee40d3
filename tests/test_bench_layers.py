"""``tools/bench_layers.py`` at 10^4 draws: the layout of a BENCH file."""

import importlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def layers():
    tools = os.path.join(ROOT, "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    return importlib.import_module("bench_layers")


def test_rows_and_environment(layers):
    out = layers.bench_layers(draws=10 ** 4, repeats=1)
    assert set(out) == {"environment", "draws", "repeats", "seed", "rows"}
    assert (out["draws"], out["repeats"], out["seed"]) == (10 ** 4, 1, layers.SEED)
    env = out["environment"]
    assert set(env) == {"cores", "python", "numpy", "pyyaml", "git_revision",
                        "git_dirty", "src_sha256"}
    assert env["cores"] >= 1 and len(env["src_sha256"]) == 64
    got = {(r["config"], r["layer"]) for r in out["rows"]}
    want = {(c, layer) for c in ("classical_cir", "infinite_activity", "jump_model")
            for layer in ("sample_h", "sample_i", "sample_itilde", "sample_k")}
    # classical_cir has no jump measure, so no ITilde row
    assert got == want - {("classical_cir", "sample_itilde")}
    for r in out["rows"]:
        assert set(r) == {"config", "s", "t", "y", "layer", "s_per_1e6_draws",
                          "transform_max_abs_z", "transform_passed"}
        assert r["s_per_1e6_draws"] > 0.0 and r["transform_max_abs_z"] >= 0.0
    json.dumps(out)    # plain JSON types only


def test_label_is_checked(layers, capsys):
    with pytest.raises(SystemExit) as exc:
        layers.main(["../elsewhere"])
    assert exc.value.code == 2
    assert "LABEL" in capsys.readouterr().err
