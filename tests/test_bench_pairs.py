"""``tools/bench_pairs.py`` on canned results, without running the benchmark."""

import importlib
import json
import os
import py_compile
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
           {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
            "bound": 0.25}]


@pytest.fixture(scope="module")
def pairs():
    tools = os.path.join(ROOT, "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    return importlib.import_module("bench_pairs")


def _result(p50, rate, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {"op_ms_p50": {"value": p50, "unit": "ms"},
                        "throughput_per_s": {"value": rate, "unit": "1/s"}}}


def test_summary_counts_wins_by_direction(pairs):
    parent = [_result(p, r) for p, r in
              [(1.0, 100.0), (2.0, 90.0), (3.0, 110.0), (4.0, 80.0), (5.0, 120.0)]]
    # pair 3 ties on op_ms_p50; pair 5 loses on both; throughput ties in pair 2
    change = [_result(p, r) for p, r in
              [(0.5, 101.0), (1.5, 90.0), (3.0, 111.0), (3.5, 85.0), (5.5, 119.0)]]
    rows = {r["name"]: r for r in pairs.summarize(parent, change, METRICS)}
    p50, rate = rows["op_ms_p50"], rows["throughput_per_s"]
    assert (p50["parent"], p50["change"], p50["pairs"]) == (3.0, 3.0, 5)
    assert p50["parent_quartiles"] == (2.0, 4.0)
    assert p50["wins"] == 3          # lower is better; the tie counts for neither
    assert p50["rel"] == 0.0
    assert (rate["parent"], rate["change"]) == (100.0, 101.0)
    assert rate["parent_quartiles"] == (90.0, 110.0)
    assert rate["wins"] == 3         # higher is better; the tie counts for neither
    assert rate["rel"] == pytest.approx(0.01)


def test_metrics_come_from_benchmark_json(pairs):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        want = json.load(fh)["end_to_end"]
    assert pairs.end_to_end_metrics(ROOT) == want
    assert pairs.quartiles([7.0]) == (7.0, 7.0)


def _fake_checkout(path, correct, traced_correct=None, checks=None):
    """A checkout whose ``perfbench/run.py`` prints one canned result, or
    another one under ``--trace 1`` when ``traced_correct`` is given, after
    a report line with ``checks``."""
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    traced = correct if traced_correct is None else traced_correct
    (path / "perfbench" / "run.py").write_text(
        "import json, sys\ntraced = sys.argv[-2:] == ['--trace', '1']\n"
        "print(json.dumps(%r))\nprint(json.dumps(%r if traced else %r))\n"
        % ({"report": {"checks": checks or {}}}, _result(1.0, 100.0, traced),
           _result(1.0, 100.0, correct)))
    return str(path)


@pytest.mark.parametrize("correct, code", [(True, 0), (False, 1)])
def test_exit_code_follows_correctness(pairs, tmp_path, capsys, correct, code):
    parent = _fake_checkout(tmp_path / "parent", True)
    change = _fake_checkout(tmp_path / "change", correct)
    assert pairs.main([parent, change, "--workload", "paths_jump", "--pairs", "2",
                       "--seconds", "1", "--seed", "5"]) == code
    out = capsys.readouterr().out
    assert ("0/2" in out) == correct    # no pair passes, so no summary
    assert ("FAILED" in out) != correct
    assert ("FAILED (correct=False failed=0)" in out) != correct


def test_traced_run_must_be_correct(pairs, tmp_path, capsys):
    # every untraced pair passes; the change's one traced run is not correct
    parent = _fake_checkout(tmp_path / "parent", True)
    change = _fake_checkout(tmp_path / "change", True, traced_correct=False)
    assert pairs.main([parent, change, "--workload", "sample_jump", "--pairs", "2",
                       "--seconds", "1", "--seed", "5"]) == 1
    out = capsys.readouterr().out
    assert "sample_jump: 2 pairs" in out     # the pairs were summarized
    assert "traced seed 5 parent: ok" in out
    assert "traced seed 5 change: FAILED" in out
    assert out.count("FAILED") == 1


def test_failed_run_names_its_checks(pairs, tmp_path, capsys):
    # a run that is not correct names its seed, its side and every failed
    # check of its report line with the check's summary
    checks = {"main": {"passed": True, "laplace_K_max_abs_z": 1.2},
              "second_seed": {"passed": False, "laplace_K_max_abs_z": 3.2571,
                              "laplace_K_passed": False}}
    parent = _fake_checkout(tmp_path / "parent", True)
    change = _fake_checkout(tmp_path / "change", False, checks=checks)
    assert pairs.main([parent, change, "--workload", "sample_jump", "--pairs", "1",
                       "--seconds", "1", "--seed", "7"]) == 1
    out = capsys.readouterr().out
    why = "FAILED (second_seed: laplace_K_max_abs_z=3.26 laplace_K_passed=False)"
    assert f"pair 1 seed 7 change: {why}" in out
    assert f"traced seed 7 change: {why}" in out
    assert "pair 1 seed 7 parent: ok" in out and "main:" not in out
    # an unreadable report line names no check: the line then names the
    # result's ``correct`` and ``failed``
    assert pairs.failed_checks("not json") == ""
    assert pairs.failed_checks(json.dumps({"report": {"checks": checks}})) == \
        "second_seed: laplace_K_max_abs_z=3.26 laplace_K_passed=False"


def test_both_checkouts_get_the_same_bytecode_caches(pairs, tmp_path, capsys):
    # the parent holds a cache of its package, the change none: before the
    # first pair both get up-to-date caches of src/ and perfbench/
    sides = {}
    for side in ("parent", "change"):
        sides[side] = _fake_checkout(tmp_path / side, True)
        pkg = tmp_path / side / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("X = 1\n")
    py_compile.compile(str(tmp_path / "parent" / "src" / "pkg" / "__init__.py"))
    assert not (tmp_path / "change" / "src" / "pkg" / "__pycache__").exists()
    assert pairs.main([sides["parent"], sides["change"], "--workload",
                       "paths_jump", "--pairs", "1", "--seconds", "1",
                       "--seed", "3"]) == 0
    out = capsys.readouterr().out
    tag = sys.implementation.cache_tag
    for side in ("parent", "change"):
        assert (f"compiled src/, perfbench/ of {side}: bytecode caches up to "
                "date") in out
        for d in ("src/pkg", "perfbench"):
            assert list((tmp_path / side / d / "__pycache__").glob(f"*.{tag}.pyc"))
    assert out.index("compiled") < out.index("pair 1 ")


def test_source_lines_of_both_checkouts(pairs, tmp_path, capsys):
    # the package of the parent has 12 lines in two files; the change drops
    # two lines of one file, adds a file of 1 line and deletes the other
    sizes = {"parent": {"a.py": 10, "b.py": 2}, "change": {"a.py": 8, "c.py": 1}}
    sides = {}
    for side, files in sizes.items():
        sides[side] = _fake_checkout(tmp_path / side, True)
        pkg = tmp_path / side / "src" / "cirjump"
        pkg.mkdir(parents=True)
        for name, n in files.items():
            (pkg / name).write_text("x = 1\n" * n)
        (pkg / "notes.txt").write_text("not counted\n")
    assert pairs.source_lines(sides["parent"]) == sizes["parent"]
    assert pairs.main([sides["parent"], sides["change"], "--workload",
                       "paths_jump", "--pairs", "1", "--seconds", "1",
                       "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("src/cirjump/*.py lines 12 -> 9 (-3)\n"
                          "  a.py 10 -> 8 (-2)\n"
                          "  b.py 2 -> 0 (-2)\n"
                          "  c.py 0 -> 1 (+1)\n")
    assert out.index("lines") < out.index("pair 1 ")
