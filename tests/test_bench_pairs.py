"""The verdict and the workload choice of `tools/bench_pairs.py` on fixed
numbers; no run starts."""

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict


def test_quartiles_use_the_exclusive_method():
    v = verdict([float(k) for k in range(1, 11)], [0.0] * 10, "lower", 0.25)
    assert v["base"] == {"q1": 2.75, "median": 5.5, "q3": 8.25}


def test_a_steady_drop_is_a_gain():
    # peak RSS repeats exactly at a fixed commit: the base's IQR is 0
    v = verdict([45.55] * 10, [44.63] * 10, "lower", 0.2)
    assert v["wins"] == 10 and v["gain"] and not v["regression"]
    assert v["base"] == {"q1": 45.55, "median": 45.55, "q3": 45.55}
    assert v["head"]["median"] == 44.63


def test_eight_wins_in_ten_are_no_gain():
    base = [1.0] * 10
    head = [0.5] * 8 + [1.5] * 2
    v = verdict(base, head, "lower", 0.25)
    assert v["wins"] == 8 and not v["gain"]
    assert verdict(base, [0.5] * 9 + [1.5], "lower", 0.25)["gain"]


def test_a_median_gap_inside_the_base_iqr_is_no_gain():
    base = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    head = [b - 0.1 for b in base]
    v = verdict(base, head, "lower", 0.25)
    assert v["wins"] == 10 and not v["gain"]
    v = verdict(base, [b - 1.5 for b in base], "lower", 0.25)
    assert v["gain"]


def test_no_gain_when_the_head_fails_more_operations():
    base, head = [45.55] * 10, [44.63] * 10
    assert not verdict(base, head, "lower", 0.2, failed=(0, 1))["gain"]
    assert verdict(base, head, "lower", 0.2, failed=(2, 2))["gain"]


def test_a_gain_must_beat_the_floor():
    # a 0.13 MB shift at a base IQR of 0 wins every pair but is no gain
    base = [44.712] * 10
    assert verdict(base, [44.582] * 10, "lower", 0.2)["gain"]
    v = verdict(base, [44.582] * 10, "lower", 0.2, floor=0.3)
    assert v["wins"] == 10 and not v["gain"]
    assert verdict(base, [44.4] * 10, "lower", 0.2, floor=0.3)["gain"]
    assert bench_pairs.GAIN_FLOORS == {"peak_rss_mb": 0.3}


def test_ties_are_not_wins():
    assert verdict([3.0] * 10, [3.0] * 10, "lower", 0.25)["wins"] == 0


def test_higher_is_better_flips_the_direction():
    base = [100.0] * 10
    v = verdict(base, [110.0] * 10, "higher", 0.25)
    assert v["wins"] == 10 and v["gain"] and not v["regression"]
    v = verdict(base, [70.0] * 10, "higher", 0.25)
    assert v["wins"] == 0 and not v["gain"] and v["regression"]


def test_regression_is_a_median_worse_by_more_than_the_bound():
    base = [10.0] * 10
    assert not verdict(base, [12.4] * 10, "lower", 0.25)["regression"]
    assert verdict(base, [12.6] * 10, "lower", 0.25)["regression"]


def test_unpaired_or_unknown_inputs_are_rejected():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0, 2.0], "smaller", 0.25)


def _no_runs(monkeypatch, ran=None):
    """Stand-ins for git, the export and the runs: each run reads 1.0 on
    every metric, and its (workload, side) goes to `ran`."""
    def run(side, workload, seed, seconds, env):
        if ran is None:
            raise AssertionError("a run started")
        ran.append((workload, os.path.basename(side)))
        return {"failed": 0, "attempted": 1,
                "metrics": {m: {"value": 1.0} for m in ("wall_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(bench_pairs, "_git", lambda *a, **k: b"0123abcd\n")
    monkeypatch.setattr(bench_pairs, "_worktree_tree", lambda: "4567ef01")
    monkeypatch.setattr(bench_pairs, "_export", lambda treeish, dest: None)
    monkeypatch.setattr(bench_pairs, "_run", run)


def test_an_unknown_workload_exits_2_before_anything_runs(tmp_path, monkeypatch, capsys):
    _no_runs(monkeypatch)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--out", str(out), "--workload", "verify_suite",
                          "--workload", "nope"])
    assert exc.value.code == 2
    assert "unknown workload 'nope'" in capsys.readouterr().err
    assert not out.exists()


def test_named_workloads_alone_run_and_are_recorded(tmp_path, monkeypatch):
    ran = []
    _no_runs(monkeypatch, ran)
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--workload", "verify_suite", "--workload", "section7_cell"]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    # in BENCHMARK.json's order, whatever the order on the command line
    assert record["protocol"]["workloads"] == ["section7_cell", "verify_suite"]
    assert sorted(record["results"]) == ["section7_cell", "verify_suite"]
    assert sorted(set(ran)) == [(w, side) for w in ("section7_cell", "verify_suite")
                                for side in ("base", "head")]
    assert len(ran) == 2 * 2 * bench_pairs.PAIRS


def test_the_floor_applies_to_peak_rss_only(tmp_path, monkeypatch):
    _no_runs(monkeypatch)
    # the head reads 0.13 lower on every metric of every run
    def run(side, workload, seed, seconds, env):
        value = 45.0 - (0.13 if os.path.basename(side) == "head" else 0.0)
        return {"failed": 0, "attempted": 1,
                "metrics": {m: {"value": value} for m in ("wall_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--out", str(out), "--workload", "section7_cell"]) == 0
    result = json.loads(out.read_text())["results"]["section7_cell"]
    assert result["wall_s"]["gain"] and result["setup_s"]["gain"]
    assert result["peak_rss_mb"]["wins"] == 10 and not result["peak_rss_mb"]["gain"]


def test_every_workload_runs_by_default(tmp_path, monkeypatch):
    ran = []
    _no_runs(monkeypatch, ran)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--out", str(out)]) == 0
    with open(os.path.join(bench_pairs.ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert json.loads(out.read_text())["protocol"]["workloads"] == names
    assert {w for w, _ in ran} == set(names)
