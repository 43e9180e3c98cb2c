"""The verdict of `tools/bench_pairs.py` on fixed numbers; no run starts."""

import importlib.util
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
