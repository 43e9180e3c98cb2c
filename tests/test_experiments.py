"""Experiment harness: price distribution, KDE, sweeps, determinism."""

import tracemalloc

import numpy as np
import pytest

from densitylab.experiments import (KDE_BLOCK_ROWS, ExperimentConfig, kde, kde_grid,
                                    pricing_window,
                                    run_price_distribution, sample_skewness,
                                    silverman_bandwidth, sweep)
from densitylab.pricing import price_pre_default_independent
from densitylab import term_structure as ts
from densitylab.term_structure import (DensityCurveState, simulate_density_paths,
                                       simulate_survival_values)

BASELINE_PRICE = 0.946770056608465


def test_deterministic_baseline_prices_identical():
    cfg = ExperimentConfig(sigma=0.0, b=0.0, n_paths=5000)
    sample = run_price_distribution(cfg)
    assert sample.prices.size == 5000
    assert np.all(sample.prices == sample.prices[0])
    assert abs(sample.prices[0] - BASELINE_PRICE) < 1e-6
    assert sample.n_rejected == 0 and sample.flagged_fraction == 0.0


@pytest.mark.parametrize("cell", [dict(sigma=0.0, b=0.0), dict(sigma=0.0, varpi=0.0),
                                  dict(t=0.0)], ids=["sigma=b=0", "sigma=varpi=0", "t=0"])
def test_noise_free_cells_price_to_closed_form(cell):
    cfg = ExperimentConfig(n_paths=300, **cell)
    sample = run_price_distribution(cfg)
    lam, t, T = cfg.lambda_bar, cfg.t, cfg.T
    closed = np.exp(-cfg.r * (T - t)) * (1 - (1 - cfg.R) * (np.exp(-lam * t) - np.exp(-lam * T))
                                         / np.exp(-lam * t))
    assert np.array_equal(sample.path_ids, np.arange(300))
    assert np.abs(sample.prices - closed).max() <= 1e-15
    assert sample.n_rejected == 0 and not sample.flagged.any()


def test_seed_determinism_across_sample_sizes():
    # chunk boundaries move (last chunk 512-600 vs 512-768); path bits do not
    small = run_price_distribution(ExperimentConfig(n_paths=600, varpi=2e-3, seed=909))
    large = run_price_distribution(ExperimentConfig(n_paths=1000, varpi=2e-3, seed=909))
    head = large.path_ids < 600
    assert np.array_equal(small.path_ids, large.path_ids[head])
    assert np.array_equal(small.prices, large.prices[head])
    assert np.array_equal(small.flagged, large.flagged[head])


def test_rerun_bit_identical():
    cfg = ExperimentConfig(n_paths=400, varpi=1e-3, seed=5150)
    a = run_price_distribution(cfg)
    b = run_price_distribution(cfg)
    assert np.array_equal(a.prices, b.prices)


def test_jumps_fatten_right_tail_and_skew():
    flat = run_price_distribution(ExperimentConfig(n_paths=3000, varpi=0.0, seed=31))
    fat = run_price_distribution(ExperimentConfig(n_paths=3000, varpi=2e-3, seed=32))
    assert sample_skewness(fat.prices) > sample_skewness(flat.prices)
    assert (fat.prices > flat.prices.max()).sum() > 0


def test_price_bounds_on_unflagged_paths():
    cfg = ExperimentConfig(n_paths=2000, varpi=1e-3, seed=61)
    sample = run_price_distribution(cfg)
    disc = np.exp(-cfg.r * (cfg.T - cfg.t))
    clean = sample.prices[~sample.flagged]
    assert clean.size > 0
    assert np.all(clean >= cfg.R * disc - 1e-12)
    assert np.all(clean <= disc + 1e-12)


def test_negative_paths_flagged_not_dropped():
    cfg = ExperimentConfig(n_paths=500, varpi=1e-3, seed=71)
    sample = run_price_distribution(cfg)
    assert sample.prices.size + sample.n_rejected == 500
    assert 0.0 <= sample.flagged_fraction <= 1.0


# ------------------------------------------------- curve-engine oracle

ORACLE_CONFIGS = {
    "defaults": {},
    "sigma=0.01": {"sigma": 0.01},
    "varpi=2e-3": {"varpi": 2e-3},
    "lambda=0.01": {"lambda_bar": 0.01, "theta_max": None},
    "lambda=0.3": {"lambda_bar": 0.3},
    "t=0.9,T=2": {"t": 0.9, "T": 2.0},
}


@pytest.mark.parametrize("t,T,delta", [(0.5, 1.0, 0.01), (0.25, 2.0, 0.01), (0.0, 1.0, 0.005),
                                         (1.5, 3.0, 0.01), (0.37, 0.91, 0.01)])
def test_pricing_window_is_the_theta_grid_on_t_to_T(t, T, delta):
    cfg = ExperimentConfig(t=t, T=T, delta=delta)
    grid = cfg.theta_grid()
    on_window = (grid >= t - 1e-12) & (grid <= T + 1e-12)
    assert np.array_equal(pricing_window(cfg), grid[on_window])


def test_pricing_window_checks_the_grid_and_the_horizon():
    with pytest.raises(ValueError, match="t and T must lie on the theta grid"):
        pricing_window(ExperimentConfig(T=1.005))
    with pytest.raises(ValueError, match="volatility too large"):
        pricing_window(ExperimentConfig(sigma=100.0))


def _both_engines(cfg):
    """Grid curves and closed-form window values for the same (seed, path)s."""
    window = pricing_window(cfg)
    curves = simulate_density_paths(cfg.spec(), cfg.measure(), cfg.theta_grid(), cfg.t,
                                    cfg.delta_t, cfg.n_paths, cfg.seed,
                                    jump_sign_convention=cfg.jump_sign_convention)
    values = simulate_survival_values(cfg.spec(), cfg.measure(), window, cfg.t,
                                      cfg.delta_t, cfg.n_paths, cfg.seed,
                                      jump_sign_convention=cfg.jump_sign_convention)
    i_t = int(np.searchsorted(curves["theta_grid"], window[0]))
    on_window = slice(i_t, i_t + window.size)
    assert np.array_equal(curves["theta_grid"][on_window], window)
    return curves, values, on_window


@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_closed_form_window_matches_curve_engine(name):
    cfg = ExperimentConfig(n_paths=64, **ORACLE_CONFIGS[name])
    curves, values, on_window = _both_engines(cfg)
    surv = curves["survival"][:, on_window]
    # S_t(t) and S_t(T) price the path; alpha on [t, T] decides its flag
    assert np.abs(values["survival"][:, [0, -1]] - surv[:, [0, -1]]).max() <= 1e-8
    assert np.abs(values["alpha"] - curves["alpha"][:, on_window]).max() <= 1e-8


def test_prices_match_curve_engine_oracle():
    # At sigma = 0.01 the gap reaches ~1.8e-6 over 2,000 paths.  All of it is
    # the curve engine's own trapezoid error in the tail of its denominator
    # integral (with that integral replaced by its S_t(t) node the gap falls
    # to ~2e-8), so the 1e-6 price bound is asserted at the defaults only.
    cfg = ExperimentConfig(n_paths=64)
    curves, _, _ = _both_engines(cfg)
    sample = run_price_distribution(cfg)
    assert sample.n_rejected == 0
    ref = [price_pre_default_independent(
        cfg.t, cfg.T, DensityCurveState(cfg.t, curves["theta_grid"], curves["alpha"][p],
                                        curves["survival"][p]), cfg.R, cfg.r)
        for p in range(cfg.n_paths)]
    assert np.abs(sample.prices - np.array(ref)).max() <= 1e-6


def _inject_noise(monkeypatch, edit):
    """Route every engine's noise through `edit(paths, normals, counts, marks)`,
    which returns the edited triple; both engines then see the same noise."""
    draw = ts._path_noise

    def injected(measure, seed, paths, n_steps, dt):
        return edit(paths, *draw(measure, seed, paths, n_steps, dt))

    monkeypatch.setattr(ts, "_path_noise", injected)


def test_flag_is_negative_density_on_the_pricing_window(monkeypatch):
    # at lambda_bar = 0.01 the density on [t, T] is ~0.0099; a first-step
    # dW of -30 on path 48 adds sigma (theta - 0) 30 >= 0.015 to dm there and
    # drives the path's density below zero, far beyond the engines' 1e-10 gap
    def negative_dw(paths, normals, counts, marks):
        if 48 in paths:
            normals[48 - paths.start, 0] = -30.0 / np.sqrt(0.01)
        return normals, counts, marks

    _inject_noise(monkeypatch, negative_dw)
    cfg = ExperimentConfig(n_paths=64, lambda_bar=0.01, seed=3)
    curves, _, on_window = _both_engines(cfg)
    sample = run_price_distribution(cfg)
    surv = curves["survival"][:, on_window]
    negative = ((curves["alpha"][:, on_window] < 0).any(axis=1)
                | (surv[:, -1] < 0) | (surv[:, -1] > surv[:, 0]))
    assert negative.any()
    assert np.array_equal(sample.path_ids[sample.flagged], np.flatnonzero(negative))
    assert sample.diagnostics["negative_path_fraction"] == negative.mean()


def test_unflagged_prices_bounded_under_large_section3_jumps(monkeypatch):
    # Under the Section-3 sign two marks with xi G_k(T) > ln 2 in one step
    # give 1 + dM_k(T) < 0, so S_t(T) < 0 and P < R B, while G_k(t) ~ 0
    # keeps S_t(t) and the density on [t, T] positive: the density alone
    # would leave such a path unflagged.  Every even path gets two marks of
    # 10 in its last step (t_k = 0.49: xi G_k(T) = 1.3, xi G_k(t) = 5e-4).
    def two_large_marks(paths, normals, counts, marks):
        ends = np.cumsum(counts.sum(axis=1))          # the rows' last mark offsets
        rows = np.flatnonzero(np.asarray(paths) % 2 == 0)
        counts[rows, -1] += 2
        return normals, counts, np.insert(marks, np.repeat(ends[rows], 2), 10.0)

    _inject_noise(monkeypatch, two_large_marks)
    cfg = ExperimentConfig(n_paths=400, varpi=1.0, jump_sign_convention="section3", seed=5)
    sample = run_price_distribution(cfg)
    values = simulate_survival_values(cfg.spec(), cfg.measure(), pricing_window(cfg), cfg.t,
                                      cfg.delta_t, cfg.n_paths, cfg.seed,
                                      jump_sign_convention=cfg.jump_sign_convention)
    density_ok = ~(values["alpha"][sample.path_ids] < 0).any(axis=1)
    disc = np.exp(-cfg.r * (cfg.T - cfg.t))
    below = sample.prices < cfg.R * disc
    assert (below & density_ok).any()
    assert np.all(sample.flagged[below])
    clean = sample.prices[~sample.flagged]
    assert clean.size > 0
    assert np.all(clean >= cfg.R * disc - 1e-12)
    assert np.all(clean <= disc + 1e-12)


# ------------------------------------------------- the window's sign flag

def _full_window_reference(cfg):
    """(prices, path ids, flags, rejections, flagged fraction) with the flag
    read off every path's density on the whole pricing window."""
    n_sim = 1 if cfg.noise_free else cfg.n_paths
    res = simulate_survival_values(cfg.spec(), cfg.measure(), pricing_window(cfg), cfg.t,
                                   cfg.delta_t, n_sim, cfg.seed,
                                   jump_sign_convention=cfg.jump_sign_convention)
    s_t, s_T = res["survival"][:, 0], res["survival"][:, -1]
    valid = s_t > 0
    prices = np.full(n_sim, np.nan)
    disc = np.exp(-cfg.r * (cfg.T - cfg.t))
    prices[valid] = disc * (1.0 - (1.0 - cfg.R) * (s_t[valid] - s_T[valid]) / s_t[valid])
    neg = (res["alpha"] < 0).any(1) | (s_T < 0) | (s_T > s_t)
    if cfg.noise_free:
        prices, valid, neg = (np.repeat(a, cfg.n_paths) for a in (prices, valid, neg))
    return (prices[valid], np.flatnonzero(valid), neg[valid], int((~valid).sum()),
            float(neg.mean()))


def _assert_matches_full_window(cfg):
    sample = run_price_distribution(cfg)
    prices, ids, flagged, n_rejected, fraction = _full_window_reference(cfg)
    assert np.array_equal(sample.prices, prices)
    assert np.array_equal(sample.path_ids, ids)
    assert np.array_equal(sample.flagged, flagged)
    assert sample.n_rejected == n_rejected
    assert sample.diagnostics["negative_path_fraction"] == fraction
    return sample


WINDOW_CELLS = {
    "defaults": {},
    "sigma=0.2": {"sigma": 0.2},
    "varpi=0.5,zeta=20": {"varpi": 0.5, "zeta": 20.0},
    "lambda=0.01,sigma=0.01": {"lambda_bar": 0.01, "sigma": 0.01},
    "section3": {"varpi": 0.5, "zeta": 30.0, "b": 3.0, "jump_sign_convention": "section3"},
    "no jumps,sigma=0.1": {"varpi": 0.0, "sigma": 0.1},
    "t=0": {"t": 0.0},
}


@pytest.mark.parametrize("chunk", [ts.PATH_CHUNK, 16])
@pytest.mark.parametrize("name", list(WINDOW_CELLS))
def test_window_flag_matches_the_full_window(monkeypatch, name, chunk):
    monkeypatch.setattr(ts, "PATH_CHUNK", chunk)
    _assert_matches_full_window(ExperimentConfig(n_paths=300, **WINDOW_CELLS[name]))


def test_default_cell_evolves_no_window():
    # the noise bound clears every chunk of the Section-7 cell, so its
    # paths evolve S at t and T only
    sample = run_price_distribution(ExperimentConfig())
    assert sample.diagnostics["window_paths"] == 0


@pytest.mark.parametrize("dw,evolved,flagged", [(-30.0, False, False), (-100.0, True, False),
                                                (-300.0, True, True)])
def test_a_shock_past_the_bound_evolves_its_chunk(monkeypatch, dw, evolved, flagged):
    # A first-step dW on path 40 moves dm by at most sigma T |dW| on the
    # window: 0.03 is below lambda_bar = 0.1, and the bound clears the
    # chunk.  At 0.1 the bound fails, though alpha stays positive
    # (lambda_bar - 0.1 / 1.05 > 0); at 0.3 alpha turns negative.  With
    # 16-path chunks the other three chunks stay cleared.
    def shock(paths, normals, counts, marks):
        if 40 in paths:
            normals[40 - paths.start, 0] = dw / np.sqrt(0.01)
        return normals, counts, marks

    _inject_noise(monkeypatch, shock)
    monkeypatch.setattr(ts, "PATH_CHUNK", 16)
    sample = _assert_matches_full_window(ExperimentConfig(n_paths=64, seed=3))
    assert sample.diagnostics["window_paths"] == (16 if evolved else 0)
    assert np.flatnonzero(sample.flagged).tolist() == ([40] if flagged else [])


@pytest.mark.parametrize("mark,evolved", [(0.1, False), (1.0, True)])
def test_a_mark_past_the_bound_evolves_its_chunk(monkeypatch, mark, evolved):
    # One more mark on path 40's last step (t_k = 0.49) adds at most
    # b (T - t_k) mark = 0.51 mark to dm on the window: 0.051 stays below
    # lambda_bar = 0.1, and the bound clears the chunk; a mark of 1 turns
    # alpha negative near T.
    def one_mark(paths, normals, counts, marks):
        if 40 in paths:
            row = 40 - paths.start
            end = counts[:row + 1].sum()              # after the row's last mark
            counts[row, -1] += 1
            marks = np.insert(marks, end, mark)
        return normals, counts, marks

    _inject_noise(monkeypatch, one_mark)
    monkeypatch.setattr(ts, "PATH_CHUNK", 16)
    sample = _assert_matches_full_window(ExperimentConfig(n_paths=64, seed=3))
    assert sample.diagnostics["window_paths"] == (16 if evolved else 0)
    assert np.flatnonzero(sample.flagged).tolist() == ([40] if evolved else [])


def test_values_beside_a_sign_window_keep_their_bits():
    # three maturities on the window read off its columns, one off it
    cfg = ExperimentConfig(n_paths=40, sigma=0.2)
    window = pricing_window(cfg)
    thetas = np.append(window[[50, 0, 25]], 2.0)
    args = (cfg.spec(), cfg.measure(), thetas, cfg.t, cfg.delta_t, cfg.n_paths, cfg.seed)
    alone = simulate_survival_values(*args)
    beside = simulate_survival_values(*args, sign_window=window)
    assert beside["window_paths"] == 40
    assert np.array_equal(beside["alpha"], alone["alpha"])
    assert np.array_equal(beside["survival"], alone["survival"])
    full = simulate_survival_values(cfg.spec(), cfg.measure(), window, *args[3:])
    assert np.array_equal(beside["alpha_negative"], (full["alpha"] < 0).any(1))


# ---------------------------------------------------------------------- kde

def test_kde_rejects_degenerate_samples():
    with pytest.raises(ValueError, match="degenerate sample"):
        silverman_bandwidth(np.array([1.0]))
    with pytest.raises(ValueError, match="degenerate sample"):
        silverman_bandwidth(np.array([2.0, 2.0, 2.0]))
    equal = np.full(300, 0.9467700566084652)
    assert equal.std(ddof=1) > 0.0          # rounding noise, not spread
    with pytest.raises(ValueError, match="degenerate sample: all values are equal"):
        silverman_bandwidth(equal)
    assert sample_skewness(equal) == 0.0


def test_kde_two_sample_hand_value():
    samples = np.array([0.0, 1.0])
    s_k = np.sqrt(0.5)                      # sample SD, ddof = 1
    h = 1.06 * s_k * 2 ** (-0.2)
    assert silverman_bandwidth(samples) == pytest.approx(h, rel=1e-12)
    # f(0.5): both kernels contribute equally
    expected = np.exp(-0.5 * (0.5 / h) ** 2) / (h * np.sqrt(2 * np.pi))
    assert kde(samples, np.array([0.5]))[0] == pytest.approx(expected, rel=1e-12)


def test_kde_normalizes_to_one():
    rng = np.random.Generator(np.random.Philox(key=8))
    samples = rng.normal(0.9, 0.01, size=500)
    x = kde_grid(samples, n_points=2001)
    f = kde(samples, x)
    mass = np.trapezoid(f, x)
    assert mass == pytest.approx(1.0, abs=1e-6)


def _one_shot_kde(samples, x):
    # the whole (grid x samples) matrix at once
    h = silverman_bandwidth(samples)
    z = (x[:, None] - samples[None, :]) / h
    return np.exp(-0.5 * z ** 2).sum(axis=1) / (samples.size * h * np.sqrt(2.0 * np.pi))


@pytest.mark.parametrize("n_samples", [2, 10_000])
@pytest.mark.parametrize("n_points", [1, KDE_BLOCK_ROWS - 1, KDE_BLOCK_ROWS,
                                      KDE_BLOCK_ROWS + 1, 401])
def test_kde_blocks_equal_the_one_shot_formula(n_points, n_samples):
    samples = np.random.Generator(np.random.Philox(key=9)).normal(0.95, 0.01, n_samples)
    x = kde_grid(samples, n_points=n_points)
    assert np.array_equal(kde(samples, x), _one_shot_kde(samples, x))


def test_kde_scratch_memory_is_bounded_by_the_block():
    # numpy reports its buffers to tracemalloc; one (grid x samples)
    # temporary alone would be 32 MB here
    samples = np.random.Generator(np.random.Philox(key=10)).normal(0.95, 0.01, 10_000)
    x = kde_grid(samples, n_points=401)
    tracemalloc.start()
    try:
        kde(samples, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


# -------------------------------------------------------------------- sweep

def test_sweep_requires_sorted_values():
    cfg = ExperimentConfig(n_paths=10)
    with pytest.raises(ValueError, match="sorted"):
        sweep(cfg, "varpi", [1e-3, 0.0])


def test_sweep_unknown_axis():
    cfg = ExperimentConfig(n_paths=10)
    with pytest.raises(ValueError, match="axis"):
        sweep(cfg, "nu", [0.0])


def test_sweep_zero_noise_cell_matches_baseline():
    # varpi = 0 cell with sigma -> 0 recovers the closed-form mean within 3 SE
    cfg = ExperimentConfig(n_paths=500, sigma=1e-4, seed=123)
    rows = sweep(cfg, "varpi", [0.0])
    row = rows[0]
    assert abs(row["mean"] - BASELINE_PRICE) < 3 * row["se"] + 1e-7
    assert row["flagged_fraction"] == 0.0 or row["flagged_fraction"] < 0.05


def test_sweep_lambda_axis_strongly_decreasing():
    cfg = ExperimentConfig(n_paths=400, sigma=0.001, varpi=1e-3, seed=3)
    rows = sweep(cfg, "lambda", [0.03, 0.1, 0.3])
    means = [r["mean"] for r in rows]
    assert means[0] > means[1] > means[2]
    assert means[0] - means[2] > 2 * (rows[0]["se"] + rows[2]["se"])


def test_sweep_T_axis_decreasing_at_t_zero():
    cfg = ExperimentConfig(t=0.0, n_paths=16, seed=5)
    rows = sweep(cfg, "T", [0.5, 1.0, 2.0])
    means = [r["mean"] for r in rows]
    assert means[0] > means[1] > means[2]
    assert all(r["se"] == 0.0 for r in rows)   # t = 0 curves are deterministic


# -------------------------------------------------------------- validation

def test_config_validation():
    with pytest.raises(ValueError, match="n_paths"):
        ExperimentConfig(n_paths=0)
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        ExperimentConfig(R=1.4)
    with pytest.raises(ValueError, match="integer number"):
        ExperimentConfig(t=0.505, delta_t=0.01)
    with pytest.raises(ValueError, match="section7"):
        ExperimentConfig(jump_sign_convention="bogus")


def test_theta_grid_contains_t_and_T():
    for lb in (0.01, 0.1, 0.3):
        cfg = ExperimentConfig(lambda_bar=lb)
        grid = cfg.theta_grid()
        assert np.isclose(grid, cfg.t, atol=1e-9).any()
        assert np.isclose(grid, cfg.T, atol=1e-9).any()
        assert grid[-1] <= cfg.theta_max_effective + 1e-9
        assert grid.size < 2600


def test_stability_cap_keeps_small_lambda_cells_finite():
    # theta_max = 10/lambda_bar would put the multiplicative scheme far past
    # its stable horizon for small lambda_bar; the cap carries the remainder
    # through the exact survival identity instead
    cfg = ExperimentConfig(lambda_bar=0.01, sigma=0.001, varpi=1e-3, n_paths=200, seed=17)
    assert cfg.theta_sim_cap < cfg.theta_max_effective
    sample = run_price_distribution(cfg)
    assert sample.n_rejected == 0
    assert np.all(np.isfinite(sample.prices))
    ref = np.exp(-0.025) * (1 - 0.6 * (np.exp(-0.005) - np.exp(-0.01)) / np.exp(-0.005))
    assert abs(sample.prices.mean() - ref) < 5 * sample.prices.std(ddof=1) / np.sqrt(200)
    # default parameters are exactly at the horizon: grid unchanged
    base = ExperimentConfig(lambda_bar=0.1, sigma=0.001)
    assert base.theta_sim_cap == base.theta_max_effective
