"""Extended Vasicek rate: exact updates, closed-form bond, adjudication."""

import numpy as np
import pytest

from densitylab import rates
from densitylab.rates import (VasicekSpec, adjudicate_vasicek_formula, constant_rate_discount,
                              ou_gaussian_loading, zcb_closed_form, zcb_mc_oracle)


def test_constant_rate_discount_values():
    assert constant_rate_discount(0.05, 0.5, 1.0) == pytest.approx(0.9753099120283326, abs=1e-15)
    assert constant_rate_discount(0.05, 1.0, 1.0) == 1.0
    assert constant_rate_discount(0.0, 0.0, 7.0) == 1.0
    with pytest.raises(ValueError):
        constant_rate_discount(0.05, 1.0, 0.5)


def test_evolve_rate_ou_variance():
    # constant rho, Dirac kernel: Var = rho^2 (1 - e^{-2 kappa dt}) / (2 kappa)
    dt, n = 0.25, 100_000
    var_target = 0.01 ** 2 * (1.0 - np.exp(-2.0 * dt)) / 2.0
    # one exact step of many paths through the loading
    a, b = ou_gaussian_loading(1.0, dt)
    rng = np.random.Generator(np.random.Philox(key=5))
    samples = 0.01 * (a * np.sqrt(dt) * rng.standard_normal(n) + b * rng.standard_normal(n))
    var2 = samples.var(ddof=1)
    assert abs(var2 - var_target) < 3 * var2 * np.sqrt(2.0 / (n - 1))


def test_two_steps_compose_exactly():
    # mean and variance of two dt-steps equal one 2dt-step analytically
    kappa, rho, dt = 1.7, 0.03, 0.05
    e1 = np.exp(-kappa * dt)
    mean_two = lambda r: (r * e1 + 0.04 * (1 - e1)) * e1 + 0.04 * (1 - e1)
    mean_one = lambda r: r * np.exp(-kappa * 2 * dt) + 0.04 * (1 - np.exp(-kappa * 2 * dt))
    assert mean_two(0.07) == pytest.approx(mean_one(0.07), abs=1e-12)
    var_step = rho ** 2 * (1 - np.exp(-2 * kappa * dt)) / (2 * kappa)
    var_two = var_step * e1 ** 2 + var_step
    var_one = rho ** 2 * (1 - np.exp(-4 * kappa * dt)) / (2 * kappa)
    assert var_two == pytest.approx(var_one, abs=1e-12)


def test_zcb_closed_form_trivial_cases():
    spec = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.0)
    assert zcb_closed_form(spec, 1.0, 1.0, 0.07) == 1.0
    # a11 = 0, r = delta: pure deterministic discounting
    assert zcb_closed_form(spec, 0.0, 2.0, 0.05) == pytest.approx(np.exp(-0.1), rel=1e-12)


def test_zcb_closed_form_matches_mc_at_kappa_one():
    # at kappa = 1 both variants coincide and must match the MC oracle
    spec = VasicekSpec(kappa=1.0, delta=0.05, r0=0.03, rho0=0.01)
    mc, se = zcb_mc_oracle(spec, 0.0, 1.0, 0.03, n_paths=200_000, seed=42)
    std = zcb_closed_form(spec, 0.0, 1.0, 0.03, formula="standard")
    pap = zcb_closed_form(spec, 0.0, 1.0, 0.03, formula="paper_exact")
    assert std == pytest.approx(pap, rel=1e-14)
    assert abs(std - mc) < 3 * se


def test_vasicek_formula_adjudication_selects_standard():
    report = adjudicate_vasicek_formula(n_paths=400_000)
    assert report["selected"] == "standard"
    assert report["candidates"]["standard"]["within_3se"]
    assert not report["candidates"]["paper_exact"]["within_3se"]


def test_oracle_control_never_reads_the_bond_formula(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bond formula under test reached")

    monkeypatch.setattr(rates, "zcb_closed_form", refuse)
    spec = VasicekSpec(kappa=2.0, delta=0.05, r0=0.03, rho0=0.1)
    mc, se = rates.zcb_mc_oracle(spec, 0.0, 1.0, 0.03, n_paths=2_000, seed=7)
    assert 0.0 < mc < 1.0 and se > 0.0


def _oracle_integrals(spec, T, r, n_paths, seed, n_steps=64):
    """int_0^T r ds per path on the oracle's draws, stepped out of place."""
    kappa, delta, rho = spec.kappa, spec.delta, spec.rho0
    dt = T / n_steps
    e = np.exp(-kappa * dt)
    var_x = rho ** 2 * (1 - e ** 2) / (2 * kappa)
    var_y = rho ** 2 / kappa ** 2 * (dt - 2 * (1 - e) / kappa + (1 - e ** 2) / (2 * kappa))
    cov_xy = rho ** 2 / (2 * kappa ** 2) * (1 - e) ** 2
    a = np.sqrt(var_x)
    b = cov_xy / a
    c = np.sqrt(var_y - b ** 2)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    rv, integral = np.full(n_paths, r), np.zeros(n_paths)
    for _ in range(n_steps):
        z1, z2 = rng.standard_normal(n_paths), rng.standard_normal(n_paths)
        integral = integral + delta * dt + (rv - delta) * (1 - e) / kappa + b * z1 + c * z2
        rv = rv * e + delta * (1 - e) + a * z1
    return integral


def test_oracle_control_variate_agrees_with_the_plain_mean_on_the_same_draws():
    spec = VasicekSpec(kappa=2.0, delta=0.05, r0=0.03, rho0=0.1)
    n, seed = 20_000, 20_240_601
    mc, se = zcb_mc_oracle(spec, 0.0, 1.0, 0.03, n_paths=n, seed=seed)
    integral = _oracle_integrals(spec, 1.0, 0.03, n, seed)
    disc = np.exp(-integral)
    plain, plain_se = disc.mean(), disc.std(ddof=1) / np.sqrt(n)
    assert abs(mc - plain) < 3 * plain_se
    assert se * 20 <= plain_se
    # the oracle's control is e^{-m}(I - m) with m = E[I], nothing fitted
    m = 0.05 + (0.03 - 0.05) * (1 - np.exp(-2.0)) / 2.0
    assert mc == pytest.approx(np.mean(disc + np.exp(-m) * (integral - m)), abs=1e-13)


def test_adjudication_at_the_verify_path_count_separates_the_variants():
    report = adjudicate_vasicek_formula()
    z = {name: c["z"] for name, c in report["candidates"].items()}
    assert report["selected"] == "standard"
    assert abs(z["standard"]) < 3
    assert abs(z["paper_exact"]) >= 20


def test_zcb_pde_residual_below_tolerance():
    # -x K + K_t + kappa(delta - x) K_x + a11 K_xx = 0 for the standard form
    spec = VasicekSpec(kappa=2.0, delta=0.05, r0=0.03, rho0=0.1)
    T = 1.0
    h_t, h_x = 1e-5, 1e-4

    def k(t, x):
        return zcb_closed_form(spec, t, T, x, formula="standard")

    worst = 0.0
    for t in (0.1, 0.4, 0.7):
        for x in (0.0, 0.03, 0.08):
            k_t = (k(t + h_t, x) - k(t - h_t, x)) / (2 * h_t)
            k_x = (k(t, x + h_x) - k(t, x - h_x)) / (2 * h_x)
            k_xx = (k(t, x + h_x) - 2 * k(t, x) + k(t, x - h_x)) / h_x ** 2
            res = -x * k(t, x) + k_t + spec.kappa * (spec.delta - x) * k_x + spec.a11() * k_xx
            worst = max(worst, abs(res))
    assert worst < 1e-6


def test_bond_price_in_unit_interval():
    spec = VasicekSpec(kappa=1.5, delta=0.04, r0=0.02, rho0=0.02)
    for r in (0.0, 0.02, 0.09):
        for tau in (0.25, 1.0, 5.0):
            p = zcb_closed_form(spec, 0.0, tau, r)
            assert 0.0 < p <= 1.0 + 1e-12


def test_spec_validation():
    with pytest.raises(ValueError, match="kappa"):
        VasicekSpec(kappa=0.0, delta=0.05, r0=0.01)
    with pytest.raises(ValueError, match="delta"):
        VasicekSpec(kappa=1.0, delta=-0.05, r0=0.01)
