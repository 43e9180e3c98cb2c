"""Price kernels and defaultable zero-coupon bond prices."""

from functools import partial

import numpy as np
import pytest

from densitylab.kernels import DiracKernel
from densitylab.measures import ZeroMeasure
from densitylab.pide import PricingKernelSolver, StateGrid
from densitylab.pricing import (LAMBDA_FLOOR, DegenerateSurvivalError, DeterministicRecovery,
                                IntensityLinkedRecovery, KernelUndefinedError,
                                density_integral, price_after_default, price_defaultable_zcb,
                                price_pre_default_independent, theta_quadrature)
from densitylab.rates import VasicekSpec, constant_rate_discount
from densitylab.term_structure import CoefficientSpec, DensityCurveState, initial_density_state

LAM = 0.1
R_CONST = 0.05
BASELINE_PRICE = 0.946770056608465   # e^{-0.025} (1 - 0.6 (e^{-0.05}-e^{-0.1}) / e^{-0.05})
THETAS, WEIGHTS = theta_quadrature(0.5, 1.0, 2.0, 100.0)      # the default config's nodes


def det_state(t: float, theta_max: float = 100.0, dtheta: float = 0.01) -> DensityCurveState:
    """Curves frozen at their initial values (zero-noise dynamics)."""
    spec = CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=LAM)
    grid = np.arange(0.0, theta_max + 1e-12, dtheta)
    state = initial_density_state(spec, grid)
    return DensityCurveState(t, grid, state.alpha, state.survival)


def det_values(thetas, lam: float = LAM) -> tuple[np.ndarray, np.ndarray]:
    """One-path (alpha, S) rows of the zero-noise curve S = e^{-lam theta}."""
    surv = np.exp(-lam * np.asarray(thetas, dtype=float))[None]
    return lam * surv, surv


def zero_noise_solver(T: float = 1.0) -> PricingKernelSolver:
    ms = CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=LAM)
    rs = VasicekSpec(kappa=1.0, delta=R_CONST, r0=R_CONST, rho0=0.0)
    grid = StateGrid(0.0, 0.1, 41, 0.0, 0.3, 61)
    return PricingKernelSolver(ms, rs, DiracKernel(), ZeroMeasure(), grid, T=T, n_steps=100)


def price(values, recovery, disc: float, solver: PricingKernelSolver,
          tau: float | None = None) -> float:
    """The price of a one-path batch at t = 0.5, T = 1: alive from (alpha, S)
    at THETAS, defaulted from (alpha, S) at tau."""
    kernels = {"r_t": R_CONST, "coefficients": solver.provider}
    out = (price_defaultable_zcb(0.5, 1.0, THETAS, WEIGHTS, *values, recovery, disc, **kernels)
           if tau is None else
           price_after_default(0.5, 1.0, tau, *values, recovery, disc, **kernels))
    assert out.shape == (1,)
    return float(out[0])


# ----------------------------------------------------------------- kernels

def test_kernel_k2_intensity_linked_w1_zero_reduces():
    values = det_values(THETAS)
    disc = constant_rate_discount(R_CONST, 0.5, 1.0)
    solver = zero_noise_solver(1.0)
    det = DeterministicRecovery(0.3)
    linked = IntensityLinkedRecovery(w0=0.3, w1=0.0)
    assert price(values, linked, disc, solver) == pytest.approx(
        price(values, det, disc, solver), rel=1e-12)
    # after default the deterministic recovery is R B(t, T), up to the PIDE
    assert price(det_values([0.3]), linked, disc, solver, tau=0.3) == pytest.approx(
        0.3 * disc, rel=1e-6)


def test_kernel_k2_intensity_linked_zero_noise_closed_form():
    t, T = 0.5, 1.0
    disc = constant_rate_discount(R_CONST, t, T)
    solver = zero_noise_solver(T)
    rec = IntensityLinkedRecovery(w0=0.2, w1=0.5, f="identity")
    k2 = price(det_values([0.3]), rec, disc, solver, tau=0.3)
    expected = np.exp(-R_CONST * (T - t)) * (0.2 + 0.5 * np.exp(-LAM))
    assert k2 == pytest.approx(expected, rel=1e-4)


def test_kernel_k2_rejects_nonpositive_intensity():
    solver = zero_noise_solver(1.0)
    with pytest.raises(KernelUndefinedError, match="nonpositive intensity"):
        price((np.zeros((1, 1)), np.ones((1, 1))), IntensityLinkedRecovery(w0=0.4, w1=0.0),
              0.97, solver, tau=0.3)


def test_kernel_k1_degenerate_survival():
    # K1 = S_t(theta) Kbreve / S_t: the alive price needs S_t > 0
    zeros = np.zeros((1, THETAS.size))
    with pytest.raises(DegenerateSurvivalError):
        price((zeros, zeros), DeterministicRecovery(0.4), 0.97, zero_noise_solver(1.0))


# ------------------------------------------------------------- bond prices

def test_pre_default_price_baseline():
    state = det_state(0.5)
    price = price_pre_default_independent(0.5, 1.0, state, 0.4, 0.05)
    assert price == pytest.approx(BASELINE_PRICE, abs=1e-6)


def test_pre_default_price_full_recovery_is_riskfree():
    state = det_state(0.5)
    price = price_pre_default_independent(0.5, 1.0, state, 1.0, 0.05)
    assert price == pytest.approx(constant_rate_discount(0.05, 0.5, 1.0), abs=1e-12)


def test_pre_default_price_bounds_and_monotonicity():
    state = det_state(0.5)
    disc = constant_rate_discount(0.05, 0.5, 1.0)
    last = -np.inf
    for r_rate in (0.0, 0.2, 0.4, 0.8, 1.0):
        p = price_pre_default_independent(0.5, 1.0, state, r_rate, 0.05)
        assert r_rate * disc - 1e-12 <= p <= disc + 1e-12
        assert p >= last
        last = p


def test_price_defaultable_zcb_defaulted_recovery_of_face():
    # below LAMBDA_FLOOR the defaulted price is the deterministic limit R B(t,T)
    disc = constant_rate_discount(0.05, 0.5, 1.0)
    out = price((np.full((1, 1), 0.1 * LAMBDA_FLOOR), np.ones((1, 1))),
                IntensityLinkedRecovery(w0=0.1, w1=0.3), disc, zero_noise_solver(1.0), tau=0.3)
    assert out == pytest.approx(0.4 * disc, abs=1e-12)
    assert out / disc == pytest.approx(0.4, abs=1e-12)


def test_price_defaultable_zcb_full_recovery_any_status(tmp_path):
    # independent rates: `lab price` reads R B(t,T) for a defaulted path
    from densitylab.cli import main
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("[model]\nsigma = 0.0\nb = 0.0\n\n[pricing]\nR = 1.0\n\n"
                   "[experiment]\nn_paths = 3\n")
    disc = constant_rate_discount(0.05, 0.5, 1.0)
    for status, tol in (("alive", {"rel": 1e-6}), ("defaulted", {"abs": 1e-12})):
        out = tmp_path / status
        assert main(["price", "--config", str(cfg), "--out", str(out),
                     "--status", status]) == 0
        rows = (out / "prices.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(float(r.split(",")[-1]) == pytest.approx(disc, **tol) for r in rows)


def test_price_regime_consistency_zero_noise():
    # correlated machinery with all noise loadings zero matches the
    # independent closed form to 1e-6
    t, T = 0.5, 1.0
    state = det_state(t)
    disc = constant_rate_discount(R_CONST, t, T)
    solver = zero_noise_solver(T)
    indep = price_pre_default_independent(t, T, state, 0.4, R_CONST)
    corr = price(det_values(THETAS), DeterministicRecovery(0.4), disc, solver)
    assert corr == pytest.approx(indep, abs=1e-6)


def test_defaulted_after_t_rejected():
    with pytest.raises(ValueError, match="tau <= t"):
        price(det_values([0.7]), DeterministicRecovery(0.4), 0.97, zero_noise_solver(1.0),
              tau=0.7)


def test_defaulted_deterministic_recovery_is_not_kernel_priced():
    # `lab price` writes R B(t, T) for it in both regimes
    with pytest.raises(ValueError, match="R B\\(t, T\\)"):
        price(det_values([0.3]), DeterministicRecovery(0.4), 0.97, zero_noise_solver(1.0),
              tau=0.3)


def test_recovery_validation():
    with pytest.raises(ValueError, match="w0\\+w1"):
        IntensityLinkedRecovery(w0=0.7, w1=0.5)
    with pytest.raises(ValueError, match="'identity' or 'none'"):
        IntensityLinkedRecovery(w0=0.2, w1=0.5, f="square")
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        DeterministicRecovery(1.2)


def test_density_integral_tail_reporting():
    state = det_state(0.5)
    full, tail = density_integral(state, 0.5, None)
    assert tail == pytest.approx(np.exp(-LAM * 100.0), rel=1e-9)
    assert full == pytest.approx(np.exp(-LAM * 0.5), rel=1e-7)


def test_batch_prices_each_path_as_alone():
    # one batch gives every path the bits it gets priced on its own
    t = 0.5
    disc = constant_rate_discount(R_CONST, t, 1.0)
    solver = zero_noise_solver(1.0)
    linked = IntensityLinkedRecovery(w0=0.2, w1=0.5)
    alive = partial(price_defaultable_zcb, t, 1.0, THETAS, WEIGHTS)
    for rec, pricer, thetas in ((DeterministicRecovery(0.4), alive, THETAS),
                                (linked, alive, THETAS),
                                (linked, partial(price_after_default, t, 1.0, 0.3), [0.3])):
        (alpha, surv), (high_a, high_s) = det_values(thetas), det_values(thetas, 0.12)
        alpha, surv = np.vstack([alpha, high_a]), np.vstack([surv, high_s])
        batch = pricer(alpha, surv, rec, disc, r_t=R_CONST, coefficients=solver.provider)
        alone = [pricer(a[None], s[None], rec, disc, r_t=R_CONST,
                        coefficients=solver.provider)[0]
                 for a, s in zip(alpha, surv)]
        assert batch.tolist() == alone


def _marched_prices(t, T, thetas, w, alpha, surv, recoveries, r, solver):
    """Alive prices of each recovery with both kernels marched at every
    quadrature node after t and read through GridFunction.interp,
    q = K(t, r, lambda) / lambda, integrated with the weights w."""
    nodes = thetas[1:]
    n = int(np.count_nonzero(nodes < T))
    k_breve = [solver.solution(t, theta, "y") for theta in nodes]
    k_tilde = [solver.solution(t, theta, "y_exp_y") for theta in nodes[:n]]
    out = np.empty((len(recoveries), alpha.shape[0]))
    for p, (a, s) in enumerate(zip(alpha[:, 1:], surv[:, 1:])):
        lam = a / s
        q1 = np.array([k.interp(r, y) for k, y in zip(k_breve, lam)]) / lam
        q2 = np.array([k.interp(r, y) for k, y in zip(k_tilde, lam[:n])]) / lam[:n]
        leg1 = w[n:] @ (a * q1)[n:-1] + s[-1] * q1[-1]
        for i, rec in enumerate(recoveries):
            k2 = (rec.w0 * q1[:n] + rec.w1 * q2 if isinstance(rec, IntensityLinkedRecovery)
                  else rec.rate * q1[:n])
            out[i, p] = (leg1 + w[:n] @ (a[:n] * k2)) / surv[p, 0]
    return out


def test_transform_prices_match_kernels_marched_at_every_node():
    # correlated rates, noisy paths with jumps: the transform's prices
    # against prices read off the 1-D march at all 81 nodes after t; the
    # march itself is within 2e-6 of the closed form over its whole grid
    # (measured gap 1.6e-7 and 1.4e-7 at 100 steps)
    from densitylab.experiments import ExperimentConfig
    from densitylab.kernels import DiracKernel
    from densitylab.term_structure import simulate_survival_values
    ec = ExperimentConfig(n_paths=3, theta_max=4.0, sigma=0.01, varpi=0.01, seed=5)
    thetas, weights = theta_quadrature(ec.t, ec.T, ec.dense_end, ec.theta_sim_cap)
    res = simulate_survival_values(ec.spec(), ec.measure(), thetas, ec.t, ec.delta_t,
                                   ec.n_paths, ec.seed)
    rates = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01)
    solver = PricingKernelSolver(ec.spec(), rates, DiracKernel(), ec.measure(),
                                 StateGrid(-0.05, 0.15, 128, 0.0, 0.4, 512), T=1.0, n_steps=100)
    recoveries = (DeterministicRecovery(0.4), IntensityLinkedRecovery(w0=0.2, w1=0.5))
    marched = _marched_prices(0.5, 1.0, thetas, weights, res["alpha"], res["survival"],
                              recoveries, 0.05, solver)
    for rec, ref in zip(recoveries, marched):
        prices = price_defaultable_zcb(0.5, 1.0, thetas, weights, res["alpha"],
                                       res["survival"], rec, 0.97, r_t=0.05,
                                       coefficients=solver.provider)
        assert np.abs(prices - ref).max() < 2e-6
