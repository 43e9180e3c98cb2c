"""Operator coefficients, jump operator, and the backward Cauchy solver."""

import numpy as np
import pytest

from densitylab.kernels import DiracKernel
from densitylab.measures import ExponentialJumpMeasure, PointMassMeasure, ZeroMeasure
from densitylab.pide import (HV_THETA, CoefficientProvider, GridFunction,
                             OperatorCoefficients, OutOfGridError, PideInstabilityError,
                             PricingKernelSolver, StateGrid, _AffineSplit, _check_pivots,
                             _coefficient_table, _pad_extrapolate,
                             _thomas_factor, _thomas_solve, apply_jump_operator,
                             compute_coefficients, kernel_transform, solve_cauchy,
                             solve_cauchy_affine, solve_cauchy_picard)
from densitylab.rates import VasicekSpec, zcb_closed_form, zcb_price
from densitylab.term_structure import CoefficientSpec


SEC7 = CoefficientSpec.section7(sigma=0.01, b=1.0, lambda_bar=0.1)
EXP_MEASURE = ExponentialJumpMeasure(zeta=10.0, varpi=1e-3)
KERNEL = DiracKernel(c0=1.0)


def zero_coeffs(t=0.0, kappa=0.0):
    return OperatorCoefficients(t, 0.0, kappa=kappa, delta_hat=0.0, a_drift=0.0,
                                a11=0.0, a22=0.0, a12=0.0,
                                jump_dx=np.zeros(0), jump_dy=np.zeros(0),
                                jump_w=np.zeros(0))


def constant_sigma_spec(s0: float) -> CoefficientSpec:
    return CoefficientSpec(
        sigma_fn=lambda t, theta, xi: s0 * np.ones_like(
            np.asarray(theta, dtype=float) + np.asarray(xi, dtype=float)),
        gamma_fn=lambda t, theta, xi: np.zeros_like(
            np.asarray(theta, dtype=float) + np.asarray(xi, dtype=float)),
        lambda0_fn=lambda theta: 0.1 * np.ones_like(np.asarray(theta, dtype=float)),
    )


# ---------------------------------------------------------- coefficients

def test_coefficients_no_rate_noise():
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.0, phi0=0.0)
    c = compute_coefficients(SEC7, rs, KERNEL, EXP_MEASURE, 0.3, 1.5)
    assert c.delta_hat == pytest.approx(0.05, abs=1e-15)
    assert c.a11 == 0.0 and c.a12 == 0.0
    assert c.a22 > 0.0


def test_coefficients_dirac_constants():
    # sigma_t(theta, .) = s0 and rho constant: a11 = rho^2/2, a22 = s0^2/2, a12 = s0 rho
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.02)
    spec = constant_sigma_spec(0.03)
    c = compute_coefficients(spec, rs, KERNEL, ZeroMeasure(), 0.2, 1.0)
    assert c.a11 == pytest.approx(0.02 ** 2 / 2, rel=1e-12)
    assert c.a22 == pytest.approx(0.03 ** 2 / 2, rel=1e-12)
    assert c.a12 == pytest.approx(0.03 * 0.02, rel=1e-12)


def test_coefficients_no_intensity_risk():
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.02)
    spec = CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=0.1)
    c = compute_coefficients(spec, rs, KERNEL, ZeroMeasure(), 0.2, 1.0)
    assert c.delta_hat == pytest.approx(0.05, abs=1e-15)
    assert c.a22 == 0.0 and c.a12 == 0.0


def test_measure_change_consistency_a_drift_zero():
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01, phi0=0.5)
    for t, theta in [(0.1, 0.5), (0.5, 2.0), (0.9, 1.0)]:
        c = compute_coefficients(SEC7, rs, KERNEL, EXP_MEASURE, t, theta)
        assert abs(c.a_drift) < 1e-14


def test_coefficients_degeneracy_detected():
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01)
    c = compute_coefficients(SEC7, rs, KERNEL, EXP_MEASURE, 0.5, 2.0)
    # separable Dirac coefficients satisfy a12^2 = 4 a11 a22 exactly
    assert c.a12 ** 2 == pytest.approx(4 * c.a11 * c.a22, rel=1e-12)
    assert c.degenerate()


def test_girsanov_compensator_weights_damped():
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01)
    printed = compute_coefficients(SEC7, rs, KERNEL, EXP_MEASURE, 0.5, 2.0, "as_printed")
    girs = compute_coefficients(SEC7, rs, KERNEL, EXP_MEASURE, 0.5, 2.0, "girsanov")
    assert girs.jump_w.sum() < printed.jump_w.sum()
    assert np.all(girs.jump_w <= printed.jump_w + 1e-18)


# --------------------------------------------------------- jump operator

def test_jump_operator_annihilates_affine():
    grid = StateGrid(0.0, 1.0, 17, 0.0, 1.0, 17)
    xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
    values = 2.0 + 3.0 * xx - 1.5 * yy
    coeffs = OperatorCoefficients(0.0, 1.0, 1.0, 0.05, 0.0, 0.0, 0.0, 0.0,
                                  jump_dx=np.array([0.13]), jump_dy=np.array([0.21]),
                                  jump_w=np.array([5.0]))
    out = apply_jump_operator(values, grid, coeffs)
    assert np.abs(out).max() < 1e-12


def test_jump_operator_quadratic_point_mass():
    # K = y^2, one mark of mass m, displacement g0 in y: output m g0^2 at
    # every node where the shifted point stays on the grid and the central
    # derivative applies (the first-order edge extrapolation is inexact for
    # a quadratic, so the outermost rows are excluded)
    grid = StateGrid(0.0, 1.0, 17, 0.0, 1.0, 33)
    g0 = 3 * grid.hy  # on-grid displacement: bilinear shift is exact
    m = 4.0
    xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
    coeffs = OperatorCoefficients(0.0, 1.0, 1.0, 0.05, 0.0, 0.0, 0.0, 0.0,
                                  jump_dx=np.array([0.0]), jump_dy=np.array([g0]),
                                  jump_w=np.array([m]))
    out = apply_jump_operator(yy ** 2, grid, coeffs)
    assert np.allclose(out[:, 1:-4], m * g0 ** 2, atol=1e-10)


def test_jump_operator_zero_mass():
    grid = StateGrid(0.0, 1.0, 17, 0.0, 1.0, 17)
    out = apply_jump_operator(np.ones((17, 17)), grid, zero_coeffs())
    assert np.all(out == 0.0)


# ------------------------------------------------------------ cauchy solve

def test_solve_cauchy_pure_discount():
    grid = StateGrid(0.0, 0.06, 33, 0.0, 0.3, 16)
    sol = solve_cauchy(lambda x, y: np.ones_like(x), zero_coeffs, grid,
                       0.5, 1.0, 200, rannacher=0, time_dependent=False)
    expected = np.exp(-grid.x[:, None] * 0.5)
    assert np.abs(sol.values - expected).max() < 1e-10


def test_solve_cauchy_vasicek_only_matches_closed_form():
    rs = VasicekSpec(kappa=2.0, delta=0.05, r0=0.05, rho0=0.1)
    ms = CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=0.1)
    grid = StateGrid(-0.25, 0.35, 128, 0.0, 0.3, 16)
    prov = CoefficientProvider(ms, rs, KERNEL, ZeroMeasure(), theta=2.0)
    assert prov.time_dependent is False
    sol = solve_cauchy(lambda x, y: np.ones_like(x), prov, grid, 0.0, 1.0, 200)
    interior = slice(32, 96)
    exact = np.array([zcb_closed_form(rs, 0.0, 1.0, x) for x in grid.x])
    rel = np.abs(sol.values[interior, 8] - exact[interior]) / exact[interior]
    assert rel.max() < 1e-3


def test_solve_cauchy_instability_raises():
    grid = StateGrid(0.0, 0.06, 16, 0.0, 0.3, 16)
    wild = lambda t: OperatorCoefficients(t, 0.0, kappa=0.0, delta_hat=0.0, a_drift=0.0,
                                          a11=0.0, a22=0.0, a12=0.0,
                                          jump_dx=np.array([0.0]), jump_dy=np.array([0.25]),
                                          jump_w=np.array([5e4]))
    with pytest.raises(PideInstabilityError, match="smaller|n_steps"):
        solve_cauchy(lambda x, y: 1.0 + y, wild, grid, 0.0, 1.0, 4, time_dependent=False)


def test_maximum_principle_nonnegative_bounded():
    # psi >= 0 and x >= 0: the theta = 1 solution stays within [0, sup psi].
    # The strict bound is checked for the M-matrix configuration (no
    # cross-derivative term); the rank-one correlated block is checked
    # separately for small bounded undershoot.
    rs = VasicekSpec(kappa=1.5, delta=0.05, r0=0.05, rho0=0.05)
    ms = CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=0.1)
    grid = StateGrid(0.0, 0.2, 48, 0.0, 0.4, 48)
    prov = CoefficientProvider(ms, rs, KERNEL, ZeroMeasure(), theta=1.0)
    bump = lambda x, y: np.exp(-((x - 0.1) ** 2 + (y - 0.2) ** 2) / 2e-3)
    sol = solve_cauchy(bump, prov, grid, 0.5, 1.0, 100, theta_scheme=1.0,
                       rannacher=0, time_dependent=False)
    assert sol.values.min() >= -1e-10
    assert sol.values.max() <= 1.0 + 1e-10


def test_degenerate_cross_term_undershoot_is_tiny():
    rs = VasicekSpec(kappa=1.5, delta=0.05, r0=0.05, rho0=0.05)
    ms = constant_sigma_spec(0.02)
    grid = StateGrid(0.0, 0.2, 48, 0.0, 0.4, 48)
    prov = CoefficientProvider(ms, rs, KERNEL, ZeroMeasure(), theta=1.0)
    bump = lambda x, y: np.exp(-((x - 0.1) ** 2 + (y - 0.2) ** 2) / 2e-3)
    sol = solve_cauchy(bump, prov, grid, 0.5, 1.0, 100, theta_scheme=1.0, rannacher=0)
    assert sol.values.min() >= -1e-3
    assert sol.values.max() <= 1.0 + 1e-10


def test_picard_mode_cross_validates_imex():
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01, phi0=0.5)
    grid = StateGrid(-0.02, 0.12, 40, 0.0, 0.35, 40)
    prov = CoefficientProvider(SEC7, rs, KERNEL, EXP_MEASURE, theta=2.0)
    imex = solve_cauchy(lambda x, y: y, prov, grid, 0.5, 1.0, 50)
    picard, iters = solve_cauchy_picard(lambda x, y: y, prov, grid, 0.5, 1.0, 50)
    assert iters < 20
    interior = (slice(8, 32), slice(8, 32))
    gap = np.abs(imex.values[interior] - picard.values[interior]).max()
    assert gap < 5e-5


def _correlated_jump_provider(varpi: float) -> CoefficientProvider:
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01, phi0=0.5)
    return CoefficientProvider(SEC7, rs, KERNEL, ExponentialJumpMeasure(zeta=10.0, varpi=varpi),
                               theta=2.0)


def test_adi_time_order_with_explicit_jump_integral():
    # the mixed term and the jump integral are explicit inside the HV scheme,
    # so refining the step 4x must cut the error at least 8x (order >= 1.5);
    # an explicit-Euler jump term would leave the scheme first order
    prov = _correlated_jump_provider(0.01)
    assert prov.time_dependent
    grid = StateGrid(-0.02, 0.12, 40, 0.0, 0.35, 40)
    interior = (slice(8, 32), slice(8, 32))

    def solve(n):
        return solve_cauchy(lambda x, y: y, prov, grid, 0.5, 1.0, n).values[interior]

    ref = solve(800)
    err = {n: np.abs(solve(n) - ref).max() for n in (25, 100)}
    assert err[25] / err[100] >= 8.0, err


def test_solve_cauchy_factorises_nothing(monkeypatch):
    import densitylab.pide as pide

    def refuse(*args, **kwargs):
        raise AssertionError("solve_cauchy must not factorise a sparse matrix")

    monkeypatch.setattr(pide, "splu", refuse)
    prov = _correlated_jump_provider(1e-3)
    assert prov.time_dependent
    grid = StateGrid(-0.02, 0.12, 24, 0.0, 0.35, 24)
    sol = solve_cauchy(lambda x, y: y, prov, grid, 0.5, 1.0, 20)
    assert np.all(np.isfinite(sol.values))
    assert 0.0 < sol.interp(0.05, 0.1) < 0.1


def test_picard_rejects_unknown_keywords():
    grid = StateGrid(0.0, 0.06, 16, 0.0, 0.3, 16)
    with pytest.raises(TypeError):
        solve_cauchy_picard(lambda x, y: y, zero_coeffs, grid, 0.5, 1.0, 4, theta_scheme=0.5)


# ------------------------------------------------------- kernel evaluations

def test_k_breve_terminal_identity():
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01)
    grid = StateGrid(0.0, 0.1, 17, 0.0, 0.3, 17)
    solver = PricingKernelSolver(SEC7, rs, KERNEL, EXP_MEASURE, grid, T=1.0)
    assert solver.solution(1.0, 2.0, "y").interp(0.05, 0.1234) == pytest.approx(0.1234,
                                                                             abs=1e-12)


def test_k_breve_deterministic_constant_rate():
    # no noise anywhere, r pinned at delta: K = lam * e^{-r (T-t)}
    r = 0.05
    ms = CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=0.1)
    rs = VasicekSpec(kappa=1.0, delta=r, r0=r, rho0=0.0)
    grid = StateGrid(0.0, 0.1, 41, 0.0, 0.3, 31)
    solver = PricingKernelSolver(ms, rs, KERNEL, ZeroMeasure(), grid, T=1.0, n_steps=100)
    val = solver.solution(0.5, 2.0, "y").interp(r, 0.1)
    assert val == pytest.approx(0.1 * np.exp(-r * 0.5), rel=1e-5)


def test_k_tilde_matches_k_breve_for_zero_f(monkeypatch):
    # with f = none the recovery kernel's terminal y e^{-0} is k_breve's: the
    # defaulted price reads k_breve's transform (u = 0) and nothing tilted
    import densitylab.pricing as pricing
    from densitylab.pricing import IntensityLinkedRecovery, price_defaultable_zcb
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01)
    grid = StateGrid(0.0, 0.1, 17, 0.0, 0.3, 17)
    solver = PricingKernelSolver(SEC7, rs, KERNEL, EXP_MEASURE, grid, T=1.0, n_steps=20)
    alpha, surv = np.array([[0.09, 0.1]]), np.array([[0.9, 0.8]])
    args = (0.8, 1.0, np.array([0.2, 0.4]), alpha, surv)
    u_read = []

    def recorded(provider, t, T, u=0):
        u_read.append(u)
        return kernel_transform(provider, t, T, u)

    monkeypatch.setattr(pricing, "kernel_transform", recorded)
    linked = price_defaultable_zcb(*args, IntensityLinkedRecovery(w0=0.3, w1=0.5, f="none"),
                                   0.97, r_t=0.05, coefficients=solver.provider, tau=0.3)
    assert u_read == [0]
    plain = price_defaultable_zcb(*args, IntensityLinkedRecovery(w0=0.8, w1=0.0, f="none"),
                                  0.97, r_t=0.05, coefficients=solver.provider, tau=0.3)
    assert linked == pytest.approx(plain, rel=1e-15)
    # the shared entry is the affine solve; the 2-D solve of y agrees
    full = solve_cauchy(lambda x, y: y, solver.provider(0.3), grid, 0.8, 1.0, 20)
    assert np.abs(solver.solution(0.8, 0.3, "y").values - full.values).max() <= 1e-12


def test_k_tilde_terminal_and_deterministic():
    r = 0.05
    ms = CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=0.1)
    rs = VasicekSpec(kappa=1.0, delta=r, r0=r, rho0=0.0)
    grid = StateGrid(0.0, 0.1, 41, 0.0, 0.3, 61)
    solver = PricingKernelSolver(ms, rs, KERNEL, ZeroMeasure(), grid, T=1.0, n_steps=100)
    lam = 0.1  # on the y-grid: 0.3/60 spacing puts 0.1 at node 20
    k_tilde = lambda t: solver.solution(t, 2.0, "y_exp_y").interp(r, lam)
    assert k_tilde(1.0) == pytest.approx(lam * np.exp(-lam), rel=1e-9)
    val = k_tilde(0.5)
    assert val == pytest.approx(lam * np.exp(-lam) * np.exp(-r * 0.5), rel=1e-4)


def test_out_of_grid_query_raises():
    grid = StateGrid(0.0, 0.1, 17, 0.0, 0.3, 17)
    gf = GridFunction(np.zeros((17, 17)), grid, 0.0)
    with pytest.raises(OutOfGridError):
        gf.interp(0.2, 0.1)


def test_interp_on_arrays_matches_scalar_queries():
    grid = StateGrid(0.0, 0.1, 17, 0.0, 0.3, 17)
    rng = np.random.default_rng(8)
    gf = GridFunction(rng.standard_normal((17, 17)), grid, 0.0)
    xs, ys = rng.uniform(0.0, 0.1, 50), rng.uniform(0.0, 0.3, 50)
    xs[:2], ys[:2] = (0.0, 0.1), (0.3, 0.0)       # the grid's corners
    assert isinstance(gf.interp(0.05, 0.1), float)
    assert gf.interp(xs, ys).tolist() == [gf.interp(x, y) for x, y in zip(xs, ys)]
    assert gf.interp(0.05, ys).tolist() == [gf.interp(0.05, y) for y in ys]
    ys[7] = 0.31
    with pytest.raises(OutOfGridError):
        gf.interp(xs, ys)


def test_grid_validation():
    with pytest.raises(ValueError, match=">= 16"):
        StateGrid(0.0, 1.0, 8, 0.0, 1.0, 16)


def test_domain_doubling_boundary_influence():
    # the default domain keeps boundary influence at interior probes below 1e-6
    rs = VasicekSpec(kappa=2.0, delta=0.05, r0=0.05, rho0=0.05)
    ms = CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=0.1)
    prov = CoefficientProvider(ms, rs, KERNEL, ZeroMeasure(), theta=1.0)

    def solve_on(x_lo, x_hi, nx):
        grid = StateGrid(x_lo, x_hi, nx, 0.0, 0.3, 16)
        return solve_cauchy(lambda x, y: np.ones_like(x), prov, grid, 0.0, 1.0, 100), grid

    base, grid1 = solve_on(-0.1, 0.2, 64)
    wide, grid2 = solve_on(-0.25, 0.35, 128)   # doubled domain, same spacing
    worst = 0.0
    for xp in (0.03, 0.05, 0.08):
        worst = max(worst, abs(base.interp(xp, 0.1) - wide.interp(xp, 0.1)))
    assert worst < 1e-6


def test_uncorrelated_rates_drop_cross_terms():
    # independent rate driver: a12 = 0, delta_hat = delta, a_drift still 0
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.02)
    c = compute_coefficients(SEC7, rs, KERNEL, EXP_MEASURE, 0.3, 1.5,
                             rates_correlated=False)
    assert c.a12 == 0.0
    assert c.delta_hat == pytest.approx(0.05, abs=1e-15)
    assert c.a11 == pytest.approx(0.02 ** 2 / 2, rel=1e-12)
    assert abs(c.a_drift) < 1e-14
    with pytest.raises(ValueError, match="phi0"):
        compute_coefficients(SEC7, VasicekSpec(kappa=1.0, delta=0.05, r0=0.05,
                                               rho0=0.02, phi0=0.3),
                             KERNEL, EXP_MEASURE, 0.3, 1.5, rates_correlated=False)


def test_uncorrelated_kernel_factorizes():
    # independence: Kbreve(t, r, lam) = lam * B_vasicek(t, r) when sigma = b = 0
    rs = VasicekSpec(kappa=2.0, delta=0.05, r0=0.05, rho0=0.05)
    ms = CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=0.1)
    grid = StateGrid(-0.1, 0.2, 64, 0.0, 0.3, 17)
    solver = PricingKernelSolver(ms, rs, KERNEL, ZeroMeasure(), grid, T=1.0,
                                 n_steps=100, rates_correlated=False)
    val = solver.solution(0.0, 2.0, "y").interp(0.05, 0.1)
    assert val == pytest.approx(0.1 * zcb_closed_form(rs, 0.0, 1.0, 0.05), rel=1e-4)


def test_kernel_identity_forward_monte_carlo():
    # E_Q[alpha_T(theta) e^{-int_t^T r}] = S_t(theta) Kbreve(t, r_t, lambda_t(theta)):
    # simulate the intensity curve and the correlated rate under the pricing
    # measure itself (full-rate jumps, martingale-condition drift) and compare
    # the discounted terminal density with the PIDE kernel at t = 0.
    ms = CoefficientSpec.section7(sigma=0.01, b=1.0, lambda_bar=0.1)
    rs = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01, phi0=0.5)
    meas = ExponentialJumpMeasure(zeta=10.0, varpi=1e-3)
    theta, T = 2.0, 1.0
    from densitylab.term_structure import drift_table, _cumtrapz
    from densitylab.rates import ou_gaussian_loading
    from densitylab.pide import default_grid_for

    grid = np.arange(0.0, theta + 1e-12, 0.01)
    n_steps, dt, n_paths = 100, 0.01, 30_000
    t_nodes = np.arange(n_steps) * dt
    mu_rows = drift_table(ms, KERNEL, meas, t_nodes, grid)
    sig_rows = ms.sigma_slope * np.maximum(grid[None, :] - t_nodes[:, None], 0.0)
    gam_rows = ms.jump_slope * np.maximum(grid[None, :] - t_nodes[:, None], 0.0)
    comp_rows = gam_rows * meas.mark_moment(1)
    a_load, b_load = ou_gaussian_loading(rs.kappa, dt)
    e = np.exp(-rs.kappa * dt)

    rng = np.random.Generator(np.random.Philox(key=20240908))
    lam = np.full((n_paths, grid.size), 0.1)
    r = np.full(n_paths, rs.r0)
    integral = np.zeros(n_paths)
    for k in range(n_steps):
        dW = np.sqrt(dt) * rng.standard_normal(n_paths)
        counts = rng.poisson(meas.total_mass * dt, size=n_paths)
        tot = int(counts.sum())
        sums = np.zeros(n_paths)
        if tot:
            marks = meas.sample_marks(tot, rng)
            sums = np.bincount(np.repeat(np.arange(n_paths), counts),
                               weights=marks, minlength=n_paths)
        r_prev = r
        r = r * e + rs.delta * (1.0 - e) \
            + rs.rho0 * (a_load * dW + b_load * rng.standard_normal(n_paths)) \
            + rs.phi0 * sums * np.exp(-rs.kappa * dt / 2.0) \
            - rs.phi0 * meas.mark_moment(1) * (1.0 - e) / rs.kappa
        lam = lam + mu_rows[k] * dt + np.multiply.outer(dW, sig_rows[k]) \
            + np.multiply.outer(sums, gam_rows[k]) - dt * comp_rows[k]
        integral += 0.5 * dt * (r_prev + r)
    surv_T = np.exp(-_cumtrapz(lam, grid, axis=1))
    alpha_T_theta = surv_T[:, -1] * lam[:, -1]
    vals = alpha_T_theta * np.exp(-integral)
    mc, se = float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_paths))

    state_grid = default_grid_for(rs, 0.1, T, 0.01, theta, meas, nx=96, ny=96)
    solver = PricingKernelSolver(ms, rs, KERNEL, meas, state_grid, T=T, n_steps=100)
    rhs = np.exp(-0.1 * theta) * solver.solution(0.0, theta, "y").interp(rs.r0, 0.1)
    assert abs(rhs - mc) < 3 * se, (rhs, mc, se)


# ---------------------------------------------------------- affine route

def _loop_pad_extrapolate(values, px, py):
    # the per-cell loop that the broadcast padding replaced
    nx, ny = values.shape
    out = np.empty((nx + 2 * px, ny + 2 * py))
    out[px:px + nx, py:py + ny] = values
    for k in range(1, px + 1):
        out[px - k, py:py + ny] = values[0] - k * (values[1] - values[0])
        out[px + nx - 1 + k, py:py + ny] = values[-1] + k * (values[-1] - values[-2])
    core = out[:, py:py + ny]
    for k in range(1, py + 1):
        out[:, py - k] = core[:, 0] - k * (core[:, 1] - core[:, 0])
        out[:, py + ny - 1 + k] = core[:, -1] + k * (core[:, -1] - core[:, -2])
    return out


@pytest.mark.parametrize("shape,px,py", [((24, 40), 3, 3532), ((128, 2), 5, 0),
                                         ((17, 17), 1, 1), ((16, 30), 0, 700)])
def test_pad_extrapolate_bit_identical_to_loop(shape, px, py):
    rng = np.random.Generator(np.random.Philox(key=17))
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    assert np.array_equal(_pad_extrapolate(values, px, py),
                          _loop_pad_extrapolate(values, px, py))


KERNEL_SPEC = CoefficientSpec.section7(sigma=0.001, b=1.0, lambda_bar=0.1)
JUMPY_RATES = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01, phi0=0.5)
PIDE_GRID = StateGrid(-0.05, 0.15, 128, 0.0, 0.4, 128)


def _constant_provider(t):
    # every term of the operator live, a_drift included, with the y-drift
    # central (2 a22 >= |a_drift| hy) so that Ay is exact on linear functions
    return OperatorCoefficients(t, 2.0, kappa=1.2, delta_hat=0.06, a_drift=3e-4,
                                a11=5e-5, a22=2e-4, a12=1.5e-4,
                                jump_dx=np.array([0.004, 0.013, -0.007]),
                                jump_dy=np.array([0.05, 0.31, 0.12]),
                                jump_w=np.array([0.4, 0.1, 0.25]))


_constant_provider.time_dependent = False


AFFINE_CASES = {
    "defaults_correlated": CoefficientProvider(KERNEL_SPEC, JUMPY_RATES, KERNEL,
                                               EXP_MEASURE, theta=2.0),
    "point_mass_c0_4": CoefficientProvider(KERNEL_SPEC, JUMPY_RATES, DiracKernel(c0=4.0),
                                           PointMassMeasure(z=1.0), theta=2.0),
    "uncorrelated": CoefficientProvider(KERNEL_SPEC, VasicekSpec(kappa=1.0, delta=0.05,
                                                                 r0=0.05, rho0=0.01),
                                        KERNEL, EXP_MEASURE, theta=2.0,
                                        rates_correlated=False),
    "girsanov": CoefficientProvider(KERNEL_SPEC, JUMPY_RATES, KERNEL, EXP_MEASURE,
                                    theta=2.0, jump_compensator="girsanov"),
    "time_independent": _constant_provider,
}


@pytest.mark.parametrize("case", sorted(AFFINE_CASES))
def test_affine_route_matches_2d_solve(case):
    # in exact arithmetic the 2-D scheme stays affine in y at any ny; in
    # floating point its explicit jump term extrapolates rounding noise over
    # gamma / hy cells (146 at ny = 40 for the point mass, which departs from
    # the affine route by 1.1e-8 there), so the y-axis is the coarsest allowed
    prov = AFFINE_CASES[case]
    grid = StateGrid(-0.05, 0.15, 48, 0.0, 0.4, 16)
    full = solve_cauchy(lambda x, y: y, prov, grid, 0.5, 1.0, 50)
    affine = solve_cauchy_affine(prov, grid, 0.5, 1.0, 50)
    assert np.abs(affine.values - full.values).max() <= 1e-12


def test_picard_factors_once_for_a_constant_provider(monkeypatch):
    import densitylab.pide as pide

    factored = []
    original = pide.splu

    def counted(*args, **kwargs):
        factored.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pide, "splu", counted)

    def every_level(t):
        return _constant_provider(t)

    every_level.time_dependent = True
    grid = StateGrid(-0.05, 0.15, 24, 0.0, 0.4, 16)
    once, _ = solve_cauchy_picard(lambda x, y: y, _constant_provider, grid, 0.5, 1.0, 10)
    assert len(factored) == 1
    per_level, _ = solve_cauchy_picard(lambda x, y: y, every_level, grid, 0.5, 1.0, 10)
    assert len(factored) == 1 + 10
    assert np.array_equal(once.values, per_level.values)


PARITY_CASES = {**AFFINE_CASES,
                "quadrature": CoefficientProvider(constant_sigma_spec(0.02), JUMPY_RATES, KERNEL,
                                                  EXP_MEASURE, theta=1.0)}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_coefficient_table_matches_per_level_coefficients(case):
    # one broadcast call over every level (the quadrature branch for the
    # non-separable constant-sigma spec) gives the bits of per-level calls,
    # past theta too, where (theta - t)^+ is zero
    prov = PARITY_CASES[case]
    times = np.linspace(0.0, 2.5, 201)
    table = _coefficient_table(prov, times)
    for k, t in enumerate(times):
        snap, ref = table.level(k), prov(t)
        for name in ("t", "theta", "kappa", "delta_hat", "a_drift", "a11", "a22", "a12"):
            assert getattr(snap, name) == getattr(ref, name), (name, t)
            assert isinstance(getattr(snap, name), float)
        for name in ("jump_dx", "jump_dy", "jump_w"):
            assert np.array_equal(getattr(snap, name), getattr(ref, name)), (name, t)


@pytest.mark.parametrize("tilt", [False, True])
def test_affine_route_evaluates_coefficients_once_per_march(monkeypatch, tilt):
    import densitylab.pide as pide

    calls = []
    original = pide.compute_coefficients

    def counted(*args, **kwargs):
        calls.append(np.shape(args[4]))
        return original(*args, **kwargs)

    monkeypatch.setattr(pide, "compute_coefficients", counted)
    prov = AFFINE_CASES["defaults_correlated"]
    assert prov.time_dependent
    sol = solve_cauchy_affine(prov, PIDE_GRID, 0.5, 1.0, 40, tilt=tilt)
    assert calls == [(41,)]
    assert np.all(np.isfinite(sol.values))


@pytest.mark.parametrize("tilt", [False, True])
def test_affine_route_time_order(tilt):
    # as test_adi_time_order_with_explicit_jump_integral, on the 1-D route:
    # an off-by-one level in the tabulated schedule would leave it first order
    prov = _correlated_jump_provider(0.01)
    grid = StateGrid(-0.02, 0.12, 40, 0.0, 0.35, 40)
    interior = (slice(8, 32), slice(8, 32))

    def solve(n):
        return solve_cauchy_affine(prov, grid, 0.5, 1.0, n, tilt=tilt).values[interior]

    ref = solve(800)
    err = {n: np.abs(solve(n) - ref).max() for n in (25, 100)}
    assert err[25] / err[100] >= 8.0, err


def _loop_affine_f0(fg, grid, c, tilt):
    # F0 of the affine routes node by node (the gather that the correlation
    # kernels replaced): shifted columns, central F_x, mass and mixed term;
    # 40 cells of padding cover both cases' rate reach (at most 36 cells)
    padded = _pad_extrapolate(fg, 40, 0)
    kx = np.gradient(fg, grid.hx, axis=0, edge_order=1)
    out = np.zeros_like(fg)
    for w, dx, dy in zip(c.jump_w, c.jump_dx, c.jump_dy):
        s = dx / grid.hx
        i0 = int(np.floor(s))
        shifted = (1 - (s - i0)) * padded[40 + i0:40 + i0 + grid.nx] \
            + (s - i0) * padded[41 + i0:41 + i0 + grid.nx]
        if tilt:
            shifted = shifted * np.exp(-dy)
            out += w * dy * fg
        out += w * (shifted - dx * kx - fg)
        out[:, 1] += w * dy * (shifted[:, 0] - fg[:, 0])
    if tilt:
        out[:, 0] -= c.a12 * kx[:, 0]
        out[:, 1] += c.a12 * (kx[:, 0] - kx[:, 1])
    else:
        out[:, 1] += c.a12 * kx[:, 0]
    return out


@pytest.mark.parametrize("tilt", [False, True])
@pytest.mark.parametrize("case", ["defaults_correlated", "time_independent"])
def test_affine_jump_correlation_matches_node_loop(case, tilt):
    prov = AFFINE_CASES[case]
    table = _coefficient_table(prov, np.array([0.5, 0.8]))
    split = _AffineSplit(PIDE_GRID, table, {(0, 1e-3)}, u=int(tilt))
    fg = np.random.default_rng(11).standard_normal((PIDE_GRID.nx, 2))
    for lvl in (0, 1):
        c = table.level(lvl)
        ref = _loop_affine_f0(fg, PIDE_GRID, c, tilt)
        # summation order differs: bound by eps times the sum of |terms|
        scale = (np.abs(c.jump_w).sum() * (1 + np.abs(c.jump_dy).max(initial=0.0))
                 + (np.abs(c.jump_w * c.jump_dx).sum() + abs(c.a12)) / PIDE_GRID.hx)
        assert np.abs(split.f0(lvl, fg) - ref).max() <= 1e-14 * scale * np.abs(fg).max()


def _kernel_on_grid(prov, grid, t, T, u=0):
    """The kernel with terminal y e^{-u y} from its affine transform,
    e^{A - B x - u y} (y + C), on the grid: u = 0 is k_breve, u = 1 k_tilde."""
    a, b, c = kernel_transform(prov, t, T, u)
    return np.exp(a - b * grid.x)[:, None] * np.exp(-u * grid.y) * (grid.y + c)


def test_affine_route_matches_closed_form():
    prov = AFFINE_CASES["defaults_correlated"]
    sol = solve_cauchy_affine(prov, PIDE_GRID, 0.5, 1.0, 200)
    err = np.abs(sol.values - _kernel_on_grid(prov, PIDE_GRID, 0.5, 1.0))
    mid = slice(PIDE_GRID.nx // 4, 3 * PIDE_GRID.nx // 4)
    # measured: 2.1e-8 on the middle half of the x-grid, 8.0e-7 at the
    # x-edges (linear extrapolation of e^{-Bx}); the same at 800 steps, so
    # both are spatial
    assert err[mid].max() < 5e-8, err[mid].max()
    assert err.max() < 2e-6, err.max()


TILTED_CASES = {
    # (provider, bound on the middle half of x, bound on the whole grid)
    "theta_2": (AFFINE_CASES["defaults_correlated"], 5e-8, 2e-6),
    "theta_20": (CoefficientProvider(KERNEL_SPEC, JUMPY_RATES, KERNEL, EXP_MEASURE,
                                     theta=20.0), 5e-8, 2e-6),
    "every_term_live": (_constant_provider, 5e-7, 2e-6),
}


@pytest.mark.parametrize("case", sorted(TILTED_CASES))
def test_tilted_route_matches_closed_form(case):
    # measured: 1.4e-8 on the middle half and 5.3e-7 over the whole grid at
    # theta = 2 and 20 (the 2-D route: 1.4e-5 and 2.5e-3); 1.8e-7 and 6.3e-7
    # with a_drift, a22, a12 and large rate and intensity jumps all live
    prov, mid_bound, bound = TILTED_CASES[case]
    sol = solve_cauchy_affine(prov, PIDE_GRID, 0.5, 1.0, 200, tilt=True)
    err = np.abs(sol.values - _kernel_on_grid(prov, PIDE_GRID, 0.5, 1.0, u=1))
    mid = slice(PIDE_GRID.nx // 4, 3 * PIDE_GRID.nx // 4)
    assert err[mid].max() < mid_bound, err[mid].max()
    assert err.max() < bound, err.max()


def _price_window_provider(theta=None) -> CoefficientProvider:
    """The correlated `lab price` kernels at the defaults over the alive
    price's theta window: the 2,111 curve nodes from t = 0.5 on."""
    from densitylab.experiments import ExperimentConfig
    if theta is None:
        theta = ExperimentConfig().theta_grid()
        theta = theta[theta >= 0.5 - 1e-12]
    rates = VasicekSpec(kappa=1.0, delta=0.05, r0=0.05, rho0=0.01)
    return CoefficientProvider(KERNEL_SPEC, rates, KERNEL, EXP_MEASURE, theta)


@pytest.mark.parametrize("u", [0, 1])
def test_transform_quadrature_converges_in_the_node_count(u):
    # the kink of (theta - s)^+ at s = theta inside [t, T] leaves
    # Gauss-Legendre second order, not spectral: measured 6.7e-11 from 40
    # to 160 nodes for A (u = 1) and C, 2.5e-10 at 20 nodes
    prov = _price_window_provider()
    assert prov.theta.size == 2111
    a, b, c = kernel_transform(prov, 0.5, 1.0, u)
    a_ref, b_ref, c_ref = kernel_transform(prov, 0.5, 1.0, u, n_quad=160)
    assert b == b_ref
    assert np.abs(a - a_ref).max() < 2e-10
    assert np.abs(c - c_ref).max() < 2e-10


@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_transform_blocks_equal_one_block(monkeypatch, block):
    import densitylab.pide as pide
    prov = _price_window_provider()
    blocked = [kernel_transform(prov, 0.5, 1.0, u) for u in (0, 1)]
    monkeypatch.setattr(pide, "THETA_BLOCK", block)
    for u, ref in zip((0, 1), blocked):
        other = kernel_transform(prov, 0.5, 1.0, u)
        assert all(np.array_equal(x, y) for x, y in zip(ref, other))


def test_transform_traced_memory_is_bounded_by_the_block():
    import tracemalloc
    prov = _price_window_provider()
    tracemalloc.start()
    try:
        kernel_transform(prov, 0.5, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


@pytest.mark.parametrize("correlated", [True, False])
def test_transform_before_t_is_the_vasicek_bond(correlated):
    # at theta <= t every intensity coefficient has vanished: C = 0, and
    # e^{A - B r} is the standard Vasicek bond
    rates = VasicekSpec(kappa=1.3, delta=0.06, r0=0.04, rho0=0.02)
    prov = CoefficientProvider(KERNEL_SPEC, rates, KERNEL, EXP_MEASURE,
                               np.array([0.0, 0.2, 0.5]), rates_correlated=correlated)
    a, b, c = kernel_transform(prov, 0.5, 1.0, 0)
    assert np.all(c == 0.0)
    for r in (-0.01, 0.04, 0.1):
        bond = zcb_price(rates, 0.5, 1.0, r, formula="standard")
        assert np.abs(np.exp(a - b * r) / bond - 1.0).max() < 1e-14


def test_transform_of_a_theta_array_matches_one_theta_providers():
    # the (s, theta) table of an array of theta against each theta alone
    thetas = np.array([0.3, 0.5, 0.77, 1.0, 2.0, 20.0])
    table = kernel_transform(_price_window_provider(thetas), 0.5, 1.0, 1)
    for k, theta in enumerate(thetas):
        alone = kernel_transform(_price_window_provider(float(theta)), 0.5, 1.0, 1)
        assert isinstance(alone[0], float)
        assert alone[0] == pytest.approx(table[0][k], rel=1e-13, abs=1e-16)
        assert alone[2] == pytest.approx(table[2][k], rel=1e-13, abs=1e-16)


@pytest.mark.parametrize("case", ["defaults_correlated", "girsanov", "uncorrelated"])
def test_2d_solve_converges_to_the_tilted_route(case):
    # the 2-D grid differences e^{-y} in y, where the tilted route is exact
    # in y, so their gap shrinks at first order in hy (measured 1.4e-4,
    # 6.5e-5 and 2.6e-5 at ny = 16, 31, 61)
    prov = AFFINE_CASES[case]
    gaps = []
    for ny in (16, 31, 61):
        grid = StateGrid(-0.05, 0.15, 48, 0.0, 0.4, ny)
        full = solve_cauchy(lambda x, y: y * np.exp(-y), prov, grid, 0.5, 1.0, 50)
        tilted = solve_cauchy_affine(prov, grid, 0.5, 1.0, 50, tilt=True)
        gaps.append(np.abs(full.values - tilted.values).max())
    assert gaps[0] < 2e-4
    assert gaps[0] / gaps[1] > 1.8 and gaps[1] / gaps[2] > 1.8, gaps


def test_tilted_sup_finds_an_interior_peak():
    # e^{-y} (F y + G) with (F, G) = (-5, -4) peaks in modulus at y* = 0.2,
    # inside the grid, above every value at y_min and y_max
    table = _coefficient_table(AFFINE_CASES["defaults_correlated"], np.array([0.5]))
    split = _AffineSplit(PIDE_GRID, table, {(0, 1e-3)}, u=1)
    fg = np.tile([-5.0, -4.0], (PIDE_GRID.nx, 1))
    fg[:4] = [0.0, 4.05]                    # F = 0: no stationary point, peak at y_min
    fg[4:8] = [1.0, 0.0]
    assert split.sup(fg) == pytest.approx(5.0 * np.exp(-0.2), rel=1e-14)


def test_affine_route_instability_raises():
    grid = StateGrid(0.0, 0.06, 16, 0.0, 0.3, 16)

    def wild(dx):
        prov = lambda t: OperatorCoefficients(t, 0.0, kappa=0.0, delta_hat=0.0, a_drift=0.0,
                                              a11=0.0, a22=0.0, a12=0.0,
                                              jump_dx=np.array([dx]),
                                              jump_dy=np.array([0.25]),
                                              jump_w=np.array([5e4]))
        prov.time_dependent = False
        return prov

    # a y-shift annihilates functions linear in y exactly, so the wild block
    # of test_solve_cauchy_instability_raises leaves K = y e^{-x (T - t)}
    # on this route; a rate shift makes the same explicit jump block explode
    sol = solve_cauchy_affine(wild(0.0), grid, 0.0, 1.0, 4)
    assert np.abs(sol.values - grid.y * np.exp(-grid.x[:, None])).max() < 1e-6
    with pytest.raises(PideInstabilityError, match="n_steps"):
        solve_cauchy_affine(wild(0.01), grid, 0.0, 1.0, 4)
    # I - w Ax = diag(1 + w x) with nothing else live: a rate axis reaching
    # below -1/w loses the positive pivots the elimination relies on
    with pytest.raises(PideInstabilityError, match="pivot -49.0 at row 0"):
        solve_cauchy_affine(zero_coeffs, StateGrid(-50.0, 0.0, 16, 0.0, 0.3, 16), 0.0, 1.0, 1)


# ------------------------------------------------- rate-axis elimination

def _banded_reference(ab, rhs):
    from scipy.linalg import solve_banded
    return solve_banded((1, 1), ab, rhs)


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("weight", ["hv", "damping"])
def test_thomas_solve_matches_lapack_on_the_kernel_system(t, weight):
    # I - w Ax of the affine route at the benchmark kernel's config
    # (defaults_correlated on PIDE_GRID, 200 steps over [0.5, 1]) for both
    # weights the HV march uses
    dt = 0.5 / 200
    w = HV_THETA * dt if weight == "hv" else dt
    table = _coefficient_table(AFFINE_CASES["defaults_correlated"], np.array([t]))
    split = _AffineSplit(PIDE_GRID, table, {(0, w)})
    ab = -w * split.ax[0]
    ab[1] += 1.0
    rhs = np.random.default_rng(5).standard_normal((PIDE_GRID.nx, 2))
    ref = _banded_reference(ab, rhs)
    x = split.solve(0, 0, w, rhs)
    assert x.shape == rhs.shape
    assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("seed", range(6))
def test_thomas_solve_matches_lapack_on_dominant_systems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    ab = np.zeros((3, n))
    ab[0, 1:] = rng.uniform(-1.0, 1.0, n - 1)
    ab[2, :-1] = rng.uniform(-1.0, 1.0, n - 1)
    # strictly diagonally dominant rows with a positive diagonal
    ab[1] = np.abs(ab[0]) + np.roll(np.abs(ab[2]), 1) + rng.uniform(1e-3, 1.0, n)
    rhs = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-3, 3)
    ref = _banded_reference(ab, rhs)
    x = _thomas_solve(_thomas_factor(ab), rhs)
    assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_thomas_factor_rejects_a_non_positive_pivot(bad):
    ab = np.zeros((3, 6))
    ab[1] = 2.0
    ab[1, 3] = bad
    with pytest.raises(PideInstabilityError, match="pivot .* at row 3"):
        _check_pivots(_thomas_factor(ab)[1])


def test_affine_route_caches_one_factor_per_level_and_weight():
    # the march's (level, weight) pairs are eliminated together, each to the
    # bits of its own elimination
    table = _coefficient_table(AFFINE_CASES["defaults_correlated"], np.array([0.5, 0.75]))
    pairs = {(0, 1e-3), (1, 1e-3), (1, 2e-3)}
    split = _AffineSplit(PIDE_GRID, table, pairs)
    assert split._factors[1].shape == (len(pairs), PIDE_GRID.nx)
    rhs = np.random.default_rng(3).standard_normal((PIDE_GRID.nx, 2))
    for lvl, w in pairs:
        ab = -w * split.ax[lvl]
        ab[1] += 1.0
        assert np.array_equal(split.solve(0, lvl, w, rhs), _thomas_solve(_thomas_factor(ab), rhs))
