"""Forward-intensity model, drift condition, survival/density dynamics."""

import numpy as np
import pytest
from scipy.stats import chi2

from densitylab.kernels import DiracKernel
from densitylab.measures import ExponentialJumpMeasure, PointMassMeasure, ZeroMeasure
from densitylab import rng
from densitylab import term_structure as ts


SEC7 = ts.CoefficientSpec.section7(sigma=0.001, b=1.0, lambda_bar=0.1)
EXP_MEASURE = ExponentialJumpMeasure(zeta=10.0, varpi=1e-3)


def density_step_terms(spec: ts.CoefficientSpec, measure, t: float, grid: np.ndarray,
                       dt: float, sign: float, dW: float,
                       marks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dm, dM) over one step for the separable coefficients.

    dm(theta) = -sigma (theta-t)^+ dW
                + sign [ sum_k b (theta-t)^+ xi_k e^{-xi_k G(theta)}
                         - dt int b (theta-t)^+ xi e^{-xi G(theta)} nu(dxi) ],
    G(theta) = b ((theta-t)^+)^2 / 2,   M = int_0^theta m du (trapezoid).

    One path, one step, straight from the formulas: the reference that the
    curve engine `simulate_density_paths` is checked against.
    """
    theta_t = np.maximum(grid - t, 0.0)
    sig_vec = spec.sigma_slope * theta_t
    gam_vec = spec.jump_slope * theta_t
    big_g = spec.jump_slope * theta_t ** 2 / 2.0
    dm = -sig_vec * dW
    if measure.total_mass != 0:
        jump_part = -dt * gam_vec * np.asarray(measure.xi_exp(big_g), dtype=float)
        if marks.size:
            expo = np.exp(-np.multiply.outer(marks, big_g))         # (k, n_theta)
            jump_part = jump_part + gam_vec * (marks[:, None] * expo).sum(axis=0)
        dm = dm + sign * jump_part
    return dm, ts._cumtrapz(dm, grid)


def constant_sigma_spec(sigma0: float, lambda_bar: float = 0.1) -> ts.CoefficientSpec:
    """Non-separable spec with sigma constant and no jumps (immersion fails)."""
    return ts.CoefficientSpec(
        sigma_fn=lambda t, theta, xi: sigma0 * np.ones_like(
            np.asarray(theta, dtype=float) + np.asarray(xi, dtype=float)),
        gamma_fn=lambda t, theta, xi: np.zeros_like(
            np.asarray(theta, dtype=float) + np.asarray(xi, dtype=float)),
        lambda0_fn=lambda theta: lambda_bar * np.ones_like(np.asarray(theta, dtype=float)),
    )


# ------------------------------------------------------ cumulative integrals

def test_cumulative_integrals_zero_at_zero():
    assert ts.cumulative_integrals(SEC7, 0.3, 0.0, 1.0) == (0.0, 0.0)


def test_cumulative_integrals_sigma_closed_form():
    spec = ts.CoefficientSpec.section7(sigma=0.001, b=1.0, lambda_bar=0.1)
    i_sig, _ = ts.cumulative_integrals(spec, 0.0, 1.0, 0.0)
    assert i_sig == pytest.approx(0.0005, abs=1e-15)
    # quadrature cross-check through a non-separable twin of the same field
    twin = ts.CoefficientSpec(spec.sigma_fn, spec.gamma_fn, spec.lambda0_fn)
    i_sig_q, _ = ts.cumulative_integrals(twin, 0.0, 1.0, 0.0)
    assert i_sig_q == pytest.approx(0.0005, rel=1e-6)


def test_cumulative_integrals_gamma_closed_form():
    i_sig, i_gam = ts.cumulative_integrals(SEC7, 0.5, 1.0, 2.0)
    assert i_gam == pytest.approx(0.25, abs=1e-15)
    twin = ts.CoefficientSpec(SEC7.sigma_fn, SEC7.gamma_fn, SEC7.lambda0_fn)
    _, i_gam_q = ts.cumulative_integrals(twin, 0.5, 1.0, 2.0)
    assert i_gam_q == pytest.approx(0.25, rel=1e-6)


# ----------------------------------------------------------------- mc_drift

def test_mc_drift_zero_coefficients():
    spec = ts.CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=0.1)
    assert ts.mc_drift(spec, DiracKernel(), ZeroMeasure(), 0.2, 1.5) == 0.0


def test_mc_drift_constant_sigma_matches_hjm():
    # Dirac kernel, d = 0, sigma constant, no jumps: mu_t(theta) = sigma^2 theta
    spec = constant_sigma_spec(0.02)
    theta = np.array([0.5, 1.0, 2.0])
    mu = ts.mc_drift(spec, DiracKernel(c0=1.0), ZeroMeasure(), 0.1, theta)
    assert np.allclose(mu, 0.02 ** 2 * theta, rtol=1e-10)


def test_mc_drift_jump_part_closed_form_vs_quadrature():
    b, zeta, varpi, t, theta = 1.0, 10.0, 1e-3, 0.0, 1.0
    spec = ts.CoefficientSpec.section7(sigma=0.0, b=b, lambda_bar=0.1)
    meas = ExponentialJumpMeasure(zeta=zeta, varpi=varpi, quadrature_nodes=64)
    mu = ts.mc_drift(spec, DiracKernel(), meas, t, theta)
    expected = zeta * b * (theta - t) * (varpi - varpi / (1 + varpi * b * (theta - t) ** 2 / 2) ** 2)
    assert mu == pytest.approx(expected, rel=1e-12)
    # force the generic quadrature route and compare
    twin = ts.CoefficientSpec(spec.sigma_fn, spec.gamma_fn, spec.lambda0_fn)
    mu_q = ts.mc_drift(twin, DiracKernel(), meas, t, theta)
    assert mu_q == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("spec", [SEC7, ts.CoefficientSpec(SEC7.sigma_fn, SEC7.gamma_fn,
                                                              SEC7.lambda0_fn)],
                         ids=["separable", "quadrature"])
@pytest.mark.parametrize("measure", [EXP_MEASURE, PointMassMeasure(z=2.0, location=0.5),
                                     ZeroMeasure()], ids=["exponential", "point_mass", "zero"])
def test_drift_table_equals_the_per_t_loop(spec, measure):
    # one mc_drift call on a column of times, against one call per time;
    # small grids, as the quadrature route holds a (t, theta, mark, 257) array
    t_grid = np.arange(6) * 0.1
    theta_grid = np.arange(0.0, 2.0 + 1e-12, 0.25)
    loop = np.stack([np.atleast_1d(ts.mc_drift(spec, DiracKernel(c0=2.0), measure, float(t),
                                               theta_grid)) for t in t_grid])
    table = ts.drift_table(spec, DiracKernel(c0=2.0), measure, t_grid, theta_grid)
    assert table.shape == (t_grid.size, theta_grid.size)
    assert np.array_equal(table, loop)


def test_quadrature_route_refuses_arrays_above_the_cap():
    # 50 times x 201 theta x 32 marks at 257 points would build 661-MB
    # arrays; the route names the count and allocates nothing first
    import tracemalloc
    spec = ts.CoefficientSpec(SEC7.sigma_fn, SEC7.gamma_fn, SEC7.lambda0_fn)
    t_col = (np.arange(50) * 0.01)[:, None, None]
    theta = np.linspace(0.0, 2.0, 201)[:, None]
    marks = np.linspace(0.0, 1.0, 32)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="82,651,200 elements per array, above the cap"):
            ts.cumulative_integrals(spec, t_col, theta, marks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    with pytest.raises(ValueError, match="above the cap"):
        ts.mc_drift(spec, DiracKernel(), EXP_MEASURE, t_col[..., 0], theta[:, 0])
    # the separable route has no such arrays
    ts.cumulative_integrals(SEC7, t_col, theta, marks)


# ------------------------------------------------------------ intensity route

def test_intensity_paths_no_noise_is_identity():
    spec = ts.CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=0.1)
    grid = np.linspace(0.0, 2.0, 21)
    res = ts.simulate_intensity_paths(spec, DiracKernel(), ZeroMeasure(), grid,
                                      t_end=0.01, dt=0.01, n_paths=2, seed=0)
    lam0 = ts.initial_forward_state(spec, grid).lam
    assert all(np.array_equal(row, lam0) for row in res["lam"])
    assert res["t"] == pytest.approx(0.01)


def test_intensity_paths_single_jump_increment(monkeypatch):
    # one injected jump at mark xi0: dlambda = gamma(theta, xi0) - dt * int gamma nu
    xi0, dt = 2.5e-3, 0.01
    spec = ts.CoefficientSpec.section7(sigma=0.0, b=1.0, lambda_bar=0.1)
    grid = np.linspace(0.0, 2.0, 21)

    def one_jump(measure, seed, paths, n_steps, d):
        counts = np.zeros((len(paths), n_steps), dtype=np.int64)
        counts[:, 0] = 1
        return np.zeros((len(paths), n_steps)), counts, np.full(len(paths), xi0)

    monkeypatch.setattr(ts, "_path_noise", one_jump)
    res = ts.simulate_intensity_paths(spec, DiracKernel(), EXP_MEASURE, grid, t_end=dt, dt=dt,
                                      n_paths=1, seed=0, drift_multiplier=0.0)
    expected = 1.0 * np.maximum(grid - 0.0, 0.0) * xi0 \
        - dt * 1.0 * np.maximum(grid - 0.0, 0.0) * EXP_MEASURE.mark_moment(1)
    assert np.allclose(res["lam"][0] - spec.lambda0_fn(grid), expected, atol=1e-15)


def test_intensity_paths_mean_increment_matches_drift():
    # E[lambda_dt - lambda_0] over 1e4 paths within 3 SE of mu dt
    spec = ts.CoefficientSpec.section7(sigma=0.01, b=1.0, lambda_bar=0.1)
    grid = np.linspace(0.0, 2.0, 41)
    dt = 0.01
    res = ts.simulate_intensity_paths(spec, DiracKernel(), EXP_MEASURE, grid,
                                      t_end=dt, dt=dt, n_paths=10_000, seed=404)
    mu = ts.mc_drift(spec, DiracKernel(), EXP_MEASURE, 0.0, grid)
    incr = res["lam"] - spec.lambda0_fn(grid)[None, :]
    for j in (10, 25, 40):
        se = incr[:, j].std(ddof=1) / np.sqrt(incr.shape[0])
        assert abs(incr[:, j].mean() - mu[j] * dt) < 3 * se + 1e-15


def test_intensity_paths_gaussian_variance_carries_c0():
    # one step, no jumps: lambda_dt - lambda_0 = mu dt + sqrt(c0) sigma theta dW,
    # so the sample variance sits in the 1e-4 chi-square band of c0 sigma^2 theta^2 dt
    c0, sigma, dt, n = 4.0, 0.01, 0.01, 10_000
    spec = ts.CoefficientSpec.section7(sigma=sigma, b=1.0, lambda_bar=0.1)
    grid = np.linspace(0.0, 2.0, 21)
    res = ts.simulate_intensity_paths(spec, DiracKernel(c0=c0), ZeroMeasure(), grid,
                                      t_end=dt, dt=dt, n_paths=n, seed=7)
    incr = res["lam"] - spec.lambda0_fn(grid)[None, :]
    lo, hi = chi2.ppf([1e-4, 1.0 - 1e-4], n - 1) / (n - 1)
    for j in (10, 20):
        target = c0 * sigma ** 2 * grid[j] ** 2 * dt
        assert lo * target < incr[:, j].var(ddof=1) < hi * target


def test_negative_intensity_counted_not_clamped():
    spec = ts.CoefficientSpec.section7(sigma=5.0, b=0.0, lambda_bar=0.001)
    grid = np.linspace(0.0, 1.0, 11)
    kw = dict(t_end=1.0, dt=1.0, n_paths=64, seed=3)
    out = ts.simulate_intensity_paths(spec, DiracKernel(), ZeroMeasure(), grid, **kw)
    assert out["lam"].min() < 0
    assert np.array_equal(out["negative_counts"], np.count_nonzero(out["lam"] < 0, axis=1))
    clamped = ts.simulate_intensity_paths(spec, DiracKernel(), ZeroMeasure(), grid,
                                          clamp_lambda_at_zero=True, **kw)
    assert clamped["lam"].min() >= 0.0
    assert np.array_equal(clamped["negative_counts"], out["negative_counts"])


# -------------------------------------------------------- survival / density

def test_csp_constant_intensity():
    grid = np.linspace(0.0, 100.0, 10_001)
    state = ts.initial_forward_state(SEC7, grid)
    surv = ts.csp(state)
    assert surv[0] == 1.0
    j = np.searchsorted(grid, 1.0)
    assert surv[j] == pytest.approx(0.9048374180359595, abs=1e-12)
    assert np.allclose(surv, np.exp(-0.1 * grid), rtol=1e-12)


def test_csp_overflow_guard():
    grid = np.linspace(0.0, 10.0, 11)
    state = ts.ForwardCurveState(0.0, grid, np.full(11, -100.0))
    with pytest.raises(OverflowError, match="-700"):
        ts.csp(state)


def test_density_pointwise_and_zero():
    grid = np.linspace(0.0, 5.0, 501)
    state = ts.initial_forward_state(SEC7, grid)
    alpha = ts.density(state)
    assert np.allclose(alpha, 0.1 * np.exp(-0.1 * grid), rtol=1e-12)
    zero_state = ts.ForwardCurveState(0.0, grid, np.zeros_like(grid))
    assert np.all(ts.density(zero_state) == 0.0)


def test_density_tail_identity_constant_intensity():
    # int_0^theta_max alpha + e^{-lam theta_max} = 1 via survival differences
    grid = np.linspace(0.0, 100.0, 10_001)
    state = ts.initial_forward_state(SEC7, grid)
    surv = ts.csp(state)
    integral = surv[0] - surv[-1]
    assert integral + np.exp(-0.1 * 100.0) == pytest.approx(1.0, abs=1e-10)


def test_relation_invariance_alpha_equals_s_lambda():
    spec = ts.CoefficientSpec.section7(sigma=0.01, b=1.0, lambda_bar=0.1)
    grid = np.linspace(0.0, 2.0, 201)
    res = ts.simulate_intensity_paths(spec, DiracKernel(), EXP_MEASURE, grid,
                                      t_end=0.2, dt=0.01, n_paths=4, seed=7)
    for lam in res["lam"]:
        state = ts.ForwardCurveState(0.2, grid, lam)
        assert np.array_equal(ts.density(state), ts.csp(state) * state.lam)


def test_survival_monotone_when_lambda_nonnegative():
    spec = ts.CoefficientSpec.section7(sigma=0.005, b=1.0, lambda_bar=0.1)
    grid = np.linspace(0.0, 3.0, 301)
    res = ts.simulate_intensity_paths(spec, DiracKernel(), EXP_MEASURE, grid,
                                      t_end=0.5, dt=0.01, n_paths=16, seed=11)
    nonnegative = [lam for lam in res["lam"] if lam.min() >= 0]
    assert nonnegative
    for lam in nonnegative:
        surv = ts.csp(ts.ForwardCurveState(0.5, grid, lam))
        assert np.all(np.diff(surv) <= 1e-15)


# ------------------------------------------------------------- density route

def test_density_paths_no_noise_identity():
    spec = ts.CoefficientSpec.section7(sigma=0.0, b=0.0, lambda_bar=0.1)
    grid = np.linspace(0.0, 5.0, 501)
    state = ts.initial_density_state(spec, grid)
    res = ts.simulate_density_paths(spec, ZeroMeasure(), grid, t_end=0.01, dt=0.01,
                                    n_paths=2, seed=0)
    assert all(np.array_equal(a, state.alpha) for a in res["alpha"])
    assert all(np.array_equal(s, state.survival) for s in res["survival"])


@pytest.mark.parametrize("convention", ["section7", "section3"])
def test_density_martingale_mean_small(convention):
    # reduced-size martingale check; the full version is an acceptance criterion
    spec = ts.CoefficientSpec.section7(sigma=0.001, b=1.0, lambda_bar=0.1)
    grid = np.arange(0.0, 5.0 + 1e-12, 0.01)
    res = ts.simulate_density_paths(spec, EXP_MEASURE, grid, t_end=0.2, dt=0.01,
                                    n_paths=2000, seed=31, jump_sign_convention=convention)
    alpha0 = 0.1 * np.exp(-0.1 * grid)
    for j in (60, 100, 400):
        vals = res["alpha"][:, j]
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - alpha0[j]) < 3 * se + 1e-12


def test_density_vectorized_matches_single_path():
    spec = ts.CoefficientSpec.section7(sigma=0.002, b=1.0, lambda_bar=0.1)
    grid = np.arange(0.0, 3.0 + 1e-12, 0.01)
    seed, n_steps, dt = 93, 20, 0.01
    res = ts.simulate_density_paths(spec, EXP_MEASURE, grid, t_end=n_steps * dt, dt=dt,
                                    n_paths=3, seed=seed)
    for p in range(3):
        state = ts.initial_density_state(spec, grid)
        normals, _, marks, off = _stream_noise(EXP_MEASURE, seed, p, n_steps, dt)
        for k in range(n_steps):
            dm, dM = density_step_terms(spec, EXP_MEASURE, state.t, grid, dt, +1.0,
                                        float(np.sqrt(dt) * normals[k]),
                                        marks[off[k]:off[k + 1]])
            alpha = state.alpha + state.alpha * dM - state.survival * dm
            surv = state.survival + state.survival * dM
            state = ts.DensityCurveState(state.t + dt, grid, alpha, surv)
        assert np.allclose(res["alpha"][p], state.alpha, rtol=1e-12, atol=1e-15)
        assert np.allclose(res["survival"][p], state.survival, rtol=1e-12, atol=1e-15)


def test_route_consistency_refinement():
    # lambda-route then alpha = S lambda vs direct alpha-route on the same
    # driving noise: the sup-theta gap shrinks as dt is halved.  The mean
    # gap over coupled paths refines at strong order between 1/2 and 1 (the
    # within-step Gaussian cross terms carry an O(sqrt(dt)) component), so
    # two halvings must cut it by well over half.
    spec = ts.CoefficientSpec.section7(sigma=0.02, b=1.0, lambda_bar=0.1)
    meas = ExponentialJumpMeasure(zeta=10.0, varpi=2e-3)
    grid = np.arange(0.0, 3.0 + 1e-12, 0.02)
    t_end, n_fine = 0.5, 200
    levels = (8, 4, 2)
    drift_tables = {lv: ts.drift_table(spec, DiracKernel(), meas,
                                       np.arange(n_fine // lv) * (t_end / (n_fine // lv)), grid)
                    for lv in levels}

    def gap_one(rng) -> dict:
        fine_normals = rng.standard_normal(n_fine)
        fine_counts = rng.poisson(meas.total_mass * (t_end / n_fine), size=n_fine)
        fine_marks = [meas.sample_marks(int(c), rng) for c in fine_counts]
        out = {}
        for lv in levels:
            n = n_fine // lv
            dt = t_end / n
            normals = fine_normals.reshape(n, lv).sum(axis=1) / np.sqrt(lv)
            fwd = ts.initial_forward_state(spec, grid)
            dens = ts.initial_density_state(spec, grid)
            for k in range(n):
                t = k * dt
                marks = np.concatenate(fine_marks[k * lv:(k + 1) * lv])
                tt = np.maximum(grid - t, 0.0)
                gauss = spec.sigma_slope * tt * np.sqrt(dt) * normals[k]
                jump = spec.jump_slope * tt * marks.sum() \
                    - dt * spec.jump_slope * tt * meas.mark_moment(1)
                fwd = ts.ForwardCurveState(t + dt, grid,
                                           fwd.lam + drift_tables[lv][k] * dt + gauss + jump)
                dm, dM = density_step_terms(spec, meas, t, grid, dt, -1.0,
                                            float(np.sqrt(dt) * normals[k]), marks)
                dens = ts.DensityCurveState(t + dt, grid,
                                            dens.alpha + dens.alpha * dM - dens.survival * dm,
                                            dens.survival + dens.survival * dM)
            out[lv] = float(np.max(np.abs(ts.density(fwd) - dens.alpha)))
        return out

    rng = np.random.Generator(np.random.Philox(key=1234))
    acc = {lv: [] for lv in levels}
    for _ in range(48):
        g = gap_one(rng)
        for lv in levels:
            acc[lv].append(g[lv])
    means = {lv: float(np.mean(acc[lv])) for lv in levels}
    assert means[8] > means[4] > means[2]
    assert means[8] / means[2] > 1.6


# ------------------------------------------------------- azema / immersion

def test_azema_decomposition_residual_refines():
    # non-immersion spec (sigma constant): S_t(t) vs e^{-int lambda_diag} E(M)_t,
    # residual shrinks ~ O(dt) under noise-coupled refinement
    spec = constant_sigma_spec(0.05)
    grid = np.linspace(0.0, 2.0, 201)
    rng = np.random.Generator(np.random.Philox(key=555))
    t_end, n_fine = 0.5, 200
    fine = rng.standard_normal(n_fine)

    def residual(level: int) -> float:
        n = n_fine // level
        dt = t_end / n
        normals = fine.reshape(n, level).sum(axis=1) / np.sqrt(level)
        state = ts.initial_forward_state(spec, grid)
        doleans = 1.0
        int_diag = 0.0
        for k in range(n):
            t = k * dt
            lam_diag_before = float(np.interp(t, grid, state.lam))
            mu = ts.mc_drift(spec, DiracKernel(), ZeroMeasure(), t, grid)
            gauss = 0.05 * np.sqrt(dt) * normals[k]
            state = ts.ForwardCurveState(t + dt, grid, state.lam + mu * dt + gauss)
            lam_diag_after = float(np.interp(t + dt, grid, state.lam))
            int_diag += 0.5 * dt * (lam_diag_before + lam_diag_after)
            i_sig_diag, _ = ts.cumulative_integrals(spec, t, t, 0.0)
            doleans *= 1.0 - float(i_sig_diag) * np.sqrt(dt) * normals[k]
        s_diag = float(np.interp(state.t, grid, ts.csp(state)))     # S_t(t)
        return abs(s_diag - np.exp(-int_diag) * doleans)

    assert residual(4) / residual(2) > 1.5


def test_immersion_freeze_pathwise():
    # with section-7 coefficients, lambda_t(theta) is bitwise frozen for t >= theta
    spec = ts.CoefficientSpec.section7(sigma=0.01, b=1.0, lambda_bar=0.1)
    grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
    res = ts.simulate_intensity_paths(spec, DiracKernel(), EXP_MEASURE, grid,
                                      t_end=0.6, dt=0.01, n_paths=4, seed=17,
                                      record_times=(0.3, 0.31, 0.45, 0.6))
    snapshots = {rt: rec["lam"] for rt, rec in res["records"].items()}
    j = np.searchsorted(grid, 0.3)  # theta = 0.3
    frozen = snapshots[0.3][:, j]
    assert np.all(frozen != spec.lambda0_fn(grid)[j])
    for t_later in (0.31, 0.45, 0.6):
        assert np.array_equal(snapshots[t_later][:, j], frozen)


def test_theta_max_rule():
    assert ts.theta_max_default(0.1) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        ts.theta_max_default(0.0)


def test_density_route_conserves_total_mass():
    # trapezoid mass over the grid plus the survival tail stays at 1 along
    # evolved paths (well inside the 1e-2 truncation-aware tolerance)
    spec = ts.CoefficientSpec.section7(sigma=0.001, b=1.0, lambda_bar=0.1)
    meas = ExponentialJumpMeasure(zeta=10.0, varpi=1e-3)
    grid = np.arange(0.0, 100.0 + 1e-12, 0.05)
    for convention in ("section7", "section3"):
        res = ts.simulate_density_paths(spec, meas, grid, t_end=0.5, dt=0.01,
                                        n_paths=100, seed=42,
                                        jump_sign_convention=convention)
        mass = np.trapezoid(res["alpha"], grid, axis=1) + res["survival"][:, -1]
        assert np.abs(mass - 1.0).max() < 1e-2
        assert np.abs(mass - 1.0).max() < 1e-4   # scheme holds it far tighter


# ----------------------------------- batched engines against per-path loops
#
# The references below step one path at a time, in the arithmetic of the
# engines' per-path formulas, on noise drawn from fresh `rng.stream`
# generators.  The batched engines must match them bit for bit.

HOT_MEASURE = ExponentialJumpMeasure(zeta=400.0, varpi=0.5)   # ~4 jumps per step


def _stream_noise(measure, seed, path, n_steps, dt):
    """Path `path`'s noise, replayed alone: row r of block b's fresh streams,
    read off a draw of the block's rows 0, ..., r."""
    block, row = divmod(path, rng.BLOCK_PATHS)
    normals = rng.stream(seed, block, rng.CHANNEL_GAUSSIAN).standard_normal(
        (row + 1, n_steps))[row]
    counts = np.zeros(n_steps, dtype=np.int64)
    marks = np.zeros(0)
    if measure.total_mass > 0:
        block_counts = rng.stream(seed, block, rng.CHANNEL_POISSON_COUNT).poisson(
            measure.total_mass * dt, size=(row + 1, n_steps))
        counts = block_counts[row]
        marks = measure.sample_marks(int(block_counts.sum()),
                                     rng.stream(seed, block, rng.CHANNEL_POISSON_MARKS))
        marks = marks[int(block_counts[:row].sum()):]
    return normals, counts, marks, np.concatenate([[0], np.cumsum(counts)])


def _reference_density_paths(spec, measure, grid, t_end, dt, n_paths, seed, sign):
    n_steps = int(round(t_end / dt))
    lam0 = spec.lambda0_fn(grid)
    surv0 = np.exp(-ts._cumtrapz(lam0, grid))
    theta_t = np.maximum(grid[None, :] - (np.arange(n_steps) * dt)[:, None], 0.0)
    sig_rows, gam_rows = spec.sigma_slope * theta_t, spec.jump_slope * theta_t
    big_g_rows = spec.jump_slope * theta_t ** 2 / 2.0
    comp_rows = gam_rows * measure.xi_exp(big_g_rows)
    sig_cum, comp_cum = ts._cumtrapz(sig_rows, grid, axis=1), ts._cumtrapz(comp_rows, grid, axis=1)
    out = {"alpha": [], "survival": [], "negative_alpha_counts": []}
    for p in range(n_paths):
        normals, counts, marks, off = _stream_noise(measure, seed, p, n_steps, dt)
        alpha, surv, neg = surv0 * lam0, surv0, 0
        for k in range(n_steps):
            dW = np.sqrt(dt) * normals[k]
            dm = dW * -sig_rows[k] + (-sign * dt) * comp_rows[k]
            dM = dW * -sig_cum[k] + (-sign * dt) * comp_cum[k]
            if counts[k]:
                xs = marks[off[k]:off[k + 1]]
                expo = np.exp(-np.multiply.outer(xs, big_g_rows[k]))
                jump_m = sign * gam_rows[k] * (xs[:, None] * expo).sum(axis=0)
                dm = dm + jump_m
                dM = dM + ts._cumtrapz(jump_m, grid)
            alpha = alpha + alpha * dM - surv * dm
            surv = surv + surv * dM
            neg += np.count_nonzero(alpha < 0)
        out["alpha"].append(alpha)
        out["survival"].append(surv)
        out["negative_alpha_counts"].append(neg)
    return out


def _reference_intensity_paths(spec, kernel, measure, grid, t_end, dt, n_paths, seed,
                               record_times, probes):
    n_steps = int(round(t_end / dt))
    t_nodes = np.arange(n_steps) * dt
    theta_t = np.maximum(grid[None, :] - t_nodes[:, None], 0.0)
    sig_rows = kernel.c0 ** 0.5 * spec.sigma_slope * theta_t
    gam_slope_rows = spec.jump_slope * theta_t
    mu_rows = 1.0 * np.stack([ts.mc_drift(spec, kernel, measure, float(t), grid)
                              for t in t_nodes])
    comp_rows = gam_slope_rows * measure.mark_moment(1)
    probe_tt = np.maximum(np.asarray(probes)[None, :] - t_nodes[:, None], 0.0)
    i_sig_p = kernel.c0 ** 0.5 * spec.sigma_slope * probe_tt ** 2 / 2.0
    g_half_p = spec.jump_slope * probe_tt ** 2 / 2.0
    comp_x_p = -measure.one_minus_exp(g_half_p)
    out = {"lam": [], "negative_counts": [], "probe_martingale": [],
           "records": {rt: [] for rt in record_times},
           "probe_martingale_records": {rt: [] for rt in record_times}}
    for p in range(n_paths):
        normals, counts, marks, off = _stream_noise(measure, seed, p, n_steps, dt)
        lam, neg, x_acc = spec.lambda0_fn(grid), 0, np.zeros(len(probes))
        for k in range(n_steps):
            dW = np.sqrt(dt) * normals[k]
            mark_sum = marks[off[k]:off[k + 1]].sum() if counts[k] else 0.0
            lam = lam + (dt * mu_rows[k] - dt * comp_rows[k]) \
                + dW * sig_rows[k] + mark_sum * gam_slope_rows[k]
            neg += np.count_nonzero(lam < 0)
            x_acc = x_acc + (dW * -i_sig_p[k] - dt * comp_x_p[k])
            if counts[k]:
                xs = marks[off[k]:off[k + 1]]
                x_acc = x_acc + (np.exp(-np.multiply.outer(xs, g_half_p[k])) - 1.0).sum(axis=0)
            for rt in record_times:
                if int(round(rt / dt)) == k + 1:
                    out["records"][rt].append(lam)
                    out["probe_martingale_records"][rt].append(x_acc)
        out["lam"].append(lam)
        out["negative_counts"].append(neg)
        out["probe_martingale"].append(x_acc)
    return out


def _max_jumps_per_step(measure, seed, n_paths, n_steps, dt):
    return max(_stream_noise(measure, seed, p, n_steps, dt)[1].max() for p in range(n_paths))


@pytest.mark.parametrize("measure", [HOT_MEASURE, PointMassMeasure(z=3.0, location=0.2),
                                     ZeroMeasure()], ids=["exponential", "point_mass", "none"])
def test_path_noise_matches_fresh_streams(measure):
    seed = rng.decorrelate(12345, 2)
    assert seed >= 2 ** 63
    paths = range(250, 262)                  # starts mid-block, crosses into block 1
    normals, counts, marks = ts._path_noise(measure, seed, paths, 20, 0.01)
    assert normals.shape == counts.shape == (len(paths), 20)
    # row i's marks are marks[row_off[i]:row_off[i + 1]], in step order
    row_off = np.concatenate([[0], np.cumsum(counts.sum(axis=1))])
    assert marks.size == row_off[-1]
    for i, p in enumerate(paths):
        ref_normals, ref_counts, ref_marks, _ = _stream_noise(measure, seed, p, 20, 0.01)
        assert np.array_equal(normals[i], ref_normals)
        assert np.array_equal(counts[i], ref_counts)
        assert np.array_equal(marks[row_off[i]:row_off[i + 1]], ref_marks)
    if measure.total_mass:
        assert marks.size > 0


def test_rekey_after_a_32_bit_draw_matches_a_fresh_stream():
    gen = rng.stream(3, 0, rng.CHANNEL_GAUSSIAN)
    gen.random(dtype=np.float32)               # keeps half a 64-bit word buffered
    assert gen.bit_generator.state["has_uint32"] == 1
    seed = rng.decorrelate(12345, 2)
    fresh = rng.stream(seed, 5, rng.CHANNEL_POISSON_MARKS)
    assert rng.rekey(gen, seed, 5, rng.CHANNEL_POISSON_MARKS) is gen
    assert np.array_equal(gen.random(5, dtype=np.float32), fresh.random(5, dtype=np.float32))
    assert np.array_equal(gen.standard_normal(7), fresh.standard_normal(7))
    with pytest.raises(ValueError, match="channel must be in"):
        rng.rekey(gen, seed, 5, 4)
    with pytest.raises(ValueError, match="block index must be nonnegative"):
        rng.rekey(gen, seed, -1, rng.CHANNEL_GAUSSIAN)


def test_path_noise_builds_one_generator_per_call(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return rng.stream(*args)

    monkeypatch.setattr(ts, "stream", counted)
    ts._path_noise(HOT_MEASURE, 5, range(300), 10, 0.01)
    assert len(built) == 1


@pytest.mark.parametrize("measure,per_block", [(HOT_MEASURE, 3), (ZeroMeasure(), 1)],
                         ids=["jumps", "none"])
def test_path_noise_rekeys_at_most_three_times_per_block(monkeypatch, measure, per_block):
    keys = []

    def counted(gen, *key):
        keys.append(key)
        return rng.rekey(gen, *key)

    monkeypatch.setattr(ts, "rekey", counted)
    ts._path_noise(measure, 5, range(100, 700), 10, 0.01)     # blocks 0, 1 and 2
    assert len(keys) == 3 * per_block <= 3 * 3
    assert sorted({block for _, block, _ in keys}) == [0, 1, 2]


def _noise_rows(noise, lo, hi):
    """Rows [lo, hi) of a `_path_noise` result that starts at row 0."""
    normals, counts, marks = noise
    row_off = np.concatenate([[0], np.cumsum(counts.sum(axis=1))])
    return normals[lo:hi], counts[lo:hi], marks[row_off[lo]:row_off[hi]]


@pytest.mark.parametrize("chunk", [16, 300])
def test_path_bits_do_not_depend_on_the_drawn_range_or_chunking(monkeypatch, chunk):
    seed, n_steps, dt, n_paths = rng.decorrelate(12345, 3), 10, 0.01, 600
    whole = ts._path_noise(HOT_MEASURE, seed, range(n_paths), n_steps, dt)
    # alone, starting mid-block, crossing one and two block boundaries
    for paths in (range(300, 301), range(37, 45), range(250, 262), range(100, 560)):
        part = ts._path_noise(HOT_MEASURE, seed, paths, n_steps, dt)
        for got, want in zip(part, _noise_rows(whole, paths.start, paths.stop)):
            assert np.array_equal(got, want), paths

    spec = ts.CoefficientSpec.section7(sigma=0.002, b=1.0, lambda_bar=0.1)
    grid = np.arange(0.0, 2.0 + 1e-12, 0.05)
    thetas, probes = np.array([0.5, 1.0, 2.0]), (1.0, 2.0)

    def engines(n, offset=0):
        return {"curves": ts.simulate_density_paths(spec, HOT_MEASURE, grid, 0.1, dt, n, seed,
                                                    path_offset=offset),
                "values": ts.simulate_survival_values(spec, HOT_MEASURE, thetas, 0.1, dt, n,
                                                      seed),
                "intensity": ts.simulate_intensity_values(spec, DiracKernel(), HOT_MEASURE,
                                                          grid, probes, 0.1, dt, n, seed)}

    default = engines(n_paths)
    monkeypatch.setattr(ts, "PATH_CHUNK", chunk)
    monkeypatch.setattr(ts, "INTENSITY_CHUNK", chunk)
    chunked = engines(n_paths)
    for name, key in (("curves", "alpha"), ("curves", "survival"), ("values", "alpha"),
                      ("values", "survival"), ("intensity", "integrated_intensity"),
                      ("intensity", "probe_martingale")):
        assert np.array_equal(chunked[name][key], default[name][key]), (name, key)
    offset = engines(n_paths - 250, offset=250)["curves"]     # starts mid-block
    assert np.array_equal(offset["alpha"], default["curves"]["alpha"][250:])


@pytest.mark.parametrize("convention", ["section7", "section3"])
def test_density_engine_matches_per_path_reference_at_high_jump_activity(monkeypatch,
                                                                         convention):
    monkeypatch.setattr(ts, "PATH_CHUNK", 16)          # three chunks, one partial
    spec = ts.CoefficientSpec.section7(sigma=0.002, b=1.0, lambda_bar=0.1)
    grid = np.arange(0.0, 3.0 + 1e-12, 0.01)
    seed, n_paths, dt, t_end = 77, 40, 0.01, 0.5
    assert _max_jumps_per_step(HOT_MEASURE, seed, n_paths, 50, dt) >= 8
    res = ts.simulate_density_paths(spec, HOT_MEASURE, grid, t_end, dt, n_paths, seed,
                                    jump_sign_convention=convention)
    ref = _reference_density_paths(spec, HOT_MEASURE, grid, t_end, dt, n_paths, seed,
                                   ts.JUMP_SIGN[convention])
    assert np.all(np.isfinite(res["alpha"]))
    for key in ("alpha", "survival", "negative_alpha_counts"):
        assert np.array_equal(res[key], np.array(ref[key])), key
    assert res["negative_alpha_counts"].sum() > 0


def test_intensity_engine_matches_per_path_reference_at_high_jump_activity(monkeypatch):
    monkeypatch.setattr(ts, "INTENSITY_CHUNK", 16)
    spec = ts.CoefficientSpec.section7(sigma=0.05, b=1.0, lambda_bar=0.1)
    grid = np.arange(0.0, 2.0 + 1e-12, 0.01)
    seed, n_paths, dt, t_end, record, probes = 78, 40, 0.01, 0.5, (0.2, 0.5), (1.0, 2.0)
    assert _max_jumps_per_step(HOT_MEASURE, seed, n_paths, 50, dt) >= 8
    res = ts.simulate_intensity_paths(spec, DiracKernel(c0=2.0), HOT_MEASURE, grid, t_end, dt,
                                      n_paths, seed, record_times=record, probe_thetas=probes)
    ref = _reference_intensity_paths(spec, DiracKernel(c0=2.0), HOT_MEASURE, grid, t_end, dt,
                                     n_paths, seed, record, probes)
    for key in ("lam", "negative_counts", "probe_martingale"):
        assert np.array_equal(res[key], np.array(ref[key])), key
    assert res["negative_counts"].sum() > 0
    for rt in record:
        assert np.array_equal(res["records"][rt]["lam"], np.array(ref["records"][rt]))
        assert np.array_equal(res["probe_martingale_records"][rt],
                              np.array(ref["probe_martingale_records"][rt]))


def _reference_survival_values(spec, measure, thetas, t_end, dt, n_paths, seed, sign):
    """`simulate_survival_values` as a per-step loop over all paths at once.

    Per step: every path's dM_k and dm_k, the step's jumps added one by one
    at their rows in draw order, then S (1 + dM_k) and the running sum of
    dm_k / (1 + dM_k).  The events come straight from `_path_noise`'s
    counts and marks.  Returns (alpha, S, least 1 + dM_k seen).
    """
    n_steps = int(round(t_end / dt))
    lam0 = spec.lambda0_fn(thetas)
    pts = thetas[:, None] * np.linspace(0.0, 1.0, 257)
    surv0 = np.exp(-np.trapezoid(spec.lambda0_fn(pts), pts, axis=1))
    theta_t = np.maximum(thetas[None, :] - (np.arange(n_steps) * dt)[:, None], 0.0)
    half_sq = theta_t ** 2 / 2.0
    sig_rows, sig_cum = spec.sigma_slope * theta_t, spec.sigma_slope * half_sq
    gam_rows, big_g_rows = spec.jump_slope * theta_t, spec.jump_slope * half_sq
    comp_rows = gam_rows * np.asarray(measure.xi_exp(big_g_rows), dtype=float)
    comp_cum = np.asarray(measure.one_minus_exp(big_g_rows), dtype=float)

    normals, counts, marks = ts._path_noise(measure, seed, range(n_paths), n_steps, dt)
    dW = np.sqrt(dt) * normals
    ev_row = np.repeat(np.arange(n_paths), counts.sum(axis=1))          # draw order
    ev_step = np.concatenate([np.repeat(np.arange(n_steps), c) for c in counts])
    surv = np.tile(surv0, (n_paths, 1))
    dlog_sum = np.zeros((n_paths, thetas.size))
    least = np.inf
    for k in range(n_steps):
        dM = np.multiply.outer(dW[:, k], -sig_cum[k]) + (-sign * dt) * comp_cum[k]
        dm = np.multiply.outer(dW[:, k], -sig_rows[k]) + (-sign * dt) * comp_rows[k]
        now = ev_step == k
        if now.any():
            xs = marks[now]
            expo = np.exp(-np.multiply.outer(xs, big_g_rows[k]))
            np.add.at(dM, ev_row[now], sign * (1.0 - expo))
            np.add.at(dm, ev_row[now], sign * gam_rows[k] * (xs[:, None] * expo))
        growth = 1.0 + dM
        least = min(least, growth.min())
        surv *= growth
        dlog_sum += dm / growth
    return surv * (lam0 - dlog_sum), surv, least


@pytest.mark.parametrize("n_mat", [3, 51, 82])
@pytest.mark.parametrize("measure", [HOT_MEASURE, PointMassMeasure(z=30.0, location=0.2),
                                     ZeroMeasure()], ids=["hot", "point_mass", "none"])
@pytest.mark.parametrize("convention", ["section7", "section3"])
def test_survival_values_match_per_step_reference(monkeypatch, convention, measure, n_mat):
    monkeypatch.setattr(ts, "PATH_CHUNK", 16)          # 515 paths: the last chunk is partial
    spec = ts.CoefficientSpec.section7(sigma=0.002, b=1.0, lambda_bar=0.1)
    thetas = np.linspace(0.05, 3.0, n_mat)
    seed, n_paths, dt, t_end = 79, 515, 0.01, 0.5
    alpha, surv, least = _reference_survival_values(spec, measure, thetas, t_end, dt, n_paths,
                                                    seed, ts.JUMP_SIGN[convention])
    assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(surv))
    if measure is HOT_MEASURE:
        assert _max_jumps_per_step(HOT_MEASURE, seed, n_paths, 50, dt) >= 8
        assert least <= 0.0                                # 1 + dM_k <= 0 somewhere
    # the block bound sets memory, not numerics: one step per block, blocks
    # of 7 steps and a partial last one, the default, a whole chunk at once
    for block in (1, 16 * 7 * n_mat, ts.VALUES_BLOCK_ELEMENTS, 16 * 50 * n_mat + 1):
        monkeypatch.setattr(ts, "VALUES_BLOCK_ELEMENTS", block)
        for n in (1, n_paths):
            res = ts.simulate_survival_values(spec, measure, thetas, t_end, dt, n, seed,
                                              jump_sign_convention=convention)
            assert np.array_equal(res["alpha"], alpha[:n]), (block, n)
            assert np.array_equal(res["survival"], surv[:n]), (block, n)


@pytest.mark.parametrize("kernel,measure", [
    (DiracKernel(), EXP_MEASURE),
    (DiracKernel(c0=4.0), PointMassMeasure(z=30.0, location=0.2)),
    (DiracKernel(), ZeroMeasure()),
    (DiracKernel(), HOT_MEASURE),
], ids=["exponential", "point_mass_c0_4", "none", "hot"])
def test_intensity_values_match_curve_engine(kernel, measure):
    # int_0^theta lambda_t (trapezoid on the grid) and X, read off 201-node curves
    spec = ts.CoefficientSpec.section7(sigma=0.01, b=1.0, lambda_bar=0.1)
    grid = np.arange(0.0, 2.0 + 1e-12, 0.01)
    probes, n_paths = (0.0, 0.5, 1.0, 2.0), 515           # across the 512-path chunk
    engine_args = (spec, kernel, measure, grid)
    kw = dict(t_end=0.5, dt=0.01, seed=21)
    curves = ts.simulate_intensity_paths(*engine_args, n_paths=n_paths, probe_thetas=probes,
                                         **kw)
    values = ts.simulate_intensity_values(*engine_args, probes, n_paths=n_paths, **kw)
    integrals = np.stack([np.trapezoid(curves["lam"][:, :j + 1], grid[:j + 1], axis=1)
                          for j in np.rint(np.array(probes) / 0.01).astype(int)], axis=1)
    assert np.abs(values["integrated_intensity"] - integrals).max() <= 1e-12
    assert np.abs(values["probe_martingale"] - curves["probe_martingale"]).max() <= 1e-12
    # a path's bits do not depend on the chunk it runs in
    head = ts.simulate_intensity_values(*engine_args, probes, n_paths=3, **kw)
    for key in ("integrated_intensity", "probe_martingale"):
        assert np.array_equal(head[key], values[key][:3]), key


def test_intensity_values_reject_off_grid_probes_and_non_separable_specs():
    grid = np.arange(0.0, 2.0 + 1e-12, 0.01)
    with pytest.raises(ValueError, match="probe maturity 1.005 is not a node of theta_grid"):
        ts.simulate_intensity_values(SEC7, DiracKernel(), EXP_MEASURE, grid, (1.0, 1.005),
                                     0.5, 0.01, 4, 1)
    with pytest.raises(ValueError, match="separable"):
        ts.simulate_intensity_values(constant_sigma_spec(0.01), DiracKernel(), ZeroMeasure(),
                                     grid, (1.0,), 0.5, 0.01, 4, 1)
