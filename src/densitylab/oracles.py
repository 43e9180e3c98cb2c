"""Test oracles of the pricing kernels: what no `lab` command runs.

`pide` holds the lab path (coefficients, closed-form transform, 1-D
march).  This module holds the independent references the tests and the
benchmark's checks pin it to:

- the 2-D route: `solve_cauchy` marches K on the full (rate, intensity)
  grid through the same Hundsdorfer-Verwer stages (`pide._hv_march`),
  with tridiagonal axis operators (`axis_operators`, whose diffusions gain
  a ridge of 1e-8 max(a11, a22) when the diffusion block is degenerate, as
  it is for separable coefficients) and the explicit jump integral by
  shifted copies of the grid (`apply_jump_operator`);
- `solve_cauchy_picard`, the implicit-Euler fixed point behind the
  existence proof's contraction, which factorises the assembled sparse
  2-D operator (`build_local_operator`) with SuperLU.  It keeps one
  factor per time level for all its iterations (one in all when the
  provider's `time_dependent` flag is False), so its memory grows with
  n_steps on the 2-D grid;
- `simulate_kernel_expectation`, Monte Carlo of the kernel under the
  survival-reweighted measure;
- `default_grid_for`, a state grid covering the diffusion and jump reach.

Only this module needs scipy, imported on first use (LAPACK line solves,
sparse SuperLU).  No `src` module imports it: `pide` forwards the few
names that older callers still look up there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .kernels import DiracKernel
from .measures import LevyMeasure
from .pide import (HV_THETA, GridFunction, OperatorCoefficients, StateGrid, _band_apply,
                   _banded, _drift_matrix, _hv_march, _rate_axis, _second_diff,
                   compute_coefficients)
from .rates import VasicekSpec, ou_gaussian_loading
from .term_structure import CoefficientSpec

if TYPE_CHECKING:
    import scipy.sparse as sp


def splu(a, **options):
    """SuperLU factorisation of a sparse matrix: `scipy.sparse.linalg.splu`,
    imported on the first call, since only `solve_cauchy_picard` factorises."""
    from scipy.sparse.linalg import splu as superlu
    return superlu(a, **options)


def degenerate(coeffs: OperatorCoefficients, tol: float = 1e-14) -> bool:
    """Whether the diffusion block [[a11, a12/2], [a12/2, a22]] is singular."""
    return coeffs.a11 * coeffs.a22 <= coeffs.a12 ** 2 / 4.0 + tol


# ---------------------------------------------------------------------------
# 2-D operators
# ---------------------------------------------------------------------------

def _first_diff(n: int, h: float) -> np.ndarray:
    """Central first difference; ghost elimination gives one-sided edge rows."""
    main = np.zeros(n)
    main[0], main[-1] = -1.0 / h, 1.0 / h
    upper = np.full(n - 1, 0.5 / h)
    lower = np.full(n - 1, -0.5 / h)
    upper[0], lower[-1] = 1.0 / h, -1.0 / h
    return _banded(lower, main, upper)


def _band_to_sparse(ab: np.ndarray) -> sp.csr_matrix:
    import scipy.sparse as sp
    return sp.diags([ab[2, :-1], ab[1], ab[0, 1:]], [-1, 0, 1], format="csr")


@dataclass(frozen=True)
class AxisOperators:
    """The 1-D pieces of the local operator, L = Ax (x) Iy + Ix (x) Ay + a12 Dx (x) Dy.

    Ax = a11 Dxx + drift_x - diag(x) acts on the rate axis (axis 0 of a grid
    function), Ay = a22 Dyy + drift_y on the intensity axis (axis 1); Dx, Dy
    are the central first differences of the mixed term.  All four are
    tridiagonal and held in (3, n) banded form.
    """

    ax: np.ndarray
    ay: np.ndarray
    dx: np.ndarray
    dy: np.ndarray


def axis_operators(grid: StateGrid, coeffs: OperatorCoefficients) -> AxisOperators:
    """1-D pieces of the local (differential + discount) operator at one
    time.  A degenerate diffusion block (rank one, as for separable
    coefficients) gets a ridge of 1e-8 max(a11, a22) on both diffusions."""
    ridge = 1e-8 * max(coeffs.a11, coeffs.a22, 0.0) if degenerate(coeffs) else 0.0
    a22 = coeffs.a22 + ridge
    ay = a22 * _second_diff(grid.ny, grid.hy) \
        + _drift_matrix(grid.ny, grid.hy, np.full(grid.ny, coeffs.a_drift), a22)
    return AxisOperators(_rate_axis(grid, coeffs.a11 + ridge, coeffs.kappa, coeffs.delta_hat),
                         ay, _first_diff(grid.nx, grid.hx), _first_diff(grid.ny, grid.hy))


def build_local_operator(grid: StateGrid, coeffs: OperatorCoefficients) -> sp.csc_matrix:
    """Sparse 2-D matrix of the local operator, assembled from its 1-D pieces."""
    import scipy.sparse as sp
    p = axis_operators(grid, coeffs)
    ax, ay, dx, dy = (_band_to_sparse(ab) for ab in (p.ax, p.ay, p.dx, p.dy))
    ix = sp.identity(grid.nx, format="csr")
    iy = sp.identity(grid.ny, format="csr")
    op = sp.kron(ax, iy) + sp.kron(ix, ay) + coeffs.a12 * sp.kron(dx, dy)
    return op.tocsc()


def _pad_extrapolate(values: np.ndarray, px: int, py: int) -> np.ndarray:
    """Pad a grid function by first-order linear extrapolation on all edges."""
    nx, ny = values.shape
    out = np.empty((nx + 2 * px, ny + 2 * py))
    out[px:px + nx, py:py + ny] = values
    # k cells beyond an edge: edge value -/+ k times the edge difference
    k = np.arange(1, px + 1)[:, None]
    out[:px][::-1, py:py + ny] = values[:1] - k * (values[1:2] - values[:1])
    out[px + nx:, py:py + ny] = values[-1:] + k * (values[-1:] - values[-2:-1])
    core = out[:, py:py + ny]
    k = np.arange(1, py + 1)
    out[:, :py][:, ::-1] = core[:, :1] - k * (core[:, 1:2] - core[:, :1])
    out[:, py + ny:] = core[:, -1:] + k * (core[:, -1:] - core[:, -2:-1])
    return out


def apply_jump_operator(values: np.ndarray, grid: StateGrid,
                        coeffs: OperatorCoefficients) -> np.ndarray:
    """Nonlocal part: int [K(x+dx, y+dy) - K - dx K_x - dy K_y] nu(dxi).

    Displacements are uniform across the grid for each quadrature node, so
    each node contributes one bilinearly shifted copy of the array; the
    shifted lookup extrapolates linearly beyond the grid.
    """
    if coeffs.jump_w.size == 0:
        return np.zeros_like(values)
    values = np.asarray(values, dtype=float)
    kx = np.gradient(values, grid.hx, axis=0, edge_order=1)
    ky = np.gradient(values, grid.hy, axis=1, edge_order=1)

    sx = coeffs.jump_dx / grid.hx
    sy = coeffs.jump_dy / grid.hy
    px = int(np.ceil(np.abs(sx).max(initial=0.0))) + 1
    py = int(np.ceil(np.abs(sy).max(initial=0.0))) + 1
    padded = _pad_extrapolate(values, px, py)

    nx, ny = values.shape
    out = np.zeros_like(values)
    mass = float(coeffs.jump_w.sum())
    for q in range(coeffs.jump_w.size):
        ix0 = int(np.floor(sx[q]))
        iy0 = int(np.floor(sy[q]))
        wx = sx[q] - ix0
        wy = sy[q] - iy0
        base_x = px + ix0
        base_y = py + iy0
        blk = ((1 - wx) * (1 - wy) * padded[base_x:base_x + nx, base_y:base_y + ny]
               + wx * (1 - wy) * padded[base_x + 1:base_x + 1 + nx, base_y:base_y + ny]
               + (1 - wx) * wy * padded[base_x:base_x + nx, base_y + 1:base_y + 1 + ny]
               + wx * wy * padded[base_x + 1:base_x + 1 + nx, base_y + 1:base_y + 1 + ny])
        out += coeffs.jump_w[q] * (blk - coeffs.jump_dx[q] * kx - coeffs.jump_dy[q] * ky)
    out -= mass * values
    return out

# ---------------------------------------------------------------------------
# 2-D march
# ---------------------------------------------------------------------------

class _SplitOperator:
    """The ADI splitting F = F0 + F1 + F2 on the 2-D grid, from the
    coefficient table: F1 = Ax and F2 = Ay are stepped implicitly, F0
    (mixed term + jump integral, `apply_jump_operator`) is explicit.  Every
    level's axis operators, and the banded I - w A of each (axis, level, w)
    the march solves with, are built before the first step."""

    def __init__(self, grid: StateGrid, table: OperatorCoefficients,
                 solves: set[tuple[int, float]]):
        self.grid = grid
        self.coeffs = [table.level(i) for i in range(len(table.t))]
        self.ops = [axis_operators(grid, c) for c in self.coeffs]
        self.systems = {}
        for lvl, w in solves:
            for axis, a in enumerate((self.ops[lvl].ax, self.ops[lvl].ay)):
                ab = -w * a
                ab[1] += 1.0
                self.systems[axis, lvl, w] = ab

    def f0(self, lvl: int, v: np.ndarray) -> np.ndarray:
        coeffs, ops = self.coeffs[lvl], self.ops[lvl]
        out = apply_jump_operator(v, self.grid, coeffs)
        if coeffs.a12:
            out += coeffs.a12 * _band_apply(ops.dx, _band_apply(ops.dy, v.T).T)
        return out

    def f1(self, lvl: int, v: np.ndarray) -> np.ndarray:
        return _band_apply(self.ops[lvl].ax, v)

    def f2(self, lvl: int, v: np.ndarray) -> np.ndarray:
        return _band_apply(self.ops[lvl].ay, v.T).T

    def solve(self, axis: int, lvl: int, w: float, rhs: np.ndarray) -> np.ndarray:
        """(I - w A_axis)^{-1} applied along `axis`: one tridiagonal solve
        with a right-hand side per grid line."""
        from scipy.linalg import solve_banded
        ab = self.systems[axis, lvl, w]
        if axis == 0:
            return solve_banded((1, 1), ab, rhs, check_finite=False)
        return solve_banded((1, 1), ab, rhs.T, check_finite=False).T

    def sup(self, v: np.ndarray) -> float:
        return float(np.abs(v).max())


def solve_cauchy(terminal, provider: Callable[[float], OperatorCoefficients],
                 grid: StateGrid, t_start: float, T: float, n_steps: int,
                 theta_scheme: float = HV_THETA, rannacher: int = 2,
                 time_dependent: bool | None = None) -> GridFunction:
    """March the 2-D kernel backward from K(T, . ) = terminal (`_hv_march`).

    Each implicit stage is a tridiagonal solve along one axis; nothing is
    factorised in two dimensions.
    """
    xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
    values = np.asarray(terminal(xx, yy) if callable(terminal) else terminal, dtype=float)
    values = np.broadcast_to(values, (grid.nx, grid.ny)).copy()
    values = _hv_march(values, _SplitOperator, provider, grid,
                       t_start, T, n_steps, theta_scheme, rannacher, time_dependent)
    return GridFunction(values, grid, t_start)


def solve_cauchy_picard(terminal, provider, grid: StateGrid, t_start: float, T: float,
                        n_steps: int, max_iter: int = 20,
                        tol: float = 1e-10) -> tuple[GridFunction, int]:
    """Fixed-point alternative: local solves with the jump term frozen from
    the previous iterate, repeated until the sup-norm update stalls.

    A test-only oracle of the ADI stepping, mirroring the contraction
    construction behind the existence proof.  Each step is implicit Euler
    in the local operator; it keeps one SuperLU factor per time level, or
    one in all when the provider's `time_dependent` flag is False (default
    True), so its memory grows with n_steps on the 2-D grid.
    """
    import scipy.sparse as sp
    xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
    term_vals = np.asarray(terminal(xx, yy) if callable(terminal) else terminal, dtype=float)
    term_vals = np.broadcast_to(term_vals, (grid.nx, grid.ny)).copy()

    dt = (T - t_start) / n_steps
    times = t_start + dt * np.arange(n_steps + 1)
    coeffs_by_step = [provider(float(t)) for t in times]
    history = [term_vals.copy() for _ in range(n_steps + 1)]
    n = grid.nx * grid.ny
    eye = sp.identity(n, format="csc")
    time_dependent = getattr(provider, "time_dependent", True)
    lus = {}

    def lu_at(idx: int):
        if not time_dependent:
            idx = 0
        if idx not in lus:
            lmat = build_local_operator(grid, coeffs_by_step[idx])
            lus[idx] = splu((eye - dt * lmat).tocsc(), permc_spec="MMD_AT_PLUS_A")
        return lus[idx]

    prev = None
    for it in range(1, max_iter + 1):
        values = term_vals.copy()
        new_hist = [None] * (n_steps + 1)
        new_hist[n_steps] = values.copy()
        for k in range(n_steps - 1, -1, -1):
            jump_src = apply_jump_operator(history[k + 1], grid, coeffs_by_step[k + 1])
            lu = lu_at(k)
            rhs = values.reshape(-1) + dt * jump_src.reshape(-1)
            values = lu.solve(rhs).reshape(grid.nx, grid.ny)
            new_hist[k] = values.copy()
        change = float(np.abs(new_hist[0] - history[0]).max()) if prev is not None else np.inf
        history = new_hist
        if prev is not None and change < tol:
            return GridFunction(history[0], grid, t_start), it
        prev = history[0]
    return GridFunction(history[0], grid, t_start), max_iter


def default_grid_for(rate_spec: VasicekSpec, lam0: float, T: float,
                     sigma_slope: float, theta: float,
                     measure: LevyMeasure, nx: int = 128, ny: int = 128) -> StateGrid:
    """Domain covering initial points, 6 diffusion SDs and the jump reach."""
    sd_r = abs(rate_spec.rho0) * np.sqrt(T) + 1e-4
    sd_y = abs(sigma_slope) * theta * np.sqrt(T) + 1e-4
    if measure.total_mass > 0:
        nodes, _ = measure.quadrature()
        reach_x = abs(rate_spec.phi0) * float(nodes.max())
        reach_y = theta * float(nodes.max())
    else:
        reach_x = reach_y = 0.0
    x_lo = min(rate_spec.r0, rate_spec.delta) - 6 * sd_r - reach_x
    x_hi = max(rate_spec.r0, rate_spec.delta) + 6 * sd_r + reach_x
    y_lo = max(0.0, lam0 - 6 * sd_y) - 0.0
    y_hi = lam0 + 6 * sd_y + reach_y
    return StateGrid(x_lo, x_hi, nx, min(y_lo, lam0 * 0.2), y_hi, ny)


# ---------------------------------------------------------------------------
# Monte Carlo oracle under the survival-reweighted measure
# ---------------------------------------------------------------------------

# Paths per Philox stream of `simulate_kernel_expectation`.  Each block of
# paths draws from the stream keyed (seed, index of its first path), so the
# estimate is a function of (seed, n_paths) only, and changing this value
# changes the estimate's bits.
KERNEL_MC_CHUNK = 50_000


def simulate_kernel_expectation(model_spec: CoefficientSpec, rate_spec: VasicekSpec,
                                kernel: DiracKernel, measure: LevyMeasure,
                                theta: float, t: float, T: float,
                                r0: float, lam0: float,
                                n_paths: int, seed: int,
                                n_steps: int = 200) -> tuple[float, float]:
    """Monte Carlo estimate of E[lambda_T(theta) e^{-int_t^T r}] under the
    survival-reweighted dynamics; returns (mean, se).

    Under the reweighted measure the intensity slice is a martingale and
    jumps survive thinning with probability e^{-I_gamma(t, theta, xi)};
    the rate mean-reverts to delta_hat_t(theta) and shares both the
    Brownian shock and the thinned jumps with the intensity.
    """
    if not model_spec.separable:
        raise ValueError("oracle implemented for separable coefficients")
    dt = (T - t) / n_steps
    c0s = np.sqrt(kernel.c0)
    kappa = rate_spec.kappa
    a_load, b_load = ou_gaussian_loading(kappa, dt)
    e = np.exp(-kappa * dt)
    has_jumps = measure.total_mass > 0

    t_nodes = t + dt * np.arange(n_steps)
    theta_t = np.maximum(theta - t_nodes, 0.0)
    sig_vec = c0s * model_spec.sigma_slope * theta_t
    gam_slope = model_spec.jump_slope * theta_t
    big_g = model_spec.jump_slope * theta_t ** 2 / 2.0
    if has_jumps:
        xe = np.asarray(measure.xi_exp(big_g), dtype=float)   # int xi e^{-xi G} nu
        lam_comp = gam_slope * xe
    # reversion level evaluated at step midpoints (second-order in the drift)
    delta_hats = compute_coefficients(model_spec, rate_spec, kernel, measure,
                                      t_nodes + dt / 2.0, theta).delta_hat

    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_paths:
        p = min(KERNEL_MC_CHUNK, n_paths - done)
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, done], dtype=np.uint64)))
        r = np.full(p, float(r0))
        lam = np.full(p, float(lam0))
        integral = np.zeros(p)
        for k in range(n_steps):
            dW = np.sqrt(dt) * rng.standard_normal(p)
            r_prev = r
            r = r * e + delta_hats[k] * (1.0 - e) \
                + rate_spec.rho0 * c0s * (a_load * dW + b_load * rng.standard_normal(p))
            lam = lam + sig_vec[k] * dW
            if has_jumps:
                counts = rng.poisson(measure.total_mass * dt, size=p)
                tot = int(counts.sum())
                if tot:
                    marks = measure.sample_marks(tot, rng)
                    keep = rng.random(tot) < np.exp(-marks * big_g[k])
                    sums = np.bincount(np.repeat(np.arange(p), counts),
                                       weights=marks * keep, minlength=p)
                    lam = lam + gam_slope[k] * sums
                    r = r + rate_spec.phi0 * sums * np.exp(-kappa * dt / 2.0)
                lam = lam - dt * lam_comp[k]
                r = r - rate_spec.phi0 * xe[k] * (1.0 - e) / kappa
            integral += 0.5 * dt * (r_prev + r)
        vals = lam * np.exp(-integral)
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
        done += p
    mean = total / n_paths
    var = max(total_sq / n_paths - mean ** 2, 0.0) * n_paths / (n_paths - 1)
    return mean, float(np.sqrt(var / n_paths))
