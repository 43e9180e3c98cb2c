"""Forward default intensity and conditional default density dynamics.

The forward intensity lambda_t(theta) follows an additive HJM-type model
driven by a Gaussian random field plus a compensated Poisson measure:

    dlambda_t(theta) = mu_t(theta) dt + int sigma_t(theta, xi) Y^G(dt, dxi)
                       + int gamma_t-(theta, xi) Y^P(dt, dxi).

The no-arbitrage analogue is the martingale condition: every conditional
survival probability S_t(theta) = exp(-int_0^theta lambda_t(v) dv) must be
a martingale in t, which pins the drift to

    mu_t(theta) = int int sigma_t(theta, xi1) I_sigma(t, theta, xi2)
                          c(xi1 - xi2) dxi1 dxi2
                  + int gamma_t(theta, xi) (1 - e^{-I_gamma(t, theta, xi)})
                        nu(dxi),

with I_sigma, I_gamma the running theta-integrals of the coefficients.
Every engine here drives the Gaussian part with the d = 0 Dirac field
(`kernels.DiracKernel`), a scalar Brownian motion of variance c0, so the
double integral reduces to c0 sigma_t(theta) I_sigma(t, theta).
The conditional density alpha_t(theta) = S_t(theta) lambda_t(theta) can
also be evolved directly through the pair of martingales

    dm_t(theta) = -sigma_t(theta) dW_t  -/+  compensated jump part,
    M_t(theta)  = int_0^theta m_t(u) du,
    dalpha_t(theta) = alpha_t-(theta) dM_t(theta) - S_t-(theta) dm_t(theta),
    dS_t(theta)     = S_t-(theta) dM_t(theta).

The sign of the jump part of m is configurable: the two printed
conventions disagree, and both are martingales.  `section7` (jumps push
survival up, density down near the short end) is the default used by the
numerical experiments; `section3` is the convention consistent with an
upward intensity jump depressing survival.

Separable coefficients sigma_t(theta) = sigma (theta - t)^+ and
gamma_t(theta, xi) = b (theta - t)^+ xi get closed-form integrals; the
many-path engines below require them.  Generic coefficients get the
integrals and the drift by quadrature only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .kernels import DiracKernel
from .measures import LevyMeasure
from .rng import (BLOCK_PATHS, CHANNEL_GAUSSIAN, CHANNEL_POISSON_COUNT,
                  CHANNEL_POISSON_MARKS, rekey, stream)

JUMP_SIGN = {"section7": +1.0, "section3": -1.0}


# ---------------------------------------------------------------------------
# coefficient specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSpec:
    """Volatility field sigma, jump field gamma and initial curve lambda_0.

    sigma_fn(t, theta, xi), gamma_fn(t, theta, xi) and lambda0_fn(theta)
    must broadcast over numpy arrays.  When sigma_slope and jump_slope are
    set, the separable forms sigma (theta-t)^+ and b (theta-t)^+ xi are
    assumed and closed-form integrals replace quadrature.
    """

    sigma_fn: Callable
    gamma_fn: Callable
    lambda0_fn: Callable
    sigma_slope: float | None = None
    jump_slope: float | None = None

    def __post_init__(self):
        th = np.array([0.0, 0.7, 2.3])
        xs = np.array([0.0, 0.5, 2.0])
        for t in (0.0, 0.3, 1.1):
            g = np.asarray(self.gamma_fn(t, th[:, None], xs[None, :]), dtype=float)
            if np.any(g < 0):
                raise ValueError("gamma must be nonnegative everywhere")

    @property
    def separable(self) -> bool:
        return self.sigma_slope is not None and self.jump_slope is not None

    @staticmethod
    def section7(sigma: float, b: float, lambda_bar: float) -> "CoefficientSpec":
        """The separable coefficient block of the numerical experiments."""
        if b < 0:
            raise ValueError("jump slope b must be nonnegative")
        if lambda_bar < 0:
            raise ValueError("lambda_bar must be nonnegative")
        return CoefficientSpec(
            sigma_fn=lambda t, theta, xi: sigma * np.maximum(
                np.asarray(theta, dtype=float) - t, 0.0) * np.ones_like(
                np.asarray(xi, dtype=float)),
            gamma_fn=lambda t, theta, xi: b * np.maximum(
                np.asarray(theta, dtype=float) - t, 0.0) * np.asarray(xi, dtype=float),
            lambda0_fn=lambda theta: lambda_bar * np.ones_like(np.asarray(theta, dtype=float)),
            sigma_slope=sigma,
            jump_slope=b,
        )


# Most elements per array of the quadrature route of `cumulative_integrals`
# (32 MB of floats): a column of times against a theta row and the marks
# would otherwise build arrays of hundreds of MB.
QUADRATURE_CAP = 2 ** 22


def cumulative_integrals(spec: CoefficientSpec, t, theta, xi,
                         n_quad: int = 257) -> tuple[np.ndarray, np.ndarray]:
    """(I_sigma, I_gamma): integrals of the coefficients over v in [0, theta].

    t, theta and xi broadcast together, so a column of times tabulates
    them.  Closed form for separable coefficients (slope * ((theta-t)^+)^2 / 2,
    gamma additionally scaled by xi), composite trapezoid otherwise, which
    raises ValueError before allocating more than QUADRATURE_CAP elements.
    """
    t_b, theta_b, xi_b = np.broadcast_arrays(np.asarray(t, dtype=float),
                                             np.asarray(theta, dtype=float),
                                             np.asarray(xi, dtype=float))
    if not spec.separable and theta_b.size * n_quad > QUADRATURE_CAP:
        raise ValueError(f"the quadrature of {theta_b.shape} coefficient integrals at "
                         f"{n_quad} points would hold {theta_b.size * n_quad:,} elements "
                         f"per array, above the cap of {QUADRATURE_CAP:,}")
    if np.any(theta_b < 0):
        raise ValueError("theta must be nonnegative")
    if spec.separable:
        lag = np.maximum(theta_b - t_b, 0.0)
        # a scalar (theta, xi) squares with C pow, as numpy scalars do, and
        # np.float_power keeps those bits over a column of times; arrays of
        # theta or xi square as lag * lag
        scalar = np.ndim(theta) == 0 and np.ndim(xi) == 0
        half_sq = (np.float_power(lag, 2) if scalar else lag ** 2) / 2.0
        i_sigma = spec.sigma_slope * half_sq
        i_gamma = spec.jump_slope * half_sq * xi_b
    else:
        v = np.linspace(0.0, 1.0, n_quad)
        pts = theta_b[..., None] * v                       # (..., n_quad)
        sig = np.asarray(spec.sigma_fn(t_b[..., None], pts, xi_b[..., None]), dtype=float)
        gam = np.asarray(spec.gamma_fn(t_b[..., None], pts, xi_b[..., None]), dtype=float)
        i_sigma = np.trapezoid(np.broadcast_to(sig, pts.shape), pts, axis=-1)
        i_gamma = np.trapezoid(np.broadcast_to(gam, pts.shape), pts, axis=-1)
    if np.ndim(t) == 0 and np.ndim(theta) == 0 and np.ndim(xi) == 0:
        return float(i_sigma), float(i_gamma)
    return i_sigma, i_gamma


# ---------------------------------------------------------------------------
# martingale-condition drift
# ---------------------------------------------------------------------------

def mc_drift(spec: CoefficientSpec, kernel: DiracKernel, measure: LevyMeasure,
             t, theta):
    """Drift mu_t(theta) enforced by the martingale condition.

    Gaussian part: c0 sigma_t(theta) I_sigma(t, theta), the Dirac field's
    collapse of the kernel-weighted double integral.  Jump part: integral
    of gamma (1 - e^{-I_gamma}) against nu, closed form for separable gamma.
    t and theta broadcast together; both scalar give a float.
    """
    t_arr, theta_arr = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                                           np.atleast_1d(np.asarray(theta, dtype=float)))

    sig = np.asarray(spec.sigma_fn(t_arr, theta_arr, 0.0), dtype=float)
    i_sig, _ = cumulative_integrals(spec, t_arr, theta_arr, 0.0)
    gauss = kernel.c0 * sig * np.asarray(i_sig, dtype=float)

    if measure.total_mass == 0:
        jump = np.zeros_like(theta_arr)
    elif spec.separable:
        slope = spec.jump_slope * np.maximum(theta_arr - t_arr, 0.0)
        g_half = spec.jump_slope * np.maximum(theta_arr - t_arr, 0.0) ** 2 / 2.0
        jump = slope * (measure.mark_moment(1) - np.asarray(measure.xi_exp(g_half), dtype=float))
    else:
        q_nodes, q_wts = measure.quadrature()
        gam = np.asarray(spec.gamma_fn(t_arr[..., None], theta_arr[..., None], q_nodes),
                         dtype=float)
        _, i_gam = cumulative_integrals(spec, t_arr[..., None], theta_arr[..., None], q_nodes)
        jump = np.sum(q_wts * gam * (1.0 - np.exp(-np.asarray(i_gam, dtype=float))), axis=-1)

    out = gauss + jump
    return out if np.ndim(t) or np.ndim(theta) else float(out[0])


def drift_table(spec: CoefficientSpec, kernel: DiracKernel, measure: LevyMeasure,
                t_grid: np.ndarray, theta_grid: np.ndarray) -> np.ndarray:
    """mu on a (t, theta) product grid, computed once and shared by all paths."""
    t_col = np.asarray(t_grid, dtype=float)[:, None]
    return mc_drift(spec, kernel, measure, t_col, np.atleast_1d(theta_grid))


# ---------------------------------------------------------------------------
# curve states
# ---------------------------------------------------------------------------

@dataclass
class ForwardCurveState:
    """One path's forward intensity curve lambda_t(.) on the theta grid."""

    t: float
    theta_grid: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.theta_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("theta grid must be a 1-d vector with >= 2 nodes")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("theta grid must be strictly increasing")
        if not np.all(np.isfinite(np.asarray(self.lam, dtype=float))):
            raise ValueError("lambda curve must be finite")


@dataclass
class DensityCurveState:
    """One path's (alpha, S) pair on the theta grid."""

    t: float
    theta_grid: np.ndarray
    alpha: np.ndarray
    survival: np.ndarray


def theta_max_default(lambda_bar: float) -> float:
    """Truncation rule: the grid extends to 10 / lambda_bar."""
    if lambda_bar <= 0:
        raise ValueError("lambda_bar must be positive for the truncation rule")
    return 10.0 / lambda_bar


def initial_forward_state(spec: CoefficientSpec, theta_grid: np.ndarray) -> ForwardCurveState:
    grid = np.asarray(theta_grid, dtype=float)
    return ForwardCurveState(0.0, grid, np.asarray(spec.lambda0_fn(grid), dtype=float))


def initial_density_state(spec: CoefficientSpec, theta_grid: np.ndarray) -> DensityCurveState:
    fwd = initial_forward_state(spec, theta_grid)
    surv = csp(fwd)
    return DensityCurveState(0.0, fwd.theta_grid, surv * fwd.lam, surv)


# ---------------------------------------------------------------------------
# survival / density from an intensity curve
# ---------------------------------------------------------------------------

def _cumtrapz(y: np.ndarray, x: np.ndarray, axis: int = -1) -> np.ndarray:
    dx = np.diff(x)
    n = y.shape[axis]
    avg = 0.5 * (np.take(y, range(1, n), axis=axis) + np.take(y, range(0, n - 1), axis=axis))
    shape = list(avg.shape)
    shape[axis] = 1
    return np.concatenate([np.zeros(shape), np.cumsum(avg * dx, axis=axis)], axis=axis)


def csp(state: ForwardCurveState) -> np.ndarray:
    """Conditional survival probability S_t(theta) = exp(-int_0^theta lambda).

    Trapezoid cumulative of the intensity curve; S_t(0) = 1 exactly.
    """
    lam = np.asarray(state.lam, dtype=float)
    integral = _cumtrapz(lam, np.asarray(state.theta_grid, dtype=float))
    if np.any(integral < -700.0):
        raise OverflowError("runaway negative intensity: int lambda < -700")
    return np.exp(-integral)


def density(state: ForwardCurveState, survival: np.ndarray | None = None) -> np.ndarray:
    """alpha_t(theta) = S_t(theta) lambda_t(theta), pointwise."""
    surv = csp(state) if survival is None else survival
    return surv * np.asarray(state.lam, dtype=float)


# ---------------------------------------------------------------------------
# vectorized many-path engines (separable coefficients, d = 0 Gaussian part)
# ---------------------------------------------------------------------------

PATH_CHUNK = 256         # paths per chunk of the two density-route engines
INTENSITY_CHUNK = 512    # paths per chunk of the two intensity-route engines


def _path_noise(measure: LevyMeasure, seed: int, paths: range, n_steps: int,
                dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-draw the noise of a range of paths: (rows, n_steps) normals and
    per-step jump counts, and the marks in (row, step, draw) order.

    Path p = BLOCK_PATHS b + r is row r of block b's streams
    `rng.stream(seed, b, channel)` on the Gaussian, Poisson-count and mark
    channels.  Per block touched, each channel is one numpy call over the
    block's rows up to the last one kept; a range that starts mid-block
    draws the leading rows and drops them.  Draws are sequential in C
    order, so a row's bits do not depend on how many rows are drawn or
    kept.  One Philox generator serves the whole call: `rng.rekey` points it
    at each (block, channel) stream in turn.
    """
    normals = np.empty((len(paths), n_steps))
    counts = np.zeros((len(paths), n_steps), dtype=np.int64)
    marks = []
    mass = measure.total_mass
    gen = stream(seed, 0, CHANNEL_GAUSSIAN)
    for block in range(paths.start // BLOCK_PATHS, (paths.stop - 1) // BLOCK_PATHS + 1):
        first = block * BLOCK_PATHS
        lead = max(paths.start - first, 0)                   # rows drawn, then dropped
        drawn = min(paths.stop - first, BLOCK_PATHS)
        out = slice(first + lead - paths.start, first + drawn - paths.start)
        normals[out] = rekey(gen, seed, block, CHANNEL_GAUSSIAN).standard_normal(
            (drawn, n_steps))[lead:]
        if mass <= 0:
            continue
        block_counts = rekey(gen, seed, block, CHANNEL_POISSON_COUNT).poisson(
            mass * dt, size=(drawn, n_steps))
        counts[out] = block_counts[lead:]
        block_marks = measure.sample_marks(int(block_counts.sum()),
                                           rekey(gen, seed, block, CHANNEL_POISSON_MARKS))
        marks.append(block_marks[int(block_counts[:lead].sum()):])
    return normals, counts, np.concatenate(marks) if marks else np.zeros(0)


class _Jumps(NamedTuple):
    """A chunk's realised jumps as flat event arrays, sorted stably by step.

    Step k's events are [bounds[k], bounds[k + 1]); within a step they
    follow row (path) order and, within a row, draw order.  So the events
    of one (step, row) cell are contiguous and in draw order, and so are
    one row's events across the steps of any step range.
    """

    step: np.ndarray         # event -> step
    row: np.ndarray          # event -> chunk row
    mark: np.ndarray         # event -> mark
    bounds: np.ndarray       # (n_steps + 1,) event offsets per step


def _chunk_jumps(counts: np.ndarray, marks: np.ndarray) -> _Jumps:
    """The jumps of (rows, steps) counts and their marks in (row, step, draw) order.

    Each event keeps only its step, row and mark, sorted stably by step,
    so any range of steps (one step of a curve engine, a step block of
    `simulate_survival_values`) is one slice of events.  Adding a slice's
    terms in event order at their (step, row) cells adds each cell's
    terms in draw order, the order of a per-path loop, which keeps its
    bits.  The engines that sum events per cell derive those groups where
    they need them (`_sum_by_row`, `_mark_sums`).
    """
    n_steps = counts.shape[1]
    row, step = np.divmod(np.repeat(np.arange(counts.size), counts.ravel()), n_steps)
    # stable, so draw order holds within a step; radix sort when steps fit 16 bits
    order = np.argsort(step.astype(np.min_scalar_type(n_steps)), kind="stable")
    step = step[order]
    return _Jumps(step=step, row=row[order], mark=marks[order],
                  bounds=np.searchsorted(step, np.arange(n_steps + 1)))


def _step_count(spec: CoefficientSpec, t_end: float, dt: float) -> int:
    """The many-path engines' number of steps: they need separable
    coefficients and a whole number of dt steps to t_end."""
    if not spec.separable:
        raise ValueError("vectorized engine requires separable coefficients")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9:
        raise ValueError("t_end must be an integer number of dt steps")
    return n_steps


def _noise_chunks(measure: LevyMeasure, seed: int, n_paths: int, n_steps: int, dt: float,
                  chunk: int, path_offset: int = 0
                  ) -> Iterator[tuple[int, int, np.ndarray, _Jumps]]:
    """(start, stop, dW, jumps) for each chunk of at most `chunk` output rows:
    rows [start, stop) are paths path_offset + start, ..., their (rows, n_steps)
    Brownian increments dW and their jumps (`_path_noise`, `_chunk_jumps`)."""
    sqrt_dt = np.sqrt(dt)
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        normals, counts, marks = _path_noise(measure, seed,
                                             range(path_offset + start, path_offset + stop),
                                             n_steps, dt)
        yield start, stop, sqrt_dt * normals, _chunk_jumps(counts, marks)


def _sum_by_row(jumps: _Jumps, lo: int, hi: int,
                terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, sums): the step's event terms [lo, hi) summed per row.

    A step's events come in row order, so each jumping row's events are
    one run.  np.add.at adds the terms one by one into zeros, which is the
    sequential order of `terms_of_one_row.sum(axis=0)`, so each sum keeps
    its bits.
    """
    rows = jumps.row[lo:hi]
    first = np.diff(rows, prepend=-1) != 0              # each row's first event
    group = np.cumsum(first) - 1
    sums = np.zeros((group[-1] + 1,) + terms.shape[1:])
    np.add.at(sums, group, terms)
    return rows[first], sums


def _mark_sums(jumps: _Jumps, n_steps: int, n_rows: int) -> np.ndarray:
    """(n_steps, n_rows) sum of each path-step's marks, zero where none.

    Each sum must have the bits of `ndarray.sum` over that path-step's
    marks in draw order.  Below 8 values numpy adds them one by one into
    zero, as np.bincount does; it sums 8 or more pairwise, so those cells
    are summed again as rows of an (cells, size) block of one size.
    """
    cell = jumps.step * n_rows + jumps.row              # nondecreasing
    out = np.bincount(cell, weights=jumps.mark, minlength=n_steps * n_rows)
    first = np.flatnonzero(np.diff(cell, prepend=-1))   # each cell's first event
    size = np.diff(first, append=cell.size)
    for n in np.flatnonzero(np.bincount(size[size >= 8])):     # np.unique loads numpy.ma
        at = first[size == n]
        out[cell[at]] = jumps.mark[at[:, None] + np.arange(n)].sum(axis=1)
    return out.reshape(n_steps, n_rows)


def simulate_density_paths(spec: CoefficientSpec, measure: LevyMeasure,
                           theta_grid: np.ndarray, t_end: float, dt: float,
                           n_paths: int, seed: int,
                           jump_sign_convention: str = "section7",
                           path_offset: int = 0) -> dict:
    """Evolve (alpha, S) curves for many paths; returns the final curves.

    Chunked over paths (`PATH_CHUNK`): per step the Gaussian and
    compensator parts are shared theta-vectors, and the step's realised
    jumps are one array op over all of the chunk's events (`_chunk_jumps`),
    summed per path in draw order and integrated over theta once for all
    jumping rows.  Every path's arithmetic is that of one path stepped alone
    (the per-step reference of tests/test_term_structure.py), and rows are
    ordered by path index, so output is independent of chunking.
    """
    n_steps = _step_count(spec, t_end, dt)
    sign = JUMP_SIGN[jump_sign_convention]
    grid = np.asarray(theta_grid, dtype=float)

    lam0 = np.asarray(spec.lambda0_fn(grid), dtype=float)
    surv0 = np.exp(-_cumtrapz(lam0, grid))
    alpha0 = surv0 * lam0

    t_nodes = np.arange(n_steps) * dt
    theta_t = np.maximum(grid[None, :] - t_nodes[:, None], 0.0)
    sig_rows = spec.sigma_slope * theta_t
    gam_rows = spec.jump_slope * theta_t
    big_g_rows = spec.jump_slope * theta_t ** 2 / 2.0
    if measure.total_mass == 0:
        comp_rows = np.zeros_like(sig_rows)
    else:
        comp_rows = gam_rows * np.asarray(measure.xi_exp(big_g_rows), dtype=float)
    sig_cum = _cumtrapz(sig_rows, grid, axis=1)
    comp_cum = _cumtrapz(comp_rows, grid, axis=1)

    alpha_out = np.empty((n_paths, grid.size))
    surv_out = np.empty((n_paths, grid.size))
    neg_counts = np.zeros(n_paths, dtype=np.int64)

    for start, stop, dW, jumps in _noise_chunks(measure, seed, n_paths, n_steps, dt,
                                                PATH_CHUNK, path_offset):
        p = stop - start
        alpha = np.tile(alpha0, (p, 1))
        surv = np.tile(surv0, (p, 1))
        neg = np.zeros(p, dtype=np.int64)
        for k in range(n_steps):
            dm = np.multiply.outer(dW[:, k], -sig_rows[k]) + (-sign * dt) * comp_rows[k]
            dM = np.multiply.outer(dW[:, k], -sig_cum[k]) + (-sign * dt) * comp_cum[k]
            lo, hi = jumps.bounds[k], jumps.bounds[k + 1]
            if hi > lo:
                xs = jumps.mark[lo:hi]
                expo = np.exp(-np.multiply.outer(xs, big_g_rows[k]))
                jumped, sums = _sum_by_row(jumps, lo, hi, xs[:, None] * expo)
                jump_m = sign * gam_rows[k] * sums
                dm[jumped] += jump_m
                dM[jumped] += _cumtrapz(jump_m, grid, axis=1)
            alpha = alpha + alpha * dM - surv * dm
            surv = surv + surv * dM
            neg += np.count_nonzero(alpha < 0, axis=1)
        alpha_out[start:stop] = alpha
        surv_out[start:stop] = surv
        neg_counts[start:stop] = neg

    return {"theta_grid": grid, "t": t_end, "alpha": alpha_out, "survival": surv_out,
            "negative_alpha_counts": neg_counts}


# Most elements of one step block of `simulate_survival_values`, unless one
# step holds more: each of its two work arrays holds (steps x maturities x
# rows) floats, at most 64 KB.  A 256-path chunk priced at a window's two
# ends runs 16 steps per block, and lab verify's 3 maturities 10; a chunk
# that must evolve a whole pricing window (51 maturities) or lab price's 82
# quadrature nodes is past the bound, so it keeps one step per block, the
# working set of a per-step loop.  On 2 vCPUs, 2^12 to 2^15 priced the
# window's two ends in the same time within noise, as 2^14 and 2^16 ran lab
# verify.  The bound sets memory only: any value gives the same bits.
VALUES_BLOCK_ELEMENTS = 2 ** 13

# Relative margin by which a chunk's noise bound must keep the density off
# zero before `simulate_survival_values` skips evolving a sign window: far
# above the rounding of the computed alpha (~n_steps eps).
SIGN_MARGIN = 1e-6


class _ValueTables(NamedTuple):
    """(steps, maturities) step tables of `simulate_survival_values` and the
    maturities' lambda_0 and S_0: dM_k = dW_k neg_sig_cum_k + drift_cum_k
    + sign sum_j (1 - e^{-xi_j G_k}) and its theta-derivative dm_k."""

    lam0: np.ndarray
    surv0: np.ndarray
    big_g: np.ndarray
    neg_sig_cum: np.ndarray
    drift_cum: np.ndarray
    neg_sig_rows: np.ndarray
    drift_rows: np.ndarray
    sign_gam: np.ndarray     # sign d/dtheta of big_g

    def take(self, cols) -> "_ValueTables":
        return _ValueTables(*(a[..., cols] for a in self))


def _value_tables(spec: CoefficientSpec, measure: LevyMeasure, thetas: np.ndarray,
                  n_steps: int, dt: float, sign: float) -> _ValueTables:
    lam0 = np.asarray(spec.lambda0_fn(thetas), dtype=float)
    pts = thetas[:, None] * np.linspace(0.0, 1.0, 257)      # S_0 = exp(-int_0^theta lambda_0)
    surv0 = np.exp(-np.trapezoid(np.asarray(spec.lambda0_fn(pts), dtype=float), pts, axis=1))
    t_nodes = np.arange(n_steps) * dt
    theta_t = np.maximum(thetas[None, :] - t_nodes[:, None], 0.0)
    half_sq = theta_t ** 2 / 2.0
    big_g = spec.jump_slope * half_sq
    return _ValueTables(
        lam0=lam0, surv0=surv0, big_g=big_g,
        neg_sig_cum=-(spec.sigma_slope * half_sq),
        drift_cum=(-sign * dt) * np.asarray(measure.one_minus_exp(big_g), dtype=float),
        neg_sig_rows=-(spec.sigma_slope * theta_t),
        drift_rows=(-sign * dt) * ((spec.jump_slope * theta_t)
                                   * np.asarray(measure.xi_exp(big_g), dtype=float)),
        sign_gam=sign * (spec.jump_slope * theta_t))


def _evolve_values(tab: _ValueTables, dW: np.ndarray, jumps: _Jumps,
                   sign: float) -> tuple[np.ndarray, np.ndarray]:
    """(S, alpha) at the tables' maturities, as (maturities, rows) arrays,
    for one chunk's noise; see `simulate_survival_values`."""
    p, n_steps = dW.shape
    n_mat = tab.lam0.size
    block = max(1, min(n_steps, VALUES_BLOCK_ELEMENTS // (p * n_mat)))
    # (steps, maturities, rows) blocks: rows, the longest axis, run innermost
    big_m_buf, m_buf = np.empty((block, n_mat, p)), np.empty((block, n_mat, p))
    surv = np.tile(tab.surv0[:, None], (1, p))
    dlog_sum = np.zeros((n_mat, p))              # d/dtheta log prod (1 + dM_k)
    for k0 in range(0, n_steps, block):
        k1 = min(k0 + block, n_steps)
        dM, dm = big_m_buf[:k1 - k0], m_buf[:k1 - k0]
        w = dW[:, k0:k1].T[:, None, :]
        np.multiply(w, tab.neg_sig_cum[k0:k1, :, None], out=dM)
        dM += tab.drift_cum[k0:k1, :, None]
        np.multiply(w, tab.neg_sig_rows[k0:k1, :, None], out=dm)
        dm += tab.drift_rows[k0:k1, :, None]
        lo, hi = jumps.bounds[k0], jumps.bounds[k1]
        if hi > lo:
            step, xs = jumps.step[lo:hi], jumps.mark[lo:hi]
            expo = np.exp(-(xs[:, None] * tab.big_g[step]))
            # flat (step, maturity, row) element of each (event, maturity)
            at = (((step - k0) * n_mat)[:, None] + np.arange(n_mat)) * p \
                + jumps.row[lo:hi, None]
            np.add.at(dM.reshape(-1), at.ravel(), (sign * (1.0 - expo)).ravel())
            np.add.at(dm.reshape(-1), at.ravel(),
                      (tab.sign_gam[step] * (xs[:, None] * expo)).ravel())
        dM += 1.0                                # growth 1 + dM_k
        dm /= dM
        for growth, ratio in zip(dM, dm):        # in step order
            surv *= growth
            dlog_sum += ratio
    return surv, surv * (tab.lam0[:, None] - dlog_sum)


class _SignBound(NamedTuple):
    """Per step, as (steps, 1) columns, the largest moduli over a sign
    window's maturities of the tables that bound |dM_k| and |dm_k|, and
    the window's least lambda_0 (-inf where some G_k < 0)."""

    sig_cum: np.ndarray
    drift_cum: np.ndarray
    big_g: np.ndarray
    sig_rows: np.ndarray
    drift_rows: np.ndarray
    gam: np.ndarray
    lam0_min: float


def _sign_bound(win: _ValueTables) -> _SignBound:
    def top(table):
        return np.abs(table).max(axis=1, initial=0.0)[:, None]

    return _SignBound(top(win.neg_sig_cum), top(win.drift_cum), top(win.big_g),
                      top(win.neg_sig_rows), top(win.drift_rows), top(win.sign_gam),
                      -np.inf if np.any(win.big_g < 0) else win.lam0.min(initial=np.inf))


def _positive_density_rows(bound: _SignBound, dW: np.ndarray, jumps: _Jumps) -> np.ndarray:
    """Rows whose noise bound proves alpha_t > 0 at every maturity of the
    sign window.

    For marks xi >= 0 and G_k >= 0, 0 <= 1 - e^{-xi G} <= xi G and
    xi e^{-xi G} <= xi, so with Xi_k the sum of step k's marks on the row,
        v_k = |dW_k| max|neg_sig_cum_k| + max|drift_cum_k| + Xi_k max G_k,
        u_k = |dW_k| max|neg_sig_rows_k| + max|drift_rows_k| + Xi_k max|sign_gam_k|
    bound |dM_k| and |dm_k| over the window.  max_k v_k <= 1/2 keeps every
    growth 1 + dM_k >= 1/2, so S > 0, and sum_k u_k / (1 - v_k) below
    (1 - SIGN_MARGIN) min lambda_0 keeps lambda_0 - sum_k dm_k / (1 + dM_k)
    above SIGN_MARGIN lambda_0.  NaN fails both comparisons; no row passes
    without steps or with a negative mark.
    """
    p, n_steps = dW.shape
    if n_steps == 0 or np.any(jumps.mark < 0):
        return np.zeros(p, dtype=bool)
    xi = np.bincount(jumps.step * p + jumps.row, weights=jumps.mark,
                     minlength=n_steps * p).reshape(n_steps, p)
    abs_dw = np.abs(dW.T)
    v = abs_dw * bound.sig_cum + bound.drift_cum + xi * bound.big_g
    u = abs_dw * bound.sig_rows + bound.drift_rows + xi * bound.gam
    # a row with some v_k > 1/2 fails the first test; the clip spares its division
    drift = (u / (1.0 - np.minimum(v, 0.5))).sum(axis=0)
    return (v.max(axis=0) <= 0.5) & (drift < (1.0 - SIGN_MARGIN) * bound.lam0_min)


def simulate_survival_values(spec: CoefficientSpec, measure: LevyMeasure,
                             thetas: np.ndarray, t_end: float, dt: float,
                             n_paths: int, seed: int,
                             jump_sign_convention: str = "section7",
                             sign_window: np.ndarray | None = None) -> dict:
    """(alpha, S) at a few maturities per path, in closed form, no curves.

    The direct scheme's survival update S (1 + dM) multiplies out to
    S_t(theta) = S_0(theta) prod_k (1 + dM_k(theta)), where dM_k is the
    exact theta-integral of the step's dm_k:

        dM_k(theta) = -sigma ((theta-t_k)^+)^2 / 2 dW_k
                      + sign [ sum_j (1 - e^{-xi_j G_k(theta)})
                               - dt int (1 - e^{-xi G_k(theta)}) nu(dxi) ],
        G_k(theta) = b ((theta-t_k)^+)^2 / 2.

    Differentiating the product gives the density without a grid,
    alpha_t = -dS_t/dtheta = S_t (lambda_0 - sum_k dm_k / (1 + dM_k)).
    The noise is `_path_noise`, the draws of `simulate_density_paths`,
    so both engines agree path by path up to that engine's trapezoid
    error.

    Paths run in chunks of `PATH_CHUNK`, and a chunk's steps in blocks of
    as many steps as fit in `VALUES_BLOCK_ELEMENTS` (steps x maturities x
    rows) elements, at least one, so that a few maturities do not pay a
    round of numpy calls per step.
    A block builds every dM_k and dm_k at once; its jumps enter through one
    np.add.at at their (step, maturity, row) elements, in event order,
    which within one (step, row) cell is draw order (`_chunk_jumps`).
    Then, step by step, 1 + dM_k multiplies into S and dm_k / (1 + dM_k)
    adds into the running sum.  Every element thus gets the operations of
    a per-step loop (tests/test_term_structure.py keeps one) in the same
    order, and every operation is elementwise per path row, so a path's
    values depend on neither the chunk nor the block boundaries, nor on
    which other maturities are evolved beside it.

    sign_window, if given, adds "alpha_negative", per path whether
    alpha_t < 0 at some maturity of the window, and "window_paths", the
    number of paths whose window was evolved to tell.  A chunk whose every
    row passes the noise bound of `_positive_density_rows` has alpha_t > 0
    on the window by that bound, so it evolves only `thetas`.  Any other
    chunk evolves the window with `thetas` (those on the window read off its
    columns) and reads the flag off the window's alpha.  Each value is
    computed with the same operations either way, so no bit depends on
    which chunks the bound clears.
    """
    n_steps = _step_count(spec, t_end, dt)
    sign = JUMP_SIGN[jump_sign_convention]
    thetas = np.asarray(thetas, dtype=float)
    window = np.zeros(0) if sign_window is None else np.asarray(sign_window, dtype=float)
    # the window's nodes, then the maturities off it; cols: each theta's
    # column (np.isin would load numpy.ma)
    on_window = (thetas[:, None] == window).any(axis=1)
    nodes = np.concatenate([window, thetas[~on_window]])
    cols = (thetas[:, None] == nodes).argmax(axis=1)
    tab = _value_tables(spec, measure, nodes, n_steps, dt, sign)
    at_thetas = tab.take(cols)
    bound = _sign_bound(tab.take(slice(0, window.size)))

    alpha_out = np.empty((n_paths, thetas.size))
    surv_out = np.empty((n_paths, thetas.size))
    negative = np.zeros(n_paths, dtype=bool)
    window_paths = 0
    for start, stop, dW, jumps in _noise_chunks(measure, seed, n_paths, n_steps, dt,
                                                PATH_CHUNK):
        if sign_window is None or _positive_density_rows(bound, dW, jumps).all():
            surv, alpha = _evolve_values(at_thetas, dW, jumps, sign)
        else:
            surv, alpha = _evolve_values(tab, dW, jumps, sign)
            negative[start:stop] = (alpha[:window.size] < 0).any(axis=0)
            window_paths += stop - start
            surv, alpha = surv[cols], alpha[cols]
        surv_out[start:stop] = surv.T
        alpha_out[start:stop] = alpha.T

    out = {"thetas": thetas, "t": t_end, "alpha": alpha_out, "survival": surv_out}
    if sign_window is not None:
        out.update(alpha_negative=negative, window_paths=window_paths)
    return out


class _IntensityTables(NamedTuple):
    """Step tables (rows t_k = k dt) of the d = 0 Dirac intensity scheme."""

    sig: np.ndarray          # (steps, nodes): sqrt(c0) sigma
    gam: np.ndarray          # gamma per unit mark
    mu: np.ndarray           # martingale drift
    comp: np.ndarray         # jump compensator gamma E[xi]
    i_sig: np.ndarray        # (steps, probes): sqrt(c0) I_sigma
    g_half: np.ndarray       # I_gamma per unit mark
    comp_x: np.ndarray       # -int (1 - e^{-xi I_gamma}) nu(dxi)


def _intensity_tables(spec: CoefficientSpec, kernel: DiracKernel, measure: LevyMeasure,
                      grid: np.ndarray, probes: np.ndarray, n_steps: int,
                      dt: float) -> _IntensityTables:
    t_nodes = np.arange(n_steps) * dt
    theta_t = np.maximum(grid[None, :] - t_nodes[:, None], 0.0)
    sqrt_c0 = kernel.c0 ** 0.5
    gam = spec.jump_slope * theta_t
    mark_mean = measure.mark_moment(1) if measure.total_mass else 0.0
    probe_tt = np.maximum(probes[None, :] - t_nodes[:, None], 0.0)
    g_half = spec.jump_slope * probe_tt ** 2 / 2.0
    if measure.total_mass:
        comp_x = -np.asarray(measure.one_minus_exp(g_half), dtype=float)
    else:
        comp_x = np.zeros_like(g_half)
    return _IntensityTables(sig=sqrt_c0 * spec.sigma_slope * theta_t, gam=gam,
                            mu=drift_table(spec, kernel, measure, t_nodes, grid),
                            comp=gam * mark_mean,
                            i_sig=sqrt_c0 * spec.sigma_slope * probe_tt ** 2 / 2.0,
                            g_half=g_half, comp_x=comp_x)


def simulate_intensity_paths(spec: CoefficientSpec, kernel: DiracKernel,
                             measure: LevyMeasure, theta_grid: np.ndarray,
                             t_end: float, dt: float, n_paths: int, seed: int,
                             drift_multiplier: float = 1.0,
                             clamp_lambda_at_zero: bool = False,
                             record_times: tuple[float, ...] = (),
                             probe_thetas: tuple[float, ...] = ()) -> dict:
    """Evolve lambda curves for many paths under the d = 0 Dirac field.

    drift_multiplier scales the martingale-condition drift (used by the
    discriminating-power check).  probe_thetas additionally accumulates,
    at each probe maturity, the linearized survival martingale

        X += -sqrt(c0) I_sigma(t, theta) dW
             + sum_k (e^{-I_gamma(t, theta, xi_k)} - 1)
             - dt int (e^{-I_gamma} - 1) nu(dxi),

    a zero-mean control variate for S_t(theta) - S_0(theta).

    Chunked over paths (`INTENSITY_CHUNK`); each step's realised jumps are
    array ops over the chunk's events (`_chunk_jumps`), summed per path in
    the order of a per-path `.sum()`, so output is independent of chunking.
    """
    n_steps = _step_count(spec, t_end, dt)
    grid = np.asarray(theta_grid, dtype=float)
    probes = np.asarray(probe_thetas, dtype=float)
    tab = _intensity_tables(spec, kernel, measure, grid, probes, n_steps, dt)
    mu_rows = drift_multiplier * tab.mu

    rec_steps = {int(round(rt / dt)): rt for rt in record_times}
    records = {rt: {"lam": np.empty((n_paths, grid.size))} for rt in record_times}
    x_records = {rt: np.empty((n_paths, probes.size)) for rt in record_times} if probes.size else {}

    lam0 = np.asarray(spec.lambda0_fn(grid), dtype=float)
    lam_out = np.empty((n_paths, grid.size))
    neg_counts = np.zeros(n_paths, dtype=np.int64)
    x_out = np.zeros((n_paths, probes.size)) if probes.size else None

    for start, stop, dW, jumps in _noise_chunks(measure, seed, n_paths, n_steps, dt,
                                                INTENSITY_CHUNK):
        p = stop - start
        mark_sums = _mark_sums(jumps, n_steps, p)
        lam = np.tile(lam0, (p, 1))
        neg = np.zeros(p, dtype=np.int64)
        x_acc = np.zeros((p, probes.size)) if probes.size else None
        for k in range(n_steps):
            lam = lam + (dt * mu_rows[k] - dt * tab.comp[k]) \
                + np.multiply.outer(dW[:, k], tab.sig[k]) \
                + np.multiply.outer(mark_sums[k], tab.gam[k])
            neg += np.count_nonzero(lam < 0, axis=1)
            if clamp_lambda_at_zero:
                lam = np.maximum(lam, 0.0)
            if probes.size:
                x_acc += np.multiply.outer(dW[:, k], -tab.i_sig[k]) - dt * tab.comp_x[k]
                lo, hi = jumps.bounds[k], jumps.bounds[k + 1]
                if hi > lo:
                    xs = jumps.mark[lo:hi]
                    jumped, sums = _sum_by_row(
                        jumps, lo, hi, np.exp(-np.multiply.outer(xs, tab.g_half[k])) - 1.0)
                    x_acc[jumped] += sums
            if k + 1 in rec_steps:
                rt = rec_steps[k + 1]
                records[rt]["lam"][start:stop] = lam
                if probes.size:
                    x_records[rt][start:stop] = x_acc
        lam_out[start:stop] = lam
        neg_counts[start:stop] = neg
        if probes.size:
            x_out[start:stop] = x_acc

    out = {"theta_grid": grid, "t": t_end, "lam": lam_out,
           "negative_counts": neg_counts, "records": records}
    if probes.size:
        out["probe_thetas"] = probes
        out["probe_martingale"] = x_out
        out["probe_martingale_records"] = x_records
    return out


def simulate_intensity_values(spec: CoefficientSpec, kernel: DiracKernel,
                              measure: LevyMeasure, theta_grid: np.ndarray,
                              probe_thetas: tuple[float, ...], t_end: float, dt: float,
                              n_paths: int, seed: int) -> dict:
    """int_0^theta lambda_t and the control variate X at a few probes, no curves.

    The final curve of `simulate_intensity_paths` is linear in the noise,

        lambda_t = lambda_0 + sum_k [ dt (mu_k - comp_k) + dW_k sig_k
                                      + (sum of step k's marks) gam_k ],

    and so is its trapezoid integral on theta_grid up to a probe node.
    Contracting each (steps x nodes) table of `_intensity_tables`, which
    both engines read, once with the trapezoid weights up to every probe
    gives (steps x probes) tables, and a chunk's integrals are two matrix
    products.  X is that engine's probe_martingale,
    summed over the steps at once.  Each probe must be a node of
    theta_grid.  The noise is `_path_noise`, in chunks of
    `INTENSITY_CHUNK`, so both engines agree path by path up to rounding;
    every sum runs within one path row, so a path's bits do not depend on
    the chunk boundaries.
    Clamping lambda at zero is not linear and stays with the curve engine.
    """
    n_steps = _step_count(spec, t_end, dt)
    grid = np.asarray(theta_grid, dtype=float)
    probes = np.asarray(probe_thetas, dtype=float)
    nodes = np.abs(grid[None, :] - probes[:, None]).argmin(axis=1)
    off_grid = ~np.isclose(grid[nodes], probes, rtol=1e-12, atol=1e-12)
    if off_grid.any():
        raise ValueError(f"probe maturity {float(probes[off_grid][0])!r} is not a node "
                         "of theta_grid")

    # trapezoid weights of int_0^{theta_j} on the grid, one column per probe
    seg = (np.diff(grid) / 2.0)[:, None] * (np.arange(grid.size - 1)[:, None] < nodes)
    weights = np.zeros((grid.size, probes.size))
    weights[:-1] += seg
    weights[1:] += seg

    tab = _intensity_tables(spec, kernel, measure, grid, probes, n_steps, dt)
    lam0 = np.asarray(spec.lambda0_fn(grid), dtype=float)
    const = (lam0 + dt * (tab.mu - tab.comp).sum(axis=0)) @ weights
    a_sig = tab.sig @ weights
    a_gam = tab.gam @ weights
    comp_x = dt * tab.comp_x.sum(axis=0)

    integrated = np.empty((n_paths, probes.size))
    x_out = np.empty((n_paths, probes.size))
    for start, stop, dW, jumps in _noise_chunks(measure, seed, n_paths, n_steps, dt,
                                                INTENSITY_CHUNK):
        mark_sums = _mark_sums(jumps, n_steps, stop - start)
        # einsum, not BLAS matmul, whose sums change bits with the row count
        integrated[start:stop] = (const + np.einsum("pk,kq->pq", dW, a_sig)
                                  + np.einsum("kp,kq->pq", mark_sums, a_gam))
        x = np.einsum("pk,kq->pq", dW, -tab.i_sig) - comp_x
        np.add.at(x, jumps.row, np.exp(-jumps.mark[:, None] * tab.g_half[jumps.step]) - 1.0)
        x_out[start:stop] = x

    return {"probe_thetas": probes, "t": t_end, "integrated_intensity": integrated,
            "probe_martingale": x_out}
