"""Pricing kernels on a (rate, intensity) state grid, and their closed form.

For a fixed maturity argument theta, the pricing kernel K(t, x, y) solves
the backward Cauchy problem

    dK/dt - x K + A_theta K = 0,

    A_theta K = kappa (delta_hat_t(theta) - x) K_x + a(t, theta) K_y
                + a11(t) K_xx + a22(t, theta) K_yy + a12(t, theta) K_xy
                + int [K(t, x + phi_t(xi), y + gamma_t(theta, xi)) - K
                       - phi_t(xi) K_x - gamma_t(theta, xi) K_y] nu(dxi),

with terminal condition y (k_breve) or y e^{-y} (k_tilde, the recovery
kernel).  delta_hat absorbs the Girsanov drift of the rate under the
survival-reweighted measure; a(t, theta) vanishes when the intensity
drift satisfies the martingale condition.

Closed form: no coefficient depends on y and the rate is Vasicek, so the
kernel with terminal y e^{-u y} is the extended transform of an affine
jump-diffusion (Duffie, Pan & Singleton 2000), K = e^{A - B x - u y} (y + C)
(`kernel_transform`).  The bond prices of `lab price` read it.

March (`lab pide`): the solution keeps the transform's form
K = e^{-u y} (F(t, x) y + G(t, x)), so `solve_cauchy_affine` marches (F, G)
as one (nx, 2) array on the rate axis, Ax = a11 Dxx + drift_x - diag(x)
(central differences, hybrid central/upwind drift, (3, n) banded arrays),
with the y-pieces applied exactly and the jump integral by mark-space
quadrature on linearly extrapolated columns (`_AffineSplit` with tilt u).
Time steps are Hundsdorfer-Verwer ADI (In 't Hout & Welfert 2009;
In 't Hout & Toivanen 2018), the mixed term and jump integral explicit,
from a table of every level's coefficients (one `compute_coefficients`
call).  `PricingKernelSolver` solves both kernels this way, and the tests
pin it to the closed form.  The test oracles (the 2-D march, Picard, Monte
Carlo) live in `oracles`.

The jump integral is compensated with nu(dxi) as the operator is printed;
`jump_compensator="girsanov"` gives the reweighted e^{-I_gamma} nu.  They
differ: 400k-path Monte Carlo of the reweighted expectation at
(x, y) = (0.05, 0.1) cannot tell them apart for k_breve, nor for k_tilde up
to theta = 5 (|z| < 0.5), but at theta = 20 it puts the as-printed k_tilde
at z = -20.4 (1.4%) and the girsanov one at z = +0.01.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from .kernels import DiracKernel
from .measures import LevyMeasure
from .rates import VasicekSpec
from .term_structure import CoefficientSpec, cumulative_integrals, mc_drift


class PideInstabilityError(RuntimeError):
    pass


class OutOfGridError(ValueError):
    pass


# ---------------------------------------------------------------------------
# grid and grid functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateGrid:
    """Uniform rectangular grid: x = short rate axis, y = intensity axis."""

    x_min: float
    x_max: float
    nx: int
    y_min: float
    y_max: float
    ny: int

    def __post_init__(self):
        if self.nx < 16 or self.ny < 16:
            raise ValueError("grid needs nx, ny >= 16")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid ranges must be nonempty")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def contains(self, x, y) -> bool:
        """Whether every point (x, y) lies on the grid; arrays broadcast."""
        return bool(np.all((self.x_min - 1e-12 <= x) & (x <= self.x_max + 1e-12)
                           & (self.y_min - 1e-12 <= y) & (y <= self.y_max + 1e-12)))


@dataclass
class GridFunction:
    values: np.ndarray          # shape (nx, ny)
    grid: StateGrid
    t: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("values shape must match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")

    def interp(self, x, y):
        """Bilinear interpolation; out-of-grid queries raise, never extrapolate.

        Scalar x and y give a float; arrays broadcast and give an array.
        """
        if not self.grid.contains(x, y):
            raise OutOfGridError(f"query point ({x}, {y}) outside the state grid")
        g = self.grid
        fx = np.clip((np.asarray(x, dtype=float) - g.x_min) / g.hx, 0, g.nx - 1)
        fy = np.clip((np.asarray(y, dtype=float) - g.y_min) / g.hy, 0, g.ny - 1)
        i0 = np.minimum(fx, g.nx - 2).astype(int)
        j0 = np.minimum(fy, g.ny - 2).astype(int)
        wx, wy = fx - i0, fy - j0
        v = self.values
        out = ((1 - wx) * (1 - wy) * v[i0, j0] + wx * (1 - wy) * v[i0 + 1, j0]
               + (1 - wx) * wy * v[i0, j0 + 1] + wx * wy * v[i0 + 1, j0 + 1])
        return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# operator coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorCoefficients:
    """Snapshot of the operator at one (t, theta), or a table of them: then
    every field gains a leading axis over the time levels (the scalars are
    (L,) arrays, the jump arrays (L, nodes)) and `level` reads a snapshot."""

    t: float
    theta: float
    kappa: float
    delta_hat: float
    a_drift: float
    a11: float
    a22: float
    a12: float
    jump_dx: np.ndarray     # displacement in x per quadrature node
    jump_dy: np.ndarray     # displacement in y per quadrature node
    jump_w: np.ndarray      # nu-quadrature weights (compensator convention applied)

    def level(self, i: int) -> OperatorCoefficients:
        """Snapshot i of a table."""
        return OperatorCoefficients(*(float(v[i]) if np.ndim(v) == 1 else v[i]
                                      for v in (getattr(self, f.name) for f in fields(self))))


def compute_coefficients(model_spec: CoefficientSpec, rate_spec: VasicekSpec,
                         kernel: DiracKernel, measure: LevyMeasure,
                         t, theta,
                         jump_compensator: str = "as_printed",
                         rates_correlated: bool = True) -> OperatorCoefficients:
    """Operator coefficients at (t, theta) for the d = 0 Dirac field; arrays
    of t and theta broadcast to their table (the jump arrays with a trailing
    mark axis), bit for bit the snapshots of the scalar calls.

    delta_hat = delta + kappa^{-1} c0 rho0 I_sigma(t, theta)
                + kappa^{-1} int phi(xi) (e^{-I_gamma(t,theta,xi)} - 1) nu(dxi),
    a11 = c0 rho0^2 / 2,  a22 = c0 sigma_t(theta)^2 / 2,
    a12 = c0 sigma_t(theta) rho0,  and a_drift is the martingale-condition
    residual (zero up to quadrature when mu comes from mc_drift).

    With rates_correlated=False the rate diffuses on its own Brownian
    driver: the cross term a12 and the measure-change shift of delta_hat
    vanish (phi0 must be zero, since the printed operator cannot express
    independent jump fields).
    """
    if jump_compensator not in ("as_printed", "girsanov"):
        raise ValueError("jump_compensator must be 'as_printed' or 'girsanov'")
    if not rates_correlated and rate_spec.phi0 != 0.0:
        raise ValueError("independent rates require phi0 = 0 (jump marks are shared)")
    c0 = kernel.c0
    ts = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)), theta)[0]
    th = np.asarray(theta, dtype=float)[..., None]      # against the marks

    def levels(v):
        return np.broadcast_to(np.asarray(v, dtype=float), ts.shape)

    sig = levels(model_spec.sigma_fn(ts, theta, 0.0))
    i_sig = levels(cumulative_integrals(model_spec, ts, theta, 0.0)[0])
    coupling = i_sig if rates_correlated else 0.0

    a11 = 0.5 * c0 * rate_spec.rho0 ** 2
    a22 = 0.5 * c0 * np.float_power(sig, 2)     # the bits of a float's sig ** 2
    a12 = c0 * sig * rate_spec.rho0 if rates_correlated else 0.0

    if measure.total_mass == 0:
        nodes = weights = np.zeros(0)
        gam_vals = np.zeros(ts.shape + (0,))
        phi_term = 0.0
        jump_mc = 0.0
    else:
        nodes, weights = measure.quadrature()
        _, i_gam = cumulative_integrals(model_spec, ts[..., None], th, nodes)
        i_gam = np.asarray(i_gam, dtype=float)
        phi_vals = rate_spec.phi0 * nodes
        phi_term = np.sum(weights * phi_vals * (np.exp(-i_gam) - 1.0), axis=-1)
        gam_vals = np.broadcast_to(np.asarray(model_spec.gamma_fn(ts[..., None], th, nodes),
                                              dtype=float), i_gam.shape)
        jump_mc = np.sum(weights * gam_vals * (1.0 - np.exp(-i_gam)), axis=-1)
        if jump_compensator == "girsanov":
            weights = weights * np.exp(-i_gam)

    delta_hat = rate_spec.delta + (c0 * rate_spec.rho0 * coupling + phi_term) / rate_spec.kappa
    mu = mc_drift(model_spec, kernel, measure, ts, theta)
    a_drift = mu - c0 * sig * i_sig - jump_mc

    jumps = gam_vals.shape
    table = OperatorCoefficients(ts, levels(theta), levels(rate_spec.kappa), levels(delta_hat),
                                 levels(a_drift), levels(a11), levels(a22), levels(a12),
                                 np.broadcast_to(rate_spec.phi0 * nodes, jumps), gam_vals,
                                 np.broadcast_to(weights, jumps))
    return table if np.ndim(t) or np.ndim(theta) else table.level(0)


@dataclass(frozen=True, eq=False)
class CoefficientProvider:
    """Maps t, or an array of times, to operator coefficients for a fixed
    theta slice, or an array of them (`compute_coefficients`)."""

    model_spec: CoefficientSpec
    rate_spec: VasicekSpec
    kernel: DiracKernel
    measure: LevyMeasure
    theta: float | np.ndarray
    jump_compensator: str = "as_printed"
    rates_correlated: bool = True

    def __call__(self, t) -> OperatorCoefficients:
        return compute_coefficients(self.model_spec, self.rate_spec, self.kernel,
                                    self.measure, t, self.theta, self.jump_compensator,
                                    self.rates_correlated)

    @property
    def time_dependent(self) -> bool:
        slope = self.model_spec.sigma_slope
        jslope = self.model_spec.jump_slope
        has_jumps = self.measure.total_mass > 0
        if slope is None or jslope is None:
            return True
        return slope != 0.0 or (jslope != 0.0 and has_jumps)


def _coefficient_table(provider: Callable[[float], OperatorCoefficients],
                       times: np.ndarray) -> OperatorCoefficients:
    """The coefficients at every time of `times` as one table: one call of a
    CoefficientProvider, the stacked snapshots of any other provider."""
    if isinstance(provider, CoefficientProvider):
        return provider(times)
    snapshots = [provider(t) for t in times]
    return OperatorCoefficients(*(np.array([getattr(c, f.name) for c in snapshots])
                                  for f in fields(OperatorCoefficients)))


TRANSFORM_NODES = 40     # Gauss-Legendre nodes of the transform's time integrals
THETA_BLOCK = 32         # theta slices per coefficient table of the transform


def kernel_transform(provider: Callable[[float], OperatorCoefficients], t: float, T: float,
                     u: int = 0, n_quad: int = TRANSFORM_NODES):
    """(A, B, C) of K = e^{A - B x - u y} (y + C), the kernel with terminal
    y e^{-u y} (u = 0: k_breve, u = 1: k_tilde).  B = (1 - e^{-kappa (T - t)}) / kappa
    and, with B at s in place of t and the sums over the solver's marks,

        A = int_t^T [-kappa delta_hat B + a11 B^2 + u (a22 - a_drift + a12 B)
                     + sum w (e^{-B phi - u gamma} - 1 + B phi + u gamma)] ds,
        C = int_t^T [a_drift - 2 u a22 - a12 B + sum w gamma (e^{-B phi - u gamma} - 1)] ds,

    by Gauss-Legendre on [t, T], second order in n_quad through the kink of
    (theta - s)^+ at s = theta.  `provider` gives the coefficients of one
    theta (then A and C are floats), or is a CoefficientProvider of an
    array of theta, tabulated THETA_BLOCK slices at a time.
    """
    x, w = np.polynomial.legendre.leggauss(n_quad)
    s, w = t + (T - t) * (x + 1.0) / 2.0, w * (T - t) / 2.0
    th = getattr(provider, "theta", None)
    tables = ((replace(provider, theta=th[i:i + THETA_BLOCK])(s[:, None])
               for i in range(0, len(th), THETA_BLOCK))
              if isinstance(provider, CoefficientProvider) and np.ndim(th)
              else [_coefficient_table(provider, s)])
    a, c = [], []
    for k in tables:        # one table alive at a time
        b = (1.0 - np.exp(-k.kappa * (T - k.t))) / k.kappa
        bx, uy = b[..., None] * k.jump_dx, u * k.jump_dy
        e = np.exp(-bx - uy) - 1.0
        da = (-k.kappa * k.delta_hat * b + k.a11 * b ** 2 + u * (k.a22 - k.a_drift + k.a12 * b)
              + np.sum(k.jump_w * (e + bx + uy), axis=-1))
        dc = k.a_drift - 2.0 * u * k.a22 - k.a12 * b + np.sum(k.jump_w * k.jump_dy * e, axis=-1)
        # node by node, so that each theta sums in the same order in any block
        a.append(sum(wk * row for wk, row in zip(w, da)))
        c.append(sum(wk * row for wk, row in zip(w, dc)))
    b_t = float((1.0 - np.exp(-k.kappa.flat[0] * (T - t))) / k.kappa.flat[0])
    if np.ndim(a[0]) == 0:
        return float(a[0]), b_t, float(c[0])
    return np.concatenate(a), b_t, np.concatenate(c)


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------
#
# A tridiagonal 1-D operator is held as a (3, n) array in the banded layout
# of scipy.linalg.solve_banded: ab[0, 1:] is the superdiagonal, ab[1] the
# diagonal and ab[2, :-1] the subdiagonal.  Stacks of them, one per time
# level, are (..., 3, n).

def _banded(lower: np.ndarray, main: np.ndarray, upper: np.ndarray) -> np.ndarray:
    ab = np.zeros(main.shape[:-1] + (3, main.shape[-1]))
    ab[..., 0, 1:] = upper
    ab[..., 1, :] = main
    ab[..., 2, :-1] = lower
    return ab


def _band_apply(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of a banded tridiagonal operator with v along axis 0."""
    d = ab.reshape(ab.shape + (1,) * (v.ndim - 1))
    out = d[1] * v
    out[:-1] += d[0, 1:] * v[1:]
    out[1:] += d[2, :-1] * v[:-1]
    return out


def _thomas_factor(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elimination without pivoting of a (..., 3, n) stack of banded
    tridiagonal matrices, vectorised over the stack.

    Returns (multipliers, pivots, superdiagonal) for `_thomas_solve`; each
    element is the scalar recurrence's IEEE result.  Meant for strictly
    diagonally dominant M-matrices, whose pivots stay positive;
    `_check_pivots` raises on one that is not.
    """
    sub, diag, sup = ab[..., 2, :-1], ab[..., 1, :], ab[..., 0, 1:]
    mult = np.empty(sub.shape)
    piv = np.empty(diag.shape)
    piv[..., 0] = diag[..., 0]
    with np.errstate(all="ignore"):     # nothing past a bad pivot is read
        for i in range(1, diag.shape[-1]):
            mult[..., i - 1] = sub[..., i - 1] / piv[..., i - 1]
            piv[..., i] = diag[..., i] - mult[..., i - 1] * sup[..., i - 1]
    return mult, piv, sup.copy()     # not a view that keeps the stack alive


def _check_pivots(piv: np.ndarray) -> None:
    """PideInstabilityError at the first non-positive (or NaN) pivot of one
    elimination."""
    bad = np.flatnonzero(~(piv > 0.0))
    if bad.size:
        row = int(bad[0])
        raise PideInstabilityError(
            f"rate-axis implicit system has pivot {float(piv[row])!r} at row {row}: "
            f"I - w Ax is not diagonally dominant; retry with more time steps")


def _thomas_solve(factor: tuple[list[float], list[float], list[float]],
                  rhs: np.ndarray) -> np.ndarray:
    """Solve with one system's `_thomas_factor` for the two columns of an
    (n, 2) rhs, swept on Python floats (pass the factors as lists: indexing
    arrays element by element is slower)."""
    mult, piv, sup = factor
    f, g = rhs.T.tolist()
    pf, pg = f[0], g[0]
    for i, m in enumerate(mult, 1):
        pf = f[i] = f[i] - m * pf
        pg = g[i] = g[i] - m * pg
    pf = f[-1] = pf / piv[-1]
    pg = g[-1] = pg / piv[-1]
    for i in range(len(mult) - 1, -1, -1):
        pf = f[i] = (f[i] - sup[i] * pf) / piv[i]
        pg = g[i] = (g[i] - sup[i] * pg) / piv[i]
    return np.array((f, g)).T


def _second_diff(n: int, h: float) -> np.ndarray:
    """Standard second difference; zero rows at edges (linear extrapolation)."""
    main = np.zeros(n)
    main[1:-1] = -2.0 / h ** 2
    upper = np.full(n - 1, 1.0 / h ** 2)
    lower = np.full(n - 1, 1.0 / h ** 2)
    upper[0] = lower[-1] = 0.0
    return _banded(lower, main, upper)


def _drift_matrix(n: int, h: float, vel: np.ndarray, diff) -> np.ndarray:
    """vel * d/dx with hybrid differencing: central where 2 diff >= |vel| h,
    one-sided in the upwind direction elsewhere (monotone for coarse cells).
    Edge rows are one-sided inward; a last row whose upwind neighbour lies
    off the grid is dropped.  vel (..., n) and diff (...) may carry leading
    level axes, giving a (..., 3, n) stack."""
    i = np.arange(n)
    central = 2.0 * np.asarray(diff)[..., None] >= np.abs(vel) * h
    fwd = (i == 0) | (~central & (vel > 0))
    bwd = ~fwd & ((i == n - 1) | (~central & (vel < 0)))
    ctr = ~fwd & ~bwd
    fwd &= i < n - 1
    g = vel / h
    main = np.where(fwd, -g, np.where(bwd, g, 0.0))
    upper = np.where(fwd, g, np.where(ctr, 0.5 * g, 0.0))[..., :-1]
    lower = np.where(bwd, -g, np.where(ctr, -0.5 * g, 0.0))[..., 1:]
    return _banded(lower, main, upper)


def _rate_axis(grid: StateGrid, a11, kappa, delta_hat) -> np.ndarray:
    """Ax = a11 Dxx + kappa (delta_hat - x) Dx - diag(x), the rate axis's
    piece of the local operator: (3, nx) for scalar coefficients, an
    (L, 3, nx) stack for (L,) arrays of them."""
    x = grid.x
    a11 = np.asarray(a11, dtype=float)
    vel = np.asarray(kappa)[..., None] * (np.asarray(delta_hat)[..., None] - x)
    ax = a11[..., None, None] * _second_diff(grid.nx, grid.hx) \
        + _drift_matrix(grid.nx, grid.hx, vel, a11)
    ax[..., 1, :] -= x
    return ax


# ---------------------------------------------------------------------------
# backward Cauchy solve
# ---------------------------------------------------------------------------

HV_THETA = 0.5 + np.sqrt(3.0) / 6.0


class _AffineSplit:
    """The ADI splitting F = F0 + F1 + F2 (F1 = Ax and F2 = Ay implicit, F0
    = mixed term + jump integral explicit) on K = e^{-u y} (F(x) y + G(x)),
    the kernel with terminal y e^{-u y} (u = 0: k_breve, u = 1: k_tilde),
    as the (nx, 2) array of columns (F, G), every level's pieces built
    before the march.  No coefficient depends on y, so each y-piece of the
    scheme on the (x, y) grid maps (F, G) exactly (but for the y-drift's
    dropped edge row, which multiplies a_drift, zero up to quadrature):
    with d = u (a22 - a_drift) and e = a_drift - 2 u a22, Ay K has columns
    (d F, d G + e F).

    Rate axis: Ax for all levels as one (L, 3, nx) stack (`_rate_axis`);
    `_thomas_factor` eliminates I - w Ax for the (level, w) pairs the
    march solves with, all at once.

    F0: rate shift q moves x by the same phi_q at every level; only its
    weight depends on t.  So the jump integral, with its compensator
    (-phi F_x by the central difference, -mass K) and the mixed term, is
    a correlation of each linearly extrapolated column with a
    (2 px + 1)-tap kernel per level: column F with k0, column G with k0
    plus F with k1, where node q puts its weight c_q at taps
    px + floor(phi_q / hx) and the next, split linearly.  At u = 0,
    c_q = w_q in k0 and w_q gamma_q in k1 (the y-shift of F y), and the
    mixed term is a12 Dx F in G.  At u = 1 node (phi, gamma) maps (F, G) to
    (e^{-gamma} F(x + phi) - F - phi F_x + gamma F,
     e^{-gamma} (G(x + phi) + gamma F(x + phi)) - G - phi G_x - gamma F + gamma G)
    and the mixed term has columns (-a12 Dx F, a12 Dx (F - G)): the
    shifted weights carry e^{-gamma_q}, the centre tap of k0 gains
    sum w gamma and k0 also holds -a12 Dx."""

    def __init__(self, grid: StateGrid, table: OperatorCoefficients,
                 solves: set[tuple[int, float]], u: int = 0):
        self.grid, self.u = grid, u
        self.ax = _rate_axis(grid, table.a11, table.kappa, table.delta_hat)
        pairs = sorted(solves)
        self._pair = {pair: i for i, pair in enumerate(pairs)}
        weights = np.array([w for _, w in pairs])
        systems = -weights[:, None, None] * self.ax[[lvl for lvl, _ in pairs]]
        systems[:, 1] += 1.0
        self._factors = _thomas_factor(systems)
        self._stable = np.all(self._factors[1] > 0.0, axis=1)
        self._listed = (None, None)     # (pair, its factors as lists): a step solves twice
        self.d = u * (table.a22 - table.a_drift)
        self.e = table.a_drift - 2.0 * u * table.a22
        self.px, self.k0, self.k1 = self._kernels(table)

    def _kernels(self, table: OperatorCoefficients) -> tuple[int, np.ndarray, np.ndarray]:
        hx = self.grid.hx
        w, dx, dy = table.jump_w, table.jump_dx, table.jump_dy
        sx = dx / hx
        px = int(np.ceil(np.abs(sx).max(initial=0.0))) + 1
        n_levels, taps = w.shape[0], 2 * px + 1
        ix0 = np.floor(sx)
        frac = sx - ix0
        tap = (np.arange(n_levels)[:, None] * taps + px + ix0.astype(int)).ravel()
        taps_at = np.concatenate((tap, tap + 1))
        shifted = w * np.exp(-dy) if self.u else w

        def spread(c):
            weights = np.concatenate(((c * (1 - frac)).ravel(), (c * frac).ravel()))
            sums = np.bincount(taps_at, weights, minlength=n_levels * taps)
            return sums.astype(float).reshape(n_levels, taps)   # float also with no nodes

        k0, k1 = spread(shifted), spread(shifted * dy)
        w_dy = (w * dy).sum(axis=1)
        k0[:, px] -= w.sum(axis=1) - w_dy if self.u else w.sum(axis=1)
        k1[:, px] -= w_dy
        slope0 = ((w * dx).sum(axis=1) + (table.a12 if self.u else 0.0)) / (2.0 * hx)
        k0[:, px + 1] -= slope0
        k0[:, px - 1] += slope0
        slope1 = table.a12 / (2.0 * hx)
        k1[:, px + 1] += slope1
        k1[:, px - 1] -= slope1
        return px, k0, k1

    def f0(self, lvl: int, v: np.ndarray) -> np.ndarray:
        # both columns linearly extrapolated px cells past each x-edge
        px, nx = self.px, v.shape[0]
        k = np.arange(1, px + 1)
        padded = np.empty((2, nx + 2 * px))
        padded[:, px:px + nx] = v.T
        padded[:, :px][:, ::-1] = v[:1].T - k * (v[1:2].T - v[:1].T)
        padded[:, px + nx:] = v[-1:].T + k * (v[-1:].T - v[-2:-1].T)
        f, g = padded
        k0, k1 = self.k0[lvl], self.k1[lvl]
        out = np.empty_like(v)
        out[:, 0] = np.correlate(f, k0)
        out[:, 1] = np.correlate(g, k0) + np.correlate(f, k1)
        return out

    def f1(self, lvl: int, v: np.ndarray) -> np.ndarray:
        return _band_apply(self.ax[lvl], v)

    def f2(self, lvl: int, v: np.ndarray) -> np.ndarray:
        out = self.d[lvl] * v
        out[:, 1] += self.e[lvl] * v[:, 0]
        return out

    def solve(self, axis: int, lvl: int, w: float, rhs: np.ndarray) -> np.ndarray:
        if axis == 0:
            i = self._pair[lvl, w]
            if not self._stable[i]:
                _check_pivots(self._factors[1][i])
            if self._listed[0] != i:
                self._listed = i, tuple(a[i].tolist() for a in self._factors)
            return _thomas_solve(self._listed[1], rhs)
        pivot = 1.0 - w * self.d[lvl]
        out = rhs / pivot
        out[:, 1] += w * self.e[lvl] * out[:, 0] / pivot
        return out

    def sup(self, v: np.ndarray) -> float:
        # e^{-u y} (F y + G) peaks in modulus at y_min, y_max or, when
        # u = 1, its stationary point y* = 1 - G/F
        f, g = v[:, 0], v[:, 1]
        lo, hi = self.grid.y_min, self.grid.y_max
        ys = [lo, hi]
        if self.u:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ys.append(np.nan_to_num(np.clip(1.0 - g / f, lo, hi), nan=lo))
        return float(max(np.abs(np.exp(-self.u * y) * (f * y + g)).max() for y in ys))


def _hv_march(values: np.ndarray, split: Callable[..., _AffineSplit],
              provider: Callable[[float], OperatorCoefficients], grid: StateGrid,
              t_start: float, T: float, n_steps: int, theta_scheme: float,
              rannacher: int, time_dependent: bool | None) -> np.ndarray:
    """March dK/dt - x K + A K = 0 backward from the terminal `values`.

    Hundsdorfer-Verwer ADI in time-to-maturity: with F = F0 + F1 + F2 as in
    `split`, U the solution at the known level and the primes marking the
    new level,

        Y0 = U + dt F(U)
        Yj = Y(j-1) + theta dt (Fj'(Yj) - Fj(U)),              j = 1, 2
        Z0 = Y0 + dt/2 (F'(Y2) - F(U))
        Zj = Z(j-1) + theta dt (Fj'(Zj) - Fj'(Y2)),            j = 1, 2

    and Z2 is the new value.  theta_scheme is the HV theta (the default
    1/2 + sqrt(3)/6 is unconditionally stable with the mixed term explicit);
    the first `rannacher` steps are damping steps taken with theta = 1,
    which damps stiff modes harder and stays second order.

    The operator schedule is tabulated before the first step: the
    coefficients of every time level in one table (`_coefficient_table`),
    and from it `split(grid, table, solves)`, given the (level, weight)
    pairs of the implicit stages.  With `time_dependent` False (default:
    the provider's own flag) the table holds the level at T alone and
    every step reads it.  Raises PideInstabilityError if the sup norm
    breaches the discounted growth bound.
    """
    if T <= t_start:
        raise ValueError("need T > t_start")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if time_dependent is None:
        time_dependent = getattr(provider, "time_dependent", True)
    dt = (T - t_start) / n_steps
    times = t_start + dt * np.arange(n_steps + 1)
    level = list(range(n_steps + 1)) if time_dependent else [0] * (n_steps + 1)
    weight = [(1.0 if (n_steps - 1 - k) < rannacher else theta_scheme) * dt
              for k in range(n_steps)]
    ops = split(grid, _coefficient_table(provider, times if time_dependent else times[-1:]),
                set(zip(level, weight)))

    old = level[n_steps]
    sup0 = ops.sup(values)
    growth = np.exp(max(-grid.x_min, 0.0) * dt)
    for k in range(n_steps - 1, -1, -1):
        new, w = level[k], weight[k]
        f1, f2 = ops.f1(old, values), ops.f2(old, values)
        f_old = ops.f0(old, values) + f1 + f2
        y0 = values + dt * f_old
        y = ops.solve(0, new, w, y0 - w * f1)
        y = ops.solve(1, new, w, y - w * f2)
        g1, g2 = ops.f1(new, y), ops.f2(new, y)
        z0 = y0 + 0.5 * dt * (ops.f0(new, y) + g1 + g2 - f_old)
        values = ops.solve(0, new, w, z0 - w * g1)
        values = ops.solve(1, new, w, values - w * g2)
        bound = sup0 * growth ** (n_steps - k) * 1.5 + 1e-9
        if not np.all(np.isfinite(values)) or ops.sup(values) > bound:
            raise PideInstabilityError(
                f"instability detected at t = {times[k]:.6g}: sup |K| exceeds the "
                f"discounted bound; retry with n_steps > {2 * n_steps}")
        old = new
    return values


def solve_cauchy_affine(provider: Callable[[float], OperatorCoefficients],
                        grid: StateGrid, t_start: float, T: float, n_steps: int,
                        tilt: bool = False) -> GridFunction:
    """The kernel with terminal y, marched as K = F(t, x) y + G(t, x);
    with `tilt`, the kernel with terminal y e^{-y}, as K = e^{-y} (F y + G).

    No coefficient depends on y, so the solution keeps its form: F has
    terminal 1, G terminal 0, and both march through the HV stages of
    `_hv_march` (default theta, two damping steps) as one (nx, 2) array
    (`_AffineSplit` with u = 1 when `tilt`, else 0).  The result is lifted
    onto the state grid; at t_start = T it is the terminal itself.
    """
    fg = np.zeros((grid.nx, 2))
    fg[:, 0] = 1.0
    if t_start != T:
        fg = _hv_march(fg, partial(_AffineSplit, u=int(tilt)), provider, grid,
                       t_start, T, n_steps, HV_THETA, 2, None)
    values = fg[:, :1] * grid.y + fg[:, 1:]
    if tilt:
        values *= np.exp(-grid.y)
    return GridFunction(values, grid, t_start)


# ---------------------------------------------------------------------------
# pricing-kernel solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PricingKernelSolver:
    """The two pricing kernels marched on one state grid (`lab pide`):
    terminal y (k_breve, the discounted expected terminal intensity under
    the survival-reweighted measure) and y e^{-y} (k_tilde, the
    recovery-weighted kernel), on the 1-D route `solve_cauchy_affine`.
    `provider(theta)` gives their coefficients for `kernel_transform`."""

    model_spec: CoefficientSpec
    rate_spec: VasicekSpec
    kernel: DiracKernel
    measure: LevyMeasure
    grid: StateGrid
    T: float
    n_steps: int = 200
    jump_compensator: str = "as_printed"
    rates_correlated: bool = True

    def provider(self, theta) -> CoefficientProvider:
        return CoefficientProvider(self.model_spec, self.rate_spec, self.kernel,
                                   self.measure, theta, self.jump_compensator,
                                   self.rates_correlated)

    def solution(self, t: float, theta: float, terminal: str = "y") -> GridFunction:
        """k_breve (terminal "y") or k_tilde ("y_exp_y") at (t, theta)."""
        if terminal not in ("y", "y_exp_y"):
            raise ValueError(f"unknown terminal {terminal!r}")
        return solve_cauchy_affine(self.provider(theta), self.grid, t, self.T, self.n_steps,
                                   tilt=terminal == "y_exp_y")


# perfbench/workloads.py and perfbench/tracing.py (and the acceptance tests)
# look these test oracles up as attributes of this module.  This forwarder
# exists only for them: it imports `oracles` on first access, so that no
# `lab` command compiles it.
_FORWARDED = frozenset({"apply_jump_operator", "build_local_operator", "default_grid_for",
                        "simulate_kernel_expectation", "solve_cauchy", "splu"})


def __getattr__(name: str):
    if name in _FORWARDED:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
