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
(`kernel_transform`).  The bond prices read it.

March: L = Ax (x) I + I (x) Ay + a12 Dx (x) Dy, Ax = a11 Dxx + drift_x - diag(x)
on the rate axis, Ay = a22 Dyy + drift_y (central differences, hybrid
central/upwind drift, (3, n) banded arrays); the jump integral uses
mark-space quadrature, shifted copies and linear extrapolation beyond the
grid.  Time steps are Hundsdorfer-Verwer ADI (In 't Hout & Welfert 2009;
In 't Hout & Toivanen 2018), the mixed term and jump integral explicit,
from a table of every level's coefficients (one `compute_coefficients`
call).  Each y-piece of the scheme is exact on K = e^{-u y} (F(t, x) y + G(t, x)),
the transform's form, so `solve_cauchy_affine` marches (F, G) as one
(nx, 2) array on the rate axis (`_AffineSplit` with tilt u).
`PricingKernelSolver` solves both kernels this way for `lab pide`, and the
tests pin it to the closed form.  The 2-D march (`solve_cauchy`, whose
axis operators add a ridge of 1e-8 max(a11, a22) to both diffusions when
the diffusion block is degenerate, as it is for separable coefficients)
and an implicit-Euler Picard iteration factorised with SuperLU
(`solve_cauchy_picard`) are test oracles; only they import scipy.

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
from typing import TYPE_CHECKING, Callable

import numpy as np

from .kernels import DiracKernel
from .measures import LevyMeasure
from .rates import VasicekSpec, ou_gaussian_loading
from .term_structure import CoefficientSpec, cumulative_integrals, mc_drift

if TYPE_CHECKING:
    import scipy.sparse as sp


class PideInstabilityError(RuntimeError):
    pass


class OutOfGridError(ValueError):
    pass


def splu(a, **options):
    """SuperLU factorisation of a sparse matrix: `scipy.sparse.linalg.splu`,
    imported on the first call, since only the Picard oracle factorises."""
    from scipy.sparse.linalg import splu as superlu
    return superlu(a, **options)


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

    def degenerate(self, tol: float = 1e-14) -> bool:
        return self.a11 * self.a22 <= self.a12 ** 2 / 4.0 + tol

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


def _band_to_sparse(ab: np.ndarray) -> sp.csr_matrix:
    import scipy.sparse as sp
    return sp.diags([ab[2, :-1], ab[1], ab[0, 1:]], [-1, 0, 1], format="csr")


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


def _first_diff(n: int, h: float) -> np.ndarray:
    """Central first difference; ghost elimination gives one-sided edge rows."""
    main = np.zeros(n)
    main[0], main[-1] = -1.0 / h, 1.0 / h
    upper = np.full(n - 1, 0.5 / h)
    lower = np.full(n - 1, -0.5 / h)
    upper[0], lower[-1] = 1.0 / h, -1.0 / h
    return _banded(lower, main, upper)


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
    ridge = 1e-8 * max(coeffs.a11, coeffs.a22, 0.0) if coeffs.degenerate() else 0.0
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
# backward Cauchy solve
# ---------------------------------------------------------------------------

HV_THETA = 0.5 + np.sqrt(3.0) / 6.0


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


class _AffineSplit:
    """The same splitting on K = e^{-u y} (F(x) y + G(x)), the kernel with
    terminal y e^{-u y} (u = 0: k_breve, u = 1: k_tilde), as the (nx, 2)
    array of columns (F, G), every level's pieces built before the march.
    No coefficient depends on y, so each y-piece of the 2-D scheme maps
    (F, G) exactly (but for the y-drift's dropped edge row, which
    multiplies a_drift, zero up to quadrature): with d = u (a22 - a_drift)
    and e = a_drift - 2 u a22, Ay K has columns (d F, d G + e F).

    Rate axis: Ax for all levels as one (L, 3, nx) stack (`_rate_axis`),
    without the ridge, which regularises only the 2-D grid's degenerate
    diffusion block; `_thomas_factor` eliminates I - w Ax for the
    (level, w) pairs the march solves with, all at once.

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


def _hv_march(values: np.ndarray, split: Callable[..., _SplitOperator | _AffineSplit],
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
