"""Defaultable zero-coupon bond pricing through the two price kernels.

The bond pays 1 at maturity T on survival and the recovery R_T(tau) at T
after an economic default at tau <= T.  Conditional on the market filtration
the price splits into

    alive:      int_T^inf K1(t, theta) dtheta
                + int_t^T K2(t, theta) alpha_t(theta) / S_t dtheta
    defaulted:  K2(t, tau),

with K1 the discounted-density kernel and K2 the recovery kernel.  What
each (regime, status) reads:

* independent rates, deterministic recovery: K1 = alpha_t(theta) B(t,T) / S_t
  and K2 = R B(t,T).  Before default the price is the closed pre-default
  form P = B(t,T) (1 - (1-R) int_t^T alpha / int_t^inf alpha), which
  `experiments.run_price_distribution` reads off two survival values per
  path; `price_pre_default_independent` evaluates it on a whole curve and
  is the oracle of that shortcut.  After default the price R B(t,T) reads no
  curve at all.
* correlated rates, deterministic recovery: K1 = S_t(theta)/S_t *
  Kbreve(t, r_t, lambda_t(theta)) and K2 = R Kbreve / lambda_t(theta).
* intensity-linked recovery R_T = w0 + w1 e^{-f(lambda)}:
  K2 = (w0 Kbreve + w1 Ktilde) / lambda_t(theta), where Ktilde has
  terminal y e^{-y} for f = identity and is Kbreve for f = none.

`price_defaultable_zcb` prices the last two regimes for a batch of curves
(one row per path) with the PIDE kernels of `pide.PricingKernelSolver`.
For the alive bond it reads the ratios q1 = Kbreve/lambda and
q2 = Ktilde/lambda at every `theta_stride`-th node from t on, one backward
solve per node and all paths at once, and interpolates them across theta;
q2 enters only on [t, T], so Ktilde is solved only at the nodes that
bracket it.  The theta-integrals use the trapezoid rule on the curve grid,
with the flat-intensity tail S_t(theta_max) beyond the truncation point.
After default an intensity-linked recovery reads the kernels at
theta = tau, one solve per kernel; a deterministic one is R B(t, T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pide import PricingKernelSolver
from .term_structure import DensityCurveState


class DegenerateSurvivalError(ValueError):
    pass


class KernelUndefinedError(ValueError):
    pass


LAMBDA_FLOOR = 1e-10


# ---------------------------------------------------------------------------
# recovery models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterministicRecovery:
    """Recovery as a deterministic fraction of face value."""

    rate: float = 0.4

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("recovery rate must lie in [0, 1]")


@dataclass(frozen=True)
class IntensityLinkedRecovery:
    """R_T(theta) = w0 + w1 e^{-f(lambda_T(theta))} with w0 + w1 <= 1 and
    f the identity ("identity") or zero ("none")."""

    w0: float
    w1: float
    f: str = "identity"

    def __post_init__(self):
        if self.f not in ("identity", "none"):
            raise ValueError(f"recovery weighting f must be 'identity' or 'none', "
                             f"got {self.f!r}")
        if self.w0 < 0 or self.w1 < 0:
            raise ValueError("w0 and w1 must be nonnegative")
        if self.w0 + self.w1 > 1.0 + 1e-12:
            raise ValueError("w0+w1 <= 1 violated")


RecoveryModel = DeterministicRecovery | IntensityLinkedRecovery


# ---------------------------------------------------------------------------
# curve-integral helpers
# ---------------------------------------------------------------------------

def _grid_trapz(grid: np.ndarray, vals: np.ndarray, a: float, b: float) -> float:
    xs = grid[(grid > a) & (grid < b)]
    xs = np.concatenate([[a], xs, [b]])
    ys = np.interp(xs, grid, vals)
    return float(np.trapezoid(ys, xs))


def density_integral(state: DensityCurveState, a: float, b: float | None = None) -> tuple[float, float]:
    """int_a^b alpha_t dtheta; b = None integrates to infinity with the
    flat-intensity tail correction S_t(theta_max).  Returns (value, tail)."""
    grid = np.asarray(state.theta_grid, dtype=float)
    alpha = np.asarray(state.alpha, dtype=float)
    if b is None:
        tail = float(np.asarray(state.survival, dtype=float)[-1])
        return _grid_trapz(grid, alpha, a, float(grid[-1])) + tail, tail
    return _grid_trapz(grid, alpha, a, b), 0.0


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """`np.interp(x, xp, row)` for every row of fp, with np.interp's arithmetic."""
    if xp.size == 1:
        return np.repeat(fp, x.size, axis=1)
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)
    out = (fp[:, j + 1] - fp[:, j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[:, j]
    out[:, x < xp[0]] = fp[:, :1]
    out[:, x >= xp[-1]] = fp[:, -1:]
    # fancy indexing leaves `out` in Fortran order; row sums of C-ordered
    # rows reduce exactly as np.trapezoid does on one 1-D row
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# bond prices
# ---------------------------------------------------------------------------

def price_pre_default_independent(t: float, T: float, state: DensityCurveState,
                                  recovery_rate: float, r: float) -> float:
    """Pre-default price, independent constant rate, deterministic recovery:

        P(t,T) = B(t,T) (1 - (1-R) int_t^T alpha / int_t^inf alpha),

    theta-integrals by trapezoid on the curve grid, the denominator with
    the flat-intensity tail correction.
    """
    if not 0.0 <= recovery_rate <= 1.0:
        raise ValueError("recovery rate must lie in [0, 1]")
    if T < t:
        raise ValueError("T must be >= t")
    disc = float(np.exp(-r * (T - t)))
    num, _ = density_integral(state, t, T)
    den, _ = density_integral(state, t, None)
    if den <= 0:
        raise DegenerateSurvivalError("nonpositive density integral over (t, inf)")
    return disc * (1.0 - (1.0 - recovery_rate) * num / den)


def price_defaultable_zcb(t: float, T: float, theta_grid: np.ndarray, alpha: np.ndarray,
                          survival: np.ndarray, recovery: RecoveryModel, discount: float,
                          *, r_t: float, solver: PricingKernelSolver,
                          tau: float | None = None, theta_stride: int = 50) -> np.ndarray:
    """Defaultable zero-coupon bond prices of a batch of (alpha, S) curves.

    alpha and survival hold one path per row on `theta_grid`; every path
    shares the short rate r_t.  tau = None prices the alive bond,
    int_T^inf K1 dtheta + int_t^T K2 alpha/S_t dtheta; a default time
    tau <= t prices K2(t, tau) of an intensity-linked recovery.  (A
    deterministic recovery R after default is worth R B(t, T): the
    intensity coefficients have vanished at tau <= t.)  Returns one price
    per path.
    """
    grid = np.asarray(theta_grid, dtype=float)
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    survival = np.atleast_2d(np.asarray(survival, dtype=float))
    linked = isinstance(recovery, IntensityLinkedRecovery)
    k_breve = lambda theta, lam: solver.k_breve(t, r_t, lam, theta)
    k_tilde = lambda theta, lam: solver.k_tilde(t, r_t, lam, theta)
    if linked and recovery.f == "none":          # terminal y e^{-0} = y
        k_tilde = k_breve

    if tau is not None:
        if tau > t + 1e-12:
            raise ValueError("default time must satisfy tau <= t")
        if not linked:
            raise ValueError("a deterministic recovery after default is worth R B(t, T); "
                             "no kernel prices it")
        at_tau = np.array([float(tau)])
        s_tau = _interp_rows(at_tau, grid, survival)[:, 0]
        lam = _interp_rows(at_tau, grid, alpha)[:, 0] / np.maximum(s_tau, 1e-300)
        if np.any(lam <= 0):
            raise KernelUndefinedError("kernel undefined at nonpositive intensity")
        # below the floor the removable singularity at lambda -> 0+ takes
        # its deterministic limit
        live = lam >= LAMBDA_FLOOR
        k2 = recovery.w0 * k_breve(tau, lam[live]) + recovery.w1 * k_tilde(tau, lam[live])
        prices = np.full(lam.size, (recovery.w0 + recovery.w1) * discount)
        prices[live] = k2 / lam[live]
        return prices

    end = grid[-1]
    xs = np.concatenate([[t], grid[(grid > t) & (grid < end)], [end]])
    s_t = np.trapezoid(_interp_rows(xs, grid, alpha), xs, axis=1) + survival[:, -1]
    if np.any(s_t <= 0):
        raise DegenerateSurvivalError("degenerate survival: S_t <= 0")

    # One backward solve per subgrid theta, read for every path.  The
    # expensive, slowly varying factor q(theta) = K(t, r, lambda(theta)) /
    # lambda(theta) (a discount-like ratio, exactly the discount when noise
    # is off) is interpolated across theta; the curve factors alpha, S
    # enter at every node, so curve shape costs nothing in accuracy.
    first = int(np.searchsorted(grid, t - 1e-12))
    sub_idx = np.arange(first, grid.size, theta_stride)
    if sub_idx.size == 0 or sub_idx[-1] != grid.size - 1:
        sub_idx = np.append(sub_idx, grid.size - 1)

    def q_ratio(nodes: np.ndarray, kernel) -> np.ndarray:
        out = np.empty((alpha.shape[0], nodes.size))
        for c, j in enumerate(nodes):
            s = survival[:, j]
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = np.where(s > 0, alpha[:, j] / np.maximum(s, 1e-300), 0.0)
                lam_c = np.clip(lam, solver.grid.y_min, solver.grid.y_max)
                out[:, c] = np.where(lam < LAMBDA_FLOOR, discount,
                                     kernel(float(grid[j]), lam_c) / lam_c)
        return out

    g, a = grid[first:], alpha[:, first:]
    q1 = _interp_rows(g, grid[sub_idx], q_ratio(sub_idx, k_breve))
    # theta in [t, T] and theta >= T, as slices: they keep the rows C-ordered
    window = slice(np.searchsorted(g, t), np.searchsorted(g, T, side="right"))
    beyond = slice(np.searchsorted(g, T), None)
    if linked:
        bracket = sub_idx[:int(np.searchsorted(grid[sub_idx], T)) + 1]
        q2 = _interp_rows(g[window], grid[bracket], q_ratio(bracket, k_tilde))
        k2 = recovery.w0 * q1[:, window] + recovery.w1 * q2
    else:
        k2 = recovery.rate * q1[:, window]

    tail = survival[:, -1] / s_t * q1[:, -1]
    leg1 = np.trapezoid(a[:, beyond] * q1[:, beyond] / s_t[:, None], g[beyond], axis=1) + tail
    leg2 = np.trapezoid(k2 * a[:, window] / s_t[:, None], g[window], axis=1)
    return leg1 + leg2
