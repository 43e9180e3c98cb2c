"""Defaultable zero-coupon bond pricing through the two price kernels.

The bond pays 1 at maturity T on survival and the recovery R_T(tau) at T
after an economic default at tau <= T.  Conditional on the market filtration
the price splits into

    alive:      int_T^inf K1(t, theta) dtheta
                + int_t^T K2(t, theta) alpha_t(theta) / S_t dtheta
    defaulted:  K2(t, tau),

with K1 the discounted-density kernel and K2 the recovery kernel:

* independent rates, deterministic recovery: K1 = alpha_t(theta) B(t,T) / S_t
  and K2 = R B(t,T), so P = B(t,T) (1 - (1-R) int_t^T alpha / int_t^inf alpha),
  which `experiments.run_price_distribution` reads off two survival values
  per path (`price_pre_default_independent`, on a whole curve, is its
  oracle); after default R B(t,T) reads no curve.
* correlated rates, deterministic recovery: K1 = S_t(theta)/S_t *
  Kbreve(t, r_t, lambda_t(theta)) and K2 = R Kbreve / lambda_t(theta).
* intensity-linked recovery R_T = w0 + w1 e^{-f(lambda)}:
  K2 = (w0 Kbreve + w1 Ktilde) / lambda_t(theta), where Ktilde has
  terminal y e^{-y} for f = identity and is Kbreve for f = none.

`price_defaultable_zcb` prices the last two regimes for a batch of curves
(one row per path) from the kernels' affine transform
(`pide.kernel_transform`), so they are linear in the curves:
S Kbreve = e^{A - B r} (alpha + C S) at every node from t on.  lambda =
alpha / S is formed only where Ktilde needs e^{-lambda}, on [t, T], and at
the last node, whose flat-intensity tail S_t(theta_max) carries
Kbreve / lambda.  The theta-integrals are trapezoidal on the curve grid.
After default an intensity-linked recovery reads the kernels at
theta = tau; a deterministic one is R B(t, T).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pide import CoefficientProvider, kernel_transform
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
                          *, r_t: float, coefficients: Callable[..., CoefficientProvider],
                          tau: float | None = None) -> np.ndarray:
    """Defaultable zero-coupon bond prices of a batch of (alpha, S) curves,
    one path per row on `theta_grid`, all at the short rate r_t.

    `coefficients` maps an array of theta to their CoefficientProvider
    (`PricingKernelSolver.provider`, say).  tau = None prices the alive
    bond; a default time tau <= t prices K2(t, tau) of an intensity-linked
    recovery (a deterministic one is worth R B(t, T)).  Below LAMBDA_FLOOR,
    K / lambda takes its deterministic limit `discount`.  Returns one price
    per path.
    """
    grid = np.asarray(theta_grid, dtype=float)
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    survival = np.atleast_2d(np.asarray(survival, dtype=float))
    linked = isinstance(recovery, IntensityLinkedRecovery)
    tilted = linked and recovery.f == "identity"      # f = none: terminal y e^{-0} = y

    def transform(thetas: np.ndarray, u: int):
        """e^{A - B r_t} and C over `thetas`."""
        a_, b_, c_ = kernel_transform(coefficients(thetas), t, T, u)
        return np.exp(a_ - b_ * r_t), c_

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
        live = lam >= LAMBDA_FLOOR
        lam = lam[live]

        def over_lambda(u: int) -> np.ndarray:      # K / lambda at theta = tau
            disc, c = transform(at_tau, u)
            return disc * np.exp(-u * lam) * (lam + c) / lam

        q1 = over_lambda(0)
        prices = np.full(live.size, (recovery.w0 + recovery.w1) * discount)
        prices[live] = recovery.w0 * q1 + recovery.w1 * (over_lambda(1) if tilted else q1)
        return prices

    end = grid[-1]
    xs = np.concatenate([[t], grid[(grid > t) & (grid < end)], [end]])
    s_t = np.trapezoid(_interp_rows(xs, grid, alpha), xs, axis=1) + survival[:, -1]
    if np.any(s_t <= 0):
        raise DegenerateSurvivalError("degenerate survival: S_t <= 0")

    first = int(np.searchsorted(grid, t - 1e-12))
    g, a, s = grid[first:], alpha[:, first:], survival[:, first:]
    disc0, c0 = transform(g, 0)
    k1 = disc0 * (a + c0 * s)                   # S Kbreve at every node
    # theta in [t, T] and theta >= T, as slices: they keep the rows C-ordered
    window = slice(np.searchsorted(g, t), np.searchsorted(g, T, side="right"))
    beyond = slice(np.searchsorted(g, T), None)
    if tilted:
        disc1, c1 = transform(g[window], 1)
        a_w, s_w = a[:, window], s[:, window]
        lam = np.divide(a_w, s_w, out=np.zeros_like(a_w), where=s_w > 0)
        k2 = recovery.w0 * k1[:, window] + recovery.w1 * disc1 * np.exp(-lam) * (a_w + c1 * s_w)
    else:
        k2 = (recovery.w0 + recovery.w1 if linked else recovery.rate) * k1[:, window]

    # the flat-intensity tail S_t(theta_max) carries Kbreve / lambda of the last node
    s_end, a_end = s[:, -1], a[:, -1]
    lam = np.divide(a_end, s_end, out=np.zeros_like(a_end), where=s_end > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_end = np.where(lam < LAMBDA_FLOOR, discount, disc0[-1] * (1.0 + c0[-1] / lam))
    tail = s_end * q_end / s_t
    leg1 = np.trapezoid(k1[:, beyond] / s_t[:, None], g[beyond], axis=1) + tail
    leg2 = np.trapezoid(k2 / s_t[:, None], g[window], axis=1)
    return leg1 + leg2
