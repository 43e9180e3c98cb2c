"""Defaultable zero-coupon bond pricing through the two price kernels.

The bond pays 1 at maturity T on survival and the recovery R_T(tau) at T
after an economic default at tau <= T.  Conditional on the market filtration
the price splits into

    alive:      int_T^inf K1(t, theta) dtheta
                + int_t^T K2(t, theta) alpha_t(theta) / S_t dtheta
    defaulted:  K2(t, tau),

with K1 the discounted-density kernel and K2 the recovery kernel.  Three
regimes are supported:

* independent rates, deterministic recovery: K1 = alpha_t(theta) B(t,T) / S_t
  and K2 = R(theta) B(t,T), collapsing to the closed pre-default form
  P = B(t,T) (1 - (1-R) int_t^T alpha / int_t^inf alpha);
* correlated rates, deterministic recovery: K1 = S_t(theta)/S_t *
  Kbreve(t, r_t, lambda_t(theta)) and K2 = R(theta) Kbreve / lambda_t(theta);
* correlated rates, intensity-linked recovery R_T = w0 + w1 e^{-f(lambda)}:
  K2 = (w0 Kbreve + w1 Ktilde) / lambda_t(theta).

theta-integrals use the trapezoid rule on the curve grid with the
flat-intensity tail correction S_t(theta_max) beyond the truncation point
(the correction magnitude is exposed); correlated-regime kernels are
evaluated on a theta subgrid and interpolated, since each theta requires
its own backward PIDE solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pide import PricingKernelSolver
from .term_structure import DensityCurveState


class DegenerateSurvivalError(ValueError):
    pass


class KernelUndefinedError(ValueError):
    pass


LAMBDA_FLOOR = 1e-10


# ---------------------------------------------------------------------------
# recovery models and default status
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterministicRecovery:
    """Recovery as a deterministic fraction of face value, possibly theta-dependent."""

    rate: float | Callable[[np.ndarray], np.ndarray] = 0.4

    def __post_init__(self):
        if not callable(self.rate) and not 0.0 <= self.rate <= 1.0:
            raise ValueError("recovery rate must lie in [0, 1]")

    def __call__(self, theta) -> np.ndarray:
        if callable(self.rate):
            vals = np.asarray(self.rate(np.asarray(theta, dtype=float)), dtype=float)
            if np.any((vals < 0) | (vals > 1)):
                raise ValueError("recovery rate must lie in [0, 1] on the grid")
            return vals
        return np.full_like(np.asarray(theta, dtype=float), self.rate)


@dataclass(frozen=True)
class IntensityLinkedRecovery:
    """R_T(theta) = w0 + w1 e^{-f(lambda_T(theta))} with w0 + w1 <= 1."""

    w0: float
    w1: float
    f: Callable[[np.ndarray], np.ndarray] = lambda y: y

    def __post_init__(self):
        if self.w0 < 0 or self.w1 < 0:
            raise ValueError("w0 and w1 must be nonnegative")
        if self.w0 + self.w1 > 1.0 + 1e-12:
            raise ValueError("w0+w1 <= 1 violated")


RecoveryModel = DeterministicRecovery | IntensityLinkedRecovery


@dataclass(frozen=True)
class Alive:
    t: float


@dataclass(frozen=True)
class Defaulted:
    tau: float

    def check_at(self, t: float):
        if self.tau > t + 1e-12:
            raise ValueError("default time must satisfy tau <= t")


DefaultStatus = Alive | Defaulted


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


# ---------------------------------------------------------------------------
# price kernels
# ---------------------------------------------------------------------------

def azema_from_state(state: DensityCurveState) -> float:
    """S_t = int_t^inf alpha_t(theta) dtheta, the survival process."""
    value, _ = density_integral(state, state.t, None)
    return value


def kernel_K1(t: float, theta: float, state: DensityCurveState,
              discount: float, regime: str = "independent",
              r_t: float | None = None,
              solver: PricingKernelSolver | None = None) -> float:
    """First price kernel (discounted-density term).

    independent: K1 = alpha_t(theta) B(t, T) / S_t;
    correlated:  K1 = S_t(theta) Kbreve(t, r_t, lambda_t(theta)) / S_t.
    """
    s_t = azema_from_state(state)
    if s_t <= 0:
        raise DegenerateSurvivalError("degenerate survival: S_t <= 0")
    grid = np.asarray(state.theta_grid, dtype=float)
    if regime == "independent":
        alpha = float(np.interp(theta, grid, state.alpha))
        return alpha * discount / s_t
    if regime == "correlated":
        if solver is None or r_t is None:
            raise ValueError("correlated regime needs a kernel solver and r_t")
        s_theta = float(np.interp(theta, grid, state.survival))
        lam = float(np.interp(theta, grid, state.alpha)) / max(s_theta, 1e-300)
        return s_theta * solver.k_breve(t, r_t, lam, theta) / s_t
    raise ValueError(f"unknown regime {regime!r}")


def kernel_K2(t: float, theta: float, state: DensityCurveState,
              recovery: RecoveryModel, discount: float,
              regime: str = "independent", r_t: float | None = None,
              solver: PricingKernelSolver | None = None) -> float:
    """Second price kernel (after-default recovery term).

    Deterministic recovery, independent rates: R(theta) B(t, T).
    Correlated regimes divide the PIDE kernels by lambda_t(theta); the
    removable singularity at lambda -> 0+ is floored and the deterministic
    limit R * discount is used below the floor.
    """
    grid = np.asarray(state.theta_grid, dtype=float)
    if regime == "independent" and isinstance(recovery, DeterministicRecovery):
        return float(recovery(theta)) * discount
    if solver is None or r_t is None:
        raise ValueError("this regime needs a kernel solver and r_t")
    s_theta = float(np.interp(theta, grid, state.survival))
    alpha = float(np.interp(theta, grid, state.alpha))
    lam = alpha / max(s_theta, 1e-300)
    if lam <= 0:
        raise KernelUndefinedError("kernel undefined at nonpositive intensity")
    if isinstance(recovery, DeterministicRecovery):
        r_rate = float(recovery(theta))
        if lam < LAMBDA_FLOOR:
            return r_rate * discount
        return r_rate * solver.k_breve(t, r_t, lam, theta) / lam
    if lam < LAMBDA_FLOOR:
        return (recovery.w0 + recovery.w1) * discount
    k_breve = solver.k_breve(t, r_t, lam, theta)
    k_tilde = solver.k_tilde(t, r_t, lam, theta, recovery.f)
    return (recovery.w0 * k_breve + recovery.w1 * k_tilde) / lam


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


def price_defaultable_zcb(t: float, T: float, status, state: DensityCurveState,
                          recovery: RecoveryModel, discount: float,
                          regime: str = "independent", r_t: float | None = None,
                          solver: PricingKernelSolver | None = None,
                          theta_stride: int = 50) -> dict:
    """Defaultable zero-coupon bond price.

    Alive: int_T^inf K1 dtheta + int_t^T K2 alpha/S_t dtheta (trapezoid on
    the theta grid; beyond theta_max the flat-intensity tail adds
    S_t(theta_max)/S_t * discount-proxy to the K1 leg).  Defaulted at tau:
    K2(t, tau).  Correlated-regime kernels are evaluated every
    `theta_stride`-th node and interpolated (one PIDE solve per node).
    Returns {"price", "tail_correction"}.
    """
    grid = np.asarray(state.theta_grid, dtype=float)
    if isinstance(status, Defaulted):
        status.check_at(t)
        value = kernel_K2(t, float(status.tau), state, recovery, discount,
                          regime, r_t, solver)
        return {"price": value, "tail_correction": 0.0}

    s_t = azema_from_state(state)
    if s_t <= 0:
        raise DegenerateSurvivalError("degenerate survival: S_t <= 0")
    alpha = np.asarray(state.alpha, dtype=float)

    if regime == "independent" and isinstance(recovery, DeterministicRecovery):
        surv_leg_grid = grid[grid >= T]
        k1_vals = alpha[grid >= T] * discount / s_t
        tail = float(state.survival[-1]) * discount / s_t
        leg1 = float(np.trapezoid(k1_vals, surv_leg_grid)) + tail
        mask = (grid >= t) & (grid <= T)
        k2_vals = recovery(grid[mask]) * discount
        leg2 = float(np.trapezoid(k2_vals * alpha[mask] / s_t, grid[mask]))
        return {"price": leg1 + leg2, "tail_correction": tail}

    if solver is None or r_t is None:
        raise ValueError("correlated regime needs a kernel solver and r_t")
    # One backward solve per subgrid theta.  The expensive, slowly varying
    # factor q(theta) = Kbreve_theta(t, r, lambda(theta)) / lambda(theta)
    # (a discount-like ratio, exactly the discount when noise is off) is
    # interpolated across theta; the curve factors alpha, S enter at every
    # node, so curve shape costs nothing in accuracy.
    surv = np.asarray(state.survival, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_curve = np.where(surv > 0, alpha / np.maximum(surv, 1e-300), 0.0)
    first = int(np.searchsorted(grid, t - 1e-12))
    sub_idx = np.arange(first, grid.size, theta_stride)
    if sub_idx.size == 0 or sub_idx[-1] != grid.size - 1:
        sub_idx = np.append(sub_idx, grid.size - 1)

    def q_ratio(j: int, terminal: str) -> float:
        lam = float(lam_curve[j])
        if lam < LAMBDA_FLOOR:
            return discount
        lam_c = min(max(lam, solver.grid.y_min), solver.grid.y_max)
        theta_j = float(grid[j])
        if terminal == "y":
            return solver.k_breve(t, r_t, lam_c, theta_j) / lam_c
        return solver.k_tilde(t, r_t, lam_c, theta_j, recovery.f) / lam_c

    q1_sub = np.array([q_ratio(j, "y") for j in sub_idx])
    q1 = np.interp(grid, grid[sub_idx], q1_sub)
    if isinstance(recovery, IntensityLinkedRecovery):
        q2_sub = np.array([q_ratio(j, "y_exp_f") for j in sub_idx])
        q2 = np.interp(grid, grid[sub_idx], q2_sub)
        k2_curve = recovery.w0 * q1 + recovery.w1 * q2
    else:
        k2_curve = recovery(grid) * q1

    leg1_mask = grid >= T
    tail = float(surv[-1]) / s_t * float(q1[-1])
    leg1 = float(np.trapezoid(alpha[leg1_mask] * q1[leg1_mask] / s_t,
                              grid[leg1_mask])) + tail
    mask = (grid >= t) & (grid <= T)
    leg2 = float(np.trapezoid(k2_curve[mask] * alpha[mask] / s_t, grid[mask]))
    return {"price": leg1 + leg2, "tail_correction": tail}
