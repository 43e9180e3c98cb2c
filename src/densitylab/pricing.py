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

`price_defaultable_zcb` prices the last two regimes alive from (alpha, S)
at fixed theta nodes (`theta_quadrature`) and the kernels' affine transform
(`pide.kernel_transform`), linear in (alpha, S) node by node:
S Kbreve = e^{A - B r} (alpha + C S).  As alpha = -dS/dtheta, S_t is
S_t(t).  lambda = alpha / S is formed only where Ktilde needs e^{-lambda},
on [t, T], and at theta_max, whose flat-intensity tail S_t(theta_max)
carries Kbreve / lambda.  `price_after_default` reads the kernels of an
intensity-linked recovery at theta = tau; a deterministic one is R B(t, T).
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


# Gauss-Legendre nodes on [t, T], [T, d] and [d, theta_max]: doubling them
# moves no price by more than rounding (tests/test_config_cli.py), where 32
# on the tail left 1.1e-8 at ten times the default jump size.
QUADRATURE_NODES = (16, 16, 48)


def theta_quadrature(t: float, T: float, dense_end: float,
                     theta_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(thetas, weights): t, then `QUADRATURE_NODES` Gauss-Legendre nodes on
    [t, T], [T, dense_end] and [dense_end, theta_max], then theta_max, with
    the weights of the nodes between t and theta_max.  An interval that
    collapses drops out; dense_end is `ExperimentConfig.dense_end`, where
    the slowly varying tail starts."""
    nodes, weights = [np.array([t])], []
    for a, b, n in zip((t, T, dense_end), (T, dense_end, theta_max), QUADRATURE_NODES):
        x, w = np.polynomial.legendre.leggauss(n) if b > a else (np.empty(0), np.empty(0))
        nodes.append(a + (b - a) * (x + 1.0) / 2.0)
        weights.append(w * (b - a) / 2.0)
    return np.concatenate([*nodes, [theta_max]]), np.concatenate(weights)


def _transform(coefficients: Callable[..., CoefficientProvider], thetas: np.ndarray,
               t: float, T: float, u: int, r_t: float) -> tuple[np.ndarray, np.ndarray]:
    """e^{A - B r_t} and C of the tilt-u kernel over `thetas`."""
    a, b, c = kernel_transform(coefficients(thetas), t, T, u)
    return np.exp(a - b * r_t), c


def price_defaultable_zcb(t: float, T: float, thetas: np.ndarray, weights: np.ndarray,
                          alpha: np.ndarray, survival: np.ndarray, recovery: RecoveryModel,
                          discount: float, *, r_t: float,
                          coefficients: Callable[..., CoefficientProvider]) -> np.ndarray:
    """Alive bond prices from (alpha, S) at the nodes `thetas` of
    `theta_quadrature`, one path per row, all at the short rate r_t;
    `coefficients` maps an array of theta to their CoefficientProvider
    (`PricingKernelSolver.provider`, say).  S_t = S_t(t) is the first
    column.  Below LAMBDA_FLOOR, Kbreve / lambda at theta_max takes its
    deterministic limit `discount`."""
    s_t = survival[:, 0]
    if np.any(s_t <= 0):
        raise DegenerateSurvivalError("degenerate survival: S_t <= 0")
    n = int(np.searchsorted(thetas[1:-1], T))             # the nodes on [t, T]
    a, s = alpha[:, 1:], survival[:, 1:]
    linked = isinstance(recovery, IntensityLinkedRecovery)
    disc0, c0 = _transform(coefficients, thetas[1:], t, T, 0, r_t)
    k1 = disc0 * (a + c0 * s)                   # S Kbreve at every node after t
    if linked and recovery.f == "identity":     # f = none: terminal y e^{-0} = y
        disc1, c1 = _transform(coefficients, thetas[1:n + 1], t, T, 1, r_t)
        a_w, s_w = a[:, :n], s[:, :n]
        lam = np.divide(a_w, s_w, out=np.zeros_like(a_w), where=s_w > 0)
        k2 = recovery.w0 * k1[:, :n] + recovery.w1 * disc1 * np.exp(-lam) * (a_w + c1 * s_w)
    else:
        k2 = (recovery.w0 + recovery.w1 if linked else recovery.rate) * k1[:, :n]

    # the flat-intensity tail S_t(theta_max) carries Kbreve / lambda of the last node
    s_end, a_end = s[:, -1], a[:, -1]
    lam = np.divide(a_end, s_end, out=np.zeros_like(a_end), where=s_end > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_end = np.where(lam < LAMBDA_FLOOR, discount, disc0[-1] * (1.0 + c0[-1] / lam))
    legs = (k2 * weights[:n]).sum(axis=1) + (k1[:, n:-1] * weights[n:]).sum(axis=1)
    return (legs + s_end * q_end) / s_t


def price_after_default(t: float, T: float, tau: float, alpha: np.ndarray,
                        survival: np.ndarray, recovery: RecoveryModel, discount: float,
                        *, r_t: float,
                        coefficients: Callable[..., CoefficientProvider]) -> np.ndarray:
    """K2(t, tau) of an intensity-linked recovery after a default at tau <= t,
    from (alpha, S) at tau, the first column; as `price_defaultable_zcb`
    otherwise.  A deterministic recovery is worth R B(t, T)."""
    if tau > t + 1e-12:
        raise ValueError("default time must satisfy tau <= t")
    if not isinstance(recovery, IntensityLinkedRecovery):
        raise ValueError("a deterministic recovery after default is worth R B(t, T); "
                         "no kernel prices it")
    lam = alpha[:, 0] / np.maximum(survival[:, 0], 1e-300)
    if np.any(lam <= 0):
        raise KernelUndefinedError("kernel undefined at nonpositive intensity")
    live = lam >= LAMBDA_FLOOR
    lam = lam[live]

    def over_lambda(u: int) -> np.ndarray:      # K / lambda at theta = tau
        disc, c = _transform(coefficients, np.array([float(tau)]), t, T, u, r_t)
        return disc * np.exp(-u * lam) * (lam + c) / lam

    q1 = over_lambda(0)
    prices = np.full(live.size, (recovery.w0 + recovery.w1) * discount)
    prices[live] = recovery.w0 * q1 + recovery.w1 * (over_lambda(1) if recovery.f == "identity"
                                                     else q1)
    return prices
