"""Extended Vasicek short rate driven by the same random field.

    dr_t = kappa (delta - r_t) dt + int rho_t(xi) Y^G(dt, dxi)
           + int phi_t(xi) Y^P(dt, dxi)

with the explicit mean-reverting solution

    r_t = r_0 e^{-kappa t} + delta (1 - e^{-kappa t})
          + int_0^t e^{-kappa(t-u)} [rho dY^G + phi dY^P].

`ou_gaussian_loading` splits the exact Ornstein-Uhlenbeck shock of one
step into a part collinear with the field's dW and an independent
residual, so a rate step shares the intensity's Gaussian noise with no
Euler error in the mean reversion or the variance.

The default-free zero-coupon bond has two closed-form candidates that
disagree in the variance term: the `standard` affine form integrates
a11(u) ((1 - e^{-kappa(T-u)}) / kappa)^2 while the `paper_exact` variant
divides by kappa^2 inside the square.  They coincide at kappa = 1;
`adjudicate_vasicek_formula` settles the choice empirically against an
exact-in-distribution Monte Carlo oracle and the selection is recorded,
not assumed.  Every price reads `standard`; `paper_exact` stays only as
the rejected candidate of that evidence.

The oracle steps (r, int r) through their exact bivariate normal per
step and averages e^{-I} + e^{-m}(I - m) over paths, I = int_t^T r ds,
with the known first moment m = E[I] as a control variate (Glasserman
2004, Monte Carlo Methods in Financial Engineering, section 4.1).  m is
the drift part both candidates share; the variance of I, the term they
disagree on, never enters the control, so the oracle stays independent
of the formula under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox


@dataclass(frozen=True)
class VasicekSpec:
    """Mean reversion kappa, long-run level delta, and field loadings.

    rho0 is the constant Gaussian loading (d = 0 Dirac field); phi0 scales
    the jump loading phi_t(xi) = phi0 * xi on shared Poisson marks.
    """

    kappa: float
    delta: float
    r0: float
    rho0: float = 0.0
    phi0: float = 0.0

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    def a11(self) -> float:
        """Half the Gaussian quadratic form of the rate loading."""
        return 0.5 * self.rho0 ** 2


def constant_rate_discount(r: float, t: float, T: float) -> float:
    """B(t, T) = e^{-r (T - t)} for a constant short rate."""
    if T < t:
        raise ValueError("T must be >= t")
    return float(np.exp(-r * (T - t)))


def ou_gaussian_loading(kappa: float, dt: float) -> tuple[float, float]:
    """Split the OU shock into a part collinear with dW and a residual.

    G = int_t^{t+dt} e^{-kappa(t+dt-u)} dW_u has variance
    (1 - e^{-2 kappa dt}) / (2 kappa) and covariance with dW of
    (1 - e^{-kappa dt}) / kappa; returns (a, b) with G = a dW + b Z,
    Z independent standard normal, exact in distribution.
    """
    var = (1.0 - np.exp(-2.0 * kappa * dt)) / (2.0 * kappa)
    cov = (1.0 - np.exp(-kappa * dt)) / kappa
    a = cov / dt
    b = np.sqrt(max(var - a * a * dt, 0.0))
    return float(a), float(b)


def zcb_closed_form(spec: VasicekSpec, t: float, T: float, r: float,
                    formula: str = "standard") -> float:
    """Diffusion-only Vasicek zero-coupon bond price.

    B(t,T) = exp( (1-e^{-kappa tau})/kappa (delta - r) - delta tau
                  + int_t^T a11 g(u)^2 du ),
    g(u) = (1 - e^{-kappa(T-u)}) / kappa   (`standard`)
         = (1 - e^{-kappa(T-u)}) / kappa^2 (`paper_exact`).
    """
    if spec.phi0 != 0.0:
        raise ValueError("closed form requires a jump-free rate (phi0 = 0)")
    if T < t:
        raise ValueError("T must be >= t")
    if formula not in ("standard", "paper_exact"):
        raise ValueError("formula must be 'standard' or 'paper_exact'")
    tau = T - t
    kappa = spec.kappa
    c_fac = (1.0 - np.exp(-kappa * tau)) / kappa
    # int_t^T (1 - e^{-kappa(T-u)})^2 du, closed form
    int_sq = tau - 2.0 * (1.0 - np.exp(-kappa * tau)) / kappa \
        + (1.0 - np.exp(-2.0 * kappa * tau)) / (2.0 * kappa)
    denom = kappa ** 2 if formula == "standard" else kappa ** 4
    var_term = spec.a11() * int_sq / denom
    return float(np.exp(c_fac * (spec.delta - r) - spec.delta * tau + var_term))


def zcb_mc_oracle(spec: VasicekSpec, t: float, T: float, r: float,
                  n_paths: int, seed: int, n_steps: int = 64) -> tuple[float, float]:
    """Monte Carlo estimate of E[e^{-int_t^T r_s ds}], exact in distribution.

    Samples (r_{t+dt}, int r dt) jointly from their exact bivariate normal
    per step, so the only error is statistical; returns (mean, se).

    Each path contributes e^{-I} + e^{-m}(I - m), I = int_t^T r ds, with
    m = delta tau + (r - delta)(1 - e^{-kappa tau})/kappa = E[I] exactly.
    The control term has mean zero and a fixed coefficient (the slope of
    e^{-I} at I = m), so the estimator is unbiased with no fitted beta; it
    cancels the first-order spread of e^{-I}, leaving the second-order
    part that carries Var(I).  Only the first moment is used: Var(I) is
    what the bond variants disagree on and must come from the draws.
    """
    if spec.phi0 != 0.0:
        raise ValueError("oracle covers the diffusion-only rate")
    kappa, delta = spec.kappa, spec.delta
    rho = spec.rho0
    dt = (T - t) / n_steps
    e = np.exp(-kappa * dt)
    # X = r_{u+dt} - mean, Y = int_u^{u+dt} (r_s - mean path) ds for r_u = 0:
    var_x = rho ** 2 * (1.0 - e ** 2) / (2.0 * kappa)
    var_y = rho ** 2 / kappa ** 2 * (dt - 2.0 * (1.0 - e) / kappa
                                     + (1.0 - e ** 2) / (2.0 * kappa))
    cov_xy = rho ** 2 / (2.0 * kappa ** 2) * (1.0 - e) ** 2
    chol_a = np.sqrt(var_x)
    chol_b = cov_xy / chol_a if var_x > 0 else 0.0
    chol_c = np.sqrt(max(var_y - chol_b ** 2, 0.0))

    rng = Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))
    rv = np.full(n_paths, float(r))
    integral = np.zeros(n_paths)
    z1, z2, inc, tmp = (np.empty(n_paths) for _ in range(4))
    # in place, rounding as the step
    #   integral += (delta dt + (rv - delta)(1 - e)/kappa) + chol_b z1 + chol_c z2
    #   rv = (rv e + delta (1 - e)) + chol_a z1
    for _ in range(n_steps):
        rng.standard_normal(out=z1)
        rng.standard_normal(out=z2)
        np.subtract(rv, delta, out=inc)
        inc *= 1.0 - e
        inc /= kappa
        inc += delta * dt
        inc += np.multiply(z1, chol_b, out=tmp)
        inc += np.multiply(z2, chol_c, out=tmp)
        integral += inc
        rv *= e
        rv += delta * (1.0 - e)
        rv += np.multiply(z1, chol_a, out=tmp)
    # control: the first moment m = E[int r], shared by both bond variants
    tau = T - t
    m = delta * tau + (r - delta) * (1.0 - np.exp(-kappa * tau)) / kappa
    est = np.exp(-integral)
    integral -= m
    integral *= np.exp(-m)
    est += integral
    return float(est.mean()), float(est.std(ddof=1) / np.sqrt(n_paths))


def adjudicate_vasicek_formula(kappa: float = 2.0, delta: float = 0.05,
                               r0: float = 0.03, rho0: float = 0.1,
                               T: float = 1.0, n_paths: int = 20_000,
                               seed: int = 20_240_601) -> dict:
    """Select the bond-formula variant inside the 3-SE band of the MC oracle.

    Run at kappa != 1 where the variants differ; returns the verdict with
    the evidence so the outcome is logged, not assumed.
    """
    spec = VasicekSpec(kappa=kappa, delta=delta, r0=r0, rho0=rho0)
    mc, se = zcb_mc_oracle(spec, 0.0, T, r0, n_paths, seed)
    report = {"mc": mc, "se": se, "candidates": {}}
    for name in ("standard", "paper_exact"):
        val = zcb_closed_form(spec, 0.0, T, r0, formula=name)
        report["candidates"][name] = {"value": val, "z": (val - mc) / se,
                                      "within_3se": bool(abs(val - mc) <= 3 * se)}
    inside = [n for n, c in report["candidates"].items() if c["within_3se"]]
    report["selected"] = inside[0] if len(inside) == 1 else "inconclusive"
    return report

