"""Monte Carlo experiment harness for the defaultable-bond price study.

Each experiment draws one Brownian path and one compound-Poisson jump
path and prices the pre-default bond

    P(t, T) = B(t, T) (1 - (1 - R) int_t^T alpha / int_t^inf alpha)

at the observation time.  The direct density scheme keeps alpha_t =
-dS_t/dtheta exactly, so the two integrals are S_t(t) - S_t(T) and
S_t(t): each path is priced from two survival values, which
`simulate_survival_values` evaluates in closed form (with the sign of
the density on the window [t, T]) instead of evolving whole curves.  The
curve engine `simulate_density_paths` draws the same noise and stays the
oracle for this shortcut.  Outputs are plot-ready: the price sample per path,
Gaussian kernel density estimates with the 1.06 s k^{-1/5} bandwidth,
and parameter sweeps (mean, standard error, flagged fraction) over the
mean jump size, the initial intensity level, the observation time, and
the maturity.

Paths with S_t(t) <= 0 (a nonpositive denominator) are rejected and
counted.  Paths whose density alpha_t dips negative on [t, T], or whose
S_t(T) leaves [0, S_t(t)] (the exact condition for the price bounds
R B <= P <= B), are kept but flagged, so the martingale structure of the
sample is never repaired silently.  S_t(T) can turn negative while the
density on [t, T] stays positive: under the Section-3 jump sign a step
with 1 + dM_k(T) < 0 flips it.
Noise-free configurations price one path and repeat it (the dynamics
are the identity), so the zero-noise baseline is the closed form and
instant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .measures import ExponentialJumpMeasure, LevyMeasure, ZeroMeasure
from .rng import decorrelate
from .term_structure import CoefficientSpec, simulate_survival_values, theta_max_default

SWEEP_AXES = ("varpi", "lambda", "t", "T")
TAIL_NODES = 2000      # most theta-grid nodes across the truncation tail
MAX_STEP_VOL = 0.5     # per-step log-survival volatility the Euler scheme carries


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameter block of the numerical experiments (defaults reproduce them)."""

    t: float = 0.5
    T: float = 1.0
    r: float = 0.05
    R: float = 0.4
    b: float = 1.0
    zeta: float = 10.0
    varpi: float = 1e-3
    lambda_bar: float = 0.1
    sigma: float = 0.001
    n_paths: int = 10_000
    delta: float = 0.01
    delta_t: float = 0.01
    seed: int = 12345
    jump_sign_convention: str = "section7"
    theta_max: float | None = None

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.delta <= 0 or self.delta_t <= 0:
            raise ValueError("delta and delta_t must be positive")
        if not 0.0 <= self.R <= 1.0:
            raise ValueError("recovery R must lie in [0, 1]")
        if self.varpi < 0 or self.zeta <= 0:
            raise ValueError("zeta must be positive and varpi nonnegative")
        if self.lambda_bar <= 0:
            raise ValueError("lambda_bar must be positive")
        if self.T < self.t or self.t < 0:
            raise ValueError("need 0 <= t <= T")
        if self.jump_sign_convention not in ("section7", "section3"):
            raise ValueError("jump_sign_convention must be 'section7' or 'section3'")
        steps = self.t / self.delta_t
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("t must be an integer number of delta_t steps")

    @property
    def theta_max_effective(self) -> float:
        return self.theta_max if self.theta_max is not None else theta_max_default(self.lambda_bar)

    @property
    def theta_sim_cap(self) -> float:
        """Largest maturity the multiplicative Euler scheme can carry.

        The per-step log-survival volatility is I_sigma(t, theta) sqrt(dt)
        = sigma (theta-t)^2 / 2 sqrt(dt); beyond the horizon where it
        reaches `MAX_STEP_VOL` the updates S (1 + dM) flip sign and
        explode.  Everything past the cap is carried exactly through the
        survival identity int_cap^inf alpha_t = S_t(cap), so capping loses
        nothing: at the default sigma = 0.001, dt = 0.01 the horizon is
        100 + t, which leaves the baseline intensity's grid untouched and
        only trims the very long grids of small lambda_bar.
        """
        if self.sigma == 0.0:
            return self.theta_max_effective
        horizon = self.t + np.sqrt(2.0 * MAX_STEP_VOL
                                   / (abs(self.sigma) * np.sqrt(self.delta_t)))
        return min(self.theta_max_effective, float(horizon))

    @property
    def dense_end(self) -> float:
        """min(theta_max, max(2T, 2)), where the truncation tail starts."""
        theta_max = self.theta_sim_cap
        if theta_max < self.T:
            raise ValueError("volatility too large: stable horizon falls below T")
        return min(theta_max, max(2.0 * self.T, 2.0))

    def theta_grid(self) -> np.ndarray:
        """Two-zone maturity grid: delta-spaced up to `dense_end`,
        proportionally coarser across the truncation tail.

        The tail only feeds the denominator integral and the curve varies
        there on the 1/lambda_bar scale, so capping it at `TAIL_NODES`
        nodes costs ~5e-8 on the baseline price while cutting the curve
        size by ~5x.
        """
        dense_end, theta_max = self.dense_end, self.theta_sim_cap
        dense = np.arange(0.0, dense_end + 1e-12, self.delta)
        if dense_end >= theta_max - 1e-12:
            return dense
        coarse_h = max(self.delta,
                       round(theta_max / TAIL_NODES / self.delta) * self.delta)
        coarse = np.arange(dense[-1] + coarse_h, theta_max + 1e-12, coarse_h)
        return np.concatenate([dense, coarse])

    def measure(self) -> LevyMeasure:
        if self.varpi == 0.0:
            return ZeroMeasure()
        return ExponentialJumpMeasure(zeta=self.zeta, varpi=self.varpi)

    def spec(self) -> CoefficientSpec:
        return CoefficientSpec.section7(sigma=self.sigma, b=self.b,
                                        lambda_bar=self.lambda_bar)

    @property
    def noise_free(self) -> bool:
        return self.sigma == 0.0 and (self.b == 0.0 or self.varpi == 0.0) or self.t == 0.0


@dataclass
class PriceSample:
    prices: np.ndarray
    path_ids: np.ndarray
    flagged: np.ndarray               # alpha_t < 0 on [t, T] or S_t(T) outside [0, S_t(t)]
    n_rejected: int
    config: ExperimentConfig
    diagnostics: dict = field(default_factory=dict)

    @property
    def flagged_fraction(self) -> float:
        total = self.prices.size + self.n_rejected
        return float(self.flagged.sum()) / total if total else 0.0


def pricing_window(config: ExperimentConfig) -> np.ndarray:
    """The delta-spaced theta nodes of [t, T]: the only maturities pricing
    reads, and the nodes `theta_grid` puts there."""
    if config.theta_sim_cap < config.T:
        raise ValueError("volatility too large: stable horizon falls below T")
    i_t, i_T = round(config.t / config.delta), round(config.T / config.delta)
    if abs(i_t * config.delta - config.t) > 1e-9 or abs(i_T * config.delta - config.T) > 1e-9:
        raise ValueError("t and T must lie on the theta grid")
    return config.delta * np.arange(i_t, i_T + 1)


def run_price_distribution(config: ExperimentConfig,
                           discount: float | None = None) -> PriceSample:
    """One price per experiment path, from S_t(t) and S_t(T).

    int_t^T alpha = S_t(t) - S_t(T) and int_t^inf alpha = S_t(t), so the
    price needs the survival curve at the window ends only.  `discount`
    is the default-free bond B(t, T), e^{-r (T - t)} at the constant rate
    `config.r` unless given.  The flag reads the density on the window
    nodes and S_t(T): 0 <= S_t(T) <= S_t(t) is what puts the price in
    [R B, B].  The engine evaluates S at the window's two end nodes and
    returns the density's sign on the whole window as one flag per path:
    a chunk of paths whose noise bound keeps alpha_t > 0 there evolves
    only the two ends, any other chunk the whole window, and both give
    the same bits (`simulate_survival_values`).  diagnostics holds the
    flagged fraction over all attempted paths and the number of paths
    whose window was evolved.  Without noise the dynamics are the
    identity, so one path prices them all.
    """
    n_sim = 1 if config.noise_free else config.n_paths
    window = pricing_window(config)
    res = simulate_survival_values(config.spec(), config.measure(), window[[0, -1]],
                                   t_end=config.t, dt=config.delta_t, n_paths=n_sim,
                                   seed=config.seed,
                                   jump_sign_convention=config.jump_sign_convention,
                                   sign_window=window)
    s_t, s_T = res["survival"].T
    valid = s_t > 0
    prices = np.full(n_sim, np.nan)
    disc = np.exp(-config.r * (config.T - config.t)) if discount is None else discount
    prices[valid] = disc * (1.0 - (1.0 - config.R) * (s_t[valid] - s_T[valid]) / s_t[valid])
    in_bounds = (s_T >= 0) & (s_T <= s_t)
    neg = res["alpha_negative"] | ~in_bounds
    if config.noise_free:
        prices, valid, neg = (np.repeat(a, config.n_paths) for a in (prices, valid, neg))
    ids = np.arange(config.n_paths)
    return PriceSample(prices=prices[valid], path_ids=ids[valid],
                       flagged=neg[valid], n_rejected=int((~valid).sum()),
                       config=config,
                       diagnostics={"negative_path_fraction": float(neg.mean()),
                                    "window_paths": res["window_paths"]})


# ---------------------------------------------------------------------------
# kernel density estimate
# ---------------------------------------------------------------------------

def silverman_bandwidth(samples: np.ndarray) -> float:
    """h = 1.06 s_k k^{-1/5} with s_k the sample standard deviation.

    A sample whose values are all equal is degenerate: its computed
    standard deviation is 0 or rounding noise (~1e-16), depending on the
    value and the sample size, so the test is min == max, not s == 0.
    """
    samples = np.asarray(samples, dtype=float)
    k = samples.size
    if k < 2:
        raise ValueError("degenerate sample: need at least 2 observations")
    if samples.min() == samples.max():
        raise ValueError("degenerate sample: all values are equal")
    return float(1.06 * samples.std(ddof=1) * k ** (-0.2))


KDE_BLOCK_ROWS = 32


def kde(samples: np.ndarray, x_grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density estimate on x_grid.

    Scratch memory is KDE_BLOCK_ROWS x samples floats, whatever the grid size.
    """
    samples = np.asarray(samples, dtype=float)
    h = silverman_bandwidth(samples)
    x = np.asarray(x_grid, dtype=float)
    sums = np.empty(x.size)
    buf = np.empty((min(KDE_BLOCK_ROWS, x.size), samples.size))
    # grid rows in blocks through one buffer: each row's operations and
    # pairwise sum are the one-shot (grid x samples) formula's, bit for bit
    for start in range(0, x.size, KDE_BLOCK_ROWS):
        x_blk = x[start:start + KDE_BLOCK_ROWS]
        z = buf[:x_blk.size]
        np.subtract.outer(x_blk, samples, out=z)
        z /= h
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        z.sum(axis=1, out=sums[start:start + x_blk.size])
    return sums / (samples.size * h * np.sqrt(2.0 * np.pi))


def kde_grid(samples: np.ndarray, n_points: int = 401, pad_bandwidths: float = 10.0) -> np.ndarray:
    h = silverman_bandwidth(samples)
    lo = float(np.min(samples)) - pad_bandwidths * h
    hi = float(np.max(samples)) + pad_bandwidths * h
    return np.linspace(lo, hi, n_points)


def sample_skewness(samples: np.ndarray) -> float:
    """Moment skewness; 0 for a sample whose values are all equal."""
    samples = np.asarray(samples, dtype=float)
    if samples.min() == samples.max():      # the mean's rounding would read as +-1
        return 0.0
    centered = samples - samples.mean()
    m2 = np.mean(centered ** 2)
    return float(np.mean(centered ** 3) / m2 ** 1.5)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def _cell_config(config: ExperimentConfig, axis: str, value: float, index: int) -> ExperimentConfig:
    seed = decorrelate(config.seed, index)
    if axis == "varpi":
        return replace(config, varpi=value, seed=seed)
    if axis == "lambda":
        return replace(config, lambda_bar=value, theta_max=None, seed=seed)
    if axis == "t":
        return replace(config, t=value, seed=seed)
    if axis == "T":
        return replace(config, T=value, seed=seed)
    raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")


def sweep(config: ExperimentConfig, axis: str, values) -> list[dict]:
    """Mean price (with standard error) per cell along one parameter axis.

    Cells share the base seed but use decorrelated streams, so cell
    estimates are independent.
    """
    values = list(values)
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("sweep values must be sorted ascending")
    rows = []
    for i, value in enumerate(values):
        sample = run_price_distribution(_cell_config(config, axis, float(value), i))
        n = sample.prices.size
        se = float(sample.prices.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        rows.append({"value": float(value), "mean": float(sample.prices.mean()),
                     "se": se, "flagged_fraction": sample.flagged_fraction})
    return rows


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def write_prices_csv(path: str, sample: PriceSample) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "price"])
        for pid, price in zip(sample.path_ids, sample.prices):
            w.writerow([int(pid), repr(float(price))])


def write_kde_csv(path: str, x: np.ndarray, f: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "f"])
        for xi, fi in zip(x, f):
            w.writerow([repr(float(xi)), repr(float(fi))])


def write_sweep_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value", "mean", "se", "flagged_fraction"])
        for row in rows:
            w.writerow([repr(row["value"]), repr(row["mean"]), repr(row["se"]),
                        repr(row["flagged_fraction"])])
