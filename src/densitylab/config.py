"""Configuration parsing: flat key-value text with [section] headers.

Every key is validated against a per-section schema; unknown keys or
sections are rejected by name, and so are nan and inf, which no real key
means.  `reject_unread` is the one input contract: before any output it
rejects, by name, a non-default value that has no effect on the command,
whether its key is outside the command's `READS` row or the configured
values leave it inert (`_inert`).  `serialize` writes a file that parses
back to an identical configuration, and the LAB_SEED environment variable
overrides the configured seed at load time.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Any

from .experiments import ExperimentConfig
from .kernels import DiracKernel
from .measures import ExponentialJumpMeasure, PointMassMeasure, ZeroMeasure
from .rates import VasicekSpec
from .term_structure import CoefficientSpec


class ConfigError(ValueError):
    pass


def real(s) -> float:
    """float(s), which must be finite: float admits nan and inf."""
    x = float(s)
    if not math.isfinite(x):
        raise ValueError("finite real required")
    return x


def _positive(x: float) -> float:
    if x <= 0:
        raise ValueError("positive real required")
    return x


def _nonnegative(x: float) -> float:
    if x < 0:
        raise ValueError("nonnegative real required")
    return x


def _unit(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError("value in [0, 1] required")
    return x


def _boolean(s: str) -> bool:
    low = str(s).strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError("boolean required (true/false)")


def _choice(*options: str):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"one of {options} required")
        return s
    return parse


def _pair(s) -> tuple[float, float]:
    if isinstance(s, tuple):
        return s
    parts = [p.strip() for p in str(s).split(",")]
    if len(parts) != 2:
        raise ValueError("comma-separated pair required")
    lo, hi = real(parts[0]), real(parts[1])
    if hi <= lo:
        raise ValueError("range upper bound must exceed lower bound")
    return lo, hi


@dataclass(frozen=True)
class KernelConfig:
    c0: float = 1.0


@dataclass(frozen=True)
class MeasureConfig:
    type: str = "exponential"
    zeta: float = 10.0
    varpi: float = 1e-3
    z: float = 1.0
    quadrature_nodes: int = 32


@dataclass(frozen=True)
class ModelConfig:
    sigma: float = 0.001
    b: float = 1.0
    lambda_bar: float = 0.1
    delta_theta: float = 0.01
    delta_t: float = 0.01
    theta_max_rule: str = "10_over_lambda"
    clamp_lambda_at_zero: bool = False
    jump_sign_convention: str = "section7"


@dataclass(frozen=True)
class RatesConfig:
    mode: str = "constant"
    r: float = 0.05
    kappa: float = 1.0
    delta: float = 0.05
    r0: float = 0.05
    rho0: float = 0.01
    phi0: float = 0.0
    vasicek_formula: str = "standard"
    rates_correlated: bool = False


@dataclass(frozen=True)
class PideConfig:
    nx: int = 128
    ny: int = 128
    x_range: tuple[float, float] = (-0.05, 0.15)
    y_range: tuple[float, float] = (0.0, 0.4)
    n_steps: int = 200


@dataclass(frozen=True)
class PricingConfig:
    regime: str = "independent"
    recovery_type: str = "deterministic"
    R: float = 0.4
    w0: float = 0.3
    w1: float = 0.3
    f: str = "identity"


@dataclass(frozen=True)
class ExperimentSection:
    t: float = 0.5
    T: float = 1.0
    n_paths: int = 10_000
    seed: int = 12345


@dataclass(frozen=True)
class Config:
    kernel: KernelConfig = field(default_factory=KernelConfig)
    levy_measure: MeasureConfig = field(default_factory=MeasureConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    rates: RatesConfig = field(default_factory=RatesConfig)
    pide: PideConfig = field(default_factory=PideConfig)
    pricing: PricingConfig = field(default_factory=PricingConfig)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)


_SCHEMA: dict[str, dict[str, Any]] = {
    "kernel": {
        "c0": lambda s: _positive(real(s)),
    },
    "levy_measure": {
        "type": _choice("exponential", "point_mass", "none"),
        "zeta": lambda s: _positive(real(s)),
        "varpi": lambda s: _nonnegative(real(s)),
        "z": lambda s: _positive(real(s)),
        "quadrature_nodes": lambda s: int(_positive(int(s))),
    },
    "model": {
        "sigma": real,
        "b": lambda s: _nonnegative(real(s)),
        "lambda_bar": lambda s: _positive(real(s)),
        "delta_theta": lambda s: _positive(real(s)),
        "delta_t": lambda s: _positive(real(s)),
        "theta_max_rule": str,
        "clamp_lambda_at_zero": _boolean,
        "jump_sign_convention": _choice("section7", "section3"),
    },
    "rates": {
        "mode": _choice("constant", "vasicek", "vasicek_jumps"),
        "r": real,
        "kappa": lambda s: _positive(real(s)),
        "delta": lambda s: _positive(real(s)),
        "r0": real,
        "rho0": real,
        "phi0": real,
        "vasicek_formula": _choice("standard", "paper_exact"),
        "rates_correlated": _boolean,
    },
    "pide": {
        "nx": lambda s: int(_positive(int(s))),
        "ny": lambda s: int(_positive(int(s))),
        "x_range": _pair,
        "y_range": _pair,
        "n_steps": lambda s: int(_positive(int(s))),
    },
    "pricing": {
        "regime": _choice("independent", "correlated"),
        "recovery_type": _choice("deterministic", "intensity_linked"),
        "R": lambda s: _unit(real(s)),
        "w0": lambda s: _nonnegative(real(s)),
        "w1": lambda s: _nonnegative(real(s)),
        "f": _choice("identity", "none"),
    },
    "experiment": {
        "t": lambda s: _nonnegative(real(s)),
        "T": lambda s: _positive(real(s)),
        "n_paths": lambda s: int(_positive(int(s))),
        "seed": int,
    },
}

_SECTION_TYPES = {
    "kernel": KernelConfig,
    "levy_measure": MeasureConfig,
    "model": ModelConfig,
    "rates": RatesConfig,
    "pide": PideConfig,
    "pricing": PricingConfig,
    "experiment": ExperimentSection,
}


def _cross_validate(cfg: Config) -> Config:
    if cfg.pricing.w0 + cfg.pricing.w1 > 1.0 + 1e-12:
        raise ConfigError("[pricing] w0+w1 <= 1 violated")
    if cfg.experiment.T < cfg.experiment.t:
        raise ConfigError("[experiment] T must be >= t")
    if cfg.model.theta_max_rule != "10_over_lambda":
        try:
            _positive(real(cfg.model.theta_max_rule))
        except ValueError as exc:
            raise ConfigError(
                "[model] theta_max_rule: '10_over_lambda' or a positive real "
                f"required ({exc})") from exc
    return cfg


def parse_config(path: str | None) -> Config:
    """Load and validate a configuration; None or a missing body means defaults."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            message = " ".join(str(exc).splitlines())
            raise ConfigError(f"malformed config file {path}: {message}") from exc
    sections: dict[str, Any] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        schema = _SCHEMA[name]
        kwargs = {}
        for key, raw in parser.items(name):
            if key not in schema:
                raise ConfigError(f"[{name}] unknown key '{key}'")
            try:
                kwargs[key] = schema[key](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from exc
        sections[name] = _SECTION_TYPES[name](**kwargs)
    cfg = Config(**sections)
    seed_env = os.environ.get("LAB_SEED")
    if seed_env is not None:
        try:
            cfg = replace(cfg, experiment=replace(cfg.experiment, seed=int(seed_env)))
        except ValueError as exc:
            raise ConfigError(f"LAB_SEED: integer required ({exc})") from exc
    return _cross_validate(cfg)


def _shown(value) -> str:
    """A value as config text writes it."""
    if isinstance(value, tuple):
        return f"{value[0]!r},{value[1]!r}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def serialize(cfg: Config) -> str:
    """Config text that parses back to an identical configuration."""
    out = io.StringIO()
    for name, cls in _SECTION_TYPES.items():
        out.write(f"[{name}]\n")
        for f in fields(cls):
            out.write(f"{f.name} = {_shown(getattr(getattr(cfg, name), f.name))}\n")
        out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# the input contract: the keys each command reads, and the values that
# leave a read key without effect
# ---------------------------------------------------------------------------

def _keys(**sections: str) -> frozenset[tuple[str, str]]:
    return frozenset((name, key) for name, keys in sections.items() for key in keys.split())


_DENSITY = _keys(levy_measure="type zeta varpi", model="sigma b lambda_bar delta_theta delta_t",
                 experiment="t T seed")
_EXPERIMENT = _DENSITY | _keys(model="jump_sign_convention", rates="r", pricing="R",
                               experiment="n_paths")
_PRICE = _EXPERIMENT | _keys(rates="mode kappa delta r0 rho0", pricing="regime recovery_type")

# (section, key) pairs each command reads.  A read that hangs on --status or
# on another key's value counts as a read.  `price` splits as `cmd_price`
# does: closed form, or through the kernels' transform (correlated regime
# alive, or intensity-linked recovery), whose LAMBDA_FLOOR fallback takes
# the standard Vasicek bond, the transform's e^{A - B r}.  `pide` reads no
# lambda_bar: it enters only lambda_0, which no operator coefficient reads.
READS: dict[str, frozenset[tuple[str, str]]] = {
    "simulate --route density": _DENSITY | _keys(model="theta_max_rule jump_sign_convention"),
    "simulate --route intensity": _DENSITY | _keys(
        kernel="c0", levy_measure="z", model="theta_max_rule clamp_lambda_at_zero"),
    "experiment": _EXPERIMENT,
    "verify": _keys(levy_measure="zeta", model="b lambda_bar", rates="r vasicek_formula",
                    pricing="R", experiment="seed"),
    "pide": _keys(kernel="c0", levy_measure="type zeta varpi z quadrature_nodes", model="sigma b",
                  rates="mode r kappa delta r0 rho0 phi0 rates_correlated",
                  pide="nx ny x_range y_range n_steps", experiment="t T seed"),
    "price (closed form)": _PRICE | _keys(rates="vasicek_formula"),
    # the kernels' quadrature nodes are not on the delta_theta grid
    "price (kernels)": _PRICE - _keys(model="delta_theta") | _keys(
        levy_measure="quadrature_nodes", model="theta_max_rule", rates="phi0 rates_correlated",
        pricing="w0 w1 f"),
    "kde": _keys(experiment="seed"),
}


def _inert(cfg: Config, command: str, defaulted: bool, sweep: str | None) -> list[tuple]:
    """(section, keys, setting): keys of a row that have no effect under the
    setting.  A key outside the row is rejected before these are read.
    `build_rate_spec` drops [rates] keys by mode, and under mode = constant
    rho0 = phi0 = 0 zero rates_correlated's coupling terms; `price` holds
    that rate at r, so kappa and vasicek_formula are inert there too (`pide`
    reads kappa off its rate axis), and the two bond formulas agree at
    kappa = 1.  w0, w1 and f shape only the intensity-linked recovery, which
    reads no R.  After default a deterministic recovery is R B(t, T) in
    either regime, and the linked one reads the kernels at tau <= t, where
    gamma and sigma vanish, and no theta_max, which only the alive
    quadrature reads.  A point mass has one mark, at z, read by no other
    type; type = none has no marks, but the cells of `--sweep varpi` do.
    """
    mode, recovery, measure = cfg.rates.mode, cfg.pricing.recovery_type, cfg.levy_measure.type
    price = command.startswith("price")
    dropped = {"constant": "delta r0 rho0 phi0 rates_correlated", "vasicek": "r phi0",
               "vasicek_jumps": "r"}[mode]
    if price and mode == "constant":
        dropped += " kappa vasicek_formula"
    rules = [("rates", dropped, f"mode = {mode}")]
    if price and cfg.rates.kappa == 1.0:
        rules.append(("rates", "vasicek_formula", "kappa = 1.0"))
    rules.append(("pricing", "w0 w1 f" if recovery == "deterministic" else "regime R",
                  f"recovery_type = {recovery}"))
    if defaulted:
        after = f"recovery_type = {recovery} with --status defaulted"
        rules += ([("pricing", "regime", after)] if recovery == "deterministic" else
                  [("levy_measure", "quadrature_nodes", after), ("model", "theta_max_rule", after)])
    if measure != "point_mass" or ("levy_measure", "z") in READS[command]:
        # the density route rejects the point mass itself, after these rules
        marks = {"exponential": "z", "point_mass": "zeta quadrature_nodes",
                 "none": ("" if sweep == "varpi" else "zeta ") + "varpi z quadrature_nodes"}
        rules.append(("levy_measure", marks[measure], f"type = {measure}"))
    return rules


def reject_unread(cfg: Config, command: str, defaulted: bool = False,
                  sweep: str | None = None) -> None:
    """Reject a non-default value that has no effect on `command`
    (`defaulted`: `price --status defaulted`; `sweep`: the `--sweep` axis
    of `experiment`), naming its key: first a key outside the command's
    `READS` row, then one the configured values leave inert (`_inert`),
    then a point mass on the density route."""
    row = READS[command]
    for name, cls in _SECTION_TYPES.items():
        for f in fields(cls):
            value = getattr(getattr(cfg, name), f.name)
            if (name, f.name) in row or value == f.default:
                continue
            readers = [c for c, keys in READS.items() if (name, f.name) in keys]
            *rest, last = readers
            listed = f"{', '.join(rest)} and {last}" if rest else last
            raise ConfigError(f"[{name}] {f.name} = {_shown(value)} is read only by {listed}, "
                              f"not by {command}: leave it at {_shown(f.default)}")
    for name, keys, setting in _inert(cfg, command, defaulted, sweep):
        values = getattr(cfg, name)
        for key in keys.split():
            value, default = getattr(values, key), getattr(type(values), key)
            if value != default:
                raise ConfigError(f"[{name}] {key} = {_shown(value)} has no effect under "
                                  f"{setting}: leave it at {_shown(default)}")
    # the density route simulates exponential marks: only rows that read z read a point mass
    if cfg.levy_measure.type == "point_mass" and ("levy_measure", "z") not in row:
        raise ConfigError("[levy_measure] type = point_mass is not used by the density "
                          "route (experiment, price, simulate --route density), which "
                          "simulates exponential marks; only pide and "
                          "simulate --route intensity read it")


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------

def build_kernel(cfg: Config) -> DiracKernel:
    return DiracKernel(c0=cfg.kernel.c0)


def build_measure(cfg: Config):
    m = cfg.levy_measure
    if m.type == "none" or m.varpi == 0.0:
        return ZeroMeasure()
    if m.type == "exponential":
        return ExponentialJumpMeasure(zeta=m.zeta, varpi=m.varpi,
                                      quadrature_nodes=m.quadrature_nodes)
    return PointMassMeasure(z=m.z)


def build_model_spec(cfg: Config) -> CoefficientSpec:
    return CoefficientSpec.section7(sigma=cfg.model.sigma, b=cfg.model.b,
                                    lambda_bar=cfg.model.lambda_bar)


def build_rate_spec(cfg: Config) -> VasicekSpec:
    r = cfg.rates
    if r.mode == "constant":
        return VasicekSpec(kappa=r.kappa, delta=max(r.r, 1e-12), r0=r.r, rho0=0.0, phi0=0.0)
    phi0 = r.phi0 if r.mode == "vasicek_jumps" else 0.0
    return VasicekSpec(kappa=r.kappa, delta=r.delta, r0=r.r0, rho0=r.rho0, phi0=phi0)


def require_jump_reach_on_grid(cfg: Config) -> None:
    """Reject an `[pide] x_range` that does not hold the largest rate jump.

    Beyond the x-grid the PIDE's jump operator extrapolates the kernel
    linearly, which is exact only for data affine in x; the kernel is
    exponential in x.  So r0 and r0 + phi0 * (largest mark node of the
    jump quadrature) must both lie on the grid, or the solve departs from
    the closed form (by 4.9e-3 with a point mass at phi0 = 0.5 on the
    default x-range).
    """
    rs = build_rate_spec(cfg)
    nodes, _ = build_measure(cfg).quadrature()
    reach = rs.r0 + rs.phi0 * (float(nodes.max()) if nodes.size else 0.0)
    lo, hi = cfg.pide.x_range
    if not (lo <= min(rs.r0, reach) and max(rs.r0, reach) <= hi):
        raise ConfigError(f"[pide] x_range = {lo!r},{hi!r} does not hold the rate-jump "
                          f"reach: r0 = {rs.r0!r} and r0 + phi0 * (largest mark node) = "
                          f"{reach!r} must both lie on the x-grid")


def experiment_config(cfg: Config, **overrides) -> ExperimentConfig:
    base = dict(
        t=cfg.experiment.t, T=cfg.experiment.T, r=cfg.rates.r, R=cfg.pricing.R,
        b=cfg.model.b, zeta=cfg.levy_measure.zeta,
        varpi=cfg.levy_measure.varpi if cfg.levy_measure.type != "none" else 0.0,
        lambda_bar=cfg.model.lambda_bar, sigma=cfg.model.sigma,
        n_paths=cfg.experiment.n_paths, delta=cfg.model.delta_theta,
        delta_t=cfg.model.delta_t, seed=cfg.experiment.seed,
        jump_sign_convention=cfg.model.jump_sign_convention,
        theta_max=None if cfg.model.theta_max_rule == "10_over_lambda"
        else float(cfg.model.theta_max_rule),
    )
    base.update(overrides)
    return ExperimentConfig(**base)
