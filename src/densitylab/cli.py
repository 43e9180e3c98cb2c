"""Command-line entry point: `lab <subcommand>`.

Subcommands: simulate (curve dumps), price (per-path bond prices), pide
(pricing-kernel grid), experiment (the section-7 harness: price
distribution, KDE, parameter sweeps), kde (density estimate of a price
file), verify (oracle suite).  Every output directory receives a run
manifest; CSVs are plain comma-separated with headers and `.` decimals,
and reruns with the same config hash and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import locale  # noqa: F401  (argparse's gettext imports it when the first parser is built)
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import config as cfgmod
from .experiments import (ExperimentConfig, kde, kde_grid, run_price_distribution,
                          sample_skewness, sweep, write_kde_csv, write_prices_csv,
                          write_sweep_csv)
from .manifest import write_manifest
from .pide import CoefficientProvider, PideInstabilityError, PricingKernelSolver, StateGrid
from .pricing import (DeterministicRecovery, IntensityLinkedRecovery, price_after_default,
                      price_defaultable_zcb, theta_quadrature)
from .rates import adjudicate_vasicek_formula, constant_rate_discount, zcb_price
from .term_structure import (simulate_density_paths, simulate_intensity_paths,
                             simulate_intensity_values, simulate_survival_values)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="configuration file (defaults when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the configured seed")


def _load(args) -> cfgmod.Config:
    cfg = cfgmod.parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, experiment=replace(cfg.experiment, seed=args.seed))
    return cfg


def _finish(args, cfg: cfgmod.Config, outputs: list[str]) -> int:
    write_manifest(args.out, cfgmod.serialize(cfg), cfg.experiment.seed, outputs)
    for path in outputs:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    cfg = _load(args)
    cfgmod.reject_unread(cfg, f"simulate --route {args.route}")
    cfgmod.reject_inert_mass(cfg)
    if args.route == "density":
        cfgmod.require_density_route(cfg)
    ec = cfgmod.experiment_config(cfg, n_paths=args.paths)
    os.makedirs(args.out, exist_ok=True)
    grid = ec.theta_grid()
    path_file = os.path.join(args.out, "curves.csv")
    if args.route == "density":
        res = simulate_density_paths(ec.spec(), ec.measure(), grid, ec.t, ec.delta_t,
                                     ec.n_paths, ec.seed,
                                     jump_sign_convention=ec.jump_sign_convention)
        alpha, surv = res["alpha"], res["survival"]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(surv > 0, alpha / np.maximum(surv, 1e-300), np.nan)
    else:
        res = simulate_intensity_paths(ec.spec(), cfgmod.build_kernel(cfg),
                                       cfgmod.build_measure(cfg),
                                       grid, ec.t, ec.delta_t, ec.n_paths, ec.seed,
                                       clamp_lambda_at_zero=cfg.model.clamp_lambda_at_zero)
        lam = res["lam"]
        from .term_structure import ForwardCurveState, csp
        surv = np.stack([csp(ForwardCurveState(ec.t, grid, row)) for row in lam])
        alpha = surv * lam
    with open(path_file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "theta", "lambda", "S", "alpha", "path"])
        for p in range(ec.n_paths):
            for j, theta in enumerate(grid):
                w.writerow([repr(float(ec.t)), repr(float(theta)), repr(float(lam[p, j])),
                            repr(float(surv[p, j])), repr(float(alpha[p, j])), p])
    return _finish(args, cfg, [path_file])


# ------------------------------------------------------------------- price

def _recovery_from(cfg: cfgmod.Config):
    if cfg.pricing.recovery_type == "deterministic":
        return DeterministicRecovery(cfg.pricing.R)
    return IntensityLinkedRecovery(w0=cfg.pricing.w0, w1=cfg.pricing.w1, f=cfg.pricing.f)


def _coefficients_from(cfg: cfgmod.Config) -> partial[CoefficientProvider]:
    """theta -> the configured kernels' CoefficientProvider."""
    return partial(CoefficientProvider, cfgmod.build_model_spec(cfg),
                   cfgmod.build_rate_spec(cfg), cfgmod.build_kernel(cfg),
                   cfgmod.build_measure(cfg), rates_correlated=cfg.rates.rates_correlated)


def _solver_from(cfg: cfgmod.Config) -> PricingKernelSolver:
    cfgmod.require_jump_reach_on_grid(cfg)
    grid = StateGrid(cfg.pide.x_range[0], cfg.pide.x_range[1], cfg.pide.nx,
                     cfg.pide.y_range[0], cfg.pide.y_range[1], cfg.pide.ny)
    return PricingKernelSolver(cfgmod.build_model_spec(cfg), cfgmod.build_rate_spec(cfg),
                               cfgmod.build_kernel(cfg), cfgmod.build_measure(cfg),
                               grid, T=cfg.experiment.T, n_steps=cfg.pide.n_steps,
                               rates_correlated=cfg.rates.rates_correlated)


def _discount_from(cfg: cfgmod.Config, t: float, T: float) -> float:
    """B(t, T) of the configured [rates] mode.  Kernel-priced runs do not read
    [rates] vasicek_formula, so there it is the standard bond, e^{A - B r0}
    of the kernels' transform."""
    if cfg.rates.mode == "constant":
        return constant_rate_discount(cfg.rates.r, t, T)
    return zcb_price(cfgmod.build_rate_spec(cfg), t, T, cfg.rates.r0,
                     formula=cfg.rates.vasicek_formula)


def _tau_from(args, t: float) -> float | None:
    """The default time of a defaulted run (0.25 unless given), None when alive."""
    if args.status == "alive":
        if args.tau is not None:
            raise ValueError(f"--tau {args.tau!r} is read only with --status defaulted")
        return None
    tau = 0.25 if args.tau is None else args.tau
    if not 0.0 <= tau <= t:
        raise ValueError(f"--tau {tau!r} must lie in [0, t] = [0, {t!r}]")
    return tau


def cmd_price(args) -> int:
    cfg = _load(args)
    tau = _tau_from(args, cfg.experiment.t)
    # a deterministic recovery R after default is worth R B(t, T) in both
    # regimes: at tau <= t the intensity coefficients have vanished
    kernel_priced = (cfg.pricing.recovery_type != "deterministic"
                     or (cfg.pricing.regime == "correlated" and tau is None))
    cfgmod.reject_unread(cfg, "price (kernels)" if kernel_priced else "price (closed form)")
    cfgmod.reject_dropped_rates(cfg, "price")
    cfgmod.reject_inert_recovery(cfg, defaulted=tau is not None)
    cfgmod.require_density_route(cfg)
    ec = cfgmod.experiment_config(cfg)
    t, T = ec.t, ec.T
    recovery = _recovery_from(cfg)
    discount = _discount_from(cfg, t, T)

    path_ids = np.arange(ec.n_paths)
    if kernel_priced:
        # one values-engine call: (alpha, S) at the quadrature nodes, or at tau
        if tau is None:
            thetas, weights = theta_quadrature(t, T, ec.dense_end, ec.theta_sim_cap)
            price = partial(price_defaultable_zcb, t, T, thetas, weights)
        else:
            thetas, price = np.array([tau]), partial(price_after_default, t, T, tau)
        res = simulate_survival_values(ec.spec(), ec.measure(), thetas, t, ec.delta_t,
                                       ec.n_paths, ec.seed,
                                       jump_sign_convention=ec.jump_sign_convention)
        prices = price(res["alpha"], res["survival"], recovery, discount,
                       r_t=cfgmod.build_rate_spec(cfg).r0, coefficients=_coefficients_from(cfg))
    elif tau is None:
        sample = run_price_distribution(ec, discount)
        path_ids, prices = sample.path_ids, sample.prices
    else:
        prices = np.full(ec.n_paths, recovery.rate * discount)
    os.makedirs(args.out, exist_ok=True)
    out_file = os.path.join(args.out, "prices.csv")
    with open(out_file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "t", "T", "status", "price"])
        for pid, price in zip(path_ids.tolist(), prices.tolist()):
            w.writerow([pid, repr(float(t)), repr(float(T)), args.status, repr(price)])
    return _finish(args, cfg, [out_file])


# -------------------------------------------------------------------- pide

def cmd_pide(args) -> int:
    cfg = _load(args)
    cfgmod.reject_unread(cfg, "pide")
    cfgmod.reject_dropped_rates(cfg, "pide")
    cfgmod.reject_inert_mass(cfg)
    solver = _solver_from(cfg)
    os.makedirs(args.out, exist_ok=True)
    sol = solver.solution(cfg.experiment.t, args.theta, "y")
    out_file = os.path.join(args.out, "kernel_grid.csv")
    # the bytes of csv.writer rows of repr'd floats, written one x-row at a
    # time: repr of a list of floats is their reprs joined by ", "
    ys = [f",{y!r}," for y in solver.grid.y.tolist()]
    with open(out_file, "w", newline="") as fh:
        fh.write("x,y,K\r\n")
        for x, k_row in zip(solver.grid.x.tolist(), sol.values.tolist()):
            x_ = repr(x)
            fh.write("".join([x_ + y + k + "\r\n"
                              for y, k in zip(ys, repr(k_row)[1:-1].split(", "))]))
    return _finish(args, cfg, [out_file])


# -------------------------------------------------------------- experiment

def cmd_experiment(args) -> int:
    cfg = _load(args)
    cfgmod.reject_unread(cfg, "experiment")
    cfgmod.require_density_route(cfg)
    ec = cfgmod.experiment_config(cfg)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    if args.sweep is None:
        sample = run_price_distribution(ec)
        prices_file = os.path.join(args.out, "prices.csv")
        write_prices_csv(prices_file, sample)
        outputs.append(prices_file)
        if sample.prices.size and sample.prices.min() == sample.prices.max():
            print(f"kde.csv not written: all {sample.prices.size} prices are equal")
        else:
            x = kde_grid(sample.prices)
            kde_file = os.path.join(args.out, "kde.csv")
            write_kde_csv(kde_file, x, kde(sample.prices, x))
            outputs.append(kde_file)
        print(f"paths={sample.prices.size} rejected={sample.n_rejected} "
              f"flagged_fraction={sample.flagged_fraction:.4f} "
              f"mean={sample.prices.mean():.6f} skewness={sample_skewness(sample.prices):.3f}")
    else:
        values = [float(v) for v in args.values.split(",")]
        rows = sweep(ec, args.sweep, values)
        sweep_file = os.path.join(args.out, f"sweep_{args.sweep}.csv")
        write_sweep_csv(sweep_file, rows)
        outputs.append(sweep_file)
        for row in rows:
            print(f"{args.sweep}={row['value']}: mean={row['mean']:.6f} se={row['se']:.2e} "
                  f"flagged={row['flagged_fraction']:.4f}")
    return _finish(args, cfg, outputs)


# --------------------------------------------------------------------- kde

def cmd_kde(args) -> int:
    cfg = _load(args)
    cfgmod.reject_unread(cfg, "kde")
    os.makedirs(args.out, exist_ok=True)
    with open(args.prices, newline="") as fh:
        reader = csv.DictReader(fh)
        samples = np.array([float(row["price"]) for row in reader])
    x = kde_grid(samples, n_points=args.points)
    out_file = os.path.join(args.out, "kde.csv")
    write_kde_csv(out_file, x, kde(samples, x))
    return _finish(args, cfg, [out_file])


# ------------------------------------------------------------------ verify

def run_verification(cfg: cfgmod.Config, quick_paths: int = 2000) -> list[dict]:
    """Oracle suite: deterministic baseline, bond-formula adjudication,
    martingale checks.  Failures come back as report entries, not errors.
    The z-gates are calibrated at the ExperimentConfig defaults of sigma,
    varpi, t, T and the two steps, so the suite reads none of them.

    The density martingale is checked on the closed-form values engine
    `simulate_survival_values` at the three probed maturities; the
    survival martingale on the integrated-intensity values engine
    `simulate_intensity_values` at its two probes.  The curve engines draw
    the same noise: the density one is checked by acceptance criterion 3,
    and the intensity one stays pinned to its values engine by test."""
    from .kernels import DiracKernel
    calibrated = ExperimentConfig(r=cfg.rates.r, R=cfg.pricing.R, b=cfg.model.b,
                                  zeta=cfg.levy_measure.zeta, lambda_bar=cfg.model.lambda_bar,
                                  seed=cfg.experiment.seed)
    checks: list[dict] = []

    # deterministic baseline against the closed form
    ec = replace(calibrated, sigma=0.0, b=0.0, n_paths=64)
    sample = run_price_distribution(ec)
    lam, t, T, r, rr = ec.lambda_bar, ec.t, ec.T, ec.r, ec.R
    closed = np.exp(-r * (T - t)) * (1 - (1 - rr) * (np.exp(-lam * t) - np.exp(-lam * T))
                                     / np.exp(-lam * t))
    err = float(np.abs(sample.prices - closed).max())
    checks.append({"name": "deterministic_baseline", "passed": bool(err < 1e-6),
                   "detail": f"max |price - closed form| = {err:.3e} (tol 1e-6)"})

    # bond-formula adjudication
    report = adjudicate_vasicek_formula()
    configured = cfg.rates.vasicek_formula
    z = " ".join(f"z_{name}={c['z']:+.2f}" for name, c in report["candidates"].items())
    checks.append({"name": "vasicek_adjudication",
                   "passed": bool(report["selected"] == "standard"),
                   "detail": f"selected={report['selected']} mc={report['mc']:.8f} "
                             f"se={report['se']:.1e} {z} configured={configured}"
                             + (" (configured variant FAILED adjudication)"
                                if configured != report["selected"] else "")})

    # density martingale (direct route, closed-form values at the three maturities)
    ec2 = replace(calibrated, n_paths=quick_paths)
    thetas = (0.6, 1.0, 5.0)
    res = simulate_survival_values(ec2.spec(), ec2.measure(), np.array(thetas), 0.5, 0.01,
                                   quick_paths, ec2.seed)
    lam_bar = ec2.lambda_bar
    ok, detail = True, []
    for j, theta in enumerate(thetas):
        vals = res["alpha"][:, j]
        target = lam_bar * np.exp(-lam_bar * theta)
        z = (vals.mean() - target) / (vals.std(ddof=1) / np.sqrt(vals.size))
        ok &= abs(z) < 3
        detail.append(f"theta={theta}: z={z:+.2f}")
    checks.append({"name": "density_martingale", "passed": bool(ok),
                   "detail": "; ".join(detail)})

    # survival martingale with control variate (intensity route)
    probes = (1.0, 2.0)
    res2 = simulate_intensity_values(ec2.spec(), DiracKernel(), ec2.measure(),
                                     np.arange(0.0, 2.0 + 1e-12, 0.01), probes, 0.5, 0.01,
                                     quick_paths, ec2.seed + 1)
    ok, detail = True, []
    for pi, theta in enumerate(probes):
        s = np.exp(-res2["integrated_intensity"][:, pi])
        s0 = np.exp(-lam_bar * theta)
        resid = s - s0 * (1.0 + res2["probe_martingale"][:, pi])
        z = resid.mean() / (resid.std(ddof=1) / np.sqrt(resid.size))
        ok &= abs(z) < 3
        detail.append(f"theta={theta}: z={z:+.2f}")
    checks.append({"name": "survival_martingale", "passed": bool(ok),
                   "detail": "; ".join(detail)})
    return checks


def cmd_verify(args) -> int:
    cfg = _load(args)
    cfgmod.reject_unread(cfg, "verify")
    checks = run_verification(cfg)
    os.makedirs(args.out, exist_ok=True)
    report_file = os.path.join(args.out, "verify_report.txt")
    with open(report_file, "w") as fh:
        for c in checks:
            line = f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}"
            fh.write(line + "\n")
            print(line)
    write_manifest(args.out, cfgmod.serialize(cfg), cfg.experiment.seed, [report_file])
    if args.strict and not all(c["passed"] for c in checks):
        return 1
    return 0


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lab",
                                     description="default-density term structure laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate curves and dump them as CSV")
    _add_common(p)
    p.add_argument("--paths", type=int, default=8)
    p.add_argument("--route", choices=["density", "intensity"], default="density")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("price", help="price the defaultable bond per path",
                       description="Price the defaultable zero-coupon bond on every "
                       "simulated path at the observation time t.  The short rate "
                       "observed at t, shared by every path, is [rates] r0 under a "
                       "Vasicek mode and [rates] r under mode = constant.  The kernels "
                       "are read from their closed-form affine transform.")
    _add_common(p)
    p.add_argument("--status", choices=["alive", "defaulted"], default="alive",
                   help="alive prices the pre-default bond; defaulted prices the "
                   "recovery after a default at --tau")
    p.add_argument("--tau", type=float, default=None,
                   help="default time in [0, t] with --status defaulted (default 0.25)")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("pide", help="solve the pricing-kernel equation on the grid")
    _add_common(p)
    p.add_argument("--theta", type=float, default=2.0)
    p.set_defaults(func=cmd_pide)

    p = sub.add_parser("experiment", help="run the numerical experiment harness")
    p.add_argument("suite", choices=["section7"])
    _add_common(p)
    p.add_argument("--sweep", choices=["varpi", "lambda", "t", "T"], default=None)
    p.add_argument("--values", default="0,0.0002,0.0006,0.001,0.002",
                   help="comma-separated sweep values")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("kde", help="kernel density estimate of a price CSV")
    _add_common(p)
    p.add_argument("--prices", required=True)
    p.add_argument("--points", type=int, default=401)
    p.set_defaults(func=cmd_kde)

    p = sub.add_parser("verify", help="run the oracle suite and write a report")
    _add_common(p)
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero if any check fails")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (cfgmod.ConfigError, ValueError, OSError,
            OverflowError,                 # csp's runaway-intensity guard
            PideInstabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
