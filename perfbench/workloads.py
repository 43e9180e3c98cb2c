"""The benchmark's workloads: the config each one hands to `lab`, the
command it runs, and the checks its outputs must pass.

Configs are generated from the workload seed and name only keys whose
meaning is settled, so that everything else stays at the built-in
Section-7 defaults.  The checks import numpy and densitylab lazily: the
parent process that generates configs never loads them.
"""

from __future__ import annotations

import csv
import math
import os
import re
import time
from dataclasses import dataclass
from typing import Callable

SECTION7_PATHS = 1000
REPRICED_PATHS = 64
BASELINE_PRICE = 0.946770056608465   # zero-noise price of the default cell
MEAN_TOL_SE = 5.0
REPRICE_TOL = 1e-6

PIDE_THETA = 2.0
PIDE_PROBES = ((0.05, 0.10), (0.03, 0.06))
PIDE_ORACLE_PATHS = 100_000
# A fixed oracle seed (the one of acceptance criterion 5) keeps the 3-SE
# check deterministic; fresh seeds would fail ~0.5% of runs by chance.
PIDE_ORACLE_SEED = 99
PIDE_TOL_SE = 3.0

# `lab verify` gates on 3-SE z-tests calibrated at the configured seed;
# varied seeds would fail about 1% of operations by chance.  The PIDE solve
# draws nothing, and with the seed in its config the worker's heap layout,
# and so its peak RSS, moved with the number of digits of the seed.  Both
# workloads keep the lab's default seed.
FIXED_LAB_SEED = 12345
VERIFY_CHECKS = 4


@dataclass(frozen=True)
class Workload:
    config: Callable[[int], str]                 # workload seed -> config text
    argv: Callable[[str, str], list[str]]        # (config, out dir) -> lab argv
    check: Callable[[str, str, str], tuple[list[str], dict]]
    # check(config, out dir, captured stdout) -> (failures, extra figures)


def lab_seed(workload: str, seed: int) -> int:
    """The `[experiment] seed` a workload seed maps to."""
    return seed if workload == "section7_cell" else FIXED_LAB_SEED


# ------------------------------------------------------------ section7_cell

def _section7_config(seed: int) -> str:
    return ("[levy_measure]\nzeta = 10.0\nvarpi = 0.001\n\n"
            "[model]\nsigma = 0.001\nlambda_bar = 0.1\n\n"
            "[experiment]\nt = 0.5\nT = 1.0\n"
            f"n_paths = {SECTION7_PATHS}\nseed = {lab_seed('section7_cell', seed)}\n")


def _read_prices(path: str) -> dict[int, float]:
    with open(path, newline="") as fh:
        return {int(row["path"]): float(row["price"]) for row in csv.DictReader(fh)}


def _section7_check(cfg_path: str, out: str, stdout: str) -> tuple[list[str], dict]:
    import numpy as np
    from densitylab import config as cfgmod
    from densitylab.pricing import price_pre_default_independent
    from densitylab.term_structure import DensityCurveState, simulate_density_paths

    ec = cfgmod.experiment_config(cfgmod.parse_config(cfg_path))
    prices = _read_prices(os.path.join(out, "prices.csv"))
    values = np.array(list(prices.values()))
    failures = []

    face = math.exp(-ec.r * (ec.T - ec.t))
    outside = int(np.count_nonzero((values < ec.R * face) | (values > face)))
    if outside:
        failures.append(f"{outside} prices outside [R*B, B] = [{ec.R * face}, {face}]")

    m = re.search(r"paths=(\d+) rejected=(\d+)", stdout)
    if m is None:
        failures.append("no 'paths= rejected=' summary line")
        kept = rejected = -1
    else:
        kept, rejected = int(m.group(1)), int(m.group(2))
        if kept != values.size or kept + rejected != ec.n_paths:
            failures.append(f"kept {kept} (csv {values.size}) + rejected {rejected} "
                            f"!= attempted {ec.n_paths}")

    se = float(values.std(ddof=1) / np.sqrt(values.size))
    z = (float(values.mean()) - BASELINE_PRICE) / se
    if not abs(z) <= MEAN_TOL_SE:
        failures.append(f"mean {values.mean():.8f} is {z:+.2f} SE from {BASELINE_PRICE}")

    grid = ec.theta_grid()
    res = simulate_density_paths(ec.spec(), ec.measure(), grid, ec.t, ec.delta_t,
                                 REPRICED_PATHS, ec.seed,
                                 jump_sign_convention=ec.jump_sign_convention)
    worst = 0.0
    for p in range(REPRICED_PATHS):
        state = DensityCurveState(ec.t, res["theta_grid"], res["alpha"][p],
                                  res["survival"][p])
        if p not in prices:
            failures.append(f"path {p} missing from prices.csv")
            continue
        ref = price_pre_default_independent(ec.t, ec.T, state, ec.R, ec.r)
        worst = max(worst, abs(ref - prices[p]))
    if not worst <= REPRICE_TOL:
        failures.append(f"re-priced paths differ by {worst:.3e} (> {REPRICE_TOL})")
    return failures, {"paths": ec.n_paths, "kept": kept, "rejected": rejected,
                      "mean_z": z, "reprice_max_abs": worst}


# --------------------------------------------------------------- pide_kernel

def _pide_config(seed: int) -> str:
    return ("[rates]\nmode = vasicek_jumps\nrho0 = 0.01\nphi0 = 0.5\n"
            "rates_correlated = true\n\n"
            f"[experiment]\nseed = {lab_seed('pide_kernel', seed)}\n")


def _pide_check(cfg_path: str, out: str, stdout: str) -> tuple[list[str], dict]:
    import numpy as np
    from densitylab import config as cfgmod
    from densitylab.pide import GridFunction, StateGrid, simulate_kernel_expectation

    cfg = cfgmod.parse_config(cfg_path)
    pc = cfg.pide
    grid = StateGrid(pc.x_range[0], pc.x_range[1], pc.nx, pc.y_range[0], pc.y_range[1], pc.ny)
    with open(os.path.join(out, "kernel_grid.csv"), newline="") as fh:
        k = np.array([float(row["K"]) for row in csv.DictReader(fh)])
    failures = []
    if k.size != grid.nx * grid.ny:
        return [f"kernel_grid.csv has {k.size} rows, expected {grid.nx * grid.ny}"], {}
    if not np.all(np.isfinite(k)):
        failures.append("non-finite kernel values")
    sol = GridFunction(k.reshape(grid.nx, grid.ny), grid, cfg.experiment.t)

    t0 = time.perf_counter()
    zs = {}
    for r0, lam0 in PIDE_PROBES:
        mc, se = simulate_kernel_expectation(
            cfgmod.build_model_spec(cfg), cfgmod.build_rate_spec(cfg),
            cfgmod.build_kernel(cfg), cfgmod.build_measure(cfg), PIDE_THETA,
            cfg.experiment.t, cfg.experiment.T, r0, lam0,
            n_paths=PIDE_ORACLE_PATHS, seed=PIDE_ORACLE_SEED, n_steps=pc.n_steps)
        z = (sol.interp(r0, lam0) - mc) / se
        zs[f"{r0},{lam0}"] = z
        if not abs(z) < PIDE_TOL_SE:
            failures.append(f"K({r0}, {lam0}) is {z:+.2f} SE from the MC oracle")
    return failures, {"oracle_s": time.perf_counter() - t0, "z": zs}


# -------------------------------------------------------------- verify_suite

def _verify_config(seed: int) -> str:
    return f"[experiment]\nseed = {lab_seed('verify_suite', seed)}\n"


def _verify_check(cfg_path: str, out: str, stdout: str) -> tuple[list[str], dict]:
    with open(os.path.join(out, "verify_report.txt")) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    failures = [f"report line not PASS: {ln}" for ln in lines if not ln.startswith("PASS ")]
    if len(lines) != VERIFY_CHECKS:
        failures.append(f"{len(lines)} report lines, expected {VERIFY_CHECKS}")
    return failures, {}


WORKLOADS = {
    "section7_cell": Workload(
        _section7_config,
        lambda cfg, out: ["experiment", "section7", "--config", cfg, "--out", out],
        _section7_check),
    "pide_kernel": Workload(
        _pide_config,
        lambda cfg, out: ["pide", "--theta", repr(PIDE_THETA), "--config", cfg, "--out", out],
        _pide_check),
    "verify_suite": Workload(
        _verify_config,
        lambda cfg, out: ["verify", "--strict", "--config", cfg, "--out", out],
        _verify_check),
}
