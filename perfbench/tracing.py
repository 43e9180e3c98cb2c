"""Per-layer spans for the traced benchmark run.

Wraps public densitylab functions at their module attributes, in every
densitylab module that imported the same object, so that calls made
through `from .x import f` are seen too.  Spans are kept in memory; a
layer's self time is its span time minus the time of spans nested in it.
The noise draw has no public boundary inside the path engines, so it is
timed by replaying the `rng.PathStreams` draws of every engine call after
the operation.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Span stack with per-name self times, call counts and counters."""

    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.engine_calls: list[tuple[str, dict]] = []

    def wrap(self, name: str, fn, on_return=None):
        sig = inspect.signature(fn) if on_return is not None else None

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[name] += dt - frame[0]
                self.counts[name + ".calls"] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, bound.arguments, result)
            return result

        return traced

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted


# ------------------------------------------------------------- return hooks

def _curves_held(tr: Tracer, nbytes: int):
    """Largest curve block one engine call returned: the curves held at once."""
    tr.counts["term_structure.curve_mb"] = max(tr.counts["term_structure.curve_mb"], nbytes / 1e6)


def _density_call(tr: Tracer, a: dict, res: dict):
    n, nodes, steps = a["n_paths"], res["theta_grid"].size, int(round(a["t_end"] / a["dt"]))
    tr.counts["term_structure.node_updates"] += n * steps * nodes
    _curves_held(tr, res["alpha"].nbytes + res["survival"].nbytes)
    tr.engine_calls.append(("density", {"measure": a["measure"], "seed": a["seed"],
                                        "paths": range(a["path_offset"], a["path_offset"] + n),
                                        "n_steps": steps, "dt": a["dt"]}))


def _intensity_call(tr: Tracer, a: dict, res: dict):
    n, nodes, steps = a["n_paths"], res["theta_grid"].size, int(round(a["t_end"] / a["dt"]))
    tr.counts["term_structure.node_updates"] += n * steps * nodes
    _curves_held(tr, res["lam"].nbytes)
    tr.engine_calls.append(("intensity", {"measure": a["measure"], "seed": a["seed"],
                                          "paths": range(n), "n_steps": steps, "dt": a["dt"]}))


def _oracle_call(tr: Tracer, a: dict, _):
    tr.counts["rates.oracle_paths"] += a["n_paths"]


def _priced(tr: Tracer, a: dict, sample):
    tr.counts["pricing.paths_priced"] += sample.prices.size + sample.n_rejected
    tr.counts["experiments.kept"] += sample.prices.size


def _csv_written(tr: Tracer, a: dict, _):
    tr.counts["experiments.csv_bytes"] += os.path.getsize(a["path"])


def _operator_built(tr: Tracer, a: dict, op):
    tr.counts["pide.operator_nnz"] = max(tr.counts["pide.operator_nnz"], op.nnz)


def _solved(tr: Tracer, a: dict, _):
    tr.counts["pide.unknowns"] = max(tr.counts["pide.unknowns"], a["grid"].nx * a["grid"].ny)
    tr.counts["pide.steps"] += a["n_steps"]


def install(tracer: Tracer) -> list[str]:
    """Wrap the layer boundaries; returns the names that could not be found."""
    from densitylab import config, experiments, manifest, pide, rates, rng, term_structure

    targets = [
        (pide, "compute_coefficients", "pide.coeff", None),
        (pide, "build_local_operator", "pide.assemble", _operator_built),
        (pide, "apply_jump_operator", "pide.jump", None),
        (pide, "splu", "pide.factor", None),
        (pide, "solve_cauchy", "pide.step", _solved),
        (term_structure, "simulate_density_paths", "term_structure.density", _density_call),
        (term_structure, "simulate_intensity_paths", "term_structure.intensity",
         _intensity_call),
        (rates, "zcb_mc_oracle", "rates.oracle", _oracle_call),
        (experiments, "run_price_distribution", "pricing.price", _priced),
        (experiments, "kde", "experiments.kde", None),
        (experiments, "write_prices_csv", "experiments.csv", _csv_written),
        (experiments, "write_kde_csv", "experiments.csv", _csv_written),
        (experiments, "write_sweep_csv", "experiments.csv", _csv_written),
        (manifest, "write_manifest", "manifest.write", None),
        (config, "parse_config", "config.parse", None),
    ]
    modules = [m for name, m in sys.modules.items()
               if name.startswith("densitylab") and m is not None]
    missing = []
    for home, attr, span, hook in targets:
        original = getattr(home, attr, None)
        if original is None:
            missing.append(f"{home.__name__}.{attr}")
            continue
        _replace(modules, original, tracer.wrap(span, original, hook))
    _replace(modules, rng.stream, tracer.count("rng.generators", rng.stream))
    return missing


def _replace(modules, original, wrapper):
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


def replay_noise(calls: list[tuple[str, dict]]) -> tuple[dict[str, float], int]:
    """Redraw each engine call's per-path noise through `rng.PathStreams`.

    Returns the draw time per engine kind and the number of realised jumps.
    """
    from densitylab.rng import PathStreams

    seconds: dict[str, float] = defaultdict(float)
    jumps = 0
    for kind, c in calls:
        measure, mass = c["measure"], c["measure"].total_mass
        t0 = time.perf_counter()
        for p in c["paths"]:
            s = PathStreams(c["seed"], p)
            s.gaussian.standard_normal(c["n_steps"])
            if mass > 0:
                n = int(s.poisson_count.poisson(mass * c["dt"], size=c["n_steps"]).sum())
                measure.sample_marks(n, s.poisson_marks)
                jumps += n
        seconds[kind] += time.perf_counter() - t0
    return seconds, jumps


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced operation whose root span is "cli",
    named as in BENCHMARK.json (the caller adds the trace overhead and the
    PIDE oracle time)."""
    noise, jumps = replay_noise(tracer.engine_calls)
    s, c = tracer.self_s, tracer.counts
    attempted = c["pricing.paths_priced"]
    return {
        "rng.noise_draw_s": noise["density"] + noise["intensity"],
        "rng.generators": c["rng.generators"],
        "measures.jumps": jumps,
        "term_structure.density_s": s["term_structure.density"] - noise["density"],
        "term_structure.node_updates": c["term_structure.node_updates"],
        "term_structure.curve_mb": c["term_structure.curve_mb"],
        "term_structure.intensity_s": s["term_structure.intensity"] - noise["intensity"],
        "rates.oracle_s": s["rates.oracle"],
        "rates.oracle_paths": c["rates.oracle_paths"],
        "pricing.price_s": s["pricing.price"],
        "pricing.paths_priced": attempted,
        "experiments.kept_ratio": c["experiments.kept"] / attempted if attempted else 0.0,
        "experiments.kde_s": s["experiments.kde"],
        "experiments.csv_s": s["experiments.csv"],
        "experiments.csv_bytes": c["experiments.csv_bytes"],
        "manifest.write_s": s["manifest.write"],
        "config.parse_s": s["config.parse"],
        "cli.self_s": s["cli"],
        "pide.coeff_s": s["pide.coeff"],
        "pide.assemble_s": s["pide.assemble"],
        "pide.factor_s": s["pide.factor"],
        "pide.jump_s": s["pide.jump"],
        "pide.step_s": s["pide.step"],
        "pide.factorisations": c["pide.factor.calls"],
        "pide.operator_nnz": c["pide.operator_nnz"],
        "pide.unknowns": c["pide.unknowns"],
        "pide.steps": c["pide.steps"],
    }
