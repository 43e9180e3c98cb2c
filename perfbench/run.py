"""densitylab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's config from the seed, then runs `lab` operations of
that workload, each in a fresh single-threaded worker process, until S
seconds have passed (at least one operation), and checks every output
outside the timed region.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced operations and
reports per-layer figures plus the trace overhead.  Each metric is printed
by name with its unit; the last line of stdout is one JSON object
{correct, attempted, failed, metrics}.  The full record of the run, with
its environment, goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import PIDE_ORACLE_SEED, WORKLOADS, lab_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
# Workers run single-threaded.  Hash and address-space randomisation are
# off in them: together they moved the glibc heap layout enough that the
# peak RSS of identical PIDE solves varied by +-15%.
THREAD_CAPS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                      "NUMEXPR_NUM_THREADS")}
WORKER_ENV = {**THREAD_CAPS, "PYTHONHASHSEED": "0"}
ADDR_NO_RANDOMIZE = 0x0040000
# Every worker times its own set-up, so the operations' workers give set-up
# samples across the run.  Set-up-only workers add SETUP_BEFORE samples
# before the first operation, and after the last as many as bring them to
# SETUP_SAMPLES, so that a run of one long operation samples both ends.
SETUP_SAMPLES = 8
SETUP_BEFORE = 2
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _fixed_layout() -> None:
    """Pre-exec hook of the workers: no address-space randomisation."""
    personality = ctypes.CDLL(None).personality
    personality(personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)


def _worker(*argv: str) -> dict:
    """Run one worker; a worker that times out or dies returns {"crashed": why}."""
    env = {k: v for k, v in os.environ.items() if k != "LAB_SEED"}
    env.update(WORKER_ENV)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                              stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S, preexec_fn=_fixed_layout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"worker {list(argv)} exceeded {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"worker {list(argv)} exited with {proc.returncode}"}
    return json.loads(lines[-1])


def _operation(workload: str, cfg: str, index: int, traced: bool) -> dict:
    """One timed `lab` call; a crashed worker is a failed operation."""
    out = os.path.join(WORK, workload, f"op{index}")
    shutil.rmtree(out, ignore_errors=True)
    result = _worker(workload, cfg, out, *(["--trace"] if traced else []))
    if "crashed" in result:
        result["failures"] = [result["crashed"]]
    result["traced"] = traced
    return result


def _setup_samples(workload: str, cfg: str, wdir: str, n: int) -> list[float]:
    samples = []
    for _ in range(n):
        result = _worker(workload, cfg, wdir, "--setup-only")
        if "crashed" in result:
            raise BenchError(f"set-up failed: {result['crashed']}")
        samples.append(result["setup_s"])
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git checkout of its own."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except OSError:
            pass
    return "unknown (not a git checkout)"


def _environment(workload: str, seed: int, versions: dict) -> dict:
    seeds = {"workload": seed, "lab": lab_seed(workload, seed)}
    if workload == "pide_kernel":
        seeds["pide_oracle"] = PIDE_ORACLE_SEED
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), **versions, "worker_env": WORKER_ENV,
            "aslr": "off in workers",
            "git_commit": _git_commit(), "seeds": seeds}


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(ops: list[dict], setup: list[float]) -> dict[str, float]:
    ops = [o for o in ops if "crashed" not in o]
    return {"wall_s": _median(o["wall_s"] for o in ops),
            "setup_s": _median(setup),
            "peak_rss_mb": _median(o["peak_rss_mb"] for o in ops)}


def _units(spec: dict, kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[kind]}


def _per_layer(ops: list[dict]) -> dict[str, float]:
    ops = [o for o in ops if "crashed" not in o]
    traced = [o for o in ops if o["traced"]]
    untraced = [o for o in ops if not o["traced"]]
    layers = {name: _median(o["layers"][name] for o in traced)
              for name in traced[0]["layers"]}
    layers["pide.oracle_s"] = _median(o.get("check", {}).get("oracle_s", 0.0) for o in ops)
    layers["trace.overhead_s"] = (_median(o["wall_s"] for o in traced)
                                  - _median(o["wall_s"] for o in untraced))
    return layers


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wdir = os.path.join(WORK, workload)
    os.makedirs(wdir, exist_ok=True)
    # one file name for every seed, so that the workers' argv does not change
    # length with the seed
    cfg = os.path.join(wdir, "run.cfg")
    with open(cfg, "w") as fh:
        fh.write(WORKLOADS[workload].config(seed))

    # an untimed worker first compiles the sources and warms the file cache
    _setup_samples(workload, cfg, wdir, 1)
    setup = [] if trace else _setup_samples(workload, cfg, wdir, SETUP_BEFORE)
    # operations (untraced/traced pairs when tracing) until the measuring
    # time is used up: the next one starts while at least half of an
    # average round still fits, so a run ends within half a round of it
    ops: list[dict] = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - start) * (1 + 0.5 / rounds) <= seconds:
        if trace:
            ops.append(_operation(workload, cfg, len(ops), traced=False))
        ops.append(_operation(workload, cfg, len(ops), traced=trace))
        rounds += 1
    if not trace:
        setup += [o["setup_s"] for o in ops if "crashed" not in o]
        setup += _setup_samples(workload, cfg, wdir, max(0, SETUP_SAMPLES - len(setup)))
    for traced in {False, trace}:
        kind = [o for o in ops if o["traced"] == traced]
        if all("crashed" in o for o in kind):
            raise BenchError(f"every operation crashed: {kind[0]['crashed']}")

    values = _per_layer(ops) if trace else _end_to_end(ops, setup)
    metrics = {}
    for name, unit in _units(spec, "per_layer" if trace else "end_to_end").items():
        value = values[name]
        metrics[name] = (int(value) if unit in ("count", "bytes") else value, unit)
    failed = sum(1 for o in ops if o["failures"])
    return {"workload": workload, "trace": trace, "seconds": seconds, "ops": ops,
            "setup_samples": setup, "attempted": len(ops), "failed": failed,
            "metrics": metrics,
            "environment": _environment(workload, seed, next(
                o["versions"] for o in ops if "crashed" not in o))}


def _report(rec: dict) -> None:
    name, metrics = rec["workload"], rec["metrics"]
    for o in rec["ops"]:
        for failure in o["failures"]:
            print(f"{name} FAILED: {failure}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(f"{name} error_rate = {rec['failed'] / rec['attempted']:.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} operations)")
    if name == "section7_cell" and not rec["trace"]:
        paths = max(o.get("check", {}).get("paths", 0) for o in rec["ops"])
        print(f"{name} paths_per_s = {paths / metrics['wall_s'][0]:.6g} 1/s")
    if name == "pide_kernel" and rec["trace"]:
        wall = _median(o["wall_s"] for o in rec["ops"] if o["traced"] and "crashed" not in o)
        pide = sum(v for k, (v, unit) in metrics.items()
                   if k.startswith("pide.") and unit == "s" and k != "pide.oracle_s")
        print(f"{name} pide self-time share = {pide / wall:.4f} of traced wall_s {wall:.6g} s")
    missing = rec["ops"][-1].get("missing_hooks")
    if missing:
        print(f"{name} layer boundaries not found: {', '.join(missing)}")
    print(f"{name} environment {json.dumps(rec['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "densitylab", "cli.py")):
        print(f"error: no densitylab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        rec = run(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
    _report(rec)
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in rec["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
