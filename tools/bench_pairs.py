"""Interleaved-pair benchmark of two trees of this repository.

    python3 tools/bench_pairs.py --out BENCH_N.json [--base REV] [--first-seed 1]

Exports the base revision (default HEAD) and the head, the working tree
(every file that .gitignore admits), with `git archive` into two
directories whose paths have the same length, and runs each side's own
`perfbench/run.py`, unchanged, once per (seed, workload) with `--trace 0`
and BENCHMARK.json's `run_seconds`.  Pair i (from 0) of the PAIRS pairs
runs seed first-seed + i; the base runs first on odd seeds and the head on
even ones, so that the drift of a shared machine falls on both sides
alike.  Both sides get one environment, the caller's with
PYTHONDONTWRITEBYTECODE=1 set.

The output holds, per (workload, metric) of BENCHMARK.json's end-to-end
metrics, each side's median and quartiles, the pairs the head wins and two
verdicts (`verdict`), plus each side's failed and attempted operations and
every run's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10              # pairs per workload
GAIN_SHARE = 0.9        # a gain needs the head to win at least 9 in 10 pairs


def verdict(base: list[float], head: list[float], better: str, bound: float,
            failed: tuple[int, int] = (0, 0)) -> dict:
    """Compare pair i's base[i] with its head[i] on one metric.

    The head wins a pair when it is strictly better.  `gain`: it wins at
    least GAIN_SHARE of the pairs, its median beats the base's by more than
    the base's interquartile range, and it fails no more operations than the
    base (`failed` = the base's and the head's failed operations on the
    workload).  `regression`: its median is worse
    than the base's by more than `bound` times the base median.  Quartiles
    are `statistics.quantiles`' default (exclusive) ones, the wider of its
    two methods on small samples.
    """
    if len(base) != len(head) or len(base) < 2:
        raise ValueError("need two equal-length samples of at least two pairs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    (bq1, bmed, bq3), (hq1, hmed, hq3) = (statistics.quantiles(v, n=4) for v in (base, head))
    gained = sign * (bmed - hmed)
    return {"base": {"q1": bq1, "median": bmed, "q3": bq3},
            "head": {"q1": hq1, "median": hmed, "q3": hq3},
            "pairs": len(base), "wins": wins,
            "gain": (wins >= GAIN_SHARE * len(base) and gained > bq3 - bq1
                     and failed[1] <= failed[0]),
            "regression": -gained > bound * abs(bmed)}


def _git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          stdout=subprocess.PIPE).stdout


def _worktree_tree() -> str:
    """A tree object of the working tree, built in a scratch index so that
    the repository's own index stays as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        _git("add", "-A", env=env)
        return _git("write-tree", env=env).decode().strip()


def _export(treeish: str, dest: str) -> None:
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=_git("archive", "--format=tar", treeish),
                   check=True)


def _run(side: str, workload: str, seed: int, seconds: float, env: dict) -> dict:
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", repr(seconds), "--trace", "0"],
                          cwd=side, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {side} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    p.add_argument("--first-seed", type=int, default=1,
                   help="seed of the first pair (a claim should hold on seeds not used "
                        "while the change was written)")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])
    revs = {"base": _git("rev-parse", args.base).decode().strip(), "head": _worktree_tree()}
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        sides = {name: os.path.join(work, name) for name in ("base", "head")}
        for name, rev in revs.items():
            _export(rev, sides[name])
        for seed in range(args.first_seed, args.first_seed + PAIRS):
            order = ("base", "head") if seed % 2 else ("head", "base")
            for workload in workloads:
                run = {"seed": seed, "workload": workload, "order": list(order)}
                for name in order:
                    run[name] = _run(sides[name], workload, seed, seconds, env)
                runs.append(run)
                print(json.dumps({k: run[k] for k in ("seed", "workload", "order")}),
                      file=sys.stderr)

    results = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        entry = {"operations": {name: {"failed": sum(r[name]["failed"] for r in mine),
                                       "attempted": sum(r[name]["attempted"] for r in mine)}
                                for name in revs}}
        failed = tuple(entry["operations"][name]["failed"] for name in revs)
        for m in spec["end_to_end"]:
            values = {name: [r[name]["metrics"][m["name"]]["value"] for r in mine]
                      for name in revs}
            entry[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                **verdict(values["base"], values["head"], m["better"],
                                          m["bound"], failed)}
        results[workload] = entry

    record = {"protocol": {"base": revs["base"], "head": revs["head"],
                           "head_is_worktree": True, "pairs": PAIRS,
                           "seeds": [args.first_seed, args.first_seed + PAIRS - 1],
                           "seconds": seconds, "order": "base first on odd seeds",
                           "env": {"PYTHONDONTWRITEBYTECODE": "1"},
                           "nproc": os.cpu_count(), "python": platform.python_version()},
              "results": results, "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in results.items():
        for name, v in entry.items():
            if name != "operations":
                print(f"{workload} {name}: base {v['base']['median']:.6g} head "
                      f"{v['head']['median']:.6g} {v['unit']}, head wins {v['wins']}/"
                      f"{v['pairs']}, gain={v['gain']} regression={v['regression']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
