"""Import hygiene of the `lab` commands.

Only the PIDE test oracles (`densitylab.oracles`) need scipy, and no
command reaches them, so the CLI must start without scipy and without the
oracles, and a command must import nothing of its own once the CLI is
loaded: whatever it needs is paid for at start-up, not inside the
command.  Each case runs in a fresh interpreter, since the test session
has imported both already.  One more case checks that the names the
benchmark's traced run hooks and its workload checks import still exist.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

PROBE = """
import contextlib, io, json, sys
import densitylab.cli as cli
loaded = set(sys.modules)
argv = json.loads(sys.argv[1])
rc = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
print(json.dumps({"rc": rc,
                  "at_import": sorted(m for m in loaded if m.split(".")[0] == "scipy"),
                  "in_command": sorted(set(sys.modules) - loaded),
                  "oracles": "densitylab.oracles" in sys.modules}))
"""

EXPERIMENT = """
[levy_measure]
zeta = 10.0
varpi = 0.001

[model]
sigma = 0.001
lambda_bar = 0.1

[experiment]
n_paths = 40
seed = 3
"""

# the benchmark kernel's correlated jump rates on a small grid
PIDE = """
[rates]
mode = vasicek_jumps
rho0 = 0.01
phi0 = 0.5
rates_correlated = true

[pide]
nx = 24
ny = 16
n_steps = 8
"""

# correlated Vasicek rates, deterministic recovery
PRICE = """
[rates]
mode = vasicek
rates_correlated = true

[pricing]
regime = correlated

[experiment]
n_paths = 4
"""

# the same with intensity-linked recovery, which reads the recovery kernel
LINKED = PRICE.replace("regime = correlated\n",
                       "recovery_type = intensity_linked\nf = identity\n")


# The names the benchmark's traced run (perfbench/tracing.py) hooks: its
# `install` wraps functions by name and reports those it cannot find,
# `replay_noise` opens `rng.PathStreams`, and the density-engine hook reads
# `path_offset` from the call's arguments.  The `pide_kernel` check
# (perfbench/workloads.py) imports three names from `densitylab.pide`; the
# oracle among them resolves through the module's forwarder.
TRACER_PROBE = """
import inspect, json, sys
sys.path.insert(0, sys.argv[1])
import densitylab.cli
from densitylab import oracles, rng, term_structure
from densitylab.pide import GridFunction, StateGrid, simulate_kernel_expectation
from densitylab.measures import ExponentialJumpMeasure
import tracing
offset = "path_offset" in inspect.signature(term_structure.simulate_density_paths).parameters
missing = tracing.install(tracing.Tracer())
_, jumps = tracing.replay_noise([("density", {
    "measure": ExponentialJumpMeasure(zeta=400.0, varpi=0.5), "seed": 1, "paths": range(2),
    "n_steps": 3, "dt": 0.01})])
print(json.dumps({"missing": missing, "path_offset": offset, "stream": callable(rng.stream),
                  "replayed_jumps": jumps,
                  "forwarded": simulate_kernel_expectation is oracles.simulate_kernel_expectation,
                  "grid_types": [GridFunction.__name__, StateGrid.__name__]}))
"""


def test_benchmark_tracer_hooks_exist():
    perfbench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", TRACER_PROBE, perfbench], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["missing"] == []
    assert result["path_offset"] and result["stream"]
    assert result["replayed_jumps"] > 0
    assert result["forwarded"]
    assert result["grid_types"] == ["GridFunction", "StateGrid"]


# A traced worker (perfbench/worker.py) imports the CLI and then calls
# `install`, which takes its list of `densitylab` modules before it looks up
# the 2-D route's names through `pide`'s forwarder.
TRACED_ORACLES_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from densitylab import cli, config
import tracing
tracing.install(tracing.Tracer())
from densitylab import oracles
print(json.dumps({name: getattr(oracles, name).__qualname__ for name in (
    "build_local_operator", "apply_jump_operator", "splu", "solve_cauchy")}))
"""


@pytest.mark.xfail(strict=True, reason=(
    "perfbench/tracing.py's install lists the densitylab modules before its "
    "pide.* lookups import densitylab.oracles, so the four 2-D route wrappers "
    "land in no module; mended when the benchmark hooks densitylab.oracles"))
def test_benchmark_tracer_wraps_the_oracles():
    perfbench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", TRACED_ORACLES_PROBE, perfbench], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(q.endswith(".traced") for q in names.values()), names


def _probe(argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    env.pop("LAB_SEED", None)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # no case, after the CLI import or after any command, loads the oracles
    assert not result["oracles"]
    return result


def _cfg(tmp_path, text: str) -> str:
    path = tmp_path / "lab.cfg"
    path.write_text(text)
    return str(path)


def test_cli_import_loads_no_scipy():
    assert _probe([])["at_import"] == []


@pytest.mark.parametrize("command", ["experiment", "verify", "pide", "price_alive",
                                     "price_defaulted", "price_linked_alive",
                                     "price_linked_defaulted"])
def test_commands_import_nothing_after_the_cli(tmp_path, command):
    argv, text = {"experiment": (["experiment", "section7"], EXPERIMENT),
                  "verify": (["verify"], None),
                  "pide": (["pide", "--theta", "2.0"], PIDE),
                  "price_alive": (["price"], PRICE),
                  "price_defaulted": (["price", "--status", "defaulted"],
                                      PRICE.replace("rates_correlated = true\n", "")),
                  "price_linked_alive": (["price"], LINKED),
                  "price_linked_defaulted": (["price", "--status", "defaulted"],
                                             LINKED)}[command]
    if text is not None:
        argv = argv + ["--config", _cfg(tmp_path, text)]
    result = _probe(argv + ["--out", str(tmp_path / "out")])
    assert result["rc"] == 0
    assert result["at_import"] == []
    assert result["in_command"] == []


def test_picard_mode_is_an_unknown_key(tmp_path):
    # the Picard oracle is test-only: no config reaches it, or scipy
    cfg = _cfg(tmp_path, PIDE + "picard_mode = true\n")
    out = tmp_path / "out"
    result = _probe(["pide", "--theta", "2.0", "--config", cfg, "--out", str(out)])
    assert result["rc"] == 1
    assert result["at_import"] == []
    assert result["in_command"] == []
    assert not out.exists()
    from densitylab.config import ConfigError, parse_config
    with pytest.raises(ConfigError, match="\\[pide\\] unknown key 'picard_mode'"):
        parse_config(cfg)
