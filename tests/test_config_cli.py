"""Config parsing/round-trip and the CLI subcommands."""

import csv
import os
import re

import numpy as np
import pytest

from densitylab import cli
from densitylab import config as cfgmod
from densitylab.cli import main, run_verification
from densitylab.manifest import read_manifest
from densitylab.pide import OperatorCoefficients, PricingKernelSolver


TINY = """
[model]
sigma = 0.0
b = 0.0
lambda_bar = 0.1

[experiment]
n_paths = 50
seed = 11
"""

# TINY's keys that a command does not read
UNREAD_IN_TINY = {"simulate": ("n_paths = 50\n",), "verify": ("sigma = 0.0\n", "n_paths = 50\n"),
                  "kde": ("sigma = 0.0\n", "b = 0.0\n", "n_paths = 50\n")}


def tiny_for(command: str) -> str:
    """TINY without the keys that `command` does not read."""
    text = TINY
    for line in UNREAD_IN_TINY.get(command, ()):
        text = text.replace(line, "")
    return text


# noise-free kernels; `lab price` reads them without a grid
TINY_KERNELS = """
[model]
sigma = 0.0
b = 0.0

[levy_measure]
type = none

[experiment]
t = 0.5
T = 1.0
n_paths = 20
seed = 7
"""

TINY_PIDE = TINY_KERNELS.replace("n_paths = 20\n", "") + """
[pide]
nx = 16
ny = 16
x_range = 0.0,0.1
y_range = 0.0,0.3
n_steps = 10
"""


SECTION7_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "section7.cfg")


def write(tmp_path, text, name="lab.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ parsing

def test_defaults_match_parameter_block():
    cfg = cfgmod.parse_config(None)
    assert cfg.model.lambda_bar == 0.1
    assert cfg.model.delta_theta == 0.01
    theta_max = cfgmod.experiment_config(cfg).theta_max_effective
    assert theta_max == pytest.approx(100.0)
    n_nodes = int(round(theta_max / cfg.model.delta_theta)) + 1
    assert n_nodes == 10_001
    assert cfg.experiment.n_paths == 10_000
    assert (cfg.experiment.t, cfg.experiment.T) == (0.5, 1.0)
    assert (cfg.rates.r, cfg.pricing.R) == (0.05, 0.4)
    assert (cfg.levy_measure.zeta, cfg.model.b) == (10.0, 1.0)


def test_recovery_weights_validated(tmp_path):
    path = write(tmp_path, "[pricing]\nw0 = 0.7\nw1 = 0.5\n")
    with pytest.raises(cfgmod.ConfigError, match="w0\\+w1 <= 1 violated"):
        cfgmod.parse_config(path)


def test_zeta_must_be_positive(tmp_path):
    path = write(tmp_path, "[levy_measure]\nzeta = -1\n")
    with pytest.raises(cfgmod.ConfigError, match="positive real required"):
        cfgmod.parse_config(path)


def test_unknown_key_named(tmp_path):
    path = write(tmp_path, "[model]\nsigmaa = 0.01\n")
    with pytest.raises(cfgmod.ConfigError, match="\\[model\\] unknown key 'sigmaa'"):
        cfgmod.parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[modle]\nsigma = 0.01\n")
    with pytest.raises(cfgmod.ConfigError, match="unknown section"):
        cfgmod.parse_config(path)


def test_section7_cfg_spells_out_the_defaults():
    assert cfgmod.parse_config(SECTION7_CFG) == cfgmod.parse_config(None)


def test_kernel_type_rejected_by_name(tmp_path):
    path = write(tmp_path, "[kernel]\ntype = riesz\n")
    with pytest.raises(cfgmod.ConfigError, match="\\[kernel\\] unknown key 'type'"):
        cfgmod.parse_config(path)


def test_round_trip(tmp_path):
    path = write(tmp_path, TINY_PIDE)
    cfg = cfgmod.parse_config(path)
    path2 = write(tmp_path, cfgmod.serialize(cfg), "round.cfg")
    assert cfgmod.parse_config(path2) == cfg


def test_lab_seed_env_override(tmp_path, monkeypatch):
    path = write(tmp_path, TINY)
    monkeypatch.setenv("LAB_SEED", "4242")
    cfg = cfgmod.parse_config(path)
    assert cfg.experiment.seed == 4242


def test_empty_config_runs_with_defaults():
    cfg = cfgmod.parse_config(None)
    ec = cfgmod.experiment_config(cfg, n_paths=4, sigma=0.0, b=0.0)
    from densitylab.experiments import run_price_distribution
    assert run_price_distribution(ec).prices.size == 4


# ---------------------------------------------------------------------- CLI

def test_cli_experiment_writes_outputs_and_manifest(tmp_path):
    # TINY is noise-free: every price is equal, so no KDE exists
    cfg = write(tmp_path, TINY)
    out = str(tmp_path / "run1")
    assert main(["experiment", "section7", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "prices.csv"))
    assert not os.path.exists(os.path.join(out, "kde.csv"))
    manifest = read_manifest(out)
    assert manifest["seed"] == 11
    assert {o["name"] for o in manifest["outputs"]} == {"prices.csv"}


def test_cli_noise_free_experiment_skips_kde(tmp_path, capsys):
    # 300 equal prices: their ddof=1 standard deviation rounds to ~1e-16,
    # not 0, which once gave a KDE with a bandwidth of ~1e-17
    cfg = write(tmp_path, TINY.replace("n_paths = 50", "n_paths = 300"))
    out = str(tmp_path / "run")
    assert main(["experiment", "section7", "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "kde.csv not written: all 300 prices are equal" in stdout
    assert "skewness=0.000" in stdout
    prices = [float(r["price"]) for r in csv.DictReader(open(os.path.join(out, "prices.csv")))]
    assert len(prices) == 300 and len(set(prices)) == 1
    assert not os.path.exists(os.path.join(out, "kde.csv"))
    assert [o["name"] for o in read_manifest(out)["outputs"]] == ["prices.csv"]


def test_cli_rerun_byte_identical(tmp_path):
    cfg = write(tmp_path, TINY.replace("sigma = 0.0", "sigma = 0.001"))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["experiment", "section7", "--config", cfg, "--out", out1]) == 0
    assert main(["experiment", "section7", "--config", cfg, "--out", out2]) == 0
    for name in ("prices.csv", "kde.csv"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2
    m1, m2 = read_manifest(out1), read_manifest(out2)
    assert m1["config_hash"] == m2["config_hash"]
    assert [o["sha256"] for o in m1["outputs"]] == [o["sha256"] for o in m2["outputs"]]


def test_cli_workers_knob_rejected(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    for flag in ("--workers", "--format"):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "section7", "--config", cfg, "--out", str(tmp_path / "a"),
                  flag, "2"])
        assert exc.value.code == 2
    cfg = write(tmp_path, TINY + "workers = 2\n", "workers.cfg")
    out = str(tmp_path / "b")
    assert main(["experiment", "section7", "--config", cfg, "--out", out]) == 1
    assert "[experiment] unknown key 'workers'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_sweep_csv(tmp_path):
    cfg = write(tmp_path, TINY)
    out = str(tmp_path / "sweep")
    assert main(["experiment", "section7", "--config", cfg, "--out", out,
                 "--sweep", "T", "--values", "0.75,1.0"]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "sweep_T.csv"))))
    assert [r["value"] for r in rows] == ["0.75", "1.0"]
    assert float(rows[0]["mean"]) > float(rows[1]["mean"])


def test_cli_kde_roundtrip(tmp_path):
    prices = tmp_path / "prices.csv"
    rng = np.random.Generator(np.random.Philox(key=3))
    with open(prices, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "price"])
        for i, v in enumerate(rng.normal(0.9, 0.01, size=200)):
            w.writerow([i, repr(float(v))])
    out = str(tmp_path / "kde")
    assert main(["kde", "--prices", str(prices), "--out", out]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "kde.csv"))))
    x = np.array([float(r["x"]) for r in rows])
    f = np.array([float(r["f"]) for r in rows])
    assert np.trapezoid(f, x) == pytest.approx(1.0, abs=1e-6)


def test_cli_pide_grid_csv(tmp_path):
    cfg = write(tmp_path, TINY_PIDE)
    out = str(tmp_path / "pide")
    assert main(["pide", "--config", cfg, "--out", out, "--theta", "2.0"]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "kernel_grid.csv"))))
    assert len(rows) == 16 * 16
    # terminal-y problem under zero noise near x = r: K = y e^{-x (T-t)}
    xs = np.array([float(r["x"]) for r in rows])
    ys = np.array([float(r["y"]) for r in rows])
    ks = np.array([float(r["K"]) for r in rows])
    pick = np.argmin(np.abs(xs - 0.05) + np.abs(ys - 0.3))
    assert ks[pick] == pytest.approx(ys[pick] * np.exp(-xs[pick] * 0.5), rel=1e-2)


def test_cli_pide_grid_csv_has_csv_writer_bytes(tmp_path):
    # the grid is written one x-row at a time without csv.writer; it must
    # carry the bytes csv.writer gives the same repr'd values (CRLF line
    # ends, no quoting)
    import io

    cfg = write(tmp_path, TINY_PIDE)
    out = str(tmp_path / "pide")
    assert main(["pide", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "kernel_grid.csv"), "rb") as fh:
        raw = fh.read()
    rows = list(csv.reader(io.StringIO(raw.decode(), newline="")))
    assert rows[0] == ["x", "y", "K"] and len(rows) == 1 + 16 * 16
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(rows[0])
    for row in rows[1:]:
        w.writerow([repr(float(v)) for v in row])
    assert buf.getvalue().encode() == raw


def test_cli_price_defaulted_recovery_of_face(tmp_path):
    cfg = write(tmp_path, TINY)
    out = str(tmp_path / "price")
    assert main(["price", "--config", cfg, "--out", out,
                 "--status", "defaulted", "--tau", "0.25"]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "prices.csv"))))
    disc = np.exp(-0.05 * 0.5)
    assert all(float(r["price"]) == pytest.approx(0.4 * disc, abs=1e-12) for r in rows)
    assert rows[0]["status"] == "defaulted"


def test_cli_price_alive_independent(tmp_path):
    cfg = write(tmp_path, TINY)
    out = str(tmp_path / "pr2")
    assert main(["price", "--config", cfg, "--out", out]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "prices.csv"))))
    assert len(rows) == 50
    assert float(rows[0]["price"]) == pytest.approx(0.946770056608465, abs=1e-6)


def test_cli_bad_config_exit_code(tmp_path):
    cfg = write(tmp_path, "[model]\nlambda_bar = -3\n")
    assert main(["experiment", "section7", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("text,message", [
    ("[model]\nsigma = 0.0\n\n[model]\nb = 0.0\n", "section 'model' already exists"),
    ("sigma = 0.0\n\n[model]\nb = 0.0\n", "File contains no section headers."),
], ids=["duplicate_section", "missing_section_header"])
def test_cli_malformed_config_is_classified(tmp_path, capsys, text, message):
    cfg = write(tmp_path, text)
    out = str(tmp_path / "x")
    assert main(["experiment", "section7", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed config file {cfg}: ")
    assert message in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv,section,message", [
    (["experiment", "section7"], "[kernel]\nc0 = 4.0\n", "error: [kernel] c0 = 4.0"),
    (["price"], "[levy_measure]\ntype = point_mass\n",
     "error: [levy_measure] type = point_mass"),
    (["simulate", "--route", "density"], "[kernel]\nc0 = 4.0\n", "error: [kernel] c0 = 4.0"),
    (["verify"], "[kernel]\nc0 = 4.0\n", "error: [kernel] c0 = 4.0"),
], ids=["experiment-c0", "price-point_mass", "simulate_density-c0", "verify-c0"])
def test_cli_density_route_rejects_ignored_inputs(tmp_path, capsys, argv, section, message):
    cfg = write(tmp_path, TINY + section)
    out = str(tmp_path / "rejected")
    assert main([*argv, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["experiment", "section7"], ["simulate", "--route", "density"],
    ["simulate", "--route", "intensity"], ["verify"], ["price"],
    ["price", "--status", "defaulted"],
], ids=["experiment", "simulate_density", "simulate_intensity", "verify", "price",
        "price_defaulted"])
def test_cli_quadrature_nodes_rejected_where_unread(tmp_path, capsys, argv):
    cfg = write(tmp_path, TINY + "[levy_measure]\nquadrature_nodes = 4\n")
    out = str(tmp_path / "rejected")
    assert main([*argv, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: [levy_measure] quadrature_nodes = 4")
    assert not os.path.exists(out)


def test_cli_pide_reads_quadrature_nodes(tmp_path):
    grids = {}
    for nodes in (4, 32):
        text = TINY_PIDE.replace("b = 0.0", "b = 1.0").replace(
            "type = none", f"varpi = 0.01\nquadrature_nodes = {nodes}")
        cfg = write(tmp_path, text, f"q{nodes}.cfg")
        out = str(tmp_path / f"q{nodes}")
        assert main(["pide", "--config", cfg, "--out", out]) == 0
        grids[nodes] = open(os.path.join(out, "kernel_grid.csv"), "rb").read()
    assert grids[4] != grids[32]


def test_cli_intensity_route_reads_c0_and_point_mass(tmp_path):
    base = "[model]\nsigma = 0.001\n\n[experiment]\nseed = 11\n"
    curves = {}
    for name, extra in (("default", ""), ("c0", "[kernel]\nc0 = 4.0\n"),
                        ("point_mass", "[levy_measure]\ntype = point_mass\n")):
        cfg = write(tmp_path, base + extra, f"{name}.cfg")
        out = str(tmp_path / name)
        assert main(["simulate", "--route", "intensity", "--config", cfg, "--out", out,
                     "--paths", "2"]) == 0
        curves[name] = open(os.path.join(out, "curves.csv"), "rb").read()
    assert curves["c0"] != curves["default"]
    assert curves["point_mass"] != curves["default"]


JUMPY_RATES = "[rates]\nmode = vasicek_jumps\nrho0 = 0.01\nphi0 = 0.5\nrates_correlated = true\n"


@pytest.mark.parametrize("argv,extra", [
    (["pide"], "[levy_measure]\ntype = point_mass\n"),
    (["pide"], "[levy_measure]\nquadrature_nodes = 64\n"),
], ids=["pide-point_mass", "pide-64_nodes"])
def test_cli_rejects_jump_reach_off_the_x_grid(tmp_path, monkeypatch, capsys, argv, extra):
    # r0 + phi0 * (largest node) is 0.55 for the unit point mass and 0.167
    # for 64 Laguerre nodes, both beyond the default x-range (-0.05, 0.15)
    def refuse(*args, **kwargs):
        raise AssertionError("kernel solver built")

    monkeypatch.setattr(cli, "PricingKernelSolver", refuse)
    cfg = write(tmp_path, JUMPY_RATES + extra)
    out = str(tmp_path / "rejected")
    assert main([*argv, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        "error: [pide] x_range = -0.05,0.15 does not hold the rate-jump reach")
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["experiment", "section7"], ["simulate", "--route", "density"],
    ["simulate", "--route", "intensity"], ["verify"], ["price"],
    ["price", "--status", "defaulted"], ["kde", "--prices", "unread.csv"],
], ids=["experiment", "simulate_density", "simulate_intensity", "verify", "price",
        "price_defaulted", "kde"])
@pytest.mark.parametrize("extra,message", [
    ("nx = 16\n", "[pide] nx = 16"),
    ("x_range = -0.05,0.1\n", "[pide] x_range = -0.05,0.1"),
], ids=["nx", "x_range"])
def test_cli_rejects_pide_values_where_unread(tmp_path, monkeypatch, capsys, argv, extra,
                                             message):
    # only `lab pide` marches on the state grid: correlated `lab price`
    # reads the kernels' transform, which has no grid or x-range to hold
    # the rate-jump reach
    def refuse(*args, **kwargs):
        raise AssertionError("kernel solver built")

    monkeypatch.setattr(cli, "PricingKernelSolver", refuse)
    cfg = write(tmp_path, tiny_for(argv[0]) + "[pricing]\nregime = correlated\n\n[pide]\n" + extra)
    out = str(tmp_path / "rejected")
    assert main([*argv, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message} is read only by pide")
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["experiment", "section7"], ["simulate", "--route", "density"], ["verify"], ["price"],
], ids=["experiment", "simulate_density", "verify", "price"])
def test_cli_density_route_rejects_clamp_lambda_at_zero(tmp_path, capsys, argv):
    clamp = "b = 0.0\nclamp_lambda_at_zero = true\n"
    cfg = write(tmp_path, tiny_for(argv[0]).replace("b = 0.0\n", clamp))
    out = str(tmp_path / "rejected")
    assert main([*argv, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        "error: [model] clamp_lambda_at_zero = true is read only by simulate --route intensity")
    assert not os.path.exists(out)
    # the intensity route reads it
    cfg = write(tmp_path, tiny_for("simulate").replace("b = 0.0\n", clamp), "intensity.cfg")
    assert main(["simulate", "--route", "intensity", "--paths", "2", "--config", cfg,
                 "--out", out]) == 0


def test_jump_reach_check_accepts_the_pide_kernel_config(tmp_path):
    # the benchmark's pide_kernel rates: reach 0.05 + 0.5 * 0.1118 = 0.106
    cfgmod.require_jump_reach_on_grid(cfgmod.parse_config(write(tmp_path, JUMPY_RATES)))
    narrow = write(tmp_path, JUMPY_RATES + "[pide]\nx_range = -0.05,0.1\n", "narrow.cfg")
    with pytest.raises(cfgmod.ConfigError, match="x_range"):
        cfgmod.require_jump_reach_on_grid(cfgmod.parse_config(narrow))


def test_cli_pide_instability_is_classified(tmp_path, monkeypatch, capsys):
    # no accepted config drives the implicit solve unstable, so the kernel
    # solver is handed the exploding jump block of the solver's own test;
    # the block shifts the rate too, since a pure y-shift leaves the affine
    # route of `lab pide` exact
    wild = lambda t: OperatorCoefficients(t, 0.0, kappa=0.0, delta_hat=0.0, a_drift=0.0,
                                          a11=0.0, a22=0.0, a12=0.0,
                                          jump_dx=np.array([0.01]), jump_dy=np.array([0.25]),
                                          jump_w=np.array([5e4]))
    monkeypatch.setattr(PricingKernelSolver, "provider", lambda self, theta: wild)
    cfg = write(tmp_path, TINY_PIDE)
    assert main(["pide", "--config", cfg, "--out", str(tmp_path / "pide")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: instability detected")
    assert "Traceback" not in err


def test_cli_pide_rejects_ridge_eps(tmp_path, capsys):
    # the ridge regularises only the 2-D grid's degenerate diffusion block,
    # which no command reaches, so the key is rejected by name
    cfg = write(tmp_path, TINY_PIDE.replace("n_steps = 10\n", "n_steps = 10\nridge_eps = 0\n"))
    out = str(tmp_path / "pide")
    assert main(["pide", "--config", cfg, "--out", out]) == 1
    assert "[pide] unknown key 'ridge_eps'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_k_breve_routes_avoid_the_2d_solve(tmp_path, monkeypatch):
    # both kernels, k_tilde (recovery f = identity) included, take the 1-D route
    import densitylab.oracles as oracles

    def refuse(*args, **kwargs):
        raise AssertionError("2-D solve_cauchy reached")

    monkeypatch.setattr(oracles, "solve_cauchy", refuse)
    monkeypatch.setattr(oracles, "solve_cauchy_picard", refuse)
    cfg = write(tmp_path, NOISY_PIDE)
    assert main(["pide", "--config", cfg, "--out", str(tmp_path / "pide")]) == 0
    solver = cli._solver_from(cfgmod.parse_config(cfg))
    k = solver.solution(0.5, 2.0, "y").interp(0.05, 0.1)
    assert 0.0 < k < 0.1
    k_tilde = solver.solution(0.5, 2.0, "y_exp_y").interp(0.05, 0.1)
    assert 0.0 < k_tilde < k * np.exp(-0.1) * 1.01
    for status in ("alive", "defaulted"):
        assert main(["price", "--status", status, "--config", write(tmp_path, NOISY_LINKED),
                     "--out", str(tmp_path / status)]) == 0


def test_cli_price_reads_the_vasicek_bond_when_independent(tmp_path):
    # independent rates, deterministic recovery: both statuses discount with
    # the configured [rates] mode's bond, here Vasicek at r0 = delta = 0.10
    from densitylab.rates import zcb_price
    cfg = write(tmp_path, TINY + "[rates]\nmode = vasicek\nr0 = 0.10\ndelta = 0.10\n")
    bond = zcb_price(cfgmod.build_rate_spec(cfgmod.parse_config(cfg)), 0.5, 1.0, 0.10)
    assert abs(bond - np.exp(-0.05 * 0.5)) > 1e-2          # the constant [rates] r = 0.05
    prices = {}
    for status in ("alive", "defaulted"):
        out = str(tmp_path / status)
        assert main(["price", "--config", cfg, "--out", out, "--status", status]) == 0
        prices[status] = [float(r["price"])
                          for r in csv.DictReader(open(os.path.join(out, "prices.csv")))]
    surv = np.exp(-0.1 * 0.5)
    assert prices["alive"][0] == pytest.approx(bond * (surv + 0.4 * (1 - surv)), abs=1e-12)
    assert prices["defaulted"][0] == pytest.approx(0.4 * bond, abs=1e-15)


@pytest.mark.parametrize("argv", [["experiment", "section7"], ["verify"]],
                         ids=["experiment", "verify"])
@pytest.mark.parametrize("mode", ["vasicek", "vasicek_jumps"])
def test_cli_constant_rate_commands_reject_rates_mode(tmp_path, capsys, argv, mode):
    cfg = write(tmp_path, f"[rates]\nmode = {mode}\n")
    out = str(tmp_path / "rejected")
    assert main([*argv, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: [rates] mode = {mode} is read only by pide")
    assert not os.path.exists(out)


def _record_values_engine(monkeypatch) -> list:
    """Refuse the density curve engine in `cli`; the thetas of each of the
    values engine's calls are appended to the returned list."""
    from densitylab.term_structure import simulate_survival_values
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("density curve engine reached")

    def recorded(spec, measure, thetas, *args, **kwargs):
        calls.append(np.asarray(thetas))
        return simulate_survival_values(spec, measure, thetas, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate_density_paths", refuse)
    monkeypatch.setattr(cli, "simulate_survival_values", recorded)
    return calls


def test_cli_price_defaulted_reads_the_values_engine(tmp_path, monkeypatch):
    # a defaulted intensity-linked price reads alpha and S at tau only, in
    # one values-engine call: it gives the prices of the curve engine's
    # 2,161-node curves interpolated at tau (measured 3.4e-15 at the default
    # marks; at varpi = 0.01 the curve engine's own trapezoid error shows,
    # 4.1e-12)
    from densitylab.pricing import price_after_default
    from densitylab.term_structure import simulate_density_paths

    cfg = write(tmp_path, NOISY_LINKED.replace("varpi = 0.01", "varpi = 0.001"))
    parsed = cfgmod.parse_config(cfg)
    ec = cfgmod.experiment_config(parsed)
    with monkeypatch.context() as m:
        calls = _record_values_engine(m)
        assert main(["price", "--status", "defaulted", "--tau", "0.23", "--config", cfg,
                     "--out", str(tmp_path / "dead")]) == 0
    assert [c.tolist() for c in calls] == [[0.23]]
    rows = list(csv.DictReader(open(tmp_path / "dead" / "prices.csv")))
    res = simulate_density_paths(ec.spec(), ec.measure(), ec.theta_grid(), ec.t,
                                 ec.delta_t, ec.n_paths, ec.seed)
    at_tau = {name: np.array([[np.interp(0.23, res["theta_grid"], row)] for row in res[name]])
              for name in ("alpha", "survival")}
    ref = price_after_default(ec.t, ec.T, 0.23, at_tau["alpha"], at_tau["survival"],
                              cli._recovery_from(parsed),
                              cli._discount_from(parsed, ec.t, ec.T),
                              r_t=parsed.rates.r0, coefficients=cli._coefficients_from(parsed))
    prices = np.array([float(r["price"]) for r in rows])
    assert np.abs(prices - ref).max() <= 1e-12
    # k_tilde / lambda = e^{-lambda} B at tau < t: the linked prices vary by path
    assert np.ptp(prices) > 1e-6


def test_cli_price_defaulted_deterministic_recovery_is_the_recovered_bond(tmp_path,
                                                                        monkeypatch):
    # at tau <= t the intensity coefficients have vanished, so a defaulted
    # price is R B(t, T) on every path, in either regime: nothing is
    # simulated and no kernel is solved (the correlated regime, which would
    # change nothing, is rejected; see the test below)
    from densitylab.rates import zcb_price

    def refuse(*args, **kwargs):
        raise AssertionError("simulated or solved")

    for name in ("simulate_density_paths", "simulate_survival_values",
                 "run_price_distribution", "_solver_from"):
        monkeypatch.setattr(cli, name, refuse)
    cfg = write(tmp_path, NOISY_CORRELATED.replace("rates_correlated = true\n", "")
                .replace("regime = correlated\n", ""))
    out = str(tmp_path / "dead")
    assert main(["price", "--status", "defaulted", "--tau", "0.23", "--config", cfg,
                 "--out", out]) == 0
    prices = [float(r["price"]) for r in csv.DictReader(open(os.path.join(out, "prices.csv")))]
    bond = zcb_price(cfgmod.build_rate_spec(cfgmod.parse_config(cfg)), 0.5, 1.0, 0.05)
    assert prices == [0.4 * bond] * 20


@pytest.mark.parametrize("tau", [[], ["--tau", "0.1"]], ids=["default_tau", "tau"])
def test_cli_price_rejects_regime_after_default_under_deterministic_recovery(
        tmp_path, monkeypatch, capsys, tau):
    # R B(t, T) after default in either regime: the correlated regime wrote
    # the independent regime's prices.csv byte for byte
    def refuse(*args, **kwargs):
        raise AssertionError("priced")

    for name in ("simulate_survival_values", "run_price_distribution", "_solver_from"):
        monkeypatch.setattr(cli, name, refuse)
    cfg = write(tmp_path, NOISY_CORRELATED.replace("rates_correlated = true\n", ""))
    out = str(tmp_path / "rejected")
    assert main(["price", "--config", cfg, "--out", out, "--status", "defaulted", *tau]) == 1
    assert capsys.readouterr().err == ("error: [pricing] regime = correlated has no effect "
                                       "under recovery_type = deterministic with --status "
                                       "defaulted: leave it at independent\n")
    assert not os.path.exists(out)


def test_cli_runaway_intensity_is_classified(tmp_path, monkeypatch, capsys):
    # csp's guard against int lambda < -700, fed a runaway intensity curve
    def runaway(spec, kernel, measure, grid, t_end, dt, n_paths, seed, **kw):
        return {"lam": np.full((n_paths, grid.size), -1e3)}
    monkeypatch.setattr(cli, "simulate_intensity_paths", runaway)
    cfg = write(tmp_path, tiny_for("simulate"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"),
                 "--route", "intensity", "--paths", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: runaway negative intensity")
    assert "Traceback" not in err


def test_verification_suite_passes():
    cfg = cfgmod.parse_config(None)
    checks = run_verification(cfg, quick_paths=1500)
    names = {c["name"] for c in checks}
    assert {"deterministic_baseline", "vasicek_adjudication",
            "density_martingale", "survival_martingale"} <= names
    assert all(c["passed"] for c in checks), checks


def _detail_z(check: dict) -> list[float]:
    return [float(z) for z in re.findall(r"z=([+-]\d+\.\d+)", check["detail"])]


def test_verification_avoids_the_density_curve_engine(monkeypatch):
    from densitylab.term_structure import simulate_density_paths

    def refuse(*args, **kwargs):
        raise AssertionError("density curve engine reached")

    monkeypatch.setattr(cli, "simulate_density_paths", refuse)
    checks = run_verification(cfgmod.parse_config(None))
    assert all(c["passed"] for c in checks), checks
    density = next(c for c in checks if c["name"] == "density_martingale")
    # the figures the 501-node curve engine gives on the same sample
    ec = cfgmod.experiment_config(cfgmod.parse_config(None), n_paths=2000)
    grid = np.arange(0.0, 5.0 + 1e-12, 0.01)
    curves = simulate_density_paths(ec.spec(), ec.measure(), grid, 0.5, 0.01, ec.n_paths,
                                    ec.seed)
    thetas = np.array([0.6, 1.0, 5.0])
    vals = curves["alpha"][:, np.rint(thetas / 0.01).astype(int)]
    target = ec.lambda_bar * np.exp(-ec.lambda_bar * thetas)
    z = (vals.mean(axis=0) - target) / (vals.std(axis=0, ddof=1) / np.sqrt(ec.n_paths))
    assert density["detail"].startswith("theta=0.6: z=")
    assert np.abs(np.array(_detail_z(density)) - z).max() < 0.01


def test_verification_avoids_the_intensity_curve_engine(monkeypatch):
    from densitylab.kernels import DiracKernel
    from densitylab.term_structure import simulate_intensity_paths

    def refuse(*args, **kwargs):
        raise AssertionError("intensity curve engine reached")

    monkeypatch.setattr(cli, "simulate_intensity_paths", refuse)
    checks = run_verification(cfgmod.parse_config(None))
    assert all(c["passed"] for c in checks), checks
    survival = next(c for c in checks if c["name"] == "survival_martingale")
    # the figures the 201-node curve engine gives on the same sample
    ec = cfgmod.experiment_config(cfgmod.parse_config(None), n_paths=2000)
    grid = np.arange(0.0, 2.0 + 1e-12, 0.01)
    probes = np.array([1.0, 2.0])
    curves = simulate_intensity_paths(ec.spec(), DiracKernel(), ec.measure(), grid, 0.5, 0.01,
                                      ec.n_paths, ec.seed + 1, probe_thetas=tuple(probes))
    ends = np.rint(probes / 0.01).astype(int)
    s = np.exp(-np.stack([np.trapezoid(curves["lam"][:, :j + 1], grid[:j + 1], axis=1)
                          for j in ends], axis=1))
    resid = s - np.exp(-ec.lambda_bar * probes) * (1.0 + curves["probe_martingale"])
    z = resid.mean(axis=0) / (resid.std(axis=0, ddof=1) / np.sqrt(ec.n_paths))
    assert survival["detail"].startswith("theta=1.0: z=")
    assert np.abs(np.array(_detail_z(survival)) - z).max() < 0.01


def test_verify_density_values_match_curve_engine():
    from densitylab.term_structure import simulate_density_paths, simulate_survival_values

    ec = cfgmod.experiment_config(cfgmod.parse_config(None), n_paths=200)
    assert (ec.zeta, ec.varpi, ec.sigma, ec.t) == (10.0, 1e-3, 0.001, 0.5)
    thetas = np.array((0.6, 1.0, 5.0))
    values = simulate_survival_values(ec.spec(), ec.measure(), thetas, ec.t, 0.01,
                                      ec.n_paths, ec.seed)
    curves = simulate_density_paths(ec.spec(), ec.measure(), np.arange(0.0, 5.0 + 1e-12, 0.01),
                                    ec.t, 0.01, ec.n_paths, ec.seed)
    cols = np.rint(thetas / 0.01).astype(int)
    # measured gap 1.6e-9, at theta = 5 (the curve engine's trapezoid error)
    assert np.abs(values["alpha"] - curves["alpha"][:, cols]).max() <= 1e-8


def test_cli_verify_report(tmp_path):
    out = str(tmp_path / "verify")
    assert main(["verify", "--out", out]) == 0
    report = open(os.path.join(out, "verify_report.txt")).read()
    assert "deterministic_baseline" in report
    assert "FAIL" not in report


def test_cli_verify_targets_follow_lambda_bar(tmp_path):
    cfg = write(tmp_path, "[model]\nlambda_bar = 0.2\n")
    out = str(tmp_path / "verify")
    assert main(["verify", "--strict", "--config", cfg, "--out", out]) == 0
    report = open(os.path.join(out, "verify_report.txt")).read()
    assert "density_martingale" in report and "survival_martingale" in report
    assert "FAIL" not in report


def test_verify_baseline_reads_rate_and_recovery(tmp_path):
    path = write(tmp_path, "[rates]\nr = 0.03\n\n[pricing]\nR = 0.3\n")
    checks = run_verification(cfgmod.parse_config(path), quick_paths=400)
    base = next(c for c in checks if c["name"] == "deterministic_baseline")
    assert base["passed"], base


@pytest.mark.parametrize("section,message", [
    ("[model]\nsigma = 0.05\n", "error: [model] sigma = 0.05"),
    ("[model]\ndelta_t = 0.02\n", "error: [model] delta_t = 0.02"),
    ("[model]\ndelta_theta = 0.02\n", "error: [model] delta_theta = 0.02"),
    ("[levy_measure]\nvarpi = 0.002\n", "error: [levy_measure] varpi = 0.002"),
    ("[levy_measure]\ntype = none\n", "error: [levy_measure] type = none"),
    ("[experiment]\nt = 0.25\n", "error: [experiment] t = 0.25"),
    ("[experiment]\nT = 2.0\n", "error: [experiment] T = 2.0"),
], ids=["sigma", "delta_t", "delta_theta", "varpi", "no_jumps", "t", "T"])
def test_cli_verify_rejects_uncalibrated_inputs(tmp_path, capsys, section, message):
    cfg = write(tmp_path, section)
    out = str(tmp_path / "verify")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not os.path.exists(out)


def test_cli_simulate_curves(tmp_path):
    cfg = write(tmp_path, tiny_for("simulate").replace("sigma = 0.0", "sigma = 0.001"))
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "--out", out, "--paths", "2"]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "curves.csv"))))
    assert set(rows[0].keys()) == {"t", "theta", "lambda", "S", "alpha", "path"}
    assert {r["path"] for r in rows} == {"0", "1"}
    first = rows[0]
    assert float(first["t"]) == 0.5 and float(first["theta"]) == 0.0
    assert float(first["S"]) == 1.0
    # alpha = S * lambda row by row
    for r in rows[:50]:
        assert float(r["alpha"]) == pytest.approx(float(r["S"]) * float(r["lambda"]),
                                                  rel=1e-9, abs=1e-12)


def test_verification_records_paper_exact_adjudication(tmp_path):
    path = write(tmp_path, "[rates]\nvasicek_formula = paper_exact\n")
    cfg = cfgmod.parse_config(path)
    checks = run_verification(cfg, quick_paths=400)
    adj = next(c for c in checks if c["name"] == "vasicek_adjudication")
    assert adj["passed"]                       # the oracle still selects `standard`
    assert "configured=paper_exact" in adj["detail"]
    assert "FAILED adjudication" in adj["detail"]


CORRELATED = TINY_KERNELS + """
[pricing]
regime = correlated
R = 0.4

[rates]
mode = vasicek
kappa = 1.0
delta = 0.05
r0 = 0.05
rho0 = 0.0
rates_correlated = true
"""


def _noisy(text: str) -> str:
    """The config with intensity noise, jumps and, if set, a rate loading."""
    return text.replace("sigma = 0.0", "sigma = 0.001").replace("b = 0.0", "b = 1.0").replace(
        "type = none", "varpi = 0.01").replace("rho0 = 0.0\n", "rho0 = 0.01\n")


NOISY_PIDE = _noisy(TINY_PIDE)
NOISY_CORRELATED = _noisy(CORRELATED)
NOISY_LINKED = NOISY_CORRELATED.replace(
    "regime = correlated\nR = 0.4", "recovery_type = intensity_linked\nf = identity")


def test_cli_price_correlated_zero_noise_matches_independent(tmp_path):
    cfg = write(tmp_path, CORRELATED)
    out = str(tmp_path / "corr")
    assert main(["price", "--config", cfg, "--out", out]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "prices.csv"))))
    assert len(rows) == 20
    # zero noise loading: the correlated machinery reduces to the closed form
    assert float(rows[0]["price"]) == pytest.approx(0.946770056608465, abs=2e-5)


@pytest.mark.parametrize("argv,message", [
    (["--status", "defaulted", "--tau", "0.7"], "error: --tau 0.7 must lie in [0, t]"),
    (["--status", "defaulted", "--tau", "-3"], "error: --tau -3.0 must lie in [0, t]"),
    (["--tau", "0.1"], "error: --tau 0.1 is read only with --status defaulted"),
    (["--status", "alive", "--tau", "0.25"], "error: --tau 0.25 is read only"),
], ids=["after_t", "negative", "alive_default_status", "alive"])
def test_cli_price_rejects_bad_tau_before_any_work(tmp_path, monkeypatch, capsys, argv,
                                                    message):
    def refuse(*args, **kwargs):
        raise AssertionError("priced before --tau was checked")

    for engine in ("simulate_density_paths", "simulate_survival_values",
                   "run_price_distribution", "_solver_from"):
        monkeypatch.setattr(cli, engine, refuse)
    out = str(tmp_path / "rejected")
    for text in (TINY, CORRELATED):
        assert main(["price", "--config", write(tmp_path, text), "--out", out, *argv]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not os.path.exists(out)


def test_cli_price_defaulted_tau_defaults_to_a_quarter(tmp_path, capsys):
    cfg = write(tmp_path, "[experiment]\nt = 0.2\nn_paths = 3\n")
    out = str(tmp_path / "early")
    assert main(["price", "--config", cfg, "--out", out, "--status", "defaulted"]) == 1
    assert capsys.readouterr().err.startswith("error: --tau 0.25 must lie in [0, t] = [0, 0.2]")
    assert main(["price", "--config", cfg, "--out", out, "--status", "defaulted",
                 "--tau", "0.2"]) == 0


def test_cli_price_intensity_linked_zero_noise_closed_form(tmp_path, monkeypatch):
    # R_T = w0 + w1 e^{-lambda}, lambda constant: P = B (S(T)/S(t) + E[R] (1 - S(T)/S(t)))
    import densitylab.pricing as pricing
    transforms = []
    transform = pricing.kernel_transform

    def counted(provider, t, T, u=0):
        transforms.append((u, np.size(provider.theta)))
        return transform(provider, t, T, u)

    monkeypatch.setattr(pricing, "kernel_transform", counted)
    cfg = write(tmp_path, CORRELATED.replace(
        "regime = correlated\nR = 0.4",
        "recovery_type = intensity_linked\nf = identity\nw0 = 0.3\nw1 = 0.3"))
    out = str(tmp_path / "linked")
    assert main(["price", "--config", cfg, "--out", out]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "prices.csv"))))
    assert len(rows) == 20
    lam, t, T = 0.1, 0.5, 1.0
    surv = np.exp(-lam * (T - t))
    expected = np.exp(-0.05 * (T - t)) * (surv + (0.3 + 0.3 * np.exp(-lam)) * (1 - surv))
    assert float(rows[0]["price"]) == pytest.approx(expected, abs=2e-5)
    # Kbreve at every quadrature node after t, Ktilde on the 16 nodes of [t, T] only
    assert transforms == [(0, 81), (1, 16)]


def test_cli_price_constant_rate_kernels_start_at_the_constant_rate(tmp_path):
    # under [rates] mode = constant the transform's rate stays at r, so the
    # short rate at t is r too, not [rates] r0 (default 0.05)
    cfg = write(tmp_path, TINY_KERNELS.replace("n_paths = 20", "n_paths = 2") + """
[rates]
r = 0.03

[pricing]
recovery_type = intensity_linked
f = identity
w0 = 0.3
w1 = 0.3
""")
    out = str(tmp_path / "constant")
    assert main(["price", "--config", cfg, "--out", out]) == 0
    prices = [float(r["price"]) for r in csv.DictReader(open(os.path.join(out, "prices.csv")))]
    lam, t, T = 0.1, 0.5, 1.0
    surv = np.exp(-lam * (T - t))
    expected = np.exp(-0.03 * (T - t)) * (surv + (0.3 + 0.3 * np.exp(-lam)) * (1 - surv))
    assert prices == pytest.approx([expected] * 2, abs=1e-6)


@pytest.mark.parametrize("text,argv", [
    (NOISY_CORRELATED, []), (NOISY_LINKED, []), (NOISY_LINKED, ["--status", "defaulted"]),
], ids=["correlated_alive", "linked_alive", "linked_defaulted"])
def test_cli_price_marches_nothing(tmp_path, monkeypatch, text, argv):
    import densitylab.pide as pide

    def refuse(*args, **kwargs):
        raise AssertionError("pricing-kernel equation marched")

    monkeypatch.setattr(pide, "_hv_march", refuse)
    for name in ("StateGrid", "PricingKernelSolver"):
        monkeypatch.setattr(cli, name, refuse)
    out = str(tmp_path / "prices")
    assert main(["price", "--config", write(tmp_path, text), "--out", out, *argv]) == 0
    prices = [float(r["price"]) for r in csv.DictReader(open(os.path.join(out, "prices.csv")))]
    assert len(prices) == 20 and all(0.0 < p < 1.0 for p in prices)


def _curve_route_prices(cfg_path: str) -> np.ndarray:
    """Alive kernel prices by trapezoid on `simulate_density_paths` curves
    from t on, with S_t = int_t^inf alpha and the flat-intensity tail
    S_t(theta_max) carrying Kbreve / lambda of the last node (the
    deterministic limit below LAMBDA_FLOOR): the route of `lab price`
    before its quadrature nodes.  t must be a node of the curve grid."""
    from densitylab.pide import kernel_transform
    from densitylab.pricing import LAMBDA_FLOOR, IntensityLinkedRecovery
    from densitylab.term_structure import simulate_density_paths
    parsed = cfgmod.parse_config(cfg_path)
    ec = cfgmod.experiment_config(parsed)
    t, T, r_t = ec.t, ec.T, cfgmod.build_rate_spec(parsed).r0
    recovery, discount = cli._recovery_from(parsed), cli._discount_from(parsed, t, T)
    res = simulate_density_paths(ec.spec(), ec.measure(), ec.theta_grid(), t, ec.delta_t,
                                 ec.n_paths, ec.seed)
    on = res["theta_grid"] >= t - 1e-12
    g, a, s = res["theta_grid"][on], res["alpha"][:, on], res["survival"][:, on]
    assert g[0] == pytest.approx(t, abs=1e-12)
    window, beyond = g <= T + 1e-12, g >= T - 1e-12

    def transform(thetas, u):
        a_, b_, c_ = kernel_transform(cli._coefficients_from(parsed)(thetas), t, T, u)
        return np.exp(a_ - b_ * r_t), c_

    disc0, c0 = transform(g, 0)
    k1 = disc0 * (a + c0 * s)
    if isinstance(recovery, IntensityLinkedRecovery):           # f = identity
        disc1, c1 = transform(g[window], 1)
        a_w, s_w = a[:, window], s[:, window]
        k2 = (recovery.w0 * k1[:, window]
              + recovery.w1 * disc1 * np.exp(-a_w / s_w) * (a_w + c1 * s_w))
    else:
        k2 = recovery.rate * k1[:, window]
    s_end = s[:, -1]
    lam_end = np.divide(a[:, -1], s_end, out=np.zeros_like(s_end), where=s_end > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_end = np.where(lam_end < LAMBDA_FLOOR, discount, disc0[-1] * (1.0 + c0[-1] / lam_end))
    legs = (np.trapezoid(k1[:, beyond], g[beyond], axis=1)
            + np.trapezoid(k2, g[window], axis=1) + s_end * q_end)
    return legs / (np.trapezoid(a, g, axis=1) + s_end)


ALIVE_KERNEL_RUNS = {
    "correlated": NOISY_CORRELATED.replace("n_paths = 20", "n_paths = 200"),
    "linked": NOISY_LINKED.replace("n_paths = 20", "n_paths = 200"),
}


def _alive_prices(tmp_path, text: str, name: str) -> np.ndarray:
    out = str(tmp_path / name)
    assert main(["price", "--config", write(tmp_path, text), "--out", out]) == 0
    return np.array([float(r["price"])
                     for r in csv.DictReader(open(os.path.join(out, "prices.csv")))])


@pytest.mark.parametrize("run", list(ALIVE_KERNEL_RUNS))
def test_cli_price_alive_reads_values_at_quadrature_nodes(tmp_path, monkeypatch, run):
    # one values-engine call at the 82 quadrature nodes, no curve: the curve
    # route's prices on 2,161-node curves agree up to that route's own
    # discretisation (measured max gaps 1.6e-7 correlated, 1.4e-7 linked)
    from densitylab.pricing import QUADRATURE_NODES
    calls = _record_values_engine(monkeypatch)
    prices = _alive_prices(tmp_path, ALIVE_KERNEL_RUNS[run], "alive")
    assert [c.size for c in calls] == [2 + sum(QUADRATURE_NODES)]
    assert np.abs(prices - _curve_route_prices(str(tmp_path / "lab.cfg"))).max() <= 3e-7


@pytest.mark.parametrize("run", list(ALIVE_KERNEL_RUNS))
def test_cli_price_quadrature_nodes_are_converged(tmp_path, monkeypatch, run):
    # doubling every interval's Gauss-Legendre nodes moves the prices by
    # rounding only (measured 1.8e-13 correlated, 2.2e-13 linked)
    import densitylab.pricing as pricing
    base = _alive_prices(tmp_path, ALIVE_KERNEL_RUNS[run], "base")
    monkeypatch.setattr(pricing, "QUADRATURE_NODES",
                        tuple(2 * n for n in pricing.QUADRATURE_NODES))
    assert np.abs(_alive_prices(tmp_path, ALIVE_KERNEL_RUNS[run], "doubled") - base).max() <= 1e-10


def test_cli_price_defaulted_linked_is_the_bond_times_the_recovery(tmp_path):
    # at tau <= t the kernels' C vanishes and e^{A - B r0} is the Vasicek
    # bond: each path's price is P(t, T; r0) (w0 + w1 e^{-lambda_t(tau)})
    from densitylab.rates import zcb_price
    from densitylab.term_structure import simulate_survival_values
    cfg = write(tmp_path, NOISY_LINKED.replace("f = identity", "f = identity\nw0 = 0.2\nw1 = 0.5"))
    parsed = cfgmod.parse_config(cfg)
    out = str(tmp_path / "dead")
    assert main(["price", "--status", "defaulted", "--tau", "0.25", "--config", cfg,
                 "--out", out]) == 0
    prices = np.array([float(r["price"])
                       for r in csv.DictReader(open(os.path.join(out, "prices.csv")))])
    ec = cfgmod.experiment_config(parsed)
    res = simulate_survival_values(ec.spec(), ec.measure(), np.array([0.25]), ec.t, ec.delta_t,
                                   ec.n_paths, ec.seed)
    lam = res["alpha"][:, 0] / res["survival"][:, 0]
    bond = zcb_price(cfgmod.build_rate_spec(parsed), ec.t, ec.T, parsed.rates.r0,
                     formula="standard")
    assert np.abs(prices - bond * (0.2 + 0.5 * np.exp(-lam))).max() <= 1e-12
    assert np.ptp(lam) > 1e-4


# ------------------------------------------------- the inputs each command reads

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
KDE_ARGV = ["kde", "--prices", "unread.csv"]
UNREAD_BY_PIDE_AND_KDE = [("[pricing]\nregime = correlated\n", "[pricing] regime = correlated"),
                          ("[rates]\nvasicek_formula = paper_exact\n",
                           "[rates] vasicek_formula = paper_exact"),
                          ("[model]\ntheta_max_rule = 30\n", "[model] theta_max_rule = 30")]


@pytest.mark.parametrize("argv,text,message", [
    (["experiment", "section7"], "[pricing]\nregime = correlated\n",
     "[pricing] regime = correlated"),
    (["experiment", "section7"], "[pricing]\nrecovery_type = intensity_linked\n",
     "[pricing] recovery_type = intensity_linked"),
    (["experiment", "section7"], "[model]\ntheta_max_rule = 30\n", "[model] theta_max_rule = 30"),
    (["verify"], "[model]\njump_sign_convention = section3\n",
     "[model] jump_sign_convention = section3"),
    (["verify"], "[experiment]\nn_paths = 7\n", "[experiment] n_paths = 7"),
    (["verify"], "[model]\ntheta_max_rule = 30\n", "[model] theta_max_rule = 30"),
    (["simulate", "--paths", "2"], "[experiment]\nn_paths = 50\n", "[experiment] n_paths = 50"),
    (["simulate", "--paths", "2"], "[rates]\nr = 0.2\n", "[rates] r = 0.2"),
    (["simulate", "--paths", "2"], "[pricing]\nR = 0.9\n", "[pricing] R = 0.9"),
    *((["pide"], text, message) for text, message in UNREAD_BY_PIDE_AND_KDE),
    *((KDE_ARGV, text, message) for text, message in UNREAD_BY_PIDE_AND_KDE),
    # the kernels' e^{A - B r} is the standard bond whatever the formula
    (["price"], CORRELATED.replace("kappa = 1.0", "kappa = 2.0")
     + "vasicek_formula = paper_exact\n", "[rates] vasicek_formula = paper_exact"),
    (["price"], CORRELATED.replace("type = none", "type = none\nz = 2.0"),
     "[levy_measure] z = 2.0"),
    # R B(t, T) after default reads no kernel
    (["price", "--status", "defaulted"], CORRELATED, "[rates] rates_correlated = true"),
    # the kernels' quadrature nodes are not on the delta_theta grid
    (["price"], CORRELATED.replace("b = 0.0", "b = 0.0\ndelta_theta = 0.02"),
     "[model] delta_theta = 0.02"),
], ids=["experiment-regime", "experiment-recovery_type", "experiment-theta_max_rule",
        "verify-jump_sign_convention", "verify-n_paths", "verify-theta_max_rule",
        "simulate-n_paths", "simulate-r", "simulate-R",
        "pide-regime", "pide-vasicek_formula", "pide-theta_max_rule",
        "kde-regime", "kde-vasicek_formula", "kde-theta_max_rule",
        "price_kernels-paper_exact", "price_kernels-z", "price_defaulted-rates_correlated",
        "price_kernels-delta_theta"])
def test_cli_rejects_unread_inputs_by_name(tmp_path, capsys, argv, text, message):
    out = str(tmp_path / "rejected")
    assert main([*argv, "--config", write(tmp_path, text), "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message} is read only by ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [["price"], ["pide"]], ids=["price", "pide"])
@pytest.mark.parametrize("mode,key,value", [
    ("constant", "delta", "0.07"), ("constant", "r0", "0.07"), ("constant", "rho0", "0.02"),
    ("constant", "phi0", "0.5"), ("vasicek", "r", "0.07"), ("vasicek_jumps", "r", "0.07"),
    ("vasicek", "phi0", "0.5"),
], ids=["constant-delta", "constant-r0", "constant-rho0", "constant-phi0", "vasicek-r",
        "vasicek_jumps-r", "vasicek-phi0"])
def test_cli_rejects_rates_keys_the_mode_drops(tmp_path, monkeypatch, capsys, argv, mode, key,
                                               value):
    # build_rate_spec drops the key under this mode, so its value has no effect
    def refuse(*args, **kwargs):
        raise AssertionError("priced or solved")

    for name in ("simulate_survival_values", "run_price_distribution", "_solver_from"):
        monkeypatch.setattr(cli, name, refuse)
    text = (TINY_PIDE if argv == ["pide"] else TINY_KERNELS + "[pricing]\nregime = correlated\n")
    text += f"\n[rates]\nmode = {mode}\n{key} = {value}\n"
    out = str(tmp_path / "rejected")
    assert main([*argv, "--config", write(tmp_path, text), "--out", out]) == 1
    default = cfgmod._shown(getattr(cfgmod.RatesConfig(), key))
    assert capsys.readouterr().err == (f"error: [rates] {key} = {value} has no effect under "
                                       f"mode = {mode}: leave it at {default}\n")
    assert not os.path.exists(out)


def test_cli_price_rejects_kappa_under_constant_rates(tmp_path, monkeypatch, capsys):
    # mode = constant holds lab price's rate at r, so kappa has no effect
    # there; lab pide reads it off the rate axis, which mean-reverts to r
    rates = "\n[rates]\nmode = constant\nkappa = 2.0\n"
    out = str(tmp_path / "rejected")
    with monkeypatch.context() as m:
        m.setattr(cli, "simulate_survival_values", lambda *a, **k: 1 / 0)
        price_cfg = write(tmp_path, TINY_KERNELS + "[pricing]\nregime = correlated\n" + rates)
        assert main(["price", "--config", price_cfg, "--out", out]) == 1
    assert capsys.readouterr().err == ("error: [rates] kappa = 2.0 has no effect under "
                                       "mode = constant: leave it at 1.0\n")
    assert not os.path.exists(out)
    grids = []
    for name, text in (("default.cfg", TINY_PIDE), ("kappa.cfg", TINY_PIDE + rates)):
        pide_out = str(tmp_path / (name + ".out"))
        assert main(["pide", "--config", write(tmp_path, text, name), "--out", pide_out]) == 0
        grids.append(open(os.path.join(pide_out, "kernel_grid.csv")).read())
    assert grids[0] != grids[1]


@pytest.mark.parametrize("argv", [[], ["--status", "defaulted"]], ids=["alive", "defaulted"])
def test_cli_price_rejects_vasicek_formula_under_constant_rates(tmp_path, monkeypatch, capsys,
                                                                argv):
    # mode = constant discounts with e^{-r (T - t)}, which no Vasicek formula reaches
    monkeypatch.setattr(cli, "run_price_distribution", lambda *a, **k: 1 / 0)
    cfg = write(tmp_path, TINY_KERNELS + "\n[rates]\nvasicek_formula = paper_exact\n")
    out = str(tmp_path / "rejected")
    assert main(["price", "--config", cfg, "--out", out, *argv]) == 1
    assert capsys.readouterr().err == ("error: [rates] vasicek_formula = paper_exact has no "
                                       "effect under mode = constant: leave it at standard\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("measure", ["exponential", "none"])
@pytest.mark.parametrize("argv", [["pide"], ["simulate", "--route", "intensity"]],
                         ids=["pide", "simulate_intensity"])
def test_cli_rejects_z_unless_point_mass(tmp_path, monkeypatch, capsys, argv, measure):
    # z is the point mass's mass; build_measure reads it for no other type
    def refuse(*args, **kwargs):
        raise AssertionError("solved or simulated")

    for name in ("_solver_from", "simulate_intensity_paths"):
        monkeypatch.setattr(cli, name, refuse)
    text = TINY_PIDE if argv == ["pide"] else TINY_KERNELS.replace("n_paths = 20\n", "")
    text = text.replace("type = none\n", f"type = {measure}\nz = 2.0\n")
    out = str(tmp_path / "rejected")
    assert main([*argv, "--config", write(tmp_path, text), "--out", out]) == 1
    assert capsys.readouterr().err == (f"error: [levy_measure] z = 2.0 has no effect under "
                                       f"type = {measure}: leave it at 1.0\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("key,value", [("w0", "0.5"), ("w1", "0.5"), ("f", "none")])
def test_cli_price_rejects_recovery_weights_under_deterministic_recovery(
        tmp_path, monkeypatch, capsys, key, value):
    # the correlated regime alive prices through the kernels, which read
    # w0, w1 and f only for intensity-linked recovery
    monkeypatch.setattr(cli, "simulate_survival_values", lambda *a, **k: 1 / 0)
    cfg = write(tmp_path, CORRELATED.replace("R = 0.4", f"R = 0.4\n{key} = {value}"))
    out = str(tmp_path / "rejected")
    assert main(["price", "--config", cfg, "--out", out]) == 1
    default = cfgmod._shown(getattr(cfgmod.PricingConfig(), key))
    assert capsys.readouterr().err == (f"error: [pricing] {key} = {value} has no effect under "
                                       f"recovery_type = deterministic: leave it at {default}\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("key,value,default", [("regime", "correlated", "independent"),
                                               ("R", "0.5", "0.4")], ids=["regime", "R"])
@pytest.mark.parametrize("argv", [[], ["--status", "defaulted"]], ids=["alive", "defaulted"])
def test_cli_price_rejects_regime_under_intensity_linked_recovery(tmp_path, monkeypatch, capsys,
                                                                  argv, key, value, default):
    # intensity-linked recovery reads no R and prices through the kernels
    # in either regime
    monkeypatch.setattr(cli, "simulate_survival_values", lambda *a, **k: 1 / 0)
    cfg = write(tmp_path, NOISY_LINKED.replace("[pricing]\n", f"[pricing]\n{key} = {value}\n"))
    out = str(tmp_path / "rejected")
    assert main(["price", "--config", cfg, "--out", out, *argv]) == 1
    assert capsys.readouterr().err == (f"error: [pricing] {key} = {value} has no effect under "
                                       f"recovery_type = intensity_linked: leave it at "
                                       f"{default}\n")
    assert not os.path.exists(out)


def test_unread_input_error_names_the_readers_and_the_default(tmp_path, capsys):
    out = str(tmp_path / "rejected")
    cfg = write(tmp_path, "[kernel]\nc0 = 4.0\n")
    assert main(["experiment", "section7", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == ("error: [kernel] c0 = 4.0 is read only by "
                                       "simulate --route intensity and pide, not by "
                                       "experiment: leave it at 1.0\n")


@pytest.mark.parametrize("command", list(cfgmod.READS))
def test_section7_cfg_passes_every_command(command):
    cfgmod.reject_unread(cfgmod.parse_config(SECTION7_CFG), command)


def test_every_key_is_read_by_some_command():
    from dataclasses import fields
    keys = {(name, f.name) for name, cls in cfgmod._SECTION_TYPES.items() for f in fields(cls)}
    assert set().union(*cfgmod.READS.values()) == keys


def test_readme_table_names_the_keys_each_command_reads():
    lines = open(README).read().splitlines()
    start = lines.index("| command | reads |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, reads = (cell.strip() for cell in line.strip("|").split("|"))
        rows[command.strip("`")] = {(section, key.strip())
                                    for part in reads.split(" · ")
                                    for section, keys in [part.split(": ")]
                                    for key in keys.split(",")}
    assert rows == {command: set(keys) for command, keys in cfgmod.READS.items()}
