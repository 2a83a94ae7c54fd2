import math
import os

import pytest

from killdiff.cli import ConfigError, main, parse_config, render_config
from killdiff.model import BoundaryKind, KillingKind

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MINIMAL = """
[domain]
length = 2.0

[killing]
kind = uniform
v0 = 1.0

[initial]
y = 0.7

[method]
cells = 100
dt = 2e-3
t_max = 8.0
mc_n = 500
"""


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.model.domain.length == 2.0
    assert cfg.model.domain.left.kind is BoundaryKind.ABSORBING
    assert cfg.killing.kind is KillingKind.UNIFORM
    assert cfg.y == 0.7
    assert cfg.grid.cell_count == 100
    assert cfg.mc.n_trajectories == 500
    assert cfg.method == "all"


def test_parse_dirac_spots(tmp_path):
    cfg = parse_config(
        write(
            tmp_path,
            "[domain]\nlength = 1.0\n[killing]\nkind = dirac\nspots = 0.3:2.0, 0.7:3.0\n",
        )
    )
    assert cfg.killing.spots == ((0.3, 2.0), (0.7, 3.0))


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "\n[plotting]\ncolor = red\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[domain]\nlength = 1.0\nleftt = absorbing\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)


def test_missing_file_rejected():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/no/such/file.ini")


def test_invalid_problem_rejected(tmp_path):
    path = write(tmp_path, "[domain]\nlength = 1.0\n[killing]\nkind = uniform\nv0 = -1\n")
    with pytest.raises(ConfigError, match="non-negative"):
        parse_config(path)


def test_malformed_spot_rejected(tmp_path):
    path = write(tmp_path, "[domain]\nlength = 1.0\n[killing]\nkind = dirac\nspots = 0.5\n")
    with pytest.raises(ConfigError, match="position:strength"):
        parse_config(path)


def test_render_parse_roundtrip(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    cfg2 = parse_config(write(tmp_path, render_config(cfg), "rendered.ini"))
    assert cfg2 == cfg


@pytest.mark.parametrize(
    "name",
    [
        "dirac_reference.ini",
        "steady_uniform.ini",
        "green_rinf.ini",
        "piecewise_rates.ini",
        "drift.ini",
    ],
)
def test_shipped_scenarios_roundtrip(name, tmp_path):
    cfg = parse_config(os.path.join(SCENARIOS, name))
    cfg2 = parse_config(write(tmp_path, render_config(cfg)))
    assert cfg2 == cfg


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "killdiff" in capsys.readouterr().out


def test_usage_error_exits_two(tmp_path, capsys):
    path = write(tmp_path, "[domain]\nlength = 1.0\nbogus = 1\n")
    assert main(["split", path]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_split_all_methods_csv(tmp_path, capsys):
    path = write(
        tmp_path,
        """
[domain]
length = 3.141592653589793

[killing]
kind = dirac
spots = 2.0:1.0

[initial]
y = 1.0

[method]
cells = 200
dt = 2e-3
t_max = 14.0
mc_n = 1000
mc_width = 0.09
""",
    )
    out = tmp_path / "out"
    assert main(["--out", str(out), "split", path]) == 0
    lines = (out / "split.csv").read_text().splitlines()
    assert lines[0].startswith("method,p_killed,p_absorbed")
    methods = [ln.split(",")[0] for ln in lines[1:]]
    assert methods == ["analytic", "pde", "mc"]
    values = {m: float(ln.split(",")[1]) for m, ln in zip(methods, lines[1:])}
    assert values["pde"] == pytest.approx(values["analytic"], abs=5e-3)
    assert values["mc"] == pytest.approx(values["analytic"], abs=0.05)


def test_pde_steady_csv(tmp_path):
    path = write(
        tmp_path,
        """
[domain]
length = 1.0
left = absorbing
right = injection
phi = 1.0

[killing]
kind = uniform
v0 = 4.0

[method]
cells = 400
""",
    )
    out = tmp_path / "out"
    assert main(["--out", str(out), "pde", path, "--mode", "steady"]) == 0
    text = (out / "steady.csv").read_text()
    assert text.startswith("quantity,value")
    ratio = float([ln for ln in text.splitlines() if ln.startswith("ratio_rs")][0].split(",")[1])
    assert ratio == pytest.approx(1.0 / (math.cosh(2.0) - 1.0), rel=1e-3)


def test_sweep_monotone_ratio(tmp_path):
    path = write(
        tmp_path,
        """
[domain]
length = 1.0
left = absorbing
right = injection
phi = 1.0

[killing]
kind = uniform
v0 = 4.0

[method]
cells = 200
""",
    )
    out = tmp_path / "out"
    assert main(["--out", str(out), "sweep", path, "--param", "length", "--values", "0.5,1.0,2.0"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,value,observable,method,result"
    ratios = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert ratios == sorted(ratios, reverse=True)


def test_mc_survival_and_split(tmp_path):
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["--seed", "5", "--out", str(out), "mc", path]) == 0
    surv = (out / "survival.csv").read_text().splitlines()
    assert surv[0] == "t,survival,stderr"
    s_vals = [float(ln.split(",")[1]) for ln in surv[1:]]
    assert all(0 <= s <= 1 for s in s_vals)
    assert (out / "split.csv").exists()


def test_seed_makes_outputs_identical(tmp_path):
    path = write(tmp_path, MINIMAL)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--seed", "9", "--out", str(out), "mc", path]) == 0
        outs.append((out / "survival.csv").read_bytes())
    assert outs[0] == outs[1]


def test_analytic_subcommand_no_closed_form_errors(tmp_path, capsys):
    path = write(
        tmp_path,
        "[domain]\nlength = 1.0\n[killing]\nkind = piecewise\nbreakpoints = 0.5\nrates = 1.0 2.0\n",
    )
    assert main(["analytic", path]) == 2
    assert "no closed form" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["two", "-2"])
@pytest.mark.parametrize("command", ["split", "crosscheck"])
def test_bad_worker_count_rejected(tmp_path, capsys, monkeypatch, value, command):
    monkeypatch.setenv("KILLDIFF_WORKERS", value)
    argv = ["--out", str(tmp_path / "out"), command]
    if command == "split":
        argv += [write(tmp_path, MINIMAL), "--method", "pde"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: KILLDIFF_WORKERS")
    assert value in err


@pytest.mark.parametrize(
    "argv",
    [["pde"], ["split", "--method", "pde"], ["sweep", "--param", "drift", "--values", "0.5,60"]],
    ids=["pde", "split", "sweep"],
)
def test_grid_too_coarse_for_drift_exits_two(tmp_path, capsys, argv):
    coarse = MINIMAL.replace("cells = 100", "cells = 16\nmethod = pde")
    path = write(tmp_path, coarse + "\n[diffusion]\ndrift = 60.0\n")
    assert main(["--out", str(tmp_path / "out"), argv[0], path] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "cell Peclet number" in err
    assert ("drift=60.0: " in err) == (argv[0] == "sweep")
