import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from killdiff import crosscheck, montecarlo
from killdiff.cli import main, parse_config
from killdiff.fpe import GridSpec
from killdiff.model import BoundaryKind, InputError, KillingMeasure, interval, validate_problem
from killdiff.montecarlo import McConfig

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MINIMAL = """
[domain]
length = 2.0

[killing]
rates = 1.0

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
    assert cfg.killing == KillingMeasure(rates=(1.0,))
    assert cfg.y == 0.7
    assert cfg.grid.cell_count == 100
    assert cfg.mc.n_trajectories == 500
    assert cfg.method == "all"


def test_parse_dirac_spots(tmp_path):
    cfg = parse_config(
        write(
            tmp_path,
            "[domain]\nlength = 1.0\n[killing]\nspots = 0.3:2.0, 0.7:3.0\n",
        )
    )
    assert cfg.killing.spots == ((0.3, 2.0), (0.7, 3.0))


def test_parse_a_rate_with_spots(tmp_path):
    cfg = parse_config(
        write(tmp_path, "[domain]\nlength = 1.0\n[killing]\nrates = 1.0\nspots = 0.6:2.0\n")
    )
    assert cfg.killing == KillingMeasure(rates=(1.0,), spots=((0.6, 2.0),))


@pytest.mark.parametrize("line", ["kind = uniform", "v0 = 1.0"])
def test_kind_and_v0_are_unknown_keys(tmp_path, capsys, line):
    path = write(tmp_path, MINIMAL.replace("rates = 1.0", line))
    assert main(["split", path]) == 2
    assert f"unknown key {line.split()[0]!r} in section [killing]" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "\n[plotting]\ncolor = red\n")
    with pytest.raises(InputError, match="unknown section"):
        parse_config(path)


@pytest.mark.parametrize("default", ["[DEFAULT]\ncells = 100\n", "[DEFAULT]\n"], ids=["with-a-key", "empty"])
def test_default_section_is_refused_by_name(tmp_path, capsys, default):
    path = write(tmp_path, default + MINIMAL)
    assert main(["split", path]) == 2
    assert capsys.readouterr().err == "error: unknown section [DEFAULT]\n"


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[domain]\nlength = 1.0\nleftt = absorbing\n")
    with pytest.raises(InputError, match="unknown key"):
        parse_config(path)


def test_missing_file_rejected():
    with pytest.raises(InputError, match="cannot read"):
        parse_config("/no/such/file.ini")


def test_invalid_problem_rejected(tmp_path):
    path = write(tmp_path, "[domain]\nlength = 1.0\n[killing]\nrates = -1\n")
    with pytest.raises(InputError, match="non-negative"):
        parse_config(path)


def test_malformed_spot_rejected(tmp_path):
    path = write(tmp_path, "[domain]\nlength = 1.0\n[killing]\nspots = 0.5\n")
    with pytest.raises(InputError, match="position:strength"):
        parse_config(path)


def violations(model=interval(1.0), killing=KillingMeasure()):
    return "; ".join(validate_problem(model, killing))


def refusal(make, *args):
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return ""


UNIT = "[domain]\nlength = 1.0\n"

# each number a scenario states: its INI text and the library's refusal
NON_FINITE = {
    "length": ("[domain]\nlength = {}\n", lambda v: violations(interval(v))),
    "d": (UNIT + "[diffusion]\nd = {}\n", lambda v: violations(interval(1.0, diffusion=v))),
    "drift": (UNIT + "[diffusion]\ndrift = {}\n", lambda v: violations(interval(1.0, drift=v))),
    "phi": (
        UNIT + "right = injection\nphi = {}\n",
        lambda v: violations(interval(1.0, right="injection", phi=v)),
    ),
    "rates": (
        UNIT + "[killing]\nrates = {}\n", lambda v: violations(killing=KillingMeasure(rates=(v,)))
    ),
    "breakpoints": (
        UNIT + "[killing]\nbreakpoints = {}\nrates = 1 2\n",
        lambda v: violations(killing=KillingMeasure((v,), (1.0, 2.0))),
    ),
    "spot-position": (
        UNIT + "[killing]\nspots = {}:1.0\n",
        lambda v: violations(killing=KillingMeasure(spots=((v, 1.0),))),
    ),
    "spot-strength": (
        UNIT + "[killing]\nspots = 0.5:{}\n",
        lambda v: violations(killing=KillingMeasure(spots=((0.5, v),))),
    ),
    "dt": (UNIT + "[method]\ndt = {}\n", lambda v: refusal(GridSpec, 100, v, 1.0)),
    "t_max": (UNIT + "[method]\nt_max = {}\n", lambda v: refusal(GridSpec, 100, 1e-3, v)),
    "mc_dt": (UNIT + "[method]\nmc_dt = {}\n", lambda v: refusal(McConfig, v, 100)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("field", list(NON_FINITE))
def test_non_finite_input_is_refused(tmp_path, capsys, field, value):
    text, library = NON_FINITE[field]
    assert "finite" in library(value)
    out = tmp_path / "out"
    assert main(["--out", str(out), "split", write(tmp_path, text.format(value))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    if field == "mc_dt":
        assert "MC step (mc_dt)" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_percent_sign_is_read_as_written(tmp_path, capsys, monkeypatch):
    # no interpolation: a % is refused as a number and kept in a path
    assert main(["split", write(tmp_path, "[domain]\nlength = 1%\n")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, MINIMAL + "\n[output]\ndir = 100%done\n")
    assert main(["split", path, "--method", "pde"]) == 0
    assert (tmp_path / "100%done" / "split.csv").read_text().startswith("method,p_killed")


@pytest.mark.parametrize(
    "text",
    [
        b"length = 1.0\n[domain]\n",
        b"[domain]\nlength = 1.0\nlength = 2.0\n",
        b"[domain]\nlength = 1.0\n[domain]\nleft = absorbing\n",
        b"[domain]\nlength\n",
        b"[domain]\nlength = 1.0\nleft = absorbing\xff\n",
    ],
    ids=["key-before-section", "repeated-key", "repeated-section", "no-equals", "not-utf8"],
)
def test_a_malformed_file_is_refused(tmp_path, capsys, text):
    path = tmp_path / "scenario.ini"
    path.write_bytes(text)
    assert main(["split", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIOS)))
def test_shipped_scenarios_parse(name):
    cfg = parse_config(os.path.join(SCENARIOS, name))
    assert cfg.grid.cell_count >= 8
    assert 0 <= cfg.y <= cfg.model.domain.length


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
spots = 2.0:1.0

[initial]
y = 1.0

[method]
cells = 200
dt = 2e-3
t_max = 14.0
mc_n = 1000
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
rates = 4.0

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


def test_write_rows_writes_each_cell_as_repr_of_a_float_or_str(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [
        (np.float64(1.0), 0.1, -0.0),
        (math.nan, math.inf, np.float64(-math.inf)),
        (3, "pde", np.float64(1e-300)),
        (True, False, "x, y"),
    ]
    # runs of number rows, joined as lines, before, between and after the
    # rows the csv module writes
    numbers = [(0.1, -0.0, 3), (1e-300, math.nan, -math.inf), (2.5e16, 7, 1 / 3)]
    rows += numbers + rows[:1] + numbers[:1] + [(0.5, "a\rb", 1.0)] + numbers
    crosscheck.write_rows(str(path), ("a", "b", "c"), rows)
    numbers_csv = b"0.1,-0.0,3\n1e-300,nan,-inf\n2.5e+16,7,0.3333333333333333\n"
    assert path.read_bytes() == (
        b'a,b,c\n1.0,0.1,-0.0\nnan,inf,-inf\n3,pde,1e-300\n1,0,"x, y"\n'
        + numbers_csv
        + b"1.0,0.1,-0.0\n"
        + numbers_csv[:11]
        + b'0.5,"a\rb",1.0\n'
        + numbers_csv
    )


def test_mc_histogram_prints_one_wrote_line_per_file_in_order(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--seed", "5", "--out", str(out), "mc", write(tmp_path, MINIMAL), "--histogram"]
    assert main(argv) == 0
    names = ("survival.csv", "histogram.csv", "split.csv")
    assert capsys.readouterr().out == "".join(f"wrote {out / name}\n" for name in names)


@pytest.mark.parametrize("flag", [False, True], ids=["ini-dir", "out-flag"])
def test_output_goes_under_out_else_the_ini_dir(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, MINIMAL + "\n[output]\ndir = from_ini\n")
    out = ["--out", "from_flag"] if flag else []
    assert main(out + ["split", path, "--method", "pde"]) == 0
    expected = os.path.join("from_flag" if flag else "from_ini", "split.csv")
    assert capsys.readouterr().out == f"wrote {expected}\n"
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [os.path.dirname(expected)]
    assert (tmp_path / expected).read_text().startswith("method,p_killed")


def test_pde_stride_computes_the_strided_steps_of_stride_one(tmp_path):
    path = os.path.join(SCENARIOS, "dirac_reference.ini")
    outs = {stride: tmp_path / stride for stride in ("default", "1")}
    assert main(["--out", str(outs["default"]), "pde", path]) == 0
    assert main(["--out", str(outs["1"]), "pde", path, "--stride", "1"]) == 0
    lines = {k: (out / "survival.csv").read_text().splitlines() for k, out in outs.items()}
    strided, every = lines["default"], [lines["1"][0]] + lines["1"][1::10]
    assert len(strided) == len(every) == 1402
    for row, ref in zip(strided, every):
        t, survival, stderr = row.split(",")
        t_ref, survival_ref, stderr_ref = ref.split(",")
        assert (t, stderr) == (t_ref, stderr_ref)
        if survival != "survival":
            assert abs(float(survival) - float(survival_ref)) <= 1e-12


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
rates = 4.0

[method]
cells = 200
""",
    )
    out = tmp_path / "out"
    assert main(["--out", str(out), "sweep", path, "--param", "length", "--values", "0.5,1.0,2.0"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,value,observable,method,result"
    ratios = [float(ln.split(",")[-1]) for ln in lines[1:] if ln.split(",")[3] == "pde"]
    assert len(ratios) == 3
    assert ratios == sorted(ratios, reverse=True)


def test_sweep_writes_the_closed_form_ratio_beside_the_pde_one(tmp_path):
    # the neck-length sweep: steady injection against uniform killing v0 = 4
    # on 800 cells, and the closed form 1 / (cosh(2L) - 1)
    lengths = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    out = tmp_path / "out"
    argv = ["sweep", os.path.join(SCENARIOS, "steady_uniform.ini"), "--param", "length"]
    assert main(["--out", str(out)] + argv + ["--values", ",".join(map(str, lengths))]) == 0
    rows = [ln.split(",") for ln in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [(float(r[1]), r[2], r[3]) for r in rows] == [
        (L, "ratio_rs", m) for L in lengths for m in ("analytic", "pde")
    ]
    for (_, _, _, _, closed), (_, _, _, _, pde), L in zip(rows[::2], rows[1::2], lengths):
        assert float(closed) == pytest.approx(1 / (math.cosh(2 * L) - 1), rel=1e-12)
        assert float(pde) == pytest.approx(float(closed), rel=2e-5)


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
        "[domain]\nlength = 1.0\n[killing]\nbreakpoints = 0.5\nrates = 1.0 2.0\n",
    )
    assert main(["analytic", path]) == 2
    assert "no closed form" in capsys.readouterr().err


# drift that holds the mass against a closed end with nothing to drain it
# there: the steady mass and the mean exit time grow like exp(|a| L / D)
TRAPPED_SPLIT = """
[domain]
length = 1.0
left = reflecting
right = absorbing

[diffusion]
d = 0.7
drift = -29.4

[initial]
y = 0.5

[method]
method = pde
cells = {cells}
"""

TRAPPED_STEADY = """
[domain]
length = 1.0
left = {left}
right = injection
phi = 1.0

[diffusion]
drift = 80.0

[killing]
{killing}

[method]
cells = {cells}
t_max = 1.0
"""


@pytest.mark.parametrize("cells", [100, 400, 1600])
def test_trapped_split_exits_two(tmp_path, capsys, cells):
    path = write(tmp_path, TRAPPED_SPLIT.format(cells=cells))
    out = tmp_path / "out"
    assert main(["--out", str(out), "split", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "kill + absorption misses the mass put in" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["pde", "--mode", "steady"], ["sweep", "--param", "drift", "--values", "0,80"]],
    ids=["pde", "sweep"],
)
def test_trapped_steady_state_exits_two(tmp_path, capsys, argv):
    text = TRAPPED_STEADY.format(left="absorbing", killing="rates = 0", cells=200)
    path = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--out", str(out), argv[0], path] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "kill + absorption misses the mass put in" in err
    assert ("drift=80.0: " in err) == (argv[0] == "sweep")
    assert not out.exists()


def test_trapped_evolution_is_written(tmp_path):
    # the steady solve is refused here (at 64 cells it once failed
    # outright), but `pde` evolution needs none
    text = TRAPPED_STEADY.format(left="reflecting", killing="spots = 0.5:1.0", cells=64)
    out = tmp_path / "out"
    assert main(["--out", str(out), "pde", write(tmp_path, text + "[initial]\ny = 0.3\n")]) == 0
    rows = (out / "survival.csv").read_text().splitlines()[1:]
    survival = [float(row.split(",")[1]) for row in rows]
    assert len(survival) == 101
    assert all(math.isfinite(v) and v > 0 for v in survival)


@pytest.mark.parametrize(
    "name,drift", [("steady_uniform.ini", 3.0), ("green_rinf.ini", 1.0)]
)
def test_analytic_refuses_drift(tmp_path, capsys, name, drift):
    text = open(os.path.join(SCENARIOS, name)).read() + f"\n[diffusion]\ndrift = {drift}\n"
    out = tmp_path / "out"
    assert main(["--out", str(out), "analytic", write(tmp_path, text)]) == 2
    assert "no closed form" in capsys.readouterr().err
    assert not out.exists()


REFLECTING_ZERO = """
[domain]
length = 1.0
left = reflecting
right = reflecting

[killing]
rates = 0

[initial]
y = 0.5
"""


@pytest.mark.parametrize(
    "argv,ini,message",
    [
        (["pde", "--mode", "steady"], "dirac_reference.ini", "one injection and one absorbing"),
        (["pde", "--mode", "green"], "steady_uniform.ini", "both ends absorbing"),
        (["split", "--method", "pde"], REFLECTING_ZERO, "absorbing boundary or nonzero killing"),
        (["mc"], REFLECTING_ZERO, "never terminate"),
        (["split"], "[killing]\nrates = 1.0\n", "missing required section [domain]"),
        (["split"], UNIT + "[method]\nmethod = exact\n", "unknown method 'exact'"),
        (["split", "--method", "analytic"], "piecewise_rates.ini", "no closed-form split statistics"),
        (["sweep", "--param", "spot_position", "--values", "0.5"], "two_spots.ini", "exactly one spot"),
        (["sweep", "--param", "v0", "--values", "1,x"], "free_interval.ini", "bad --values"),
        (["sweep", "--param", "v0", "--values", ","], "free_interval.ini", "--values is empty"),
    ],
    ids=[
        "pde-steady", "pde-green", "split-pde", "mc", "no-domain", "unknown-method",
        "split-analytic", "sweep-two-spots", "sweep-bad-values", "sweep-no-values",
    ],
)
def test_refused_input_exits_two(tmp_path, capsys, argv, ini, message):
    # ini is a shipped file's name or the text of a file
    path = os.path.join(SCENARIOS, ini) if ini.endswith(".ini") else write(tmp_path, ini)
    assert main(["--out", str(tmp_path / "out"), argv[0], path] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_other_value_errors_keep_their_traceback(tmp_path, monkeypatch):
    # only refused inputs map to exit 2; a fault inside the library surfaces
    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("killdiff.crosscheck.closed_forms", broken)
    path = os.path.join(SCENARIOS, "dirac_reference.ini")
    with pytest.raises(ValueError, match="broadcast"):
        main(["--out", str(tmp_path / "out"), "analytic", path])


def test_sweep_names_the_value_of_a_refused_input(tmp_path, capsys):
    # a length that leaves the start point y = 0.5 outside the interval
    path = write(tmp_path, REFLECTING_ZERO.replace("rates = 0", "rates = 1.0"))
    argv = ["sweep", path, "--param", "length", "--values", "0.2"]
    assert main(["--out", str(tmp_path / "out")] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: length=0.2: invalid problem: ")
    assert "point source at 0.5 not strictly inside" in err


def test_mc_histogram_from_the_one_simulation(tmp_path, monkeypatch):
    calls = []
    simulate = montecarlo.simulate_outcomes

    def counted(*args):
        calls.append(args)
        return simulate(*args)

    monkeypatch.setattr(montecarlo, "simulate_outcomes", counted)
    out = tmp_path / "out"
    assert main(["--seed", "5", "--out", str(out), "mc", write(tmp_path, MINIMAL), "--histogram"]) == 0
    assert len(calls) == 1
    hist = (out / "histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,density"
    assert len(hist) == 51


def test_mc_histogram_without_kills_is_skipped(tmp_path):
    path = write(tmp_path, MINIMAL.replace("rates = 1.0", "rates = 0"))
    out = tmp_path / "out"
    assert main(["--seed", "5", "--out", str(out), "mc", path, "--histogram"]) == 0
    assert (out / "survival.csv").exists() and (out / "split.csv").exists()
    assert not (out / "histogram.csv").exists()


@pytest.mark.parametrize(
    "name,keys",
    [
        ("free_interval", ["p_killed", "p_absorbed", "mean_absorb_time", "ratio_rinf"]),
        ("convergence_uniform", ["p_killed", "p_absorbed", "ratio_rinf"]),
        ("constant_killing_line", ["p_killed", "p_absorbed", "ratio_rinf"]),
    ],
)
def test_analytic_on_absorbing_intervals_without_spots(tmp_path, name, keys):
    out = tmp_path / "out"
    assert main(["--out", str(out), "analytic", os.path.join(SCENARIOS, name + ".ini")]) == 0
    rows = dict(ln.split(",") for ln in (out / "analytic.csv").read_text().splitlines()[1:])
    assert list(rows) == keys
    assert float(rows["p_killed"]) + float(rows["p_absorbed"]) == 1.0
    if name == "free_interval":
        y = math.pi / 2
        assert float(rows["mean_absorb_time"]) == y * (math.pi - y) / 2


@pytest.mark.parametrize("name", ["free_interval", "convergence_uniform"])
def test_split_analytic_writes_nan_for_a_mean_without_a_form(tmp_path, name):
    out = tmp_path / "out"
    ini = os.path.join(SCENARIOS, name + ".ini")
    assert main(["--out", str(out), "split", ini, "--method", "analytic"]) == 0
    header, row = (out / "split.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["method"] == "analytic"
    assert values["mean_kill_time"] == "nan"
    assert (values["mean_absorb_time"] == "nan") == (name != "free_interval")


def test_sweep_v0_refuses_breakpoints_it_would_collapse(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", os.path.join(SCENARIOS, "piecewise_rates.ini"), "--param", "v0", "--values", "1,2"]
    assert main(["--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: v0=1.0: ")
    assert "refuses breakpoints" in err
    assert not (out / "sweep.csv").exists()


def sweep_rows_at(out, value):
    rows = [ln.split(",") for ln in (out / "sweep.csv").read_text().splitlines()[1:]]
    return {(observable, method): result for _, v, observable, method, result in rows if float(v) == value}


def split_rows(out):
    header, *rows = [ln.split(",") for ln in (out / "split.csv").read_text().splitlines()]
    return {(name, row[0]): value for row in rows for name, value in zip(header, row)}


@pytest.mark.parametrize(
    "ini,param,value",
    [
        ("dirac_reference.ini", "v0", 0.0),
        ("pumps_on_background.ini", "spot_position", 0.6),
        ("dirac_reference.ini", "diffusion", 1.0),
    ],
    ids=["v0-keeps-the-spot", "spot-position-keeps-the-rate", "diffusion-keeps-the-measure"],
)
def test_sweep_edits_one_field_of_the_measure(tmp_path, ini, param, value):
    # at the scenario's own value the swept measure is the scenario's, so
    # the sweep's PDE rows are the split's to the last digit
    path = os.path.join(SCENARIOS, ini)
    argv = ["sweep", path, "--param", param, "--values", str(value)]
    assert main(["--out", str(tmp_path / "sweep")] + argv) == 0
    assert main(["--out", str(tmp_path / "split"), "split", path, "--method", "pde"]) == 0
    swept, split = sweep_rows_at(tmp_path / "sweep", value), split_rows(tmp_path / "split")
    for observable in ("p_killed", "ratio_rinf"):
        assert swept[observable, "pde"] == split[observable, "pde"]


def test_a_reflecting_injection_sweep_writes_the_split_rows(tmp_path):
    # with no absorbing end the scenario is no channel: its injection end
    # reflects the start point, and the sweep writes the rows `split` writes
    text = REFLECTING_ZERO.replace("right = reflecting", "right = injection\nphi = 1.0")
    text = text.replace("rates = 0", "rates = 1.0") + "\n[method]\nmc_dt = 1e-2\nmc_n = 500\n"
    path = write(tmp_path, text)
    argv = ["sweep", path, "--param", "v0", "--values", "1.0,2.0"]
    assert main(["--out", str(tmp_path / "sweep")] + argv) == 0
    assert main(["--out", str(tmp_path / "split"), "split", path]) == 0
    split = split_rows(tmp_path / "split")
    keys = sorted((observable, m) for observable in ("p_killed", "ratio_rinf") for m in ("pde", "mc"))
    assert sorted(sweep_rows_at(tmp_path / "sweep", 2.0)) == keys
    swept = sweep_rows_at(tmp_path / "sweep", 1.0)
    assert sorted(swept) == keys
    for key in keys:
        assert swept[key] == split[key]


def test_crosscheck_exits_one_on_a_failing_row(tmp_path, monkeypatch, capsys):
    broken = crosscheck.Scenario(
        "broken", "steady", interval(1.0), KillingMeasure.uniform(1.0),  # no injection end
        grid=GridSpec(100, 1e-3, 1.0), mc=McConfig(dt=1e-3, n_trajectories=100),
    )
    monkeypatch.setattr(crosscheck, "default_matrix", lambda seed, workers: [broken])
    assert main(["--out", str(tmp_path), "crosscheck"]) == 1
    summary = (tmp_path / "summary.txt").read_text()
    assert summary == capsys.readouterr().out
    assert summary.startswith("[FAIL] broken / error: ") and summary.endswith("\n0/1 comparisons passed\n")
    assert len((tmp_path / "discrepancies.csv").read_text().splitlines()) == 6


def test_sweep_y_refuses_a_steady_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", os.path.join(SCENARIOS, "steady_uniform.ini"), "--param", "y", "--values", "0.2,0.5"]
    assert main(["--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: y=0.2: ")
    assert "no start point" in err
    assert not (out / "sweep.csv").exists()


def test_mc_width_is_an_unknown_key(tmp_path, capsys):
    path = write(tmp_path, MINIMAL.replace("mc_n = 500", "mc_n = 500\nmc_width = 0.09"))
    assert main(["split", path]) == 2
    assert "unknown key 'mc_width' in section [method]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--points", "0"],
        ["pde", "--stride", "-3"],
        ["pde", "--stride", "two"],
        ["split", "--workers", "0"],
        ["split", "--workers", "two"],
        ["crosscheck", "--workers", "-2"],
    ],
    ids=[
        "points-0", "stride-negative", "stride-text",
        "workers-0", "workers-text", "workers-negative",
    ],
)
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    command, flag, value = argv
    ini = [] if command == "crosscheck" else [write(tmp_path, MINIMAL)]
    if flag == "--workers":  # a global option, given before the subcommand
        args = [flag, value, command] + ini
    else:
        args = [command] + ini + [flag, value]
    assert main(["--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a positive integer, got '{value}'" in err
    assert not out.exists()


# --- repeated calls in one process ---------------------------------------

# MINIMAL with its own MC seed and every method, so a call that falls back on
# the INI shows it
SEEDED = MINIMAL + "mc_seed = 3\nmethod = all\n"


def recorded(monkeypatch, name):
    """Patch montecarlo.<name> to record (seed, workers) of each call."""
    seen, call = [], getattr(montecarlo, name)

    def record(model, killing, y, cfg):
        seen.append((cfg.seed, cfg.workers))
        return call(model, killing, y, cfg)

    monkeypatch.setattr(montecarlo, name, record)
    return seen


def test_a_second_split_takes_its_settings_from_the_ini(tmp_path, monkeypatch, capsys):
    seen = recorded(monkeypatch, "simulate_split")
    path = write(tmp_path, SEEDED)
    first = tmp_path / "first"
    argv = ["--seed", "5", "--workers", "2", "--out", str(first), "split", path, "--method", "mc"]
    assert main(argv) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["split", path]) == 0
    assert seen == [(5, 2), (3, 1)]
    methods = {
        out: [ln.split(",")[0] for ln in (out / "split.csv").read_text().splitlines()[1:]]
        for out in (first, tmp_path)
    }
    assert methods == {first: ["mc"], tmp_path: ["analytic", "pde", "mc"]}


def test_a_second_pde_takes_the_default_stride(tmp_path):
    path = write(tmp_path, MINIMAL)  # dt 2e-3, 4000 steps
    for name, flags, stride in (("seven", ["--stride", "7"], 7), ("default", [], 10)):
        assert main(["--out", str(tmp_path / name), "pde", path] + flags) == 0
        rows = (tmp_path / name / "survival.csv").read_text().splitlines()[1:]
        assert len(rows) == 4000 // stride + 1
        assert float(rows[1].split(",")[0]) == pytest.approx(stride * 2e-3, rel=1e-12)


def test_a_second_mc_writes_no_histogram(tmp_path):
    path = write(tmp_path, MINIMAL)
    assert main(["--out", str(tmp_path / "hist"), "mc", path, "--histogram"]) == 0
    assert main(["--out", str(tmp_path / "plain"), "mc", path]) == 0
    assert (tmp_path / "hist" / "histogram.csv").exists()
    assert sorted(p.name for p in (tmp_path / "plain").iterdir()) == ["split.csv", "survival.csv"]


def test_a_usage_error_leaves_the_next_call_unchanged(tmp_path, monkeypatch, capsys):
    seen = recorded(monkeypatch, "simulate_outcomes")
    path = write(tmp_path, SEEDED)
    bad = ["--seed", "9", "--workers", "2", "--out", str(tmp_path / "bad"), "mc", path]
    assert main(bad + ["--histogram", "--points", "0"]) == 2
    assert main(["--seed", "9", "split", path, "--method", "bogus"]) == 2
    monkeypatch.chdir(tmp_path)
    assert main(["mc", path]) == 0
    assert seen == [(3, 1)]
    assert not (tmp_path / "bad").exists() and not (tmp_path / "histogram.csv").exists()
    assert len((tmp_path / "survival.csv").read_text().splitlines()) == 51


@pytest.mark.parametrize(
    "argv,name",
    [(["pde"], "survival.csv"), (["split"], "split.csv"), (["mc"], "survival.csv")],
    ids=["pde", "split", "mc"],
)
def test_in_process_output_is_a_fresh_process_output(tmp_path, capsys, argv, name):
    path = write(tmp_path, SEEDED)
    # a call with every flag set first, so the one compared reuses the parser
    dirty = ["--seed", "9", "--workers", "2", "--out", str(tmp_path / "dirty"), "mc", path]
    assert main(dirty + ["--histogram", "--points", "7"]) == 0
    assert main(["--out", str(tmp_path / "here")] + argv + [path]) == 0
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "killdiff.cli", "--out", str(tmp_path / "fresh")] + argv + [path],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def fresh_python(script, *args, cwd=None):
    """Run a script in a fresh interpreter on this killdiff."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args], capture_output=True, text=True,
        timeout=120, cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
    )


def test_each_command_loads_only_the_scipy_it_calls(tmp_path):
    done = fresh_python("""
        import os, sys
        from killdiff.cli import main
        out, scenarios = sys.argv[1:]
        def run(command, ini, *flags):
            assert main(["--out", out, command, os.path.join(scenarios, ini), *flags]) == 0
        def scipy():
            return sorted(m for m in sys.modules if m.startswith("scipy"))
        run("analytic", "dirac_reference.ini")
        run("mc", "free_interval.ini")  # one worker, no spot
        assert not scipy(), scipy()
        run("split", "dirac_reference.ini", "--method", "pde")
        assert "scipy.linalg" in sys.modules
    """, str(tmp_path), SCENARIOS)
    assert done.returncode == 0, done.stderr


def test_a_two_worker_run_exits_with_empty_stderr(tmp_path):
    # a test runner keeps the module alive past the collection at exit, where
    # a pool not shut down fails in its executor's weakref callback once
    # `concurrent.futures.process` is torn down
    (tmp_path / "test_two_workers.py").write_text(textwrap.dedent(f"""
        from killdiff.cli import main
        def test_two_workers(tmp_path):
            ini = {os.path.join(SCENARIOS, "free_interval.ini")!r}
            assert main(["--workers", "2", "--out", str(tmp_path), "mc", ini]) == 0
    """))
    done = fresh_python(
        "import sys, pytest; sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', 'test_two_workers.py']))",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stderr == ""
