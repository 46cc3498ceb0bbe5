"""End-to-end CLI checks: CSV shape, golden cells, NA/warning plumbing,
exit codes, config layering, and byte-level determinism."""

import csv
import io
import json
import platform
import runpy
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import _reference_values as ref
import _reference_writer
from conftest import run_fresh
from ruinkit import cli, exact_ruin
from ruinkit.cli import _emit_grid, main, parse_claims, parse_model

EXP_MODEL = "lambda=1,theta=0.01,sigma=1,claims=exp:rate=1"
GAMMA_MODEL = "lambda=1,theta=0.01,sigma=1,claims=gamma:shape=2,rate=2"
MIX_MODEL = (
    "lambda=1,theta=0.01,sigma=1,"
    "claims=mexp:w=0.8881815,0.1078392,0.0039793;b=5.514588,0.190206,0.014631"
)
HEAVY_MODEL = "lambda=1,theta=1,sigma=1,claims=exp:rate=1"
CLASSICAL_MODEL = "lambda=1,theta=0.1,sigma=0,claims=exp:rate=1"

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the methods every `unknown method` message lists: table and errors take
# them all, approx the one-column fits
FITS = "4me, ren2, pkdv3, pkdv4, pkdv5, 2pp, lundberg"
UNKNOWN_BOGUS = "unknown method 'bogus' (choose from exact, dg, " + FITS + ")"


def run_cli(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_exact_golden_cells(capsys):
    rc, out, err = run_cli(["exact", "--model", EXP_MODEL, "--u", "1,10"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["u", "psi"]
    assert rows[0] == ["1.000000", f"{ref.TABLE_EXP['exact'][3]:.6f}"]
    assert rows[1] == ["10.000000", f"{ref.TABLE_EXP['exact'][8]:.6f}"]


def test_exact_euler_flag_agrees(capsys):
    rc, out, _ = run_cli(
        ["exact", "--model", GAMMA_MODEL, "--u", "5", "--inversion", "euler"], capsys
    )
    assert rc == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(exact_ruin(parse_model(GAMMA_MODEL), 5.0), abs=1e-6)


def test_table_column_layout(capsys):
    rc, out, err = run_cli(
        [
            "table",
            "--model",
            EXP_MODEL,
            "--methods",
            "exact,dg,4me,lundberg",
            "--u",
            "1,5,10",
            "--lattice",
            "0.1",
        ],
        capsys,
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["u", "exact", "dg_lower", "dg_upper", "4me", "lundberg"]
    assert len(rows) == 3
    # the dg table columns follow the published tabulation convention,
    # which is close to but not a strict envelope of the exact column
    for row, i in zip(rows, (3, 7, 8)):
        assert float(row[1]) == pytest.approx(ref.TABLE_EXP["exact"][i], abs=5e-6)
        assert float(row[2]) == pytest.approx(ref.TABLE_EXP["dg_lower"][i], abs=2.5e-4)
        assert float(row[3]) == pytest.approx(ref.TABLE_EXP["dg_upper"][i], abs=2.5e-4)
        assert float(row[2]) <= float(row[3])


def test_errors_command_prefixes_columns(capsys):
    rc, out, _ = run_cli(
        ["errors", "--model", EXP_MODEL, "--methods", "exact,4me,ren2", "--u", "1,10"],
        capsys,
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["u", "eps_4me", "eps_ren2"]
    assert all(float(c) >= 0.0 for row in rows for c in row[1:])


def test_bounds_command_reports_width(capsys):
    rc, out, _ = run_cli(
        ["bounds", "--model", EXP_MODEL, "--u", "1,2", "--lattice", "0.01"], capsys
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["u", "lower", "upper", "width"]
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[2]) - float(row[1]), abs=2e-6)


def test_coef_command_heavy_loading(capsys):
    rc, out, _ = run_cli(["coef", "--model", HEAVY_MODEL], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["R", "R0", "bracket_lo", "bracket_hi", "residual"]
    assert rows[0][0] == "0.438447"
    assert rows[0][1] == "0.5"


def test_coef_mixture_writes_rate_note(capsys):
    rc, out, err = run_cli(["coef", "--model", MIX_MODEL], capsys)
    assert rc == 0
    _, rows = parse_csv(out)
    assert float(rows[0][0]) == pytest.approx(4.408476e-4, rel=1e-5)
    assert "cannot solve the root equation" in err


def test_mixture_rate_note_is_written_once(capsys):
    _, _, err_coef = run_cli(["coef", "--model", MIX_MODEL], capsys)
    _, _, err_table = run_cli(["table", "--model", MIX_MODEL, "--methods", "lundberg", "--u", "1,2"], capsys)
    for err in (err_coef, err_table):
        assert err.count("note: mixture decay-rate root") == 1
    assert err_coef == err_table


def test_exponential_claims_write_no_mixture_note(capsys):
    # Exponential is a one-component MixedExponential; the note is for mixtures
    for argv in (["coef", "--model", EXP_MODEL], ["table", "--model", EXP_MODEL, "--methods", "lundberg", "--u", "1"]):
        rc, _, err = run_cli(argv, capsys)
        assert rc == 0
        assert err == ""


def test_decompose_command(capsys):
    rc, out, _ = run_cli(
        ["decompose", "--model", HEAVY_MODEL, "--umax", "1", "--step", "0.25"], capsys
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["u", "psi1", "psi2", "sum"]
    assert len(rows) == 5
    assert rows[0][1] == "1.000000"
    assert rows[0][2] == "0.000000"
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[1]) + float(row[2]), abs=2e-6)


def test_simulate_command_deterministic(capsys):
    argv = [
        "simulate",
        "--model",
        HEAVY_MODEL,
        "--u",
        "1",
        "--paths",
        "2000",
        "--seed",
        "11",
    ]
    rc1, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    header, rows = parse_csv(out1)
    assert header == ["ruin_freq", "std_err", "by_claim", "by_oscillation"]
    assert int(rows[0][2]) + int(rows[0][3]) <= 2000


def test_approx_lundberg_column(capsys):
    rc, out, _ = run_cli(
        ["approx", "--model", EXP_MODEL, "--method", "lundberg", "--u", "25,50"], capsys
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["u", "value"]
    assert rows[0][1] == f"{ref.TABLE_EXP['lundberg'][9]:.6f}"


@pytest.mark.parametrize("method", ["dg", "exact"])
def test_approx_takes_only_one_column_methods(method, capsys):
    # dg is a pair of bounds and exact a command of its own
    argv = ["approx", "--model", EXP_MODEL, "--method", method, "--u", "1,2"]
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: unknown method {method!r} (choose from {FITS})\n"


def test_approx_has_no_lattice_flag(tmp_path, capsys):
    # no approx method reads a lattice width, so the flag and its config key
    # are usage errors rather than silently ignored
    argv = ["approx", "--model", EXP_MODEL, "--method", "4me", "--u", "1"]
    rc, out, err = run_or_exit([*argv, "--lattice", "0.1"], capsys)
    assert (rc, out) == (1, "")
    assert "unrecognized arguments: --lattice 0.1" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lattice=0.1\n")
    rc, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: {cfg}:1: unknown key 'lattice'\n"


def test_precision_flag(capsys):
    rc, out, _ = run_cli(
        ["exact", "--model", EXP_MODEL, "--u", "1", "--precision", "3"], capsys
    )
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0] == ["1.000", f"{exact_ruin(parse_model(EXP_MODEL), 1.0):.3f}"]


def _frozen_jobs(workload, prefixes=("",)):
    """The jobs of a benchmark workload whose names start with one of the
    prefixes, read from perfbench/jobs.py, with the stdout frozen for each."""
    jobs_for = runpy.run_path(str(PERFBENCH / "jobs.py"))["jobs_for"]
    frozen = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
    return [
        pytest.param(job.argv, frozen[job.name], id=job.name)
        for job in jobs_for(workload, 0)
        if job.name.startswith(prefixes)
    ]


@pytest.mark.parametrize("argv, frozen", _frozen_jobs("tables", ("approx.", "table.")))
def test_closed_form_jobs_print_the_frozen_bytes(argv, frozen, capsys):
    rc, out, _ = run_cli(list(argv), capsys)
    assert rc == 0
    assert out == frozen


# every other grid job of the benchmark; coef.* is left out, as its residual
# cell is the root finder's noise
@pytest.mark.parametrize(
    "argv, frozen",
    _frozen_jobs("tables", ("errors.", "exact.")) + _frozen_jobs("lattice") + _frozen_jobs("gamma_ladder"),
)
def test_grid_jobs_print_the_frozen_bytes(argv, frozen, capsys):
    rc, out, _ = run_cli(list(argv), capsys)
    assert rc == 0
    assert out == frozen


# stdout of every simulate job of the benchmark at seed 1, frozen from the
# event-at-a-time path loop; 1e5 paths is enough for the loop to run in threads
SIMULATE_BYTES = {
    "sim.exp.theta1": "0.405820,0.001553,30738,9844\n",
    "sim.exp.theta0.01.h2000": "0.978080,0.000463,62083,35725\n",
    "sim.exp.sigma0": "0.303480,0.001454,30348,0\n",
    "sim.gamma0.5.theta1": "0.424260,0.001563,34227,8199\n",
    "sim.mix.theta1": "0.394440,0.001546,35039,4405\n",
}


def _simulate_jobs():
    jobs_for = runpy.run_path(str(PERFBENCH / "jobs.py"))["jobs_for"]
    return [
        pytest.param(job.argv, SIMULATE_BYTES[job.name], id=job.name)
        for job in jobs_for("simulate", 1)
        if job.name in SIMULATE_BYTES
    ]


@pytest.mark.parametrize("argv, row", _simulate_jobs())
def test_simulate_jobs_print_the_frozen_bytes(argv, row, capsys):
    rc, out, _ = run_cli(list(argv), capsys)
    assert rc == 0
    assert out == "ruin_freq,std_err,by_claim,by_oscillation\n" + row


# ---------------------------------------------------------------------------
# NA sentinel and warnings
# ---------------------------------------------------------------------------


def test_infeasible_methods_emit_na_and_warn(capsys):
    rc, out, err = run_cli(
        ["table", "--model", CLASSICAL_MODEL, "--methods", "exact,4me,2pp", "--u", "1,2"],
        capsys,
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["u", "exact", "4me", "2pp"]
    for row in rows:
        assert row[2] == "NA" and row[3] == "NA"
        assert float(row[1]) > 0.0  # classical pathway still works
    assert "warning: method 4me infeasible" in err
    assert "warning: method 2pp infeasible" in err
    assert "2 warning(s)" in err


def test_nan_exact_value_is_a_failure_not_na(capsys):
    # sigma = 1e-150 puts tau near 2e300, so the transform overflows at
    # u = 1e-100: exact fails with exit 2, and table turns the exact column
    # into NA with a warning
    model = "lambda=1,theta=0.01,sigma=1e-150,claims=exp:rate=1"
    model_u = ["--model", model, "--u", "1e-100,1"]
    rc, out, err = run_cli(["exact", *model_u], capsys)
    assert rc == 2
    assert out == ""
    assert "numerical failure: talbot orders 24/33 disagree at t=1e-100: nan vs nan" in err
    rc, out, err = run_cli(["table", *model_u, "--methods", "exact,4me"], capsys)
    assert rc == 0
    _, rows = parse_csv(out)
    assert [row[1] for row in rows] == ["NA", "NA"]
    assert float(rows[1][2]) == pytest.approx(0.980344, abs=1e-6)
    assert "warning: method exact infeasible: talbot orders 24/33 disagree at t=1e-100" in err


@pytest.mark.parametrize("sigma", ["1e-160", "1e-200"])
@pytest.mark.parametrize("command", [["exact", "--u", "1"], ["decompose", "--umax", "1"], ["table", "--u", "1", "--methods", "exact,4me"]])
def test_diffusion_too_small_for_a_finite_tau_is_a_usage_error(command, sigma, capsys):
    # tau = 2c/sigma^2 overflows (1e-160) or sigma^2 underflows to 0 (1e-200):
    # the model spec is refused before any solver divides by it
    model = f"lambda=1,theta=0.01,sigma={sigma},claims=exp:rate=1"
    rc, out, err = run_cli([command[0], "--model", model, *command[1:]], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: bad model spec {model!r}: sigma = {float(sigma)!r} is so small")
    assert "use sigma=0" in err


@pytest.mark.parametrize("command", [["exact", "--u", "1"], ["table", "--u", "1", "--methods", "exact,4me"]])
def test_diffusion_too_large_for_a_finite_square_is_a_usage_error(command, capsys):
    # sigma^2 overflows: refused with the model, before tau or the Levy
    # exponent squares sigma with ** (OverflowError, exit 2)
    model = "lambda=1,theta=0.01,sigma=1e200,claims=exp:rate=1"
    rc, out, err = run_cli([command[0], "--model", model, *command[1:]], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: bad model spec {model!r}: sigma = 1e+200 is too large: sigma^2 is not a finite float\n"


def test_tiny_u_keeps_the_exact_column(capsys):
    # psi(1e-200) rounds to 1, which is filled without inversion, so one tiny
    # u no longer turns the whole exact column into NA
    model_u = ["--model", EXP_MODEL, "--u", "1e-200,1"]
    one = f"{ref.TABLE_EXP['exact'][3]:.6f}"
    rc, out, err = run_cli(["exact", *model_u], capsys)
    assert (rc, err) == (0, "")
    assert out == f"u,psi\n1e-200,1.000000\n1.000000,{one}\n"
    rc, out, err = run_cli(["table", *model_u, "--methods", "exact,4me"], capsys)
    assert (rc, err) == (0, "")
    _, rows = parse_csv(out)
    assert [row[1] for row in rows] == ["1.000000", one]
    rc, out, err = run_cli(["errors", *model_u, "--methods", "4me"], capsys)
    assert (rc, err) == (0, "")
    _, rows = parse_csv(out)
    assert float(rows[0][1]) < 1e-6


def test_tiny_u_does_not_print_as_zero(capsys):
    rc, out, _ = run_cli(["table", "--model", EXP_MODEL, "--methods", "4me", "--u", "1e-200,1"], capsys)
    assert rc == 0
    _, rows = parse_csv(out)
    assert float(rows[0][0]) == 1e-200
    assert rows[1][0] == "1.000000"  # u cells that fixed point shows keep it


def test_negative_zero_u_prints_as_zero(capsys):
    rc, out, _ = run_cli(["exact", "--model", EXP_MODEL, "--u=-0,1"], capsys)
    assert rc == 0
    _, rows = parse_csv(out)
    assert [row[0] for row in rows] == ["0.000000", "1.000000"]
    assert rows[0][1] == "1.000000"


def test_published_bounds_reject_loading_from_one_half(capsys):
    model = "lambda=1,theta=0.9,sigma=1,claims=exp:rate=1"
    argv = ["bounds", "--model", model, "--u", "0.5,1,2,5", "--lattice", "0.1"]
    rc, out, err = run_cli([*argv, "--convention", "published"], capsys)
    assert rc == 2
    assert out == ""
    assert "loading < 0.5" in err
    rc, out, _ = run_cli([*argv, "--convention", "strict"], capsys)
    assert rc == 0  # the strict convention holds at every loading


def test_table_dg_is_na_from_loading_one_half(capsys):
    model = "lambda=1,theta=0.6,sigma=1,claims=exp:rate=1"
    rc, out, err = run_cli(
        ["table", "--model", model, "--methods", "exact,dg", "--u", "1,2", "--lattice", "0.1"],
        capsys,
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["u", "exact", "dg"]
    for row in rows:
        assert float(row[1]) > 0.0 and row[2] == "NA"
    assert "warning: method dg infeasible: published convention is defined only for loading < 0.5" in err


def test_sigma_zero_bounds_is_a_clean_failure(capsys):
    rc, out, err = run_cli(
        ["bounds", "--model", CLASSICAL_MODEL, "--u", "1", "--lattice", "0.1"], capsys
    )
    assert rc == 2
    assert "sigma" in err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as si:
        main(["exact", "--model", EXP_MODEL, "--u", "1", "--frobnicate"])
    assert si.value.code == 1


def test_usage_errors_exit_1(capsys):
    cases = [
        ["exact", "--model", "claims=exp:rate=1,theta=0.1,bogus=3", "--u", "1"],
        ["exact", "--model", "lambda=1,theta=0.1,sigma=1", "--u", "1"],  # no claims
        ["exact", "--model", EXP_MODEL, "--u", "2,1"],  # not increasing
        ["table", "--model", EXP_MODEL, "--methods", "4me,ren2", "--u=-1,1"],  # negative u
        ["table", "--model", EXP_MODEL, "--methods", "4me,ren2", "--u=nan,1"],
        ["exact", "--model", EXP_MODEL, "--u=inf"],
        ["exact", "--model", EXP_MODEL],  # missing --u
        ["table", "--model", EXP_MODEL, "--methods", "exact,dg", "--u", "1"],  # dg, no lattice
        ["approx", "--model", EXP_MODEL, "--method", "bogus", "--u", "1"],
        ["simulate", "--model", EXP_MODEL, "--u", "1"],  # missing paths/seed
        ["simulate", "--model", EXP_MODEL, "--u", "1", "--paths", "10", "--seed", str(2**64)],
        ["exact", "--model", EXP_MODEL, "--u", "1", "--precision", "0"],
        ["exact", "--model", EXP_MODEL, "--u", "1", "--degree", "0"],
        ["exact", "--model", EXP_MODEL, "--u", "1", "--inversion", "euler", "--degree", "-1"],
        ["bounds", "--model", EXP_MODEL, "--u", "1", "--lattice", "inf"],
        ["bounds", "--model", EXP_MODEL, "--u", "1", "--lattice", "nan"],
        ["decompose", "--model", EXP_MODEL, "--umax", "inf"],
        ["decompose", "--model", EXP_MODEL, "--umax", "nan"],
        ["decompose", "--model", EXP_MODEL, "--umax", "1", "--step", "nan"],
        ["exact", "--model", "lambda=1,theta=0.1,sigma=1,claims=exp:rate=inf", "--u", "1"],
        ["exact", "--model", "lambda=1,theta=0.1,sigma=1,claims=gamma:shape=inf,rate=1", "--u", "1"],
        ["exact", "--model", "lambda=1,theta=0.1,sigma=1,claims=gamma:shape=2,rate=inf", "--u", "1"],
        ["exact", "--model", "lambda=1,theta=0.1,sigma=1,claims=mexp:w=0.5,0.5;b=1,inf", "--u", "1"],
        # a key the claim family does not read, and a repeated key
        ["exact", "--model", "lambda=1,theta=0.1,claims=exp:rate=1,sgima=1", "--u", "1,5"],
        ["exact", "--model", "lambda=1,theta=0.1,sigma=1,claims=gamma:shape=2,rate=2,scale=5", "--u", "1"],
        ["exact", "--model", "lambda=1,theta=0.1,sigma=1,claims=mexp:w=0.5,0.5;b=1,2;c=3", "--u", "1"],
        ["exact", "--model", "theta=0.1,theta=0.5,sigma=1,claims=exp:rate=1", "--u", "1"],
        ["exact", "--model", "lambda,theta=0.1,sigma=1,claims=exp:rate=1", "--u", "1"],  # no '='
    ]
    for argv in cases:
        rc, out, err = run_cli(argv, capsys)
        assert rc == 1, argv
        assert err.startswith("error:"), argv


def test_unwritable_out_path_exits_2(capsys):
    rc, _, err = run_cli(
        ["exact", "--model", EXP_MODEL, "--u", "1", "--out", "/nonexistent_dir/x.csv"],
        capsys,
    )
    assert rc == 2
    assert "numerical failure" in err


@pytest.mark.parametrize(
    "argv",
    [
        # 4e14 and 1e14 lattice cells: numpy refuses them without allocating
        ["decompose", "--model", EXP_MODEL, "--umax", "1e12"],
        ["bounds", "--model", EXP_MODEL, "--u", "1e14", "--lattice", "1"],
    ],
    ids=["decompose", "bounds"],
)
def test_out_of_memory_is_a_numerical_failure(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("numerical failure: ") and "allocate" in err


def test_claims_parse_validation():
    with pytest.raises(Exception, match="bad claims"):
        parse_claims("exp:")
    with pytest.raises(Exception, match="bad claims"):
        parse_claims("mexp:w=0.5,0.5")
    with pytest.raises(Exception, match="unknown claim family"):
        parse_claims("pareto:alpha=2")
    # each family refuses a key it does not read, and any family a repeated key
    for text, message in [
        ("exp:rate=1,sgima=1", "unknown key 'sgima'"),
        ("gamma:shape=2,rate=2,scale=5", "unknown key 'scale'"),
        ("mexp:w=0.8,0.2;b=2.0,0.5;k=2", "unknown key 'k'"),
        ("exp:rate=1,rate=2", "repeated key 'rate'"),
    ]:
        with pytest.raises(cli.UsageError) as info:
            parse_claims(text)
        assert str(info.value) == f"bad claims spec {text!r}: {message}"
    # a misspelt model key after claims= reaches the claims spec
    with pytest.raises(cli.UsageError, match="bad claims spec 'exp:rate=1,sgima=1': unknown key 'sgima'"):
        parse_model("lambda=1,theta=0.1,claims=exp:rate=1,sgima=1")
    with pytest.raises(cli.UsageError, match="repeated key 'theta'"):
        parse_model("theta=0.1,theta=0.5,claims=exp:rate=1")
    # mexp round trip keeps all components
    mexp = parse_claims("mexp:w=0.8,0.2;b=2.0,0.5")
    assert mexp.weights == (0.8, 0.2) and mexp.rates == (2.0, 0.5)


def test_model_parse_premium_rate_form():
    m = parse_model("lambda=1,c=2,sigma=1,claims=exp:rate=1")
    assert m.loading == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# config files, output files, determinism
# ---------------------------------------------------------------------------


def test_config_file_fills_unset_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "\n"
        f"model={EXP_MODEL}\n"
        "u=1,10\n"
        "precision=4\n"
        "degree=30\n"
    )
    rc, out, _ = run_cli(["exact", "--config", str(cfg)], capsys)
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0] == ["1.0000", f"{exact_ruin(parse_model(EXP_MODEL), 1.0, degree=30):.4f}"]

    # explicit flag beats the file
    rc, out, _ = run_cli(["exact", "--config", str(cfg), "--precision", "2"], capsys)
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == "1.00"


def test_config_u_alias_for_simulate(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"model={HEAVY_MODEL}\nu=1.0\npaths=500\nseed=3\n")
    rc, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert rc == 0
    header, _ = parse_csv(out)
    assert header[0] == "ruin_freq"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--model", EXP_MODEL, "--methods", "bogus", "--u", "1"], UNKNOWN_BOGUS),
        (["bounds", "--model", EXP_MODEL, "--u", "1"], "bounds requires --lattice"),
        (["exact", "--u", "1"], "exact requires --model (flag or config file)"),
        (["table", "--model", EXP_MODEL, "--methods", "4me, ren2,4me", "--u", "1"], "repeated method '4me'"),
        (["errors", "--model", EXP_MODEL, "--methods", "exact", "--u", "1"], "errors requires a method other than exact"),
        (
            ["approx", "--model", EXP_MODEL, "--method", "4me,ren2", "--u", "1"],
            f"unknown method '4me,ren2' (choose from {FITS})",
        ),
        (["simulate", "--model", EXP_MODEL, "--u", "1", "--paths", "100"], "simulate requires --seed"),
        (["simulate", "--model", EXP_MODEL, "--u", "1", "--seed", "1"], "simulate requires --paths"),
    ],
    ids=[
        "table-unknown-method",
        "bounds-no-lattice",
        "exact-no-model",
        "repeated-method",
        "errors-exact-only",
        "approx-comma-list",
        "simulate-no-seed",
        "simulate-no-paths",
    ],
)
def test_usage_error_messages(argv, message, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.fixture
def route_calls(monkeypatch):
    """Names of the library routes the CLI calls, each spied where the CLI
    looks it up."""
    calls = []
    for owner, name in [
        (cli, "exact_ruin"),
        (cli, "panjer_bounds"),
        (cli, "adjustment_coefficient"),
        (cli.approx_mod, "de_vylder_ruin"),
        (cli.approx_mod, "renyi_approx"),
        (cli.approx_mod, "pkdv_approx"),
        (cli.approx_mod, "two_point_pade"),
    ]:
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    return calls


@pytest.mark.parametrize(
    "argv, message",
    [
        (["errors", "--model", EXP_MODEL, "--methods", "bogus", "--u", "1,2"], UNKNOWN_BOGUS),
        (["table", "--model", EXP_MODEL, "--methods", "exact,bogus", "--u", "1,2"], UNKNOWN_BOGUS),
        (["table", "--model", EXP_MODEL, "--methods", "exact,dg", "--u", "1,2"], "method dg requires --lattice"),
        (["table", "--model", MIX_MODEL, "--methods", "lundberg,bogus", "--u", "1,2"], UNKNOWN_BOGUS),
        (["table", "--model", MIX_MODEL, "--methods", "lundberg,lundberg", "--u", "1,2"], "repeated method 'lundberg'"),
        (["errors", "--model", EXP_MODEL, "--methods", "exact,4me", "--u", "2,1"], "u grid must be strictly increasing"),
    ],
    ids=[
        "errors-unknown",
        "table-exact-then-unknown",
        "dg-no-lattice",
        "mixture-note",
        "repeated-lundberg",
        "errors-bad-grid",
    ],
)
def test_usage_errors_come_before_any_method_runs(route_calls, argv, message, capsys):
    # no inversion, lattice or fit runs, and no note is written ahead of the error
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out, err, route_calls) == (1, "", f"error: {message}\n", [])


def test_every_method_runs_through_its_route(route_calls, capsys):
    # the spies see every route, so the empty lists above mean that none ran
    methods = ",".join(cli._method_names("table"))
    argv = ["table", "--model", EXP_MODEL, "--methods", methods, "--lattice", "0.1", "--u", "1"]
    assert run_cli(argv, capsys)[0] == 0
    assert route_calls == [
        "exact_ruin",
        "panjer_bounds",
        "de_vylder_ruin",
        "renyi_approx",
        "pkdv_approx",
        "pkdv_approx",
        "pkdv_approx",
        "two_point_pade",
        "adjustment_coefficient",
    ]


def test_approx_method_is_stripped(capsys):
    argv = ["approx", "--model", EXP_MODEL, "--u", "1,2", "--method"]
    stripped = run_cli([*argv, " 4me "], capsys)
    assert stripped == run_cli([*argv, "4me"], capsys) and stripped[0] == 0


def test_errors_against_an_exact_zero_is_a_numerical_failure(monkeypatch, capsys):
    # |1 - a/e| has no value at e = 0: exit 2, not a numpy divide warning
    monkeypatch.setattr(cli, "exact_ruin", lambda model, u: np.zeros_like(u))
    rc, out, err = run_cli(["errors", "--model", EXP_MODEL, "--methods", "4me", "--u", "1,2"], capsys)
    assert (rc, out, err) == (2, "", "numerical failure: relative error is undefined against an exact value of 0\n")


def test_config_line_without_equals_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("precision=3\nu 1\n")
    rc, out, err = run_cli(["exact", "--model", EXP_MODEL, "--config", str(cfg)], capsys)
    assert (rc, out, err) == (1, "", f"error: {cfg}:2: expected key=value\n")


def test_config_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zzz=1\n")
    rc, _, err = run_cli(["exact", "--model", EXP_MODEL, "--u", "1", "--config", str(cfg)], capsys)
    assert rc == 1
    assert "unknown key" in err


@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param("command=table", "unknown key 'command'", id="command=table"),
        pytest.param("config=/nonexistent", "unknown key 'config'", id="config=/nonexistent"),
        # as in a model spec, a key given twice is refused, not its first value kept
        pytest.param("precision=8", "repeated key 'precision'", id="repeated"),
    ],
)
def test_config_key_that_is_no_flag_exits_1(tmp_path, capsys, line, message):
    # the subcommand and the config file are fixed before the file is read,
    # and each key of the file is read once
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"precision=3\n{line}\n")
    rc, out, err = run_cli(["exact", "--model", EXP_MODEL, "--u", "1", "--config", str(cfg)], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: {cfg}:2: {message}\n"


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "absent.cfg"
    rc, out, err = run_cli(["exact", "--model", EXP_MODEL, "--u", "1", "--config", str(cfg)], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: cannot read config file {cfg}: No such file or directory\n"


@pytest.mark.parametrize("line", ["seed=1.5", "paths=1e5", "horizon=long"])
def test_config_bad_value_exits_1(tmp_path, capsys, line):
    # a value the key's type cannot take is a usage error that names the key
    key, value = line.split("=")
    settings = {"paths": "10", "seed": "1", key: value}
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    rc, out, err = run_cli(["simulate", "--model", HEAVY_MODEL, "--u", "1", "--config", str(cfg)], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and f"bad value for {key}" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["bounds", "--model", EXP_MODEL, "--lattice", "0.1", "--u", "1,2"], "convention=published"),
        # the published convention rejects loading >= 0.5: exit 2 either way
        (["bounds", "--model", HEAVY_MODEL, "--lattice", "0.1", "--u", "1,2"], "convention=published"),
        (["exact", "--model", GAMMA_MODEL, "--u", "1,5", "--precision", "12"], "inversion=euler"),
        (["decompose", "--model", EXP_MODEL, "--umax", "0.5"], "step=0.05"),
    ],
    ids=["convention", "convention-rejected", "inversion", "step"],
)
def test_config_sets_flags_that_have_defaults(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    key, value = line.split("=")
    by_flag = run_cli(argv + [f"--{key}", value], capsys)
    assert run_cli(argv + ["--config", str(cfg)], capsys) == by_flag
    assert run_cli(argv, capsys) != by_flag  # the value is not the default


@pytest.mark.parametrize(
    "argv, line",
    [
        (["bounds", "--model", EXP_MODEL, "--lattice", "0.1", "--u", "1,2"], "convention=bogus"),
        (["exact", "--model", EXP_MODEL, "--u", "1"], "inversion=bogus"),
        (["decompose", "--model", EXP_MODEL, "--umax", "0.5"], "step=bogus"),
    ],
    ids=["convention", "inversion", "step"],
)
def test_config_bad_choice_exits_1(tmp_path, capsys, argv, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and f"bad value for {line.split('=')[0]}" in err


def test_defaults_pass_their_flags_declaration():
    # defaults are filled in after parsing, past argparse's checks, so each
    # must be a value its flag's own type and choices would give
    for key, value in cli._DEFAULTS.items():
        actions = [cli._flag_actions(c)[key] for c in cli._COMMANDS if key in cli._flag_actions(c)]
        assert actions, f"{key} is no flag's dest"
        for action in actions:
            assert (action.type or str)(str(value)) == value
            assert action.choices is None or value in action.choices


def run_or_exit(argv, capsys):
    # run_cli for calls that end in argparse's SystemExit too (--help, bad flags)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # main() builds its parser once per process; a sequence of calls through
    # that one parser must print what a freshly built parser prints for each
    bounds = ["bounds", "--model", EXP_MODEL, "--lattice", "0.1", "--u", "1,2"]
    decompose = ["decompose", "--model", EXP_MODEL, "--umax", "0.5"]
    convention = tmp_path / "convention.cfg"
    convention.write_text("convention=published\n")
    step = tmp_path / "step.cfg"
    step.write_text("step=0.05\n")
    calls = [
        ["exact", "--model", EXP_MODEL, "--u", "1", "--frobnicate"],
        bounds + ["--config", str(convention)],
        decompose + ["--config", str(step)],
        ["exact", "--help"],
        bounds,
        decompose,
    ]
    cli._build_parser.cache_clear()
    cached = [run_or_exit(argv, capsys) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1

    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run_or_exit(argv, capsys) for argv in calls]
    assert cached == fresh
    assert [rc for rc, _, _ in cached] == [1, 0, 0, 0, 0, 0]
    # the config values were in effect, and did not outlive their calls
    assert cached[1] != cached[4] and cached[2] != cached[5]


def test_allocator_is_pinned_by_main_not_by_import():
    code = (
        "import contextlib, io, ruinkit.cli as cli\n"
        "print(cli._pin_allocator.cache_info().currsize)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main(['coef', '--model', {EXP_MODEL!r}])\n"
        "print(cli._pin_allocator.cache_info().currsize)\n"
    )
    assert run_fresh(code).split() == ["0", "1"]


@pytest.fixture
def fresh_pin():
    cli._pin_allocator.cache_clear()
    yield cli._pin_allocator
    cli._pin_allocator.cache_clear()


@pytest.mark.parametrize("first_rc, expected", [
    (1, [(-3, 32 << 20), (-1, 64 << 20), (-8, 1)]),
    (0, [(-3, 32 << 20)]),
])
def test_allocator_pin_sets_both_thresholds_or_neither(fresh_pin, monkeypatch, first_rc, expected):
    # the trim threshold is set only once the mmap threshold took: either
    # alone turns off glibc's dynamic adjustment; the one arena only
    # matters once nothing is trimmed
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return first_rc

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    fresh_pin()
    fresh_pin()
    assert calls == expected


def _no_libc(exc_type):
    def cdll(name):
        raise exc_type("no libc handle")
    return cdll


@pytest.mark.parametrize(
    "cdll",
    [_no_libc(OSError), _no_libc(TypeError), lambda name: SimpleNamespace()],
    ids=["dlopen-fails", "no-handle-for-None", "no-mallopt"],
)
def test_missing_mallopt_changes_no_output(fresh_pin, monkeypatch, capsys, cdll):
    argv = ["bounds", "--model", EXP_MODEL, "--lattice", "0.05", "--u", "0,1,5,20"]
    pinned = run_cli(argv, capsys)
    fresh_pin.cache_clear()
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert run_cli(argv, capsys) == pinned
    assert pinned[0] == 0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_a_repeated_lattice_job_reuses_its_pages():
    # unpinned, every repeat of this job faults in about 8900 fresh pages:
    # each 40001-cell temporary comes from a new mmap or a trimmed heap top
    (argv,) = [job.argv for job in runpy.run_path(str(PERFBENCH / "jobs.py"))["jobs_for"]("lattice", 0)
               if job.name == "bounds.strict.exp.w0.005"]
    code = (
        "import contextlib, io, resource, ruinkit.cli as cli\n"
        "def faults():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
        "    before = faults()\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
        "print(faults() - before)\n"
    )
    assert int(run_fresh(code)) < 1000


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc arenas are glibc's")
def test_threads_allocate_in_one_arena_once_pinned(tmp_path):
    # untrimmed, each extra arena keeps its pages for good; two threads
    # alive and allocating at once would open two, one each, unpinned
    report = tmp_path / "malloc_info.xml"
    code = (
        "import contextlib, ctypes, io, threading, numpy as np, ruinkit.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main(['coef', '--model', {EXP_MODEL!r}])\n"
        "gate = threading.Barrier(3)\n"
        "def work():\n"
        "    gate.wait()\n"
        "    block = np.ones(1 << 17)\n"
        "    gate.wait()\n"
        "threads = [threading.Thread(target=work) for _ in range(2)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "gate.wait()\n"
        "gate.wait()\n"
        "for t in threads:\n"
        "    t.join()\n"
        "libc = ctypes.CDLL(None)\n"
        "libc.fopen.restype = ctypes.c_void_p\n"
        f"fp = ctypes.c_void_p(libc.fopen({str(report).encode()!r}, b'w'))\n"
        "libc.malloc_info(0, fp)\n"
        "libc.fclose(fp)\n"
    )
    run_fresh(code)
    assert report.read_text().count("<heap nr=") == 1


def test_out_file_matches_stdout_and_is_stable(tmp_path, capsys):
    argv = ["table", "--model", GAMMA_MODEL, "--methods", "exact,4me,ren2", "--u", "1,5,10"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_text() == out


def test_csv_round_trip_reformat_is_identity(capsys):
    rc, out, _ = run_cli(
        ["table", "--model", EXP_MODEL, "--methods", "exact,4me,2pp", "--u", "0.5,1,2"],
        capsys,
    )
    assert rc == 0
    header, rows = parse_csv(out)
    rebuilt = [",".join(header)]
    for row in rows:
        rebuilt.append(",".join(f"{float(c):.6f}" for c in row))
    assert "\n".join(rebuilt) + "\n" == out


# ---------------------------------------------------------------------------
# the grid writer against the per-cell oracle
# ---------------------------------------------------------------------------


def _write_grid(capsys, header, u, columns, places, out=None):
    _emit_grid(SimpleNamespace(precision=places, out=out), header, u, columns)
    return capsys.readouterr().out


def _assert_writer_matches_oracle(capsys, u, columns, places):
    header = ["u"] + [f"c{k}" for k in range(len(columns))]
    text = _write_grid(capsys, header, u, columns, places)
    # line by line, naming the first difference: pytest's diff of two
    # 10^4-line strings takes minutes
    got = text.splitlines(keepends=True)
    want = _reference_writer.grid_text(header, u, columns, places).splitlines(keepends=True)
    bad = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, f"line {bad + 1}: wrote {got[bad]!r}, oracle {want[bad]!r}"
    assert len(got) == len(want), f"wrote {len(got)} lines, oracle {len(want)}"
    return text


def test_writer_matches_oracle_on_a_long_grid(capsys):
    # the shape of a decompose job: 10001 rows, values across many magnitudes
    u = np.arange(10001) * 0.01
    rng = np.random.default_rng(7)
    columns = [
        np.exp(-0.01 * u),
        rng.standard_normal(u.size) * 10.0 ** rng.integers(-12, 8, u.size),
        np.round(rng.random(u.size) * 2**20) / 2**21,  # many exact decimal ties
        -np.zeros(u.size),
    ]
    for places in (1, 6, 10):
        text = _assert_writer_matches_oracle(capsys, u, columns, places)
        assert text.count("\n") == 10002


def test_writer_matches_oracle_on_na_cells(capsys):
    u = np.array([0.5, 1.0, 2.0, 3.0])
    values = np.array([0.25, np.nan, np.inf, -np.inf])
    other = np.array([0.1, 0.2, 0.3, 0.4])
    text = _assert_writer_matches_oracle(capsys, u, [values, None, other], 6)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    # a non-finite cell is NA in that cell only; a None column is NA throughout
    assert [row[1] for row in rows] == ["0.250000", "NA", "NA", "NA"]
    assert [row[2] for row in rows] == ["NA"] * 4
    assert [row[3] for row in rows] == ["0.100000", "0.200000", "0.300000", "0.400000"]
    assert [row[0] for row in rows] == ["0.500000", "1.000000", "2.000000", "3.000000"]


@pytest.mark.parametrize("places", [1, 6, 10])
def test_writer_matches_oracle_on_tiny_u(places, capsys):
    u = np.array([-0.0, 1e-300, 1e-200, 4e-11, 5e-11, 4e-7, 5e-7, 1e-6, 0.04, 0.05, 0.06, 1.0])
    values = np.linspace(0.0, 1.0, u.size)
    text = _assert_writer_matches_oracle(capsys, u, [values, None], places)
    cells = [line.split(",")[0] for line in text.splitlines()[1:]]
    assert cells[0] == "-" + f"{0.0:.{places}f}"
    assert cells[1:3] == ["1e-300", "1e-200"]  # a positive u never prints as zero
    assert all(float(c) > 0.0 for c in cells[1:])


@pytest.mark.parametrize("places", [1, 6, 10, 15, 17, 22, 23, 30])
def test_writer_matches_oracle_near_ties_and_the_int64_edge(places, capsys):
    # the writer rounds |v|·10^p to an integer itself only away from a
    # rounding tie and below 2^52; cells at (k + ½)·10^-p, either side of
    # 2^52/10^p and 1-3 ulp either side of those must still read as `%`
    rng = np.random.default_rng(places)
    k = rng.integers(0, 10 ** min(places + 3, 15), 2000)
    edge = 2.0**52 / 10.0**places
    centres = np.concatenate([(k + 0.5) / 10.0**places, edge * np.array([0.5, 0.999, 1.0, 1.001, 2.0])])
    values, up, down = [centres], centres, centres
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        values += [up, down]
    # negative values that round to zero keep their sign, as `%` keeps it
    to_zero = -np.array([0.0, 1e-300, 0.1, 0.4999]) * 10.0**-places
    column = np.concatenate(values + [to_zero])
    u = np.zeros(column.size)  # zero is printed by the integer path at every p
    text = _assert_writer_matches_oracle(capsys, u, [column, -column[::-1]], places)
    cells = [line.split(",")[1] for line in text.splitlines()[-to_zero.size :]]
    assert cells == ["-" + f"{0.0:.{places}f}"] * to_zero.size


@pytest.mark.parametrize(
    "u, values",
    [
        ([2.5], [0.125]),
        # a cell left to `%` in every row: a tiny u, a NaN, a value past
        # 2^52/10^6, a value whose product is a tie
        ([1e-300, 1.0, 2.0, 3.0], [0.5, np.nan, 1e10, 0.0000005]),
    ],
    ids=["one-row", "a-cell-left-in-every-row"],
)
def test_writer_matches_oracle_on_short_grids(u, values, capsys):
    _assert_writer_matches_oracle(capsys, np.array(u), [np.array(values), None], 6)


def test_writer_out_file_matches_stdout(tmp_path, capsys):
    u = np.array([1e-200, 0.5, 1.0])
    columns = [np.array([1.0, np.nan, 0.5]), None]
    text = _write_grid(capsys, ["u", "a", "b"], u, columns, 6)
    path = tmp_path / "grid.csv"
    assert _write_grid(capsys, ["u", "a", "b"], u, columns, 6, out=str(path)) == ""
    assert path.read_bytes() == text.encode()
