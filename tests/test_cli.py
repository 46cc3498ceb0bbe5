"""End-to-end CLI checks: CSV shape, golden cells, NA/warning plumbing,
exit codes, config layering, and byte-level determinism."""

import csv
import io

import pytest

import _reference_values as ref
from ruinkit import exact_ruin
from ruinkit.cli import main, parse_claims, parse_model

EXP_MODEL = "lambda=1,theta=0.01,sigma=1,claims=exp:rate=1"
GAMMA_MODEL = "lambda=1,theta=0.01,sigma=1,claims=gamma:shape=2,rate=2"
MIX_MODEL = (
    "lambda=1,theta=0.01,sigma=1,"
    "claims=mexp:w=0.8881815,0.1078392,0.0039793;b=5.514588,0.190206,0.014631"
)
HEAVY_MODEL = "lambda=1,theta=1,sigma=1,claims=exp:rate=1"
CLASSICAL_MODEL = "lambda=1,theta=0.1,sigma=0,claims=exp:rate=1"


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


def test_precision_flag(capsys):
    rc, out, _ = run_cli(
        ["exact", "--model", EXP_MODEL, "--u", "1", "--precision", "3"], capsys
    )
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0] == ["1.000", f"{exact_ruin(parse_model(EXP_MODEL), 1.0):.3f}"]


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
    # the transform overflows at u = 1e-200: exact fails with exit 2, and
    # table turns the exact column into NA with a warning
    model_u = ["--model", EXP_MODEL, "--u", "1e-200,1"]
    rc, out, err = run_cli(["exact", *model_u], capsys)
    assert rc == 2
    assert out == ""
    assert "numerical failure: talbot orders 24/33 disagree at t=1e-200: nan vs nan" in err
    rc, out, err = run_cli(["table", *model_u, "--methods", "exact,4me"], capsys)
    assert rc == 0
    _, rows = parse_csv(out)
    assert [row[1] for row in rows] == ["NA", "NA"]
    assert float(rows[1][2]) == pytest.approx(0.989188, abs=1e-6)
    assert "warning: method exact infeasible: talbot orders 24/33 disagree at t=1e-200" in err


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


def test_claims_parse_validation():
    with pytest.raises(Exception, match="bad claims"):
        parse_claims("exp:")
    with pytest.raises(Exception, match="bad claims"):
        parse_claims("mexp:w=0.5,0.5")
    with pytest.raises(Exception, match="unknown claim family"):
        parse_claims("pareto:alpha=2")
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


def test_config_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zzz=1\n")
    rc, _, err = run_cli(["exact", "--model", EXP_MODEL, "--u", "1", "--config", str(cfg)], capsys)
    assert rc == 1
    assert "unknown key" in err


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
