import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saddlekit
from saddlekit.cli import HISTORY_HEADER, SUMMARY_HEADER, _load_instance, cli_main


@pytest.fixture
def b1_json(tmp_path):
    path = tmp_path / "b1.json"
    path.write_text(
        json.dumps(
            {
                "family": "bilinear",
                "a": [[1.0, 0.0], [0.0, 2.0]],
                "b": [1.0, 1.0],
                "mu_x": 1.0,
                "mu_y": 1.0,
            }
        )
    )
    return path


def test_solve_writes_csvs(tmp_path, b1_json):
    out = tmp_path / "out"
    code = cli_main(
        ["solve", "--instance", str(b1_json), "--engine", "mirror_prox",
         "--eps", "1e-8", "--out", str(out)]
    )
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == SUMMARY_HEADER
    assert len(summary) == 2
    row = summary[1].split(",")
    assert row[1] == "mirror_prox"
    assert row[-1] == "1"  # converged
    assert float(row[8]) <= 1e-8
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == HISTORY_HEADER
    # iterations strictly increasing, tally columns nondecreasing
    iters = [int(line.split(",")[0]) for line in history[1:]]
    gx = [int(line.split(",")[2]) for line in history[1:]]
    assert all(b > a for a, b in zip(iters, iters[1:]))
    assert all(b >= a for a, b in zip(gx, gx[1:]))


def test_solve_case1(tmp_path, b1_json):
    out = tmp_path / "out1"
    code = cli_main(
        ["solve", "--instance", str(b1_json), "--engine", "case1",
         "--eps", "1e-6", "--out", str(out)]
    )
    assert code == 0


@pytest.mark.parametrize("engine", [e.value for e in saddlekit.Engine])
def test_solve_history_has_one_row_per_certificate(tmp_path, monkeypatch, engine):
    # every engine logs one history row per certificate, numbered from one;
    # the last is the certificate the summary reports, to the last bit
    reports = []
    solve = saddlekit.cli.solve_saddle
    monkeypatch.setattr(
        saddlekit.cli, "solve_saddle", lambda *a, **k: reports.append(solve(*a, **k)) or reports[-1]
    )
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"family": "bilinear", "n": 6, "m": 6, "cond": 10, "seed": 1}))
    out = tmp_path / "out"
    assert cli_main(["solve", "--instance", str(inst), "--engine", engine, "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
    history = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
    assert summary[-1] == "1"  # converged
    attempts = reports[0].extras["attempts"]
    assert [int(row[0]) for row in history] == list(range(1, attempts + 1))
    assert history[-1][1] == summary[8]  # gap
    assert history[-1][2] == summary[11]  # calls_gradx_F


def test_sweep_byte_identical(tmp_path):
    cfg = {
        "family": "bilinear",
        "n": 4,
        "m": 4,
        "conds": [4.0, 16.0],
        "mus": [1.0],
        "engines": ["case1"],
        "seeds": [0],
        "eps": 1e-6,
        "history": True,
    }
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        cfg_path = tmp_path / f"{name}.json"
        cfg["out_dir"] = str(out)
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["sweep", "--config", str(cfg_path)]) == 0
        outs.append(out)
    first = sorted(p.name for p in outs[0].iterdir())
    second = sorted(p.name for p in outs[1].iterdir())
    assert first == second
    for name in first:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_out_flag_wins_over_the_config_and_the_environment(tmp_path, monkeypatch):
    # --out, then the config's out_dir, then SADDLEKIT_OUTDIR, then the current directory
    cfg_path = tmp_path / "sweep.json"
    cfg = {"n": 3, "conds": [4.0], "engines": ["case1"], "out_dir": str(tmp_path / "config")}
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("SADDLEKIT_OUTDIR", str(tmp_path / "env"))
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "summary.csv").exists()
    assert not (tmp_path / "config").exists()
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "config" / "summary.csv").exists()
    assert not (tmp_path / "env").exists()


def test_summary_count_columns_are_the_tally_entries_they_name(tmp_path, monkeypatch):
    reports = []
    solve = saddlekit.cli.solve_saddle
    monkeypatch.setattr(
        saddlekit.cli, "solve_saddle", lambda *a, **k: reports.append(solve(*a, **k)) or reports[-1]
    )
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"family": "quadratic", "n": 5, "m": 4, "cond": 10, "seed": 2}))
    assert cli_main(["solve", "--instance", str(inst), "--out", str(tmp_path)]) == 0
    header, row = (line.split(",") for line in (tmp_path / "summary.csv").read_text().splitlines())
    cells = dict(zip(header, row))
    tally = reports[0].tally
    for kind in saddlekit.OracleKind:
        name = "matvecs" if kind is saddlekit.OracleKind.MATVEC else f"calls_{kind.value}"
        assert int(cells.pop(name)) == tally.count(kind), name
    assert not [name for name in cells if name.startswith("calls_")]
    assert tally.count(saddlekit.OracleKind.MATVEC) > 0


def test_verify_suite(capsys):
    code = cli_main(["verify", "--suite", "argmax_lipschitz", "--samples", "200", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 0
    assert "argmax_lipschitz: ok" in captured.out


@pytest.mark.parametrize(
    "suite, samples, line",
    [
        ("envelope", "0", "envelope: FAILED (0 checks, 0 violations)"),
        ("argmax_lipschitz", "-3", "argmax_lipschitz: FAILED (0 checks, 0 violations)"),
    ],
)
def test_verify_suite_that_checked_nothing_fails(capsys, suite, samples, line):
    # no check is no evidence: the suite fails, and so does the command
    code = cli_main(["verify", "--suite", suite, "--samples", samples])
    assert code == 1
    assert line in capsys.readouterr().out.splitlines()
    assert saddlekit.properties.envelope_suite(0).ok is False


def test_passing_suites_report_their_slack(capsys):
    # a passing run's worst margins are negative: how far the worst sample
    # stayed inside its bound, not a zero the start value left behind
    assert cli_main(["verify", "--suite", "argmax_lipschitz", "--samples", "5"]) == 0
    margin = capsys.readouterr().out.splitlines()[1]
    assert margin.startswith("  worst_margin: -")
    result = saddlekit.properties.curvature_suite(3, 10)
    assert result.ok
    assert result.details["worst_lip"] < 0.0 and result.details["worst_mod"] < 0.0


def test_predict_output(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "dim_x": 2, "dim_y": 2, "mu_x": 1.0, "mu_y": 1.0,
                "l_xx": 0.0, "l_xy": 2.0, "l_yy": 0.0, "l_x": 1.0, "l_y": 1.0,
                "prox_friendly_r": True, "prox_friendly_h": True,
                "lambda_max": 4.0, "lambda_min_plus": 1.0,
            }
        )
    )
    code = cli_main(["predict", "--spec", str(spec)])
    captured = capsys.readouterr()
    assert code == 0
    lines = dict(
        line.split(" ", 1) for line in captured.out.splitlines() if " " in line and "count[" not in line
    )
    assert float(lines["grad_x_coupling"]) == pytest.approx(2.0)
    assert float(lines["bilinear_pf"]) == pytest.approx(2.0)
    assert float(lines["kernel_restricted"]) == pytest.approx(2.0)


def test_predict_names_the_substituted_modulus(tmp_path, capsys):
    # lambda_min_plus / (l_y + l_yy) = 9 / 3 exceeds mu_x = 1
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "dim_x": 2, "dim_y": 2, "mu_x": 1.0, "mu_y": 1.0, "l_xy": 3.0, "l_yy": 2.0,
                "l_x": 1.0, "l_y": 1.0, "lambda_max": 9.0, "lambda_min_plus": 9.0,
            }
        )
    )
    assert cli_main(["predict", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "mu_x substituted by lambda_min_plus / (l_y + l_yy)"
    lines = dict(line.split(" ", 1) for line in out.splitlines() if "count[" not in line)
    assert float(lines["grad_x_coupling"]) == pytest.approx(math.sqrt((0.0 + 9.0) / 3.0))


def test_config_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert cli_main(["solve", "--instance", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["predict", "--spec", str(bad)]) == 2


@pytest.mark.parametrize(
    "name, value", [("mu_x", 0.0), ("l_xx", -1.0), ("lambda_min_plus", 0.0), ("lambda_max", -4.0)]
)
def test_predict_refuses_an_invalid_spec(tmp_path, capsys, name, value):
    # unchecked, a zero modulus or lambda_min_plus would divide by zero, a negative
    # constant would print predictions and a negative lambda_max would fail in a sqrt
    desc = {"mu_x": 1.0, "mu_y": 1.0, "l_xy": 2.0, "l_x": 1.0, "l_y": 1.0,
            "lambda_max": 4.0, "lambda_min_plus": 1.0, name: value}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(desc))
    assert cli_main(["predict", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {name} must be finite and ")


def test_non_finite_instance_value_is_named(tmp_path, capsys):
    # JSON allows NaN: the generator must name it, not fail inside the linear algebra
    instance = tmp_path / "nan.json"
    instance.write_text('{"family": "quadratic", "n": 4, "m": 3, "cond": NaN, "seed": 0}')
    assert cli_main(["solve", "--instance", str(instance), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "cond" in err


def test_explicit_matrix_is_capped(tmp_path, capsys):
    # the dimension cap holds for explicit data as for generated instances
    instance = tmp_path / "big.json"
    desc = {"family": "bilinear", "a": np.eye(201, 2).tolist(), "b": [1.0, 1.0]}
    instance.write_text(json.dumps(desc))
    assert cli_main(["solve", "--instance", str(instance), "--out", str(tmp_path)]) == 2
    assert "dimensions capped" in capsys.readouterr().err


def test_explicit_quadratic_data_is_loaded(tmp_path, capsys):
    # a quadratic descriptor with explicit data gets that data, not a seeded instance
    desc = {
        "family": "quadratic", "n": 2, "m": 2, "a": [[5.0, 0.0], [0.0, 7.0]], "b": [1.0, 1.0],
        "p_diag": [0.5, 0.0], "q_diag": [0.0, 2.0],
    }
    inst = _load_instance(desc)
    assert inst.a.tolist() == desc["a"] and inst.b.tolist() == desc["b"]
    assert inst.p_diag.tolist() == desc["p_diag"] and inst.q_diag.tolist() == desc["q_diag"]
    instance = tmp_path / "quad.json"
    instance.write_text(json.dumps(desc))
    assert cli_main(["solve", "--instance", str(instance), "--out", str(tmp_path)]) == 0
    # without both diagonals the curvature is unknown: refused, not guessed
    del desc["q_diag"]
    instance.write_text(json.dumps(desc))
    assert cli_main(["solve", "--instance", str(instance), "--out", str(tmp_path)]) == 2
    assert "q_diag" in capsys.readouterr().err


def test_explicit_matrix_conditioning_is_capped(tmp_path, capsys):
    # lambda_max / lambda_min+ = 1e8 exceeds the cap a generated instance is held to
    instance = tmp_path / "ill.json"
    instance.write_text(json.dumps({"family": "bilinear", "a": [[1.0, 0.0], [0.0, 1e-4]], "b": [1.0, 1.0]}))
    assert cli_main(["solve", "--instance", str(instance), "--out", str(tmp_path)]) == 2
    assert "conditioning capped" in capsys.readouterr().err
    # a zero matrix has no conditioning and still loads
    assert _load_instance({"a": [[0.0, 0.0], [0.0, 0.0]], "b": [1.0, 1.0]}).spectral.lambda_max == 0.0


@pytest.mark.parametrize(
    "desc, name",
    [
        ({"family": "bilinear", "a": [[1.0, 0.0], [0.0, 2.0]], "b": [[1.0], [1.0]]}, "b"),
        ({"family": "bilinear", "a": [1.0, 2.0], "b": [1.0]}, "a"),
        (
            {"family": "quadratic", "a": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0, 1.0],
             "p_diag": [-1.0, 0.0], "q_diag": [0.0, 0.0]},
            "p_diag",
        ),
    ],
    ids=["b-column", "a-1d", "p_diag-negative"],
)
def test_misshapen_instance_data_is_a_config_error(tmp_path, capsys, desc, name):
    # a misshapen or out-of-range field is named before any solve, not met
    # later as a numpy traceback or a misleading certificate
    instance = tmp_path / "shape.json"
    instance.write_text(json.dumps(desc))
    assert cli_main(["solve", "--instance", str(instance), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} must")


def test_unknown_instance_family_is_a_config_error(tmp_path, capsys):
    instance = tmp_path / "cubic.json"
    instance.write_text(json.dumps({"family": "cubic", "n": 3, "m": 3}))
    assert cli_main(["solve", "--instance", str(instance), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: unknown instance family 'cubic'\n"


def test_unknown_subcommand_exit_code():
    assert cli_main(["frobnicate"]) == 2


def test_module_entry_point_matches_cli_main(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"dim_x": 2, "dim_y": 2, "mu_x": 1.0, "mu_y": 2.0, "l_xy": 3.0, "l_yy": 0.5,
                    "l_x": 1.0, "l_y": 2.0, "prox_friendly_r": False})
    )
    assert cli_main(["predict", "--spec", str(spec)]) == 0
    expected = capsys.readouterr().out
    src = Path(saddlekit.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "saddlekit", "predict", "--spec", str(spec)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert "count[grad_r]" in expected
