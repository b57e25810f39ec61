import csv
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cpcert as c
from cpcert.harness import (_FIELDS, _OBJECT_FIELDS, CSV_COLUMNS, ExperimentConfig,
                            UsageError, corrupt_trajectory, emit_plotdata, fit_rate,
                            main, read_trajectory_csv, recompute_flags_from_csv)
from cpcert.problems import GENERATORS, read_problem_file
from cpcert.schema import COUNT2, SEED
from cpcert.solver import running_averages

from conftest import traced_peak

ROOT = Path(__file__).resolve().parents[1]


def write_config(path, **overrides):
    cfg = {
        "problem": {"generator": "quadratic", "params": {"rows": 6, "cols": 4, "seed": 1}},
        "theta": 1.0,
        "safety": 0.9,
        "iters": 120,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_fit_rate_exact_power_laws():
    ks = np.arange(1, 400)
    fit = fit_rate(3.0 / ks, (10, 300), ks=ks)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit = fit_rate(5.0 / ks**2, (10, 300), ks=ks)
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)


def test_fit_rate_excludes_nonpositive_and_requires_points():
    ks = np.arange(1, 100)
    vals = 1.0 / ks
    vals[40:60] = -1.0  # excluded, enough points remain
    fit = fit_rate(vals, (1, 99), ks=ks)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.points == 79
    with pytest.raises(UsageError):
        fit_rate(np.full(50, -1.0), (1, 50))
    with pytest.raises(UsageError):
        fit_rate(1.0 / ks, (1, 5), ks=ks)
    with pytest.raises(UsageError, match="two distinct k"):  # no slope through one k
        fit_rate(np.ones(20), (1, 5), ks=np.full(20, 3))


def test_config_round_trip_and_unknown_keys(tmp_path):
    path = write_config(tmp_path / "cfg.json", seed=7)
    cfg = ExperimentConfig.from_file(path)
    assert cfg.iters == 120
    assert cfg.seed == 7
    assert "out" not in cfg.to_dict()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": {}, "wat": 1}))
    with pytest.raises(UsageError):
        ExperimentConfig.from_file(bad)
    with pytest.raises(UsageError):
        ExperimentConfig.from_file(tmp_path / "missing.json")


def test_solve_writes_artifacts_and_passes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificates"]["all_pass"] is True
    assert summary["params"]["status"] == "StrictlyValid"
    cols = read_trajectory_csv(out / "trajectory.csv")
    assert len(cols["k"]) == 119  # iters - 1 windows
    assert list(cols) == CSV_COLUMNS


def test_solve_reproducible_bytes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", iters=80)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_solve_certificate_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       fault={"k": 60, "delta": 1.0}, iters=120)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "first failing k" in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificates"]["all_pass"] is False
    assert summary["certificates"]["first_failing_k"] is not None


def test_solve_override_invalid_is_observational(tmp_path):
    # product exactly 1.5x the admissible bound at theta = 1
    problem = c.problem_from_config({"generator": "quadratic",
                                     "params": {"rows": 4, "cols": 4, "seed": 5}})
    tau = sigma = float(np.sqrt(1.5) / problem.L.norm_bound)
    cfg = write_config(tmp_path / "cfg.json", tau=tau, sigma=sigma, iters=300,
                       problem={"generator": "quadratic",
                                "params": {"rows": 4, "cols": 4, "seed": 5}})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    code = main(["solve", "--config", str(cfg), "--out", str(out),
                 "--override-invalid"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificates"]["mode"] == "observational"
    assert summary["certificates"]["all_pass"] is None


def test_solve_usage_errors(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = write_config(tmp_path / "cfg.json",
                       problem={"generator": "lasso",
                                "params": {"matrix": str(tmp_path / "nope.txt"),
                                           "b": [1.0], "lam": 0.1}})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err  # diagnostics on stderr


def flags_round_trip(out):
    """The certificate summary of a solve in ``out``, after checking that
    the flags recomputed from its trajectory.csv give its fail counts and
    first failing k."""
    cert = json.loads((out / "summary.json").read_text())["certificates"]
    flags = recompute_flags_from_csv(out / "trajectory.csv", cert["tol"])
    fail_counts = {name: int(arr.size - np.count_nonzero(arr))
                   for name, arr in flags.items()}
    assert fail_counts == cert["fail_counts"]
    bad = np.flatnonzero(~np.logical_and.reduce(list(flags.values())))
    ks = read_trajectory_csv(out / "trajectory.csv")["k"]
    assert cert["first_failing_k"] == (int(ks[bad[0]]) if bad.size else None)
    return cert


def test_round_trip_flags_from_csv(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", theta=0.5, iters=150)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    flags_round_trip(out)


@pytest.mark.parametrize("fault_k", [254, 255, 256, 257])
def test_round_trip_flags_from_csv_on_a_faulted_run(tmp_path, fault_k):
    # the 12x10 quadratic runs in segments of 256 iterates, whose first
    # table ends at row 253: a fault at 254 fails the V check across the
    # seam, and later ones fail rows that the carried iterates complete
    cfg = write_config(tmp_path / "cfg.json", theta=0.5, iters=400,
                       problem={"generator": "quadratic",
                                "params": {"rows": 12, "cols": 10, "seed": 7}},
                       fault={"k": fault_k, "delta": 1.0})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    cert = flags_round_trip(out)
    assert cert["first_failing_k"] == fault_k - 1
    assert cert["fail_counts"]["v_monotone"] >= 1


def test_sweep_grid_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "problem": {"generator": "quadratic", "params": {"rows": 5, "cols": 4, "seed": 2}},
        "iters": 100,
        "grid": {"theta": [0.25, 1.0], "safety": [0.9, 1.0]},
    }))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep_summary.csv").read_text().splitlines()))
    assert len(rows) == 4
    statuses = {(r["theta"], r["safety"]): r["status"] for r in rows}
    assert statuses[("0.25", "0.9")] == "StrictlyValid"
    assert statuses[("1.0", "1.0")] == "ErgodicOnly"
    assert all(r["all_pass"] == "true" for r in rows)


def test_sweep_fifteen_cell_grid_passes(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "problem": {"generator": "quadratic", "params": {"rows": 6, "cols": 5, "seed": 3}},
        "iters": 80,
        "grid": {"theta": [0.1, 0.25, 0.5, 0.75, 1.0], "safety": [0.5, 0.9, 0.99]},
    }))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep_summary.csv").read_text().splitlines()))
    assert len(rows) == 15
    assert all(r["all_pass"] == "true" for r in rows)
    assert all(r["status"] == "StrictlyValid" for r in rows)


def never_called(monkeypatch, *names):
    """Make each of ``names`` in cpcert.harness fail its test if called."""
    import cpcert.harness as harness

    for name in names:
        def never(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} was called")

        monkeypatch.setattr(harness, name, never)


@pytest.mark.parametrize("grid", [
    {"theta": [1.0], "safety": [0.9, 1.5]},
    {"theta": [0.5, 1.0], "safety": [1.5]},
], ids=["one-bad-cell", "no-runnable-cell"])
def test_sweep_with_a_grid_safety_above_1_runs_no_cell(tmp_path, capsys, monkeypatch, grid):
    # a safety of 1.5 used to make its cells config-error rows while the
    # others ran, and the sweep exited 0; a sweep runs every cell or none
    never_called(monkeypatch, "problem_from_config", "kkt_by_long_run")
    lasso = {"generator": "lasso", "params": {"rows": 90, "cols": 60, "lam": 0.2}}
    cfg = write_config(tmp_path / "sweep.json", problem=lasso, iters=60, grid=grid)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config field 'grid.safety' must be" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rows_carry_a_null_error(tmp_path):
    cfg = write_config(tmp_path / "sweep.json", iters=60,
                       grid={"theta": [1.0], "safety": [0.9, 1.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    cells = json.loads((out / "sweep_summary.json").read_text())["cells"]
    assert [cell["error"] for cell in cells] == [None, None]
    header = (out / "sweep_summary.csv").read_text().splitlines()[0]
    assert "error" not in header.split(",")


@pytest.mark.parametrize("command, config, kind", [
    ("solve", "quadratic.json", "closed_form"),
    ("solve", "lasso.json", "polished"),
    ("sweep", "tv_sweep.json", "direct"),
])
def test_shipped_configs_report_their_oracle(tmp_path, command, config, kind):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    assert main([command, "--config", str(root / "configs" / config),
                 "--out", str(out)]) == 0
    summary = json.loads((out / f"{'summary' if command == 'solve' else 'sweep_summary'}.json")
                         .read_text())
    assert summary["kkt_oracle_kind"] == kind
    iterations = summary["kkt_oracle_iterations"]
    if kind == "polished":
        assert isinstance(iterations, int) and iterations > 0
    else:
        assert iterations is None
    assert 0.0 <= summary["kkt_oracle_residual"] <= 1e-12


def test_sweep_rows_order_independent(tmp_path):
    base = {
        "problem": {"generator": "quadratic", "params": {"rows": 5, "cols": 4, "seed": 2}},
        "iters": 60,
    }
    rows = {}
    for tag, thetas in (("fwd", [0.5, 1.0]), ("rev", [1.0, 0.5])):
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps({**base, "grid": {"theta": thetas, "safety": [0.9]}}))
        out = tmp_path / tag
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        for r in csv.DictReader((out / "sweep_summary.csv").read_text().splitlines()):
            rows.setdefault(r["theta"], []).append(r)
    for theta, pair in rows.items():
        assert pair[0] == pair[1]


def test_validate_prints_status(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    code = main(["validate", "--config", str(cfg), "--theta", "1.0",
                 "--tau", "1.0", "--sigma", "1.0"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["status"] == "Invalid"  # ||L|| of the random 6x4 exceeds 1
    assert blob["product"] > blob["bound_rhs"]


def test_relative_paths_resolve_against_the_file_that_names_them(tmp_path, monkeypatch,
                                                                capsys):
    # problem.file is relative to the config, a generator's matrix to the
    # problem file; both used to open against the working directory
    sub = tmp_path / "cfgdir" / "sub"
    sub.mkdir(parents=True)
    (sub / "A.txt").write_text("2 2\n1.0 0.5\n0.0 2.0\n")
    (sub / "problem.json").write_text(json.dumps(
        {"generator": "quadratic", "params": {"matrix": "A.txt", "a": [1.0, 0.0],
                                              "b": [0.5, -1.0]}}))
    write_config(tmp_path / "cfgdir" / "cfg.json", problem={"file": "sub/problem.json"})
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    cfg = os.path.join("..", "cfgdir", "cfg.json")
    assert main(["validate", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "StrictlyValid"
    assert main(["solve", "--config", cfg, "--out", "out"]) == 0
    summary = json.loads((elsewhere / "out" / "summary.json").read_text())
    assert summary["config"]["problem"] == {"file": "sub/problem.json"}  # as written
    assert (summary["problem"]["rows"], summary["problem"]["cols"]) == (2, 2)


def test_rate_command_on_solver_output(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", iters=600, theta=0.5)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    code = main(["rate", str(out / "trajectory.csv"), "--metric", "ergodic_gap",
                 "--window", "20", "500"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["slope"] <= -0.85
    assert main(["rate", str(out / "trajectory.csv"), "--metric", "nope"]) == 2


def test_rate_refuses_the_k_column_as_a_metric(tmp_path, capsys):
    # k is the abscissa of every fit, not one of the metrics rate offers
    cfg = write_config(tmp_path / "cfg.json", iters=100)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["rate", str(out / "trajectory.csv"), "--metric", "k"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "unknown metric 'k'; available: ['gap'," in captured.err


@pytest.fixture(scope="module")
def good_csv_lines(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csv")
    cfg = write_config(tmp / "cfg.json")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp / "out")]) == 0
    return (tmp / "out" / "trajectory.csv").read_text().splitlines(keepends=True)


# Trajectory CSV variants, each mapped to whether rate, plotdata and the flag
# recomputation accept it; np.loadtxt, which read the CSV before the streamed
# reader, takes the accepted ones and rejects the rest.
CSV_CASES = {
    "good": True, "comment line": False, "ragged row": False,
    "non-numeric field": False, "blank line": False, "header only": False,
    "empty file": False, "eleven columns": False,
    # float() takes both of these, np.loadtxt neither
    "underscore in a number": False, "non-ASCII digit": False,
    "nan k": False, "infinite k": False, "fractional k": False,
    "padded fields": True, "CRLF line endings": True, "CR line endings": True,
    "no final newline": True, "inf, Infinity and nan text": True,
}
# the fields of the fourth data row that a case replaces, by column index
CSV_ROW_EDITS = {
    "underscore in a number": {1: "1_0"}, "non-ASCII digit": {1: "\u0661"},
    "nan k": {0: "nan"}, "infinite k": {0: "inf"}, "fractional k": {0: "3.5"},
    "padded fields": {j: f" {j}\t" for j in range(1, 10)} | {0: " 3 "},
    "inf, Infinity and nan text": {1: "inf", 4: "-Infinity", 8: "nan"},
}


def write_csv_case(path, good_csv_lines, case):
    header, body = good_csv_lines[0], list(good_csv_lines[1:])
    if case in CSV_ROW_EDITS:
        fields = body[3].rstrip("\n").split(",")
        for j, text in CSV_ROW_EDITS[case].items():
            fields[j] = text
        body[3] = ",".join(fields) + "\n"
    elif case == "comment line":
        body.insert(3, "# a comment\n")
    elif case == "ragged row":
        body[3] = body[3].rsplit(",", 1)[0] + "\n"
    elif case == "non-numeric field":
        body[3] = "x" + body[3]
    elif case == "blank line":
        body.insert(3, "\n")
    elif case == "header only":
        body = []
    elif case == "empty file":
        header, body = "", []
    elif case == "eleven columns":
        body = [line.rstrip("\n") + ",1.0\n" for line in body]
    text = header + "".join(body)
    if case == "CRLF line endings":
        text = text.replace("\n", "\r\n")
    elif case == "CR line endings":
        text = text.replace("\n", "\r")
    elif case == "no final newline":
        text = text.rstrip("\n")
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("case", list(CSV_CASES))
def test_rate_rejects_malformed_csv(tmp_path, capsys, good_csv_lines, case):
    path = write_csv_case(tmp_path / "trajectory.csv", good_csv_lines, case)
    code = main(["rate", str(path), "--metric", "ergodic_gap"])
    err = capsys.readouterr().err
    assert code == (0 if CSV_CASES[case] else 2), err
    assert "rate fit" not in err  # rejected as a file, not for too few points


@pytest.mark.parametrize("case", list(CSV_CASES))
@pytest.mark.parametrize("reader", ["plotdata", "recompute_flags_from_csv"])
def test_csv_readers_accept_what_rate_accepts(tmp_path, capsys, good_csv_lines, reader,
                                              case):
    # a nan k was written as -9223372036854775808 by plotdata, after a numpy
    # cast warning; every reader now rejects a k that is not a finite integer
    path = write_csv_case(tmp_path / "trajectory.csv", good_csv_lines, case)
    if reader == "plotdata":
        plots = tmp_path / "plots"
        code = main(["plotdata", str(path), "--out", str(plots)])
        assert code == (0 if CSV_CASES[case] else 2), capsys.readouterr().err
        assert plots.exists() == CSV_CASES[case]
    elif CSV_CASES[case]:
        flags = recompute_flags_from_csv(path, 1e-9)
        assert all(len(f) == len(good_csv_lines) - 1 for f in flags.values())
    else:
        with pytest.raises(UsageError):
            recompute_flags_from_csv(path, 1e-9)


def test_plotdata_rejected_past_its_first_block_leaves_no_data_file(tmp_path, capsys,
                                                                   monkeypatch,
                                                                   good_csv_lines):
    import cpcert.harness as harness

    monkeypatch.setattr(harness, "_CSV_BLOCK", 3)  # the bad line 5 is in the second block
    path = write_csv_case(tmp_path / "trajectory.csv", good_csv_lines, "nan k")
    plots = tmp_path / "plots"
    assert main(["plotdata", str(path), "--out", str(plots)]) == 2
    assert "line 5: k 'nan' is not a finite integer" in capsys.readouterr().err
    assert list(plots.iterdir()) == []


def test_rate_window_from_zero_fits_as_from_one(tmp_path, capsys, good_csv_lines):
    # row k = 0 entered the log-log fit: LAPACK rejected log(0) and rate exited 2
    path = tmp_path / "trajectory.csv"
    path.write_text("".join(good_csv_lines))
    fits = []
    for k_min in ("0", "1"):
        assert main(["rate", str(path), "--metric", "gap", "--window", k_min, "100"]) == 0
        fits.append(json.loads(capsys.readouterr().out))
    assert fits[0].pop("window") == [0, 100] and fits[1].pop("window") == [1, 100]
    assert fits[0] == fits[1]


def test_fit_rate_matches_lstsq():
    rng = np.random.default_rng(5)
    ks = np.arange(1, 3000)
    values = 7.0 * ks ** -1.3 * np.exp(0.01 * rng.standard_normal(ks.size))
    fit = fit_rate(values, (20, 2500), ks=ks)
    mask = (ks >= 20) & (ks <= 2500)
    lk, lv = np.log(ks[mask]), np.log(values[mask])
    (slope, intercept), *_ = np.linalg.lstsq(np.column_stack([lk, np.ones_like(lk)]),
                                             lv, rcond=None)
    r2 = 1.0 - np.sum((lv - slope * lk - intercept) ** 2) / np.sum((lv - lv.mean()) ** 2)
    assert fit.points == mask.sum()
    assert fit.slope == pytest.approx(slope, rel=1e-12)
    assert fit.intercept == pytest.approx(intercept, rel=1e-12)
    assert fit.r_squared == pytest.approx(r2, rel=1e-12)


def test_plotdata_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", iters=60)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    plots = tmp_path / "plots"
    assert main(["plotdata", str(out / "trajectory.csv"), "--out", str(plots)]) == 0
    gap = (plots / "gap.dat").read_text().splitlines()
    assert len(gap) == 59
    ks = [int(line.split()[0]) for line in gap]
    assert ks == sorted(ks)
    # log-log variant blanks nonpositive/NaN entries: ergodic gap at k=0 is NaN
    first = (plots / "ergodic_gap_loglog.dat").read_text().splitlines()[0]
    assert first == "0 "
    assert (plots / "plots.gp").exists()
    # byte-deterministic
    plots2 = tmp_path / "plots2"
    emit_plotdata(out / "trajectory.csv", plots2)
    assert (plots / "gap.dat").read_bytes() == (plots2 / "gap.dat").read_bytes()


def test_corrupt_trajectory_rebuilds_averages():
    problem = c.random_quadratic(4, 3, seed=6)
    tau, sigma = c.suggest_steps(1.0, problem.L.norm_bound)
    params = c.SolverParams(tau, sigma, 1.0, problem.L.norm_bound)
    z0 = c.PPoint(np.zeros(3), np.zeros(4))
    traj = c.run(problem, params, z0, max_iters=30, stop_tol=None)
    bad = corrupt_trajectory(traj, 10, 0.5)
    assert np.allclose(bad.X[10], traj.X[10] + 0.5)
    want = bad.X[1:11].mean(axis=0)
    assert np.allclose(running_averages(bad.X[1:11])[0][-1], want)


def test_cli_usage_exit_code_on_bad_flags(capsys):
    assert main(["solve"]) == 2  # missing --config
    assert main(["not-a-command"]) == 2
    capsys.readouterr()


def test_config_seed_is_problem_seed_fallback(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": {"generator": "quadratic", "params": {"rows": 4, "cols": 3}},
        "iters": 40,
    }))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--seed", "9"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"]["metadata"]["seed"] == 9


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_run_failures_exit_3(tmp_path, capsys):
    # an oracle rejection or a non-finite iterate is not a certificate failure.
    # The 3x8 lasso's active set at the start point, {|A^T b| > lam}, has all
    # 8 columns, more than its rows, so the polish refuses it, and 2 steps
    # of the long run leave a residual of about 1.3
    wide = {"generator": "lasso", "params": {"rows": 3, "cols": 8, "lam": 0.1, "seed": 1}}
    problem = c.problem_from_config(wide)
    assert problem.polish(c.PPoint(np.zeros(8), np.zeros(3))) is None
    cfg = write_config(tmp_path / "oracle.json", problem=wide, oracle_iters=2)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 3
    assert "long-run oracle rejected" in capsys.readouterr().err
    lasso = {"generator": "lasso", "params": {"rows": 6, "cols": 4, "lam": 0.1, "seed": 1}}
    cfg = write_config(tmp_path / "diverge.json", problem=lasso, tau=1e3, sigma=1e3,
                       iters=200)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b"),
                 "--override-invalid"]) == 3
    assert "non-finite iterate" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"iters": "50"},
    {"grid": {"theta": 0.5, "safety": [0.9]}},
    {"ratio": [1.0], "grid": {"theta": [0.5], "safety": [0.9]}},
    {"fault": {"k": [20], "delta": 1.0}},
    {"fault": {"k": 20, "delta": None}},
    {"problem": [1]},
    # a negative seed exited 2 with numpy's "expected non-negative integer"
    {"seed": -1},
])
def test_config_field_of_wrong_type_exits_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    command = "sweep" if "grid" in overrides else "solve"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config field" in capsys.readouterr().err


@pytest.mark.parametrize("problem", [
    {"generator": "quadratic", "params": {"rows": [4], "cols": 3}},
    {"generator": "tv1d", "params": {"n": 20, "lam": None}},
    {"generator": "lasso", "params": {"matrix": [1], "b": [1.0], "lam": 0.1}},
    {"generator": ["quadratic"]},
    # a fraction for an integer ran truncated: "n": 20.5 certified n = 20
    # while summary.json recorded 20.5
    {"generator": "quadratic", "params": {"rows": 4.7, "cols": 3.2, "seed": 1.9}},
    {"generator": "quadratic", "params": {"rows": 4, "cols": 3, "seed": 1.9}},
    {"generator": "lasso", "params": {"rows": 6, "cols": 4.0, "lam": 0.1}},
    {"generator": "tv1d", "params": {"n": 20.5, "lam": 0.5}},
    # a negative size or seed exited 2 with numpy's message, which named
    # neither the field nor the file
    {"generator": "quadratic", "params": {"rows": -3, "cols": 3}},
    {"generator": "lasso", "params": {"rows": 6, "cols": -3, "lam": 0.1}},
    {"generator": "tv1d", "params": {"n": -3, "lam": 0.5}},
    {"generator": "quadratic", "params": {"rows": 4, "cols": 3, "seed": -1}},
])
def test_generator_param_of_wrong_type_exits_2(tmp_path, capsys, problem):
    cfg = write_config(tmp_path / "cfg.json", problem=problem)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "generator" in capsys.readouterr().err


def test_tv1d_single_sample_exits_2_naming_n(tmp_path, capsys):
    # a signal needs 2 samples to have a difference: n shares the "an
    # integer >= 2" kind of the run's iters, and its exit-2 message names it
    assert GENERATORS["tv1d"].seeded["n"] is _FIELDS["iters"] is COUNT2
    problem = {"generator": "tv1d", "params": {"n": 1, "lam": 0.5}}
    cfg = write_config(tmp_path / "cfg.json", problem=problem)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "generator parameter 'n' must be an integer >= 2, got 1" in err


@pytest.mark.parametrize("problem", [
    {"generator": "tv1d", "params": {"n": 50, "lam": -0.5}},
    {"generator": "tv1d", "params": {"signal": [1.0, 2.0, 3.0], "lam": -0.5}},
    {"generator": "lasso", "params": {"rows": 900, "cols": 600, "lam": -0.5}},
    {"generator": "lasso", "params": {"matrix": "m.txt", "b": [1.0, 0.5], "lam": -0.5}},
], ids=["tv1d-seeded", "tv1d-data", "lasso-seeded", "lasso-data"])
def test_negative_lam_exits_2_at_load_naming_the_field(tmp_path, capsys, problem):
    # lam is checked at load, in both forms of lasso and tv1d: validate
    # exits 2 with the message that names the field
    (tmp_path / "m.txt").write_text("2 2\n1.0 0.5\n0.0 2.0\n")
    cfg = write_config(tmp_path / "cfg.json", problem=problem)
    assert main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "generator parameter 'lam' must be a finite number >= 0, got -0.5" in err


def wrong_type(kind):
    """A JSON value of a type that ``kind`` (a checker table entry) does not take."""
    return 3 if kind[1] == "a string" else "x"


# a valid value of each config sub-object, and of each generator form
VALID_OBJECTS = {"grid": {"theta": [1.0], "safety": [0.9]}, "fault": {"k": 20, "delta": 1.0}}
VALID_PARAMS = {
    ("quadratic", "seeded"): {"rows": 4, "cols": 3},
    ("quadratic", "data"): {"matrix": "m.txt", "a": [1.0, 2.0], "b": [1.0, 0.5]},
    ("lasso", "seeded"): {"rows": 4, "cols": 3, "lam": 0.1},
    ("lasso", "data"): {"matrix": "m.txt", "b": [1.0, 0.5], "lam": 0.1},
    ("tv1d", "seeded"): {"n": 20, "lam": 0.5},
    ("tv1d", "data"): {"signal": [1.0, 2.0, 3.0], "lam": 0.5},
}


@pytest.mark.parametrize("field, value", [
    ("theta", True), ("tau", "1"), ("stop_tol", [1e-9]), ("seed", 1.5),
    ("oracle_iters", "9"), ("override_invalid", 1), ("fault", [20, 1.0]),
    ("grid", [0.5]), ("out", 3),
] + [pytest.param(name, wrong_type(kind), id=name) for name, kind in _FIELDS.items()]
  + [pytest.param(f"{obj}.{key}", wrong_type(kind), id=f"{obj}.{key}")
     for obj, table in _OBJECT_FIELDS.items() for key, kind in table.items()])
def test_config_type_checks(tmp_path, field, value):
    obj, _, key = field.rpartition(".")
    path = write_config(tmp_path / "cfg.json",
                        **({obj: {**VALID_OBJECTS[obj], key: value}} if obj else {field: value}))
    with pytest.raises(UsageError, match=repr(field)):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("generator, form, key, value", [
    (name, form, key, wrong_type(kind)) for name, spec in GENERATORS.items()
    for form, table in (("seeded", {**spec.seeded, **spec.optional}), ("data", spec.data))
    for key, kind in {**table, "seed": SEED}.items()])
def test_generator_param_type_checks(tmp_path, generator, form, key, value):
    (tmp_path / "m.txt").write_text("2 2\n1.0 0.5\n0.0 2.0\n")
    params = {k: str(tmp_path / v) if k == "matrix" else v
              for k, v in VALID_PARAMS[generator, form].items()}
    c.problem_from_config({"generator": generator, "params": params})  # the base is valid
    with pytest.raises(ValueError, match=repr(key)):
        c.problem_from_config({"generator": generator, "params": {**params, key: value}})


GRID_LIST = "a non-empty list of finite numbers in (0, 1]"


@pytest.mark.parametrize("command, overrides, message", [
    ("sweep", {"grid": {"theta": [], "safety": [0.9]}},
     f"config field 'grid.theta' must be {GRID_LIST}, got []"),
    ("sweep", {"grid": {"theta": [1.0], "safety": []}},
     f"config field 'grid.safety' must be {GRID_LIST}, got []"),
    ("sweep", {"grid": {"theta": [0.5, 1.5], "safety": [0.9]}},
     f"config field 'grid.theta' must be {GRID_LIST}, got [0.5, 1.5]"),
    ("sweep", {"grid": {"theta": [1.0], "safety": [0, 0.9]}},
     f"config field 'grid.safety' must be {GRID_LIST}, got [0, 0.9]"),
    ("sweep", {"grid": {"theta": [1.0], "safety": [0.9, 1.5]}},
     f"config field 'grid.safety' must be {GRID_LIST}, got [0.9, 1.5]"),
    ("solve", {"tolerance": -1}, "config field 'tolerance' must be a finite number >= 0"),
    ("solve", {"stop_tol": -1.0}, "config field 'stop_tol' must be a finite number >= 0"),
], ids=["grid-theta", "grid-safety", "grid-theta-1.5", "grid-safety-0", "grid-safety-1.5",
        "tolerance", "stop_tol"])
def test_config_range_error_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                   command, overrides, message):
    # an empty grid list ran the lasso oracle, wrote "cells": [] and exited 0;
    # a grid theta or safety outside (0, 1] made its cells config-error rows
    # and exited 0; a negative tolerance exited 2 only once the oracle and a
    # first segment had run; a negative stop_tol never stopped a run and was
    # recorded in summary.json
    never_called(monkeypatch, "problem_from_config", "kkt_by_long_run", "run")
    root = Path(__file__).resolve().parents[1]
    cfg = {**json.loads((root / "configs" / "lasso.json").read_text()), **overrides}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path", [
    *sorted(Path(__file__).resolve().parents[1].glob("configs/*.json")),
    *sorted(Path(__file__).resolve().parents[1].glob("bench/configs/*.json")),
], ids=lambda p: f"{p.parent.parent.name}/{p.parent.name}/{p.name}")
def test_every_shipped_config_validates(path, capsys):
    # the bench workloads read these configs too, so no field check may reject them
    assert main(["validate", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] in ("StrictlyValid", "ErgodicOnly")


def test_readme_schema_names_the_config_fields():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("### Config schema (JSON)")[1].split("```jsonc")[1].split("```")[0]
    schema = json.loads(re.sub(r"//.*", "", block))
    assert set(schema) == set(_FIELDS)
    assert set(_FIELDS) == {f.name for f in dataclasses.fields(ExperimentConfig) if f.init}


def test_config_accepts_null_where_default_is_null(tmp_path):
    path = write_config(tmp_path / "cfg.json", tau=None, sigma=None, stop_tol=None,
                        oracle_iters=None, fault=None, grid=None, tolerance=1)
    cfg = ExperimentConfig.from_file(path)
    assert cfg.tau is None and cfg.tolerance == 1


def test_sweep_honours_fault(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", iters=60, fault={"k": 20, "delta": 1.0},
                       grid={"theta": [0.5], "safety": [0.9]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    cell, = json.loads((out / "sweep_summary.json").read_text())["cells"]
    assert cell["all_pass"] is False
    assert cell["exit_code"] == 1


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point_has_no_runpy_warning(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cpcert.harness",
         "validate", "--config", str(ROOT / "configs" / "quadratic.json")],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_rate_and_plotdata_import_no_numpy(tmp_path, good_csv_lines):
    # numpy's import was most of their start-up; the CSV is read with the
    # standard library. bench/child.py reads h.run before every command.
    csv_path = tmp_path / "trajectory.csv"
    csv_path.write_text("".join(good_csv_lines))
    script = f"""
import sys
import cpcert.harness as h
h.run
assert h.main(["rate", {str(csv_path)!r}, "--window", "1", "100"]) == 0
assert h.main(["plotdata", {str(csv_path)!r}, "--out", {str(tmp_path / "plots")!r}]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_solve_rejects_invalid_params_before_oracle(tmp_path, capsys):
    # the oracle would be rejected (exit 3) if it ran; Invalid params come first
    lasso = {"generator": "lasso", "params": {"rows": 6, "cols": 4, "lam": 0.1, "seed": 1}}
    cfg = write_config(tmp_path / "cfg.json", problem=lasso, oracle_iters=2,
                       tau=10.0, sigma=10.0)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "Invalid" in capsys.readouterr().err


# --- the batched sweep -------------------------------------------------------

TV_SMALL = {"generator": "tv1d", "params": {"n": 30, "seed": 1, "lam": 0.5}}


@pytest.mark.parametrize("extra", [
    {},
    {"fault": {"k": 300, "delta": 1.0}},
    {"stop_tol": 1e-7},
])
def test_sweep_row_equals_standalone_solve(tmp_path, extra):
    cfg = write_config(tmp_path / "cfg.json", problem=TV_SMALL, iters=600,
                       grid={"theta": [0.25, 1.0], "safety": [0.9, 1.0]}, **extra)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    cells = json.loads((out / "sweep_summary.json").read_text())["cells"]
    assert code == (1 if "fault" in extra else 0)
    for cell in cells:
        solo = tmp_path / f"solve-{cell['theta']}-{cell['safety']}"
        solo_code = main(["solve", "--config", str(cfg), "--out", str(solo),
                          "--theta", str(cell["theta"]), "--safety", str(cell["safety"])])
        summary = json.loads((solo / "summary.json").read_text())
        cert, params = summary["certificates"], summary["params"]
        assert cell["exit_code"] == solo_code
        assert [cell[k] for k in ("tau", "sigma", "product", "status")] == \
            [params[k] for k in ("tau", "sigma", "product", "status")]
        assert cell["max_descent_residual"] == cert["max_descent_residual"]
        assert cell["ergodic_gap_final"] == cert["final_ergodic_gap"]
        assert cell["all_pass"] == cert["all_pass"]
        assert cell["first_failing_k"] == cert["first_failing_k"]
        assert cell["v_monotone"] == (cert["fail_counts"]["v_monotone"] == 0)
    if "stop_tol" in extra:
        stops = {json.loads((tmp_path / f"solve-{c['theta']}-{c['safety']}"
                             / "summary.json").read_text())["stopped_at"] for c in cells}
        assert len(stops) > 1 and None not in stops


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("thetas", [[0.5, 0.25], [0.25, 0.5]],
                         ids=["failing-cell-first", "failing-cell-second"])
def test_sweep_ends_at_the_first_run_failure(tmp_path, capsys, monkeypatch, thetas):
    # the theta = 0.5 cell's run turns non-finite at iteration 1, in the first
    # segment's run (exit 3); the huge fault at k = 280, in the second
    # segment, would make the other cell's Lyapunov value non-finite (exit 1)
    import cpcert.harness as harness

    build = harness.problem_from_config
    norm = 2.0  # the forward-difference bound
    bad_tau, _ = c.suggest_steps(0.5, norm, 0.9)

    def sabotaged(pc):
        problem = build(pc)
        prox = problem.f.prox

        def f_prox(x, gamma):
            return np.where(np.asarray(gamma) == bad_tau, np.nan, prox(x, gamma))

        return c.ProblemSpec(problem.name, c.ProxFn(problem.f.evaluate, f_prox),
                             problem.gstar, problem.L, problem.kkt, problem.metadata)

    monkeypatch.setattr(harness, "problem_from_config", sabotaged)
    code, out, calls = counted(monkeypatch, tmp_path, "o", "sweep", problem=TV_SMALL,
                               iters=300, fault={"k": 280, "delta": 1e200},
                               grid={"theta": thetas, "safety": [0.9]})
    assert code == 3
    assert "non-finite iterate produced at iteration 1" in capsys.readouterr().err
    assert len(calls) == 1 and calls[0][0] == 2  # the first segment's run, both cells
    assert not out.exists()


def test_sweep_memory_is_one_segment_per_cell(tmp_path):
    # a sweep that kept each cell's history would need twice the memory at
    # twice the iterations
    peaks = {}
    for iters in (2000, 4000):
        cfg = write_config(tmp_path / f"cfg{iters}.json",
                           problem={"generator": "tv1d",
                                    "params": {"n": 50, "seed": 0, "lam": 0.5}},
                           iters=iters, oracle_iters=20000,
                           grid={"theta": [0.5, 1.0], "safety": [0.9]})
        peaks[iters], code = traced_peak(main, ["sweep", "--config", str(cfg), "--out",
                                                str(tmp_path / f"out{iters}")])
        assert code == 0
    assert peaks[4000] <= 1.2 * peaks[2000], peaks


QUAD_12x10 = {"generator": "quadratic", "params": {"rows": 12, "cols": 10, "seed": 7}}


@pytest.mark.parametrize("k, code, message", [
    (300, 1, "non-finite Lyapunov value at iteration 299"),
    (605, 2, "iterate 605 out of range 0..600"),
], ids=["certificate", "fault-range"])
def test_solve_writes_nothing_when_it_fails_after_its_first_segment(tmp_path, capsys,
                                                                   k, code, message):
    cfg = write_config(tmp_path / "cfg.json", problem=QUAD_12x10, iters=600,
                       fault={"k": k, "delta": 1e308})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()
    assert not (out / "summary.json").exists()


def sabotage_f_prox(monkeypatch, at_call, bad):
    """Make the built problem's f.prox return ``bad(x)`` at its call
    ``at_call``; returns the list of its calls' steps."""
    import cpcert.harness as harness

    build = harness.problem_from_config
    calls = []

    def sabotaged(pc):
        problem = build(pc)
        prox = problem.f.prox

        def f_prox(x, gamma):
            calls.append(gamma)
            return bad(x) if len(calls) == at_call else prox(x, gamma)

        spec = c.ProblemSpec(problem.name, c.ProxFn(problem.f.evaluate, f_prox),
                             problem.gstar, problem.L, problem.kkt, problem.metadata)
        calls.clear()  # the saddle-point check above called the prox
        return spec

    monkeypatch.setattr(harness, "problem_from_config", sabotaged)
    return calls


# The theta = 1 run of QUAD_12x10 reaches a fixed point at iterate 220, after
# which it is replayed and calls no prox; this one repeats no state in 3000
# steps, so its prox is called once per step (256-iterate segments).
QUAD_40x30 = {"generator": "quadratic", "params": {"rows": 40, "cols": 30, "seed": 7}}


def assert_no_repeat(pc, iters):
    """The solve default run (theta 1, safety 0.9) of the problem ``pc``
    repeats no state bitwise within ``iters`` steps."""
    problem = c.problem_from_config(pc)
    norm = problem.L.norm_bound
    params = c.SolverParams(*c.suggest_steps(1.0, norm, 0.9), 1.0, norm)
    traj = c.run(problem, params, c.PPoint(np.zeros(problem.L.cols),
                                           np.zeros(problem.L.rows)),
                 iters, stop_tol=None)
    states = np.hstack((traj.X, traj.Y)).view(np.int64)
    assert np.unique(states, axis=0).shape[0] == iters + 1


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_run_failure_names_its_run_wide_iteration(tmp_path, capsys, monkeypatch,
                                                  command):
    # the prox fails at iteration 300, in the second 256-iterate segment
    assert_no_repeat(QUAD_40x30, 300)
    sabotage_f_prox(monkeypatch, 300, lambda x: np.full_like(x, np.nan))
    cfg = write_config(tmp_path / "cfg.json", problem=QUAD_40x30, iters=600,
                       grid={"theta": [1.0], "safety": [0.9]})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "non-finite iterate produced at iteration 300\n" in capsys.readouterr().err


def test_solve_memory_is_one_segment(tmp_path):
    # a solve that kept the run's history would need about twice the memory
    # at twice the iterations; its tables are small beside the history
    peaks = {}
    for iters in (2000, 4000):
        cfg = write_config(tmp_path / f"cfg{iters}.json", iters=iters,
                           problem={"generator": "quadratic",
                                    "params": {"rows": 120, "cols": 80, "seed": 0}})
        peaks[iters], code = traced_peak(main, ["solve", "--config", str(cfg), "--out",
                                                str(tmp_path / f"out{iters}")])
        assert code == 0
    assert peaks[4000] <= 1.2 * peaks[2000], peaks


def test_wide_solve_memory_is_byte_sized_segments(tmp_path):
    # n = 20000: 256-iterate segments held 82 MB of iterates and peaked at
    # 144 MB; segments sized from 384 KiB of iterates (8 here) peaked at
    # 30.2 MB, and at 15.6 MB once the certifier drops each temporary after
    # its row sums
    cfg = write_config(tmp_path / "cfg.json", iters=300,
                       problem={"generator": "tv1d",
                                "params": {"n": 20000, "seed": 0, "lam": 0.5}})
    peak, code = traced_peak(main, ["solve", "--config", str(cfg), "--out",
                                    str(tmp_path / "out")])
    assert code == 0
    assert peak <= 25e6, peak / 1e6


def test_harness_keeps_the_names_the_bench_reads():
    # bench/child.py wraps these cpcert.harness names by attribute, and its
    # after_certify hook reads these fields of each certify table; the
    # bench's gate recomputes the flags from a CSV with recompute_flags_from_csv
    import cpcert.harness as h
    for name in ("run", "certify_trajectory", "kkt_by_long_run", "problem_from_config",
                 "write_trajectory_csv", "write_json", "read_trajectory_csv",
                 "emit_plotdata", "recompute_flags_from_csv", "main"):
        assert callable(getattr(h, name, None)), name
    assert list(inspect.signature(h.recompute_flags_from_csv).parameters) == ["path", "tol"]
    problem = c.random_quadratic(6, 4, seed=1)
    params = c.SolverParams(*c.suggest_steps(1.0, problem.L.norm_bound, 0.9), theta=1.0,
                            operator_norm=problem.L.norm_bound)
    traj = h.run(problem, params, c.PPoint(np.zeros(4), np.zeros(6)), max_iters=20,
                 stop_tol=None)
    table = h.certify_trajectory(traj, problem.kkt, problem)
    for name in ("ks", "lyapunov", "ergodic_gap", "descent_residual",
                 "lower_bound_residual", "sum_gap"):
        assert getattr(table, name).shape == (19,), name
    assert isinstance(table.v0, float) and isinstance(table.tol, float)


@pytest.mark.parametrize("command", ["sweep", "solve"])
def test_bench_child_hooks_see_the_sweep(tmp_path, command):
    # bench/child.py wraps cpcert.harness.run and certify_trajectory by name
    config, rows = {"sweep": ("tv_sweep.json", 15 * 1999),
                    "solve": ("quadratic.json", 1999)}[command]
    root = Path(__file__).resolve().parents[1]
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "child.py"), str(report), "trace", "--",
         command, "--config", str(root / "configs" / config),
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    assert data["t_first_run"] is not None
    names = {span["name"] for span in data["spans"]}
    assert {"solver.run", "certificates.certify_trajectory"} <= names
    notes = data["notes"]
    assert sum(notes["cert_rows"]) == rows
    assert all(isinstance(n, int) and n > 0 for n in notes["run_iters"])


def test_bench_child_sees_the_polish_inside_the_oracle_span(tmp_path):
    # bench/child.py times the oracle as the span of kkt_by_long_run and
    # counts its steps by wrapping cpcert.problems.run
    root = Path(__file__).resolve().parents[1]
    report, out = tmp_path / "report.json", tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "child.py"), str(report), "trace", "--",
         "solve", "--config", str(root / "configs" / "lasso.json"), "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    spans = data["spans"]
    oracle = [i for i, s in enumerate(spans) if s["name"] == "problems.kkt_by_long_run"]
    assert len(oracle) == 1
    runs = [s for s in spans if s["name"] == "problems.run"]
    assert runs and all(s["parent"] == oracle[0] for s in runs)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kkt_oracle_kind"] == "polished"
    assert sum(data["notes"]["oracle_iters"]) == summary["kkt_oracle_iterations"]


# --- non-finite numbers and wrong-typed vectors in configs ---------------------

@pytest.mark.parametrize("overrides", [
    {"tolerance": math.inf},
    {"tolerance": math.nan},
    {"fault": {"k": 20, "delta": math.inf}},
    {"theta": math.nan},
    {"stop_tol": -math.inf},
])
def test_solve_rejects_nonfinite_config_numbers(tmp_path, capsys, overrides):
    # an infinite tolerance made every allowance inf and passed a corrupted run
    cfg = write_config(tmp_path / "cfg.json", **{"fault": {"k": 20, "delta": 1e3},
                                                 **overrides})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"grid": {"theta": [0.5, math.nan], "safety": [0.9]}},
    {"grid": {"theta": [0.5], "safety": [math.inf]}},
    {"grid": {"theta": [0.5], "safety": [0.9]}, "ratio": math.inf},
], ids=["grid0", "grid1", "grid2"])
def test_sweep_rejects_nonfinite_grid_numbers(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "finite" in capsys.readouterr().err


def test_cli_rejects_nonfinite_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--theta", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("problem", [
    {"generator": "tv1d", "params": {"signal": {"a": 1}, "lam": 0.5}},
    {"generator": "tv1d", "params": {"signal": "0 1 2", "lam": 0.5}},
    {"generator": "tv1d", "params": {"signal": [[1.0, 2.0]], "lam": 0.5}},
    {"generator": "quadratic", "params": {"matrix": "m.txt", "a": [1.0, None], "b": [1.0]}},
    {"generator": "lasso", "params": {"matrix": "m.txt", "b": {"x": 1.0}, "lam": 0.1}},
])
def test_vector_generator_param_of_wrong_type_exits_2(tmp_path, capsys, monkeypatch,
                                                      problem):
    (tmp_path / "m.txt").write_text("1 2\n1.0 2.0\n")
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", problem=problem)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "must be a list of finite numbers" in capsys.readouterr().err


@pytest.mark.parametrize("path", [[1], 0])
def test_problem_file_must_be_a_string(tmp_path, capsys, path):
    # [1] crashed with a TypeError; 0 opened file descriptor 0 (stdin)
    cfg = write_config(tmp_path / "cfg.json", problem={"file": path})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "problem.file" in capsys.readouterr().err


def test_seed_reaches_a_file_referenced_generator(tmp_path):
    quad = {"generator": "quadratic", "params": {"rows": 4, "cols": 3}}
    seeded = {"generator": "quadratic", "params": {"rows": 4, "cols": 3, "seed": 11}}
    summaries = {}
    for name, problem in (("inline", quad), ("file", quad), ("seeded", seeded)):
        if name != "inline":
            (tmp_path / f"{name}_problem.json").write_text(json.dumps(problem))
            problem = {"file": str(tmp_path / f"{name}_problem.json")}
        cfg = write_config(tmp_path / f"{name}.json", problem=problem, iters=40)
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
        summaries[name] = json.loads((out / "summary.json").read_text())
    inline, by_file = summaries["inline"], summaries["file"]
    assert inline["problem"]["metadata"]["seed"] == 5
    assert by_file["problem"]["metadata"] == inline["problem"]["metadata"]
    assert by_file["certificates"] == inline["certificates"]
    assert summaries["seeded"]["problem"]["metadata"]["seed"] == 11  # the file's seed wins


@pytest.mark.parametrize("value", [0, -3])
def test_oracle_iters_below_one_exits_2(tmp_path, capsys, value):
    # 0 used to mean the default oracle length
    lasso = {"generator": "lasso", "params": {"rows": 6, "cols": 4, "lam": 0.1, "seed": 1}}
    cfg = write_config(tmp_path / "cfg.json", problem=lasso, oracle_iters=value)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "oracle_iters" in capsys.readouterr().err


# --- one failure per cell, and the boundaries of the config ------------------

@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_step_error_is_not_a_nonfinite_iterate(tmp_path, capsys, monkeypatch, command):
    # a prox returning 31 entries for 30 is a program error (exit 2), which
    # was reported as a non-finite iterate (exit 3)
    assert_no_repeat(QUAD_40x30, 300)
    sabotage_f_prox(monkeypatch, 300, lambda x: np.append(x, 0.0))
    cfg = write_config(tmp_path / "cfg.json", problem=QUAD_40x30, iters=600,
                       grid={"theta": [1.0], "safety": [0.9]})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "could not be broadcast" in err and "non-finite" not in err


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_cell_ends_at_its_first_failure(tmp_path, capsys, monkeypatch, command):
    # the fault breaks the certificate in the second segment; the NaN prox
    # at iteration 600 would fail the run later, but the cell ended at 299
    assert_no_repeat(QUAD_40x30, 600)
    sabotage_f_prox(monkeypatch, 600, lambda x: np.full_like(x, np.nan))
    cfg = write_config(tmp_path / "cfg.json", problem=QUAD_40x30, iters=600,
                       fault={"k": 300, "delta": 1e308},
                       grid={"theta": [1.0], "safety": [0.9]})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "non-finite Lyapunov value at iteration 299" in err
    assert "non-finite iterate" not in err


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("iters", [0, 1])
@pytest.mark.parametrize("source", ["json", "option"])
def test_iters_below_two_exits_2(tmp_path, capsys, command, iters, source):
    # sweep wrote a config-error row per cell and exited 0
    cfg = write_config(tmp_path / "cfg.json", grid={"theta": [1.0], "safety": [0.9]},
                       **({"iters": iters} if source == "json" else {}))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if source == "option":
        argv += ["--iters", str(iters)]
    assert main(argv) == 2
    assert "must be an integer >= 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, key", [
    ({"problem": {"generator": "quadratic", "paramz": {"rows": 4, "cols": 3}}}, "paramz"),
    ({"problem": {"file": "p.json", "params": {}}}, "params"),
    ({"problem": {"generator": "quadratic",
                  "params": {"rows": 4, "cols": 3, "sead": 2}}}, "sead"),
    ({"problem": {"generator": "lasso",
                  "params": {"rows": 6, "cols": 4, "lam": 0.1, "lambda": 5.0}}}, "lambda"),
    ({"problem": {"generator": "tv1d",
                  "params": {"n": 20, "lam": 0.5, "noize": 0.5}}}, "noize"),
    ({"grid": {"theta": [1.0], "safety": [0.9], "ratios": 2.0}}, "ratios"),
    ({"grid": {"theta": [1.0], "safety": [0.9], "ratio": 2.0}}, "ratio"),
    ({"fault": {"k": 20, "delta": 1.0, "kk": 30}}, "kk"),
    # a key of a generator's other form: "n": 7 beside a 3-sample signal ran
    # and summary.json recorded n = 7
    ({"problem": {"generator": "tv1d",
                  "params": {"signal": [1, 2, 3], "lam": 0.5, "n": 7}}}, "n"),
    ({"problem": {"generator": "tv1d",
                  "params": {"signal": [1, 2, 3], "lam": 0.5, "noise": 0.1}}}, "noise"),
    ({"problem": {"generator": "quadratic",
                  "params": {"rows": 2, "cols": 2, "a": [1.0, 2.0]}}}, "a"),
    ({"problem": {"generator": "quadratic", "params": {"matrix": "m.txt", "a": [1.0, 2.0],
                                                       "b": [1.0, 0.5], "rows": 2}}}, "rows"),
    ({"problem": {"generator": "lasso",
                  "params": {"rows": 6, "cols": 4, "lam": 0.1, "b": [1.0] * 6}}}, "b"),
    ({"problem": {"generator": "lasso", "params": {"matrix": "m.txt", "b": [1.0, 0.5],
                                                   "lam": 0.1, "cols": 2}}}, "cols"),
], ids=["problem", "problem-file", "quadratic", "lasso", "tv1d", "grid", "grid-ratio",
        "fault", "tv1d-signal-n", "tv1d-signal-noise", "quadratic-rows-a",
        "quadratic-matrix-rows", "lasso-rows-b", "lasso-matrix-cols"])
def test_unknown_key_below_top_level_exits_2(tmp_path, capsys, overrides, key):
    (tmp_path / "p.json").write_text(json.dumps(
        {"generator": "quadratic", "params": {"rows": 4, "cols": 3}}))
    (tmp_path / "m.txt").write_text("2 2\n1.0 0.5\n0.0 2.0\n")
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    command = "sweep" if "grid" in overrides else "solve"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "unknown keys in" in err and repr(key) in err


@pytest.mark.parametrize("source", ["json", "option"])
def test_sweep_rejects_tau_and_sigma(tmp_path, capsys, source):
    # a sweep given tau = sigma = 0.001 ran the grid's steps and recorded 0.001
    steps = {"tau": 0.001, "sigma": 0.001}
    cfg = write_config(tmp_path / "cfg.json", grid={"theta": [1.0], "safety": [0.9]},
                       **(steps if source == "json" else {}))
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]
    if source == "option":
        argv += ["--tau", "0.001", "--sigma", "0.001"]
    assert main(argv) == 2
    assert "give no tau or sigma" in capsys.readouterr().err
    assert not (tmp_path / "o" / "sweep_summary.json").exists()


@pytest.mark.parametrize("option", [["--theta", "0.3"], ["--safety", "0.5"],
                                    ["--theta", "1.0", "--safety", "0.9"]])
def test_sweep_rejects_theta_and_safety_options(tmp_path, capsys, monkeypatch, option):
    # a sweep given --theta 0.3 --safety 0.5 ran the grid's theta and safety
    # and recorded 0.3 and 0.5 in sweep_summary.json's config
    never_called(monkeypatch, "problem_from_config", "kkt_by_long_run", "run")
    cfg = write_config(tmp_path / "cfg.json", grid={"theta": [1.0], "safety": [0.9]})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)] + option) == 2
    assert "a sweep takes theta and safety from grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "validate"])
@pytest.mark.parametrize("source", ["json", "option"])
@pytest.mark.parametrize("value", [0.0, -1.0, 2.0])
@pytest.mark.parametrize("steps", [{}, {"tau": 0.1, "sigma": 0.1}],
                         ids=["safety-steps", "explicit-steps"])
def test_safety_outside_the_unit_range_exits_2_at_load(tmp_path, capsys, monkeypatch,
                                                       command, source, value, steps):
    # solve and validate rejected such a safety only after the build, and
    # not at all beside explicit tau and sigma, which leave it unused
    never_called(monkeypatch, "problem_from_config")
    cfg = write_config(tmp_path / "cfg.json", **steps,
                       **({"safety": value} if source == "json" else {}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if source == "option":
        argv.append(f"--safety={value}")
    assert main(argv) == 2
    field = "config field 'safety'" if source == "json" else "--safety"
    captured = capsys.readouterr()
    assert f"{field} must be a finite number in (0, 1], got {value!r}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("source", ["json", "option"])
@pytest.mark.parametrize("name", ["ratio", "tau", "sigma"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_nonpositive_ratio_or_step_exits_2_at_load(tmp_path, capsys, monkeypatch,
                                                   command, source, name, value):
    # a sweep with ratio -1 wrote a config-error row for every cell and exited
    # 0; solve rejected a nonpositive ratio, tau or sigma only after the build
    import cpcert.harness as harness

    def no_build(pc):
        raise AssertionError("the problem was built")

    monkeypatch.setattr(harness, "problem_from_config", no_build)
    grid = {"grid": {"theta": [1.0], "safety": [0.9]}} if command == "sweep" else {}
    cfg = write_config(tmp_path / "cfg.json", **grid,
                       **({name: value} if source == "json" else {}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if source == "option":
        argv.append(f"--{name}={value}")
    assert main(argv) == 2
    field = f"config field '{name}'" if source == "json" else f"--{name}"
    assert f"{field} must be a finite number > 0, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_observational_run_past_the_p_positivity_corner(tmp_path):
    # 1 - sqrt(tau sigma) ||L|| theta (1 - theta) <= 0: the eta weights are
    # undefined, which an observational run reports as null / nan
    cfg = write_config(tmp_path / "cfg.json", theta=0.5, tau=3.0, sigma=3.0, iters=30,
                       override_invalid=True,
                       problem={"generator": "quadratic",
                                "params": {"rows": 4, "cols": 3, "seed": 1}})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["params"]["p_positivity_ok"] is False
    cert = summary["certificates"]
    assert cert["mode"] == "observational"
    assert cert["eta_plus"] is None and cert["eta_minus"] is None
    cols = read_trajectory_csv(out / "trajectory.csv")
    assert np.isnan(cols["eta_plus"]).all() and np.isnan(cols["eta_minus"]).all()
    assert np.isfinite(cols["lyapunov"]).all()


def test_observational_run_beyond_theta_one(tmp_path):
    # eta_coefficients rejects theta = 1.5, so the eta weights are null too
    cfg = write_config(tmp_path / "cfg.json", theta=1.5, tau=0.1, sigma=0.1,
                       override_invalid=True)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["params"]["status"] == "Invalid"
    cert = summary["certificates"]
    assert cert["mode"] == "observational"
    assert cert["eta_plus"] is None and cert["eta_minus"] is None


# --- problem errors, file references and fault ranges, before any output ------

@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("params", [
    {"rows": 6, "cols": 4, "seed": 1, "shape": 3},
    {"rows": 6.5, "cols": 4, "seed": 1},
], ids=["unknown-key", "fractional-rows"])
def test_problem_error_leaves_no_output_directory(tmp_path, capsys, command, params):
    # the output directory used to be made before the problem was built
    cfg = write_config(tmp_path / "cfg.json",
                       problem={"generator": "quadratic", "params": params},
                       grid={"theta": [1.0], "safety": [0.9]})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_nested_problem_file_resolves_against_its_own_file(tmp_path, monkeypatch):
    # a/p1.json names p2.json, which used to open against the working
    # directory: the solve failed from tmp_path and passed from inside a/
    sub = tmp_path / "a"
    sub.mkdir()
    (sub / "p1.json").write_text(json.dumps({"file": "p2.json"}))
    (sub / "p2.json").write_text(json.dumps(
        {"generator": "quadratic", "params": {"rows": 6, "cols": 4, "seed": 2}}))
    write_config(sub / "cfg.json", problem={"file": "p1.json"}, iters=50)
    outputs = {}
    for cwd, cfg in ((tmp_path, os.path.join("a", "cfg.json")), (sub, "cfg.json")):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"out-{cwd.name}"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        outputs[cwd] = [(out / name).read_bytes()
                        for name in ("trajectory.csv", "summary.json")]
    assert outputs[tmp_path] == outputs[sub]


def test_problem_file_reference_cycle_exits_2(tmp_path, capsys):
    (tmp_path / "p.json").write_text(json.dumps({"file": "q.json"}))
    (tmp_path / "q.json").write_text(json.dumps({"file": "p.json"}))
    cfg = write_config(tmp_path / "cfg.json", problem={"file": "p.json"})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "reference cycle" in capsys.readouterr().err


def test_problem_file_that_is_not_json_is_named_in_its_error(tmp_path, capsys):
    # the error used to be the decoder's alone: "Expecting value: line 1
    # column 1 (char 0)"
    path = tmp_path / "p.json"
    path.write_text("not json\n")
    with pytest.raises(ValueError, match=f"problem file {re.escape(str(path))} is not valid JSON"):
        read_problem_file({"file": "p.json"}, tmp_path)
    cfg = write_config(tmp_path / "cfg.json", problem={"file": "p.json"})
    assert main(["validate", "--config", str(cfg)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"not json\n", "config file {} is not valid JSON"),
    # used to be the codec's message alone: "'utf-8' codec can't decode
    # byte 0xff in position 0: invalid start byte"
    (b"\xff\xfe{}", "config file {} is not valid JSON"),
    (b"[]", "the config must be an object"),
], ids=["not-json", "not-utf8", "list"])
def test_config_file_error_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    message = message.format(path)
    with pytest.raises(UsageError, match=re.escape(message)):
        ExperimentConfig.from_file(path)
    assert main(["validate", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides, message", [
    ("solve", {"tau": 0.1}, "give both tau and sigma, or neither"),
    ("sweep", {}, "sweep config needs grid"),
], ids=["tau-alone", "sweep-without-grid"])
def test_step_or_grid_error_exits_2_before_any_output(tmp_path, capsys, command,
                                                     overrides, message):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", [61, -1])
def test_sweep_fault_outside_the_run_is_a_usage_error(tmp_path, capsys, k):
    # the sweep used to write config-error rows and exit 0
    cfg = write_config(tmp_path / "cfg.json", iters=60, fault={"k": k, "delta": 1.0},
                       grid={"theta": [1.0], "safety": [0.9]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"iterate {k} out of range 0..60" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_run_failure_exits_as_solve_does(tmp_path, capsys):
    # the run stops at 55, before the fault at 390: the sweep wrote a
    # config-error row for its one cell and exited 0
    quad = {"generator": "quadratic", "params": {"rows": 6, "cols": 4, "seed": 2}}
    cfg = write_config(tmp_path / "cfg.json", problem=quad, iters=400,
                       stop_tol=1e-6, fault={"k": 390, "delta": 1.0},
                       grid={"theta": [1.0], "safety": [0.9]})
    for command in ("solve", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "iterate 390 out of range 0..55" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_on_a_zero_operator_exits_2_as_solve_does(tmp_path, capsys):
    # the sweep wrote a config-error row for its one cell and exited 0
    (tmp_path / "zero.txt").write_text("2 2\n0.0 0.0\n0.0 0.0\n")
    zero = {"generator": "quadratic",
            "params": {"matrix": "zero.txt", "a": [1.0, 2.0], "b": [1.0, 0.5]}}
    cfg = write_config(tmp_path / "cfg.json", problem=zero,
                       grid={"theta": [1.0], "safety": [0.9]})
    for command in ("solve", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: operator_norm must be positive" in capsys.readouterr().err
        assert not out.exists()


def test_operator_too_small_for_float_steps_exits_2(tmp_path, capsys):
    # the bound of a 1e-200 diagonal was estimated as 0.0 ("operator_norm
    # must be positive"); estimated right, its square underflowed in the
    # steps' formula, a ZeroDivisionError that exited 1 with a traceback
    (tmp_path / "tiny.txt").write_text("2 2\n1e-200 0.0\n0.0 1e-200\n")
    tiny = {"generator": "quadratic",
            "params": {"matrix": "tiny.txt", "a": [1.0, 2.0], "b": [1.0, 0.5]}}
    cfg = write_config(tmp_path / "cfg.json", problem=tiny,
                       grid={"theta": [1.0], "safety": [0.9]})
    message = "error: operator_norm 1.00000001e-200 and ratio 1.0 give no finite positive steps"
    assert main(["validate", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    for command in ("solve", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_sweep_value_map_of_wrong_shape_exits_2(tmp_path, capsys, monkeypatch):
    import cpcert.harness as harness

    build = harness.problem_from_config

    def wrong_shape(pc):
        problem = build(pc)
        return dataclasses.replace(problem, f=c.ProxFn(lambda x: np.zeros(2), problem.f.prox))

    monkeypatch.setattr(harness, "problem_from_config", wrong_shape)
    cfg = write_config(tmp_path / "cfg.json", grid={"theta": [1.0], "safety": [0.9]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "value maps must be row-wise" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_ratio_option_sets_every_cell(tmp_path, capsys):
    # a grid.ratio of 2 used to override --ratio 3 in every cell, while the
    # summary's config recorded 3; the sweep's ratio is the top-level one
    grid = {"theta": [0.5, 1.0], "safety": [0.9]}
    out = tmp_path / "out"
    argv = ["--out", str(out), "--ratio", "3"]
    cfg = write_config(tmp_path / "grid.json", iters=60, grid={**grid, "ratio": 2.0})
    assert main(["sweep", "--config", str(cfg), *argv]) == 2
    assert "unknown keys in grid: ['ratio']" in capsys.readouterr().err
    cfg = write_config(tmp_path / "cfg.json", iters=60, ratio=2.0, grid=grid)
    assert main(["sweep", "--config", str(cfg), *argv]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["config"]["ratio"] == 3.0
    for cell in summary["cells"]:
        assert cell["ratio"] == 3.0
        assert cell["tau"] / cell["sigma"] == pytest.approx(3.0)


def test_fault_range_follows_the_iters_option(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", iters=200, fault={"k": 150, "delta": 1.0})
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main([*argv, "--iters", "100"]) == 2
    assert "iterate 150 out of range 0..100" in capsys.readouterr().err
    assert main(argv) == 1  # in range: the fault is caught


def test_validate_checks_the_fault_range_as_solve_does(tmp_path, capsys):
    # validate used to build the problem without the check and exit 0
    cfg = write_config(tmp_path / "cfg.json", iters=200, fault={"k": 5000, "delta": 1.0})
    out = tmp_path / "o"
    for command in ("validate", "solve"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "iterate 5000 out of range 0..200" in captured.err
        assert captured.out == ""
        assert not out.exists()


# --- a run at the long-run oracle's parameters computes its own iterates -----

# The oracle's polish of its start point is kept here, its check stopped by
# the stop rule after 30 steps; a run certifies in 61-iterate segments,
# ending at k = 60, 121, ...
LASSO_480x320 = {"generator": "lasso",
                 "params": {"rows": 480, "cols": 320, "lam": 0.2, "seed": 1}}


def counted(monkeypatch, tmp_path, name, command="solve", replay=True,
            problem=LASSO_480x320, **overrides):
    """Run ``command`` on ``problem``, the 480x320 lasso by default; the exit
    code, the output directory and the (cells, steps) of each ``harness.run``
    call. With ``replay`` False the cycle search finds nothing, so every
    step is run."""
    import cpcert.harness as harness

    calls = []
    run = harness.run

    def counting_run(problem, params, z0, max_iters, **kwargs):
        calls.append((len(params), max_iters))
        return run(problem, params, z0, max_iters, **kwargs)

    cfg = write_config(tmp_path / f"{name}.json", problem=problem, **overrides)
    out = tmp_path / name
    with monkeypatch.context() as m:
        m.setattr(harness, "run", counting_run)
        if not replay:
            m.setattr(harness, "find_cycle", lambda seg: None)
        code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, out, calls


def same_outputs(a, b, names):
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def test_solve_at_the_oracle_parameters_runs_every_step(tmp_path, monkeypatch):
    code, out, calls = counted(monkeypatch, tmp_path, "solve", iters=400)
    assert code == 0
    # every segment is run, the last one cut at the horizon
    assert calls == [(1, 60)] + [(1, 61)] * 5 + [(1, 35)]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kkt_oracle_iterations"] == 30
    assert summary["certificates"]["all_pass"] is True


def test_sweep_with_the_oracle_cell_runs_every_cell(tmp_path, monkeypatch):
    grid = {"theta": [0.5, 1.0], "safety": [0.9, 0.99]}
    code, out, calls = counted(monkeypatch, tmp_path, "sweep", "sweep", iters=300,
                               grid=grid)
    assert code == 0
    # the oracle's cell (theta 1, safety 0.9) runs in every segment
    assert [cells for cells, _ in calls] == [4] * 5


def test_fault_at_the_oracle_parameters_is_caught_at_its_k(tmp_path, monkeypatch):
    fault = {"k": 100, "delta": 1.0}
    code, out, calls = counted(monkeypatch, tmp_path, "fault", iters=400, fault=fault)
    assert code == 1
    assert sum(steps for _, steps in calls) == 400
    first = json.loads((out / "summary.json").read_text())["certificates"]["first_failing_k"]
    assert first in (98, 99, 100)


def test_stop_tol_at_the_oracle_parameters_stops_the_run(tmp_path, monkeypatch):
    # the fixed-point residual falls through 0.2 between k = 150 and 200
    code, out, calls = counted(monkeypatch, tmp_path, "stop", iters=400, stop_tol=0.2)
    assert code == 0
    stopped = json.loads((out / "summary.json").read_text())["stopped_at"]
    assert 150 < stopped < 200
    steps = [steps for _, steps in calls]
    assert sum(steps[:-1]) < stopped <= sum(steps)  # run up to the stop, no further


def test_solve_at_the_oracle_parameters_holds_no_oracle_iterates(tmp_path):
    # the oracle's iterates are dropped before the run starts: a solve at its
    # safety (0.9) peaks no higher than one just beside it (0.89); holding
    # the oracle's first pieces beside the run peaked at 4.1 against 3.0 MB
    def solve(safety):
        cfg = write_config(tmp_path / f"cfg{safety}.json", problem=LASSO_480x320,
                           iters=400, safety=safety)
        return main(["solve", "--config", str(cfg), "--out", str(tmp_path / f"out{safety}")])

    assert solve(0.89) == 0  # the first solve in a process imports and caches modules
    peaks = {}
    for safety in (0.9, 0.89):
        peaks[safety], code = traced_peak(solve, safety)
        assert code == 0
    assert peaks[0.9] <= 1.05 * peaks[0.89], peaks


# --- a run that repeats a state replays its cycle ----------------------------

# quad_long's problem: at theta 0.5 its run enters a period-12 cycle at
# k = 403, found at the end of the segment of steps 256..511
QUAD_12x10_SEED0 = {"generator": "quadratic", "params": {"rows": 12, "cols": 10, "seed": 0}}
SOLVE_FILES = ("trajectory.csv", "summary.json")


def test_solve_at_a_fixed_point_runs_one_segment(tmp_path, monkeypatch):
    # the theta = 1 run reaches a fixed point at iterate 220, inside the
    # first segment (steps 0..255)
    code, out, calls = counted(monkeypatch, tmp_path, "replay", problem=QUAD_12x10,
                               iters=2000)
    assert code == 0
    assert calls == [(1, 255)]
    code, plain, calls = counted(monkeypatch, tmp_path, "plain", replay=False,
                                 problem=QUAD_12x10, iters=2000)
    assert code == 0
    assert sum(steps for _, steps in calls) == 2000
    assert same_outputs(out, plain, SOLVE_FILES)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificates"]["all_pass"] is True
    assert summary["final_fixed_point_residual"] == 0.0


def test_solve_in_a_cycle_runs_only_until_it_is_found(tmp_path, monkeypatch):
    code, out, calls = counted(monkeypatch, tmp_path, "replay", problem=QUAD_12x10_SEED0,
                               theta=0.5, iters=20000)
    assert code == 0
    assert len(calls) == 2 and sum(steps for _, steps in calls) == 511
    code, plain, calls = counted(monkeypatch, tmp_path, "plain", replay=False,
                                 problem=QUAD_12x10_SEED0, theta=0.5, iters=20000)
    assert code == 0
    assert sum(steps for _, steps in calls) == 20000
    assert same_outputs(out, plain, SOLVE_FILES)
    assert json.loads((out / "summary.json").read_text())["certificates"]["all_pass"] is True


def test_sweep_cells_leave_the_batch_as_they_repeat(tmp_path, monkeypatch):
    tv = {"generator": "tv1d", "params": {"n": 50, "lam": 0.5, "seed": 0}}
    grid = {"theta": [0.1, 0.5, 1.0], "safety": [0.5, 0.9]}
    code, out, calls = counted(monkeypatch, tmp_path, "replay", "sweep", problem=tv,
                               iters=2000, grid=grid)
    assert code == 0
    assert [cells for cells, _ in calls] == [6, 6, 6, 6, 5, 2, 1]
    code, plain, calls = counted(monkeypatch, tmp_path, "plain", "sweep", replay=False,
                                 problem=tv, iters=2000, grid=grid)
    assert code == 0
    assert [cells for cells, _ in calls] == [6] * 8
    assert same_outputs(out, plain, ("sweep_summary.csv", "sweep_summary.json"))


def test_stop_tol_never_fires_inside_a_replayed_cycle(tmp_path, monkeypatch):
    # every step's fixed-point residual stays above 3e-17 (the smallest is
    # 9.3e-17, the cycle's 1.1e-16), so neither run stops
    overrides = dict(problem=QUAD_12x10_SEED0, theta=0.5, iters=3000, stop_tol=3e-17)
    code, out, calls = counted(monkeypatch, tmp_path, "replay", **overrides)
    assert code == 0
    assert sum(steps for _, steps in calls) == 511
    code, plain, _ = counted(monkeypatch, tmp_path, "plain", replay=False, **overrides)
    assert code == 0
    assert same_outputs(out, plain, SOLVE_FILES)
    replayed, ran = (json.loads((d / "summary.json").read_text()) for d in (out, plain))
    assert replayed["stopped_at"] is None
    assert replayed["final_fixed_point_residual"] == ran["final_fixed_point_residual"] > 0


def test_fault_inside_a_replayed_segment_is_caught_at_the_same_k(tmp_path, monkeypatch):
    overrides = dict(problem=QUAD_12x10_SEED0, theta=0.5, iters=3000,
                     fault={"k": 2500, "delta": 1e-3})
    code, out, calls = counted(monkeypatch, tmp_path, "replay", **overrides)
    assert code == 1
    assert sum(steps for _, steps in calls) == 511
    code, plain, _ = counted(monkeypatch, tmp_path, "plain", replay=False, **overrides)
    assert code == 1
    assert same_outputs(out, plain, SOLVE_FILES)
    first = json.loads((out / "summary.json").read_text())["certificates"]["first_failing_k"]
    assert first in (2498, 2499, 2500)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_overflowing_fault_inside_a_replayed_sweep_segment_ends_the_sweep(tmp_path, capsys,
                                                                         monkeypatch):
    # every cell replays its cycle from step 1792 on, so the fault at k = 1900
    # lands in a tiled segment; the first cell in grid order fails there
    tv = {"generator": "tv1d", "params": {"n": 50, "lam": 0.5, "seed": 0}}
    overrides = dict(problem=tv, iters=2000, fault={"k": 1900, "delta": 1e308},
                     grid={"theta": [0.1, 0.5, 1.0], "safety": [0.5, 0.9]})
    code, out, calls = counted(monkeypatch, tmp_path, "replay", "sweep", **overrides)
    replayed = capsys.readouterr().err
    assert code == 1
    assert [cells for cells, _ in calls] == [6, 6, 6, 6, 5, 2, 1]
    code, plain, calls = counted(monkeypatch, tmp_path, "plain", "sweep", replay=False,
                                 **overrides)
    assert code == 1
    assert [cells for cells, _ in calls] == [6] * 8
    assert "non-finite Lyapunov value at iteration" in replayed
    assert replayed == capsys.readouterr().err
    assert not out.exists() and not plain.exists()


# --- a large dense run certifies each segment while a worker thread runs the next ---

# A run of this quadratic certifies in 196-iterate segments (n + m = 250),
# ending at k = 195, 391, 587, ...; it repeats no state within 600 steps.
QUAD_150x100 = {"generator": "quadratic", "params": {"rows": 150, "cols": 100, "seed": 7}}
TV_300 = {"generator": "tv1d", "params": {"n": 300, "seed": 0, "lam": 0.5}}


def beside_or_inline(monkeypatch, beside, worker_delay=0.0):
    """Make the harness certify each segment beside the next segment's run
    (``beside``) or before it, on every operator, a run on a worker thread
    starting ``worker_delay`` seconds late. Returns the list of the threads
    that call ``harness.run``, one entry a call."""
    import cpcert.harness as harness

    monkeypatch.setattr(harness, "certify_beside_run", lambda L: beside)
    threads, run = [], harness.run

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread())
        if threads[-1] is not threading.main_thread():
            time.sleep(worker_delay)
        return run(*args, **kwargs)

    monkeypatch.setattr(harness, "run", recorded)
    return threads


def test_only_large_dense_runs_on_one_blas_thread_are_certified_beside_the_run(monkeypatch):
    # at least 900 x 600 dense entries, BLAS pinned to one thread by the
    # first thread variable set, and two cores; matrix-free operators,
    # such as TV-1D's, keep one thread at any size
    from cpcert.certificates import certify_beside_run
    from cpcert.hilbert import ForwardDifferenceOperator, MatrixOperator

    def dense(rows, cols):
        return MatrixOperator(np.zeros((rows, cols)), norm_bound=1.0)

    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert not certify_beside_run(dense(900, 600))  # BLAS threads on every core
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert [certify_beside_run(dense(r, cols)) for r, cols in (
        (900, 600), (600, 900), (1800, 1200), (899, 600), (300, 600))] == [
        True, True, True, False, False]
    assert not certify_beside_run(ForwardDifferenceOperator(20000))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # read before OMP_NUM_THREADS
    assert not certify_beside_run(dense(900, 600))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert certify_beside_run(dense(900, 600))
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert not certify_beside_run(dense(900, 600))


@pytest.mark.parametrize("command, overrides", [
    ("solve", {"problem": LASSO_480x320, "iters": 200}),
    ("sweep", {"problem": TV_300, "iters": 300,
               "grid": {"theta": [0.5, 1.0], "safety": [0.9, 0.99]}}),
    ("solve", {"problem": QUAD_150x100, "iters": 500, "fault": {"k": 250, "delta": 1.0}}),
], ids=["wide-lasso-solve", "tv1d-sweep", "fault-in-second-segment"])
def test_certifying_beside_the_next_run_keeps_every_byte(tmp_path, monkeypatch, command,
                                                         overrides):
    # the caller's thread runs the first segment and the worker every later
    # one; the outputs are those of the one-thread order, whatever the
    # number of BLAS threads, and with the GIL handed over every 10 us
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    outputs = {}
    switch = sys.getswitchinterval()
    for beside in (False, True):
        out = tmp_path / str(beside)
        with monkeypatch.context() as m:
            threads = beside_or_inline(m, beside)
            sys.setswitchinterval(1e-5)
            try:
                code = main([command, "--config", str(cfg), "--out", str(out)])
            finally:
                sys.setswitchinterval(switch)
        assert len(threads) >= 3
        assert [t is threading.current_thread() for t in threads] == [
            True] + [not beside] * (len(threads) - 1)
        outputs[beside] = code, {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs[True] == outputs[False]
    assert outputs[True][0] == (1 if "fault" in overrides else 0)


@pytest.mark.parametrize("fault, at_call, code, message", [
    ({"k": 300, "delta": 1e308}, 400, 1, "non-finite Lyapunov value at iteration 299"),
    (None, 300, 3, "non-finite iterate produced at iteration 300"),
], ids=["certificate-error-before-next-run-error", "run-error-on-the-worker"])
def test_certifying_beside_the_next_run_keeps_the_failure_order(
        tmp_path, capsys, monkeypatch, fault, at_call, code, message):
    # the fault at k = 300 makes the second segment's Lyapunov value
    # non-finite while the worker's run of the third segment produces a
    # NaN at step 400: the certificate error is raised, once that run has
    # ended, though it starts late; a run error on the worker is numbered
    # by its run-wide step. No worker thread is left.
    assert_no_repeat(QUAD_150x100, 600)
    calls = sabotage_f_prox(monkeypatch, at_call, lambda x: np.full_like(x, np.nan))
    threads = beside_or_inline(monkeypatch, True, worker_delay=0.1)
    cfg = write_config(tmp_path / "cfg.json", problem=QUAD_150x100, iters=600, fault=fault)
    out = tmp_path / "out"
    before = threading.active_count()
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == code
    assert threading.active_count() == before
    assert f"{message}\n" in capsys.readouterr().err
    assert len(calls) == at_call  # the failing step ran, on the worker
    assert threads[-1] is not threading.current_thread()
    assert not out.exists()


def test_certifying_beside_the_next_run_holds_one_more_segment(monkeypatch):
    # the worker fills the next segment (33 iterates of n + m = 1500 floats,
    # 0.4 MB) while the caller certifies this one, and holds its step's
    # vectors: 1.08-1.21 segments above the one-thread order were measured.
    # The certification loop is traced alone: a whole solve's traced peak
    # (9.8 MB) is the oracle's, and hides it.
    import cpcert.harness as harness

    pc = {"generator": "lasso", "params": {"rows": 900, "cols": 600, "lam": 0.2, "seed": 0}}
    problem = c.problem_from_config(pc)
    norm = problem.L.norm_bound
    params = {0: c.SolverParams(*c.suggest_steps(1.0, norm, 0.9), 1.0, norm)}
    kkt = harness.kkt_by_long_run(problem, 4000)
    cfg = ExperimentConfig(problem=pc, iters=200)
    peaks = {}
    for beside in (False, True):
        monkeypatch.setattr(harness, "certify_beside_run", lambda L: beside)
        peaks[beside], cells = traced_peak(harness._certified_cells, problem, params, cfg,
                                           kkt)
        assert cells[0].n_iters == 200
    segment = 33 * 1500 * 8
    assert peaks[True] <= peaks[False] + 1.5 * segment, (peaks, segment)
