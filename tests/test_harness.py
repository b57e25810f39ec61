import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cpcert as c
from cpcert.harness import (CSV_COLUMNS, ExperimentConfig, UsageError,
                            corrupt_trajectory, emit_plotdata, fit_rate, main,
                            read_trajectory_csv, recompute_flags_from_csv)


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


def test_round_trip_flags_from_csv(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", theta=0.5, iters=150)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    tol = summary["certificates"]["tol"]
    flags = recompute_flags_from_csv(out / "trajectory.csv", tol)
    fail_counts = {name: int(arr.size - np.count_nonzero(arr))
                   for name, arr in flags.items()}
    assert fail_counts == summary["certificates"]["fail_counts"]


def test_sweep_grid_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "problem": {"generator": "quadratic", "params": {"rows": 5, "cols": 4, "seed": 2}},
        "iters": 100,
        "grid": {"theta": [0.25, 1.0], "safety": [0.9, 1.0]},
    }))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep_summary.csv").open()))
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
    rows = list(csv.DictReader((out / "sweep_summary.csv").open()))
    assert len(rows) == 15
    assert all(r["all_pass"] == "true" for r in rows)
    assert all(r["status"] == "StrictlyValid" for r in rows)


def test_sweep_isolates_bad_cells(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "problem": {"generator": "quadratic", "params": {"rows": 5, "cols": 4, "seed": 2}},
        "iters": 60,
        "grid": {"theta": [1.0], "safety": [0.9, 1.5]},  # 1.5 is a config error
    }))
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0  # no certificate failures; bad cell reported, others ran
    rows = list(csv.DictReader((out / "sweep_summary.csv").open()))
    by_safety = {r["safety"]: r for r in rows}
    assert by_safety["0.9"]["exit_code"] == "0"
    assert by_safety["1.5"]["status"] == "config-error"
    assert by_safety["1.5"]["exit_code"] == "2"


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
        for r in csv.DictReader((out / "sweep_summary.csv").open()):
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
    assert np.allclose(bad.ergodic_point(10).x, want)


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
    # an oracle rejection or a non-finite iterate is not a certificate failure
    lasso = {"generator": "lasso", "params": {"rows": 6, "cols": 4, "lam": 0.1, "seed": 1}}
    cfg = write_config(tmp_path / "oracle.json", problem=lasso, oracle_iters=2)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 3
    assert "long-run oracle rejected" in capsys.readouterr().err
    cfg = write_config(tmp_path / "diverge.json", problem=lasso, tau=1e3, sigma=1e3,
                       iters=200)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b"),
                 "--override-invalid"]) == 3
    assert "non-finite iterate" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"iters": "50"},
    {"grid": {"theta": 0.5, "safety": [0.9]}},
])
def test_config_field_of_wrong_type_exits_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    command = "sweep" if "grid" in overrides else "solve"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config field" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("theta", True), ("tau", "1"), ("stop_tol", [1e-9]), ("seed", 1.5),
    ("oracle_iters", "9"), ("override_invalid", 1), ("fault", [20, 1.0]),
    ("grid", [0.5]), ("out", 3),
])
def test_config_type_checks(tmp_path, field, value):
    path = write_config(tmp_path / "cfg.json", **{field: value})
    with pytest.raises(UsageError, match=repr(field)):
        ExperimentConfig.from_file(path)


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


def test_module_entry_point_has_no_runpy_warning(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cpcert.harness",
         "validate", "--config", str(root / "configs" / "quadratic.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_solve_rejects_invalid_params_before_oracle(tmp_path, capsys):
    # the oracle would be rejected (exit 3) if it ran; Invalid params come first
    lasso = {"generator": "lasso", "params": {"rows": 6, "cols": 4, "lam": 0.1, "seed": 1}}
    cfg = write_config(tmp_path / "cfg.json", problem=lasso, oracle_iters=2,
                       tau=10.0, sigma=10.0)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "Invalid" in capsys.readouterr().err
