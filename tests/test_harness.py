import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cpcert as c
from cpcert.harness import (CSV_COLUMNS, ExperimentConfig, UsageError,
                            corrupt_trajectory, emit_plotdata, fit_rate, main,
                            read_trajectory_csv, recompute_flags_from_csv)
from cpcert.solver import running_averages


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
    rows = list(csv.DictReader((out / "sweep_summary.csv").read_text().splitlines()))
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


@pytest.fixture(scope="module")
def good_csv_lines(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csv")
    cfg = write_config(tmp / "cfg.json")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp / "out")]) == 0
    return (tmp / "out" / "trajectory.csv").read_text().splitlines(keepends=True)


@pytest.mark.parametrize("case", [
    "good", "comment line", "ragged row", "non-numeric field", "blank line",
    "header only", "empty file", "eleven columns",
])
def test_rate_rejects_malformed_csv(tmp_path, capsys, good_csv_lines, case):
    header, body = good_csv_lines[0], list(good_csv_lines[1:])
    if case == "comment line":
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
    path = tmp_path / "trajectory.csv"
    path.write_text(header + "".join(body))
    code = main(["rate", str(path), "--metric", "ergodic_gap"])
    err = capsys.readouterr().err
    assert code == (0 if case == "good" else 2), err
    assert "rate fit" not in err  # rejected as a file, not for too few points


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
    {"grid": {"theta": [0.5], "safety": [0.9], "ratio": [1.0]}},
    {"fault": {"k": [20], "delta": 1.0}},
    {"fault": {"k": 20, "delta": None}},
    {"problem": [1]},
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
])
def test_generator_param_of_wrong_type_exits_2(tmp_path, capsys, problem):
    cfg = write_config(tmp_path / "cfg.json", problem=problem)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "generator" in capsys.readouterr().err


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
@pytest.mark.parametrize("thetas, code, message", [
    ([0.5, 0.25], 3, "non-finite iterate produced at iteration 1"),
    ([0.25, 0.5], 1, "non-finite Lyapunov value"),
])
def test_sweep_first_failing_cell_in_grid_order_sets_exit(tmp_path, capsys, monkeypatch,
                                                          thetas, code, message):
    # the theta = 0.5 cell's run turns non-finite (exit 3); the huge fault
    # makes every other cell's Lyapunov value non-finite (exit 1)
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
    cfg = write_config(tmp_path / "cfg.json", problem=TV_SMALL, iters=300,
                       fault={"k": 280, "delta": 1e200},
                       grid={"theta": thetas, "safety": [0.9]})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "sweep_summary.json").exists()


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
        tracemalloc.start()
        try:
            assert main(["sweep", "--config", str(cfg), "--out",
                         str(tmp_path / f"out{iters}")]) == 0
            peaks[iters] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4000] <= 1.2 * peaks[2000], peaks


def test_bench_child_hooks_see_the_sweep(tmp_path):
    # bench/child.py wraps cpcert.harness.run and certify_trajectory by name
    root = Path(__file__).resolve().parents[1]
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "child.py"), str(report), "trace", "--",
         "sweep", "--config", str(root / "configs" / "tv_sweep.json"),
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    assert data["t_first_run"] is not None
    names = {span["name"] for span in data["spans"]}
    assert {"solver.run", "certificates.certify_trajectory"} <= names
    notes = data["notes"]
    assert sum(notes["cert_rows"]) == 15 * 1999
    assert all(isinstance(n, int) and n > 0 for n in notes["run_iters"])


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


@pytest.mark.parametrize("grid", [
    {"theta": [0.5, math.nan], "safety": [0.9]},
    {"theta": [0.5], "safety": [math.inf]},
    {"theta": [0.5], "safety": [0.9], "ratio": math.inf},
])
def test_sweep_rejects_nonfinite_grid_numbers(tmp_path, capsys, grid):
    cfg = write_config(tmp_path / "cfg.json", grid=grid)
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
