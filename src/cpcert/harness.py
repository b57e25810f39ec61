"""Command-line front end: experiment runs, parameter sweeps, rate fits.

Subcommands
-----------
solve     run one experiment, write trajectory.csv + summary.json
sweep     run a (theta x safety) grid, write sweep_summary.csv/.json
validate  classify step sizes against the admissible-product bound
rate      least-squares slope of log(metric) vs log(k) from a trajectory CSV
plotdata  two-column (k, value) files per metric plus a gnuplot script

Exit codes: 0 all asserted certificates pass, 1 a certificate failed,
2 usage/config error, 3 the run could not be certified: the long-run
oracle rejected its saddle point, or the solver produced a non-finite
iterate. CSV and JSON outputs are byte-deterministic for a
fixed config: floats are serialized with shortest round-trip precision and
summaries carry no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .certificates import CertificateTable, _flag_arrays, certify_trajectory
from .problems import OracleRejectedError, kkt_by_long_run, problem_from_config
from .solver import (NonFiniteIterateError, SolverParams, Trajectory, Validity,
                     run, suggest_steps, validate_params)
from .hilbert import PPoint

__all__ = [
    "ExperimentConfig",
    "RateFit",
    "cmd_solve",
    "cmd_sweep",
    "cmd_validate",
    "cmd_rate",
    "cmd_plotdata",
    "fit_rate",
    "emit_plotdata",
    "corrupt_trajectory",
    "recompute_flags_from_csv",
    "read_trajectory_csv",
    "main",
]

CSV_COLUMNS = ["k", "gap", "ergodic_gap", "lyapunov", "descent_residual",
               "lower_bound_residual", "eta_plus", "eta_minus",
               "dist_to_star", "sum_gap"]


class UsageError(ValueError):
    """Bad configuration or command-line input (exit code 2)."""


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# JSON type of each config field; None is also accepted where the default is None.
_FIELD_TYPES = {
    **dict.fromkeys(("theta", "tau", "sigma", "safety", "ratio", "tolerance",
                     "stop_tol"), (_is_number, "a number")),
    **dict.fromkeys(("iters", "seed", "oracle_iters"), (_is_int, "an integer")),
    "override_invalid": (lambda v: isinstance(v, bool), "true or false"),
    "fault": (lambda v: isinstance(v, dict), "an object"),
    "grid": (lambda v: isinstance(v, dict), "an object"),
    "out": (lambda v: isinstance(v, str), "a string"),
}


@dataclass
class ExperimentConfig:
    """One experiment: a problem reference plus solver and output settings.

    A config file plus the code version determines all outputs
    byte-for-byte. ``fault`` optionally perturbs one stored iterate after
    the run (negative control for the certificate engine): {"k": int,
    "delta": float}.
    """

    problem: dict
    theta: float = 1.0
    tau: float | None = None
    sigma: float | None = None
    safety: float = 0.9
    ratio: float = 1.0
    iters: int = 2000
    seed: int = 0
    tolerance: float = 1e-9
    stop_tol: float | None = None
    override_invalid: bool = False
    oracle_iters: int | None = None
    fault: dict | None = None
    grid: dict | None = None
    out: str = "results"

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise UsageError(f"config file {path} is not valid JSON: {e}") from None
        if not isinstance(raw, dict) or "problem" not in raw:
            raise UsageError(f"config file {path} must be an object with a 'problem' key")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cls._check_types(raw)
        return cls(**raw)

    @classmethod
    def _check_types(cls, raw: dict) -> None:
        """Reject a field of the wrong JSON type with a UsageError."""
        for name, (ok, what) in _FIELD_TYPES.items():
            v = raw.get(name)
            if name in raw and not (ok(v) or (v is None and getattr(cls, name) is None)):
                raise UsageError(f"config field {name!r} must be {what}, got {v!r}")
        for key in ("theta", "safety"):
            vals = (raw.get("grid") or {}).get(key, [])
            if not (isinstance(vals, list) and all(map(_is_number, vals))):
                raise UsageError(f"config field 'grid.{key}' must be a list of "
                                 f"numbers, got {vals!r}")

    def apply_overrides(self, args) -> None:
        for name in ("theta", "tau", "sigma", "safety", "ratio", "iters", "seed", "out"):
            v = getattr(args, name, None)
            if v is not None:
                setattr(self, name, v)
        if getattr(args, "override_invalid", False):
            self.override_invalid = True

    def to_dict(self) -> dict:
        """Experiment-defining fields only (output paths excluded)."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ("grid", "out")}
        if self.grid is not None:
            d["grid"] = self.grid
        return d


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(value) against log(k) over an index window."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]
    points: int = 0


def fit_rate(values, window: tuple[int, int], ks=None) -> RateFit:
    """Fit log(value) ~ slope*log(k) + intercept over window = (k_min, k_max).

    Nonpositive or non-finite values are excluded; fewer than 10 usable
    points is a usage error.
    """
    values = np.asarray(values, dtype=float)
    ks = np.arange(1, len(values) + 1) if ks is None else np.asarray(ks)
    k_min, k_max = window
    mask = (ks >= k_min) & (ks <= k_max) & np.isfinite(values) & (values > 0)
    if int(mask.sum()) < 10:
        raise UsageError(
            f"rate fit needs >= 10 positive points in window {window}, "
            f"found {int(mask.sum())}"
        )
    lk = np.log(ks[mask].astype(float))
    lv = np.log(values[mask])
    coeffs, *_ = np.linalg.lstsq(np.column_stack([lk, np.ones_like(lk)]), lv, rcond=None)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    pred = slope * lk + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope, intercept, r2, (int(k_min), int(k_max)), int(mask.sum()))


# --- deterministic serialization -------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


# Rows formatted at a time by write_trajectory_csv: bounds the Python
# floats and strings alive at once.
_CSV_CHUNK = 1024


def write_trajectory_csv(path, table: CertificateTable) -> None:
    """One row per certificate window, formatted column-wise by chunk.

    Every field is a plain number, so joining with commas gives the bytes
    of ``csv.writer`` without its per-field quoting checks.
    """
    columns = [table.ks] + [getattr(table, name) for name in CSV_COLUMNS[1:]]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for lo in range(0, len(table.ks), _CSV_CHUNK):
            cells = [itertools.repeat(_fmt(col)) if np.ndim(col) == 0
                     else map(repr, col[lo : lo + _CSV_CHUNK].tolist())
                     for col in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into column arrays."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_COLUMNS:
            raise UsageError(f"{path}: unexpected columns {header}")
        rows = [[float(v) for v in row] for row in reader]
    data = np.array(rows, dtype=float)
    if data.size == 0:
        raise UsageError(f"{path}: no data rows")
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}


def recompute_flags_from_csv(path, tol: float) -> dict[str, np.ndarray]:
    """Recompute pass flags from a persisted CSV (round-trip consistency)."""
    cols = read_trajectory_csv(path)
    return _flag_arrays(
        cols["k"].astype(int), cols["lyapunov"], cols["ergodic_gap"],
        cols["descent_residual"], cols["lower_bound_residual"],
        cols["sum_gap"], float(cols["lyapunov"][0]), tol,
    )


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def corrupt_trajectory(traj: Trajectory, k: int, delta: float) -> Trajectory:
    """Shift every entry of iterate k by delta (negative-control helper)."""
    if not 0 <= k <= traj.n_iters:
        raise ValueError(f"iterate {k} out of range 0..{traj.n_iters}")
    X = traj.X.copy()
    X[k] += delta
    return replace(traj, X=X)


# --- experiment execution ---------------------------------------------------

def _resolve_params(cfg: ExperimentConfig, operator_norm: float) -> SolverParams:
    if (cfg.tau is None) != (cfg.sigma is None):
        raise UsageError("give both tau and sigma, or neither")
    if cfg.tau is not None:
        return SolverParams(cfg.tau, cfg.sigma, cfg.theta, operator_norm)
    try:
        tau, sigma = suggest_steps(cfg.theta, operator_norm, cfg.safety, cfg.ratio)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return SolverParams(tau, sigma, cfg.theta, operator_norm)


def _get_kkt(problem, cfg: ExperimentConfig):
    if problem.kkt is not None:
        return problem.kkt
    oracle_iters = cfg.oracle_iters or max(20000, 10 * cfg.iters)
    oracle_params = SolverParams(
        *suggest_steps(1.0, problem.L.norm_bound, 0.9, 1.0),
        theta=1.0, operator_norm=problem.L.norm_bound,
    )
    return kkt_by_long_run(problem, oracle_params, oracle_iters)


def _resolved_problem_config(cfg: ExperimentConfig) -> dict:
    """Problem config with the experiment seed as the default generator seed."""
    pc = dict(cfg.problem)
    params = dict(pc.get("params", {}))
    if "generator" in pc and "seed" not in params:
        params["seed"] = cfg.seed
    pc["params"] = params
    return pc


def _certified_run(problem, params: SolverParams, cfg: ExperimentConfig, kkt=None):
    """The run pipeline of ``solve`` and of every ``sweep`` cell.

    Rejects Invalid parameters unless ``cfg.override_invalid`` is set, runs
    from the origin, applies ``cfg.fault`` and certifies. Without ``kkt``
    (a sweep shares one across its cells) the saddle point is built after
    the parameter check, so Invalid parameters fail before any oracle run.
    Returns (kkt, traj, table).
    """
    status = validate_params(params)
    if status.kind is Validity.INVALID and not cfg.override_invalid:
        raise UsageError(
            f"parameters are Invalid ({status}); set override_invalid to run anyway"
        )
    if kkt is None:
        kkt = _get_kkt(problem, cfg)
    z0 = PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    traj = run(problem, params, z0, max_iters=cfg.iters, stop_tol=cfg.stop_tol,
               override_invalid=cfg.override_invalid)
    if cfg.fault is not None:
        traj = corrupt_trajectory(traj, int(cfg.fault["k"]), float(cfg.fault["delta"]))
    return kkt, traj, certify_trajectory(traj, kkt, problem, tol=cfg.tolerance)


def _params_block(params: SolverParams) -> dict:
    status = validate_params(params)
    return {
        "tau": params.tau,
        "sigma": params.sigma,
        "theta": params.theta,
        "operator_norm": params.operator_norm,
        "product": status.product,
        "bound_rhs": None if math.isnan(status.bound_rhs) else status.bound_rhs,
        "margin": None if math.isnan(status.margin) else status.margin,
        "p_positivity_product": status.p_positivity_product,
        "p_positivity_ok": status.p_positivity_ok,
        "status": status.kind.value,
    }


def cmd_solve(cfg: ExperimentConfig) -> int:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = problem_from_config(_resolved_problem_config(cfg))
    params = _resolve_params(cfg, problem.L.norm_bound)
    kkt, traj, table = _certified_run(problem, params, cfg)
    summary = {
        "config": cfg.to_dict(),
        "problem": {"name": problem.name, "rows": problem.L.rows,
                    "cols": problem.L.cols, "metadata": problem.metadata},
        "params": _params_block(params),
        "iterations": traj.n_iters,
        "stopped_at": traj.stopped_at,
        "kkt_oracle_residual": kkt.residual,
        "final_fixed_point_residual": _final_residual(traj, params),
        "certificates": table.summarize(),
    }
    write_trajectory_csv(out_dir / "trajectory.csv", table)
    write_json(out_dir / "summary.json", summary)
    cert = summary["certificates"]
    if cert["all_pass"] is False:
        print(f"certificate failure: first failing k = {cert['first_failing_k']} "
              f"(see {out_dir / 'summary.json'})", file=sys.stderr)
        return 1
    return 0


def _final_residual(traj: Trajectory, params: SolverParams) -> float:
    dx = traj.X[-1] - traj.X[-2]
    dy = traj.Y[-1] - traj.Y[-2]
    return max(float(np.linalg.norm(dx)) / params.tau,
               float(np.linalg.norm(dy)) / params.sigma)


SWEEP_COLUMNS = ["theta", "safety", "ratio", "tau", "sigma", "product",
                 "status", "v_monotone", "max_descent_residual",
                 "ergodic_gap_final", "all_pass", "first_failing_k",
                 "exit_code"]


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if not cfg.grid or "theta" not in cfg.grid or "safety" not in cfg.grid:
        raise UsageError("sweep config needs grid: {theta: [...], safety: [...]}")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = problem_from_config(_resolved_problem_config(cfg))
    kkt = _get_kkt(problem, cfg)
    norm = problem.L.norm_bound
    ratio = float(cfg.grid.get("ratio", cfg.ratio))
    rows = []
    worst = 0
    for theta in cfg.grid["theta"]:
        for safety in cfg.grid["safety"]:
            row = {"theta": theta, "safety": safety, "ratio": ratio}
            try:
                tau, sigma = suggest_steps(theta, norm, safety, ratio)
                *_, table = _certified_run(
                    problem, SolverParams(tau, sigma, theta, norm), cfg, kkt)
                summ = table.summarize()
                flags = table.flags() if table.asserted else None
                row.update({
                    "tau": tau, "sigma": sigma, "product": table.status.product,
                    "status": table.status.kind.value,
                    "v_monotone": bool(np.all(flags["v_monotone"])) if flags else None,
                    "max_descent_residual": summ["max_descent_residual"],
                    "ergodic_gap_final": summ["final_ergodic_gap"],
                    "all_pass": summ["all_pass"],
                    "first_failing_k": summ["first_failing_k"],
                    "exit_code": 0 if summ["all_pass"] in (True, None) else 1,
                })
            except (UsageError, ValueError) as e:
                row.update({k: None for k in SWEEP_COLUMNS if k not in row})
                row["status"] = "config-error"
                row["exit_code"] = 2
                print(f"sweep cell theta={theta} safety={safety}: {e}", file=sys.stderr)
            if row["exit_code"] == 1:
                worst = 1
            rows.append(row)
    with open(out_dir / "sweep_summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in SWEEP_COLUMNS])
    write_json(out_dir / "sweep_summary.json",
               {"config": cfg.to_dict(), "cells": rows})
    return worst


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return _fmt(v)
    return v


def cmd_validate(cfg: ExperimentConfig) -> int:
    problem = problem_from_config(_resolved_problem_config(cfg))
    params = _resolve_params(cfg, problem.L.norm_bound)
    print(json.dumps(_params_block(params), indent=2, sort_keys=True))
    return 0


def cmd_rate(csv_path, metric: str, window: tuple[int, int]) -> int:
    cols = read_trajectory_csv(csv_path)
    if metric not in cols:
        raise UsageError(f"unknown metric {metric!r}; available: {CSV_COLUMNS[1:]}")
    fit = fit_rate(cols[metric], window, ks=cols["k"].astype(int))
    print(json.dumps({
        "metric": metric,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "window": list(fit.window),
        "points": fit.points,
    }, indent=2, sort_keys=True))
    return 0


def emit_plotdata(csv_path, out_dir) -> list[str]:
    """Write per-metric (k, value) data files plus a gnuplot script.

    <metric>.dat skips non-finite values; <metric>_loglog.dat additionally
    blanks nonpositive values so log axes stay valid. Output bytes are a
    pure function of the input CSV.
    """
    cols = read_trajectory_csv(csv_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefixes = [f"{k} " for k in cols["k"].astype(int).tolist()]
    written = []
    metrics = [c for c in CSV_COLUMNS if c != "k"]
    for metric in metrics:
        vals = cols[metric]
        strs = list(map(repr, vals.tolist()))
        finite = np.isfinite(vals)
        for path, keep in ((out_dir / f"{metric}.dat", finite),
                           (out_dir / f"{metric}_loglog.dat", finite & (vals > 0))):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pre + txt + "\n" if ok else pre + "\n"
                              for pre, txt, ok in zip(prefixes, strs, keep.tolist()))
            written.append(str(path))
    script = out_dir / "plots.gp"
    with open(script, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# gnuplot script generated from "
                 f"{Path(csv_path).name}\n")
        fh.write('set datafile missing ""\n')
        for metric in metrics:
            fh.write(f'\nset title "{metric}"\nunset logscale\n')
            fh.write(f'plot "{metric}.dat" using 1:2 with lines title "{metric}"\n')
            fh.write("set logscale xy\n")
            fh.write(f'plot "{metric}_loglog.dat" using 1:2 with lines '
                     f'title "{metric} (log-log)"\n')
    written.append(str(script))
    return written


def cmd_plotdata(csv_path, out_dir) -> int:
    emit_plotdata(csv_path, out_dir)
    return 0


# --- argument parsing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpcert",
        description="Primal-dual solver with per-iteration convergence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--theta", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--sigma", type=float)
        p.add_argument("--safety", type=float)
        p.add_argument("--ratio", type=float)
        p.add_argument("--iters", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--override-invalid", dest="override_invalid",
                       action="store_true", default=False)

    p_solve = sub.add_parser("solve", help="run one experiment and certify it")
    add_common(p_solve)
    p_sweep = sub.add_parser("sweep", help="run a (theta x safety) grid")
    add_common(p_sweep)
    p_val = sub.add_parser("validate", help="classify step sizes only")
    add_common(p_val)

    p_rate = sub.add_parser("rate", help="fit a log-log decay slope")
    p_rate.add_argument("csv", help="trajectory CSV from solve")
    p_rate.add_argument("--metric", default="ergodic_gap")
    p_rate.add_argument("--window", type=int, nargs=2, default=[50, 2000],
                        metavar=("KMIN", "KMAX"))

    p_plot = sub.add_parser("plotdata", help="emit plot-ready data files")
    p_plot.add_argument("csv", help="trajectory CSV from solve")
    p_plot.add_argument("--out", default="plots", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command in ("solve", "sweep", "validate"):
            cfg = ExperimentConfig.from_file(args.config)
            cfg.apply_overrides(args)
            if args.command == "solve":
                return cmd_solve(cfg)
            if args.command == "sweep":
                return cmd_sweep(cfg)
            return cmd_validate(cfg)
        if args.command == "rate":
            return cmd_rate(args.csv, args.metric, tuple(args.window))
        if args.command == "plotdata":
            return cmd_plotdata(args.csv, args.out)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OracleRejectedError, NonFiniteIterateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
