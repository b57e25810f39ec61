"""Command-line front end: experiment runs, parameter sweeps, rate fits.

Subcommands
-----------
solve     run one experiment, write trajectory.csv + summary.json
sweep     run a (theta x safety) grid, write sweep_summary.csv/.json
validate  classify step sizes against the admissible-product bound
rate      least-squares slope of log(metric) vs log(k) from a trajectory CSV
plotdata  two-column (k, value) files per metric plus a gnuplot script

Exit codes: 0 all asserted certificates pass, 1 a certificate failed,
2 usage/config error (or a ValueError from a solver step, such as a prox
of the wrong shape), 3 the run could not be certified: the long-run
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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .certificates import (CertifyCarry, _flag_arrays, certify_trajectory,
                           segment_end)
from .problems import (OracleRejectedError, check_keys, is_finite_list,
                       is_finite_number, is_int, kkt_by_long_run,
                       problem_from_config, read_problem_file)
from .solver import (NonFiniteIterateError, SolverParams, Trajectory, Validity,
                     fixed_point_residual, run, suggest_steps, validate_params)
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


def _is_object(v) -> bool:
    return isinstance(v, dict)


# JSON type of each config field; None is also accepted where the default is None.
# Certification needs three iterates, so a run takes at least 2 iterations.
_FIELD_TYPES = {
    **dict.fromkeys(("theta", "tau", "sigma", "safety", "ratio", "tolerance",
                     "stop_tol"), (is_finite_number, "a finite number")),
    "iters": (lambda v: is_int(v) and v >= 2, "an integer >= 2"),
    "seed": (is_int, "an integer"),
    "oracle_iters": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "override_invalid": (lambda v: isinstance(v, bool), "true or false"),
    "fault": (_is_object, "an object"),
    "grid": (_is_object, "an object"),
    "out": (lambda v: isinstance(v, str), "a string"),
}
# The keys of the config's sub-objects; ``problem``'s are checked by
# :func:`cpcert.problems.problem_from_config`.
_SUBKEYS = {"grid": {"theta", "safety"}, "fault": {"k", "delta"}}


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
    # Not a config key: the directory that relative paths in ``problem``
    # resolve against, the config file's own (see from_file).
    base_dir: str = field(default=".", init=False, repr=False, compare=False)

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
        check_keys(raw, {f.name for f in fields(cls) if f.init}, "the config", UsageError)
        cls._check_types(raw)
        cfg = cls(**raw)
        cfg.base_dir = str(Path(path).parent)
        return cfg

    @classmethod
    def _check_types(cls, raw: dict) -> None:
        """Reject a field of the wrong JSON type with a UsageError.

        Generator parameters are checked by
        :func:`cpcert.problems.problem_from_config`.
        """
        def need(name, v, ok, what):
            if not ok(v):
                raise UsageError(f"config field {name!r} must be {what}, got {v!r}")

        for name, (ok, what) in _FIELD_TYPES.items():
            if name in raw and not (raw[name] is None and getattr(cls, name) is None):
                need(name, raw[name], ok, what)
        need("problem", raw["problem"], _is_object, "an object")
        need("problem.params", raw["problem"].get("params", {}), _is_object, "an object")
        for name, keys in _SUBKEYS.items():
            check_keys(raw.get(name) or {}, keys, name, UsageError)
        grid = raw.get("grid") or {}
        for key in ("theta", "safety"):
            need(f"grid.{key}", grid.get(key, []), is_finite_list,
                 "a list of finite numbers")
        if raw.get("fault") is not None:
            need("fault.k", raw["fault"].get("k"), is_int, "an integer")
            need("fault.delta", raw["fault"].get("delta"), is_finite_number, "a finite number")

    def apply_overrides(self, args) -> None:
        """Set the fields given as options, checked as their config values are."""
        for name in ("theta", "tau", "sigma", "safety", "ratio", "iters", "seed", "out"):
            v = getattr(args, name, None)
            if v is not None:
                ok, what = _FIELD_TYPES[name]
                if not ok(v):
                    raise UsageError(f"--{name} must be {what}, got {v!r}")
                setattr(self, name, v)
        if getattr(args, "override_invalid", False):
            self.override_invalid = True

    def to_dict(self) -> dict:
        """Experiment-defining fields only (output paths excluded)."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ("grid", "out", "base_dir")}
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


def _fmt_column(col) -> list[str]:
    """``[repr(float(v)) for v in col]``, formatting each distinct value once.

    Values are keyed by their float64 bits: equal bits give equal text, and
    ``-0.0`` stays apart from ``0.0``, which compare equal as floats. NaNs
    of different payloads are separate keys that all print ``nan``. A dict
    finds the distinct values, where ``np.unique`` would sort, and its
    first call pages in about 0.5 MB of sort kernels, which shows in a
    process's peak RSS.
    """
    col = np.asarray(col, dtype=np.float64)
    bits = col.view(np.int64).tolist()
    values = dict(zip(bits, col.tolist()))  # one value per distinct bit pattern
    text = dict(zip(values, map(repr, values.values())))
    return list(map(text.__getitem__, bits))


def write_trajectory_csv(path, tables) -> None:
    """One row per certificate window, from a run's segment tables in order.

    Formatting one table (one run segment, at most 256 rows) at a time
    bounds the Python strings alive at once. Each float column of a table is
    formatted once per distinct bit pattern (:func:`_fmt_column`); near z*
    the certificate values settle and repeat, and the bytes are those of
    formatting every value with ``repr``. Every field is a plain number,
    so joining with commas gives the bytes of ``csv.writer`` without its
    per-field quoting checks.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for table in tables:
            cells = [map(repr, table.ks.tolist())]
            for name in CSV_COLUMNS[1:]:
                col = getattr(table, name)  # eta_plus and eta_minus are 0-d
                cells.append(itertools.repeat(_fmt(col)) if np.ndim(col) == 0
                             else _fmt_column(col))
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _nonblank(lines):
    """The lines, raising ValueError at a blank one, which loadtxt would skip."""
    for line in lines:
        if not line.strip():
            raise ValueError("blank line")
        yield line


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into column arrays.

    A header other than ``CSV_COLUMNS``, no data rows, a blank line, or a
    row that is not ``len(CSV_COLUMNS)`` numbers is a UsageError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header != CSV_COLUMNS:
            raise UsageError(f"{path}: unexpected columns {header}")
        first = fh.readline()
        if not first:
            raise UsageError(f"{path}: no data rows")
        # streamed line by line, so only the result array is held in full
        try:
            data = np.loadtxt(_nonblank(itertools.chain([first], fh)), delimiter=",",
                              comments=None, ndmin=2)
        except ValueError as e:
            raise UsageError(f"{path}: {e}") from None
    if data.shape[1] != len(CSV_COLUMNS):
        raise UsageError(f"{path}: rows have {data.shape[1]} fields, "
                         f"expected {len(CSV_COLUMNS)}")
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
    _check_iterate(k, traj.n_iters)
    X = traj.X.copy()
    X[k] += delta
    return replace(traj, X=X)


def _check_iterate(k: int, n_iters: int) -> None:
    if not 0 <= k <= n_iters:
        raise ValueError(f"iterate {k} out of range 0..{n_iters}")


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


def _get_kkt(problem, cfg: ExperimentConfig, cells) -> tuple:
    """The saddle point for ``problem``, and the leading pieces of the
    long-run oracle's run when a cell in ``cells`` (SolverParams) runs at
    the oracle's parameters, which a run of that cell replays
    (:func:`_certified_cells`); otherwise no pieces are kept."""
    if problem.kkt is not None:
        return problem.kkt, []
    oracle_iters = (max(20000, 10 * cfg.iters) if cfg.oracle_iters is None
                    else cfg.oracle_iters)
    oracle_params = SolverParams(
        *suggest_steps(1.0, problem.L.norm_bound, 0.9, 1.0),
        theta=1.0, operator_norm=problem.L.norm_bound,
    )
    prefix = []
    kkt = kkt_by_long_run(problem, oracle_params, oracle_iters,
                          prefix=prefix if oracle_params in cells else None)
    return kkt, prefix


def _oracle_fields(kkt) -> dict:
    """Where the saddle point came from, for summary.json: its kind, the
    solver steps that produced it (None for none) and its residual."""
    return {"kkt_oracle_kind": kkt.kind, "kkt_oracle_iterations": kkt.iterations,
            "kkt_oracle_residual": kkt.residual}


def _resolved_problem_config(cfg: ExperimentConfig) -> dict:
    """Problem config, read from its file if it references one, with the
    experiment seed as the default generator seed. Relative paths in it
    resolve against the directory of the file that names them."""
    pc = read_problem_file(cfg.problem, cfg.base_dir)
    params = pc.get("params", {}) if isinstance(pc, dict) else None
    if isinstance(params, dict) and "generator" in pc and "seed" not in params:
        pc = {**pc, "params": {**params, "seed": cfg.seed}}
    return pc


def _build_problem(cfg: ExperimentConfig):
    """The problem of a solve or sweep. A ``fault.k`` outside the run's
    iterates 0..iters is a usage error, found before the build."""
    if cfg.fault is not None:
        try:
            _check_iterate(cfg.fault["k"], cfg.iters)
        except ValueError as e:
            raise UsageError(str(e)) from None
    return problem_from_config(_resolved_problem_config(cfg))


def _check_runnable(params: SolverParams, cfg: ExperimentConfig) -> None:
    """Reject Invalid parameters unless ``cfg.override_invalid`` is set."""
    status = validate_params(params)
    if status.kind is Validity.INVALID and not cfg.override_invalid:
        raise UsageError(
            f"parameters are Invalid ({status}); set override_invalid to run anyway"
        )


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
    problem = _build_problem(cfg)
    params = _resolve_params(cfg, problem.L.norm_bound)
    _check_runnable(params, cfg)  # Invalid parameters fail before any oracle run
    kkt, prefix = _get_kkt(problem, cfg, [params])
    cell = _certified_cells(problem, {0: params}, cfg, kkt, prefix, keep_tables=True)[0]
    if isinstance(cell, Exception):
        raise cell
    summary = {
        "config": cfg.to_dict(),
        "problem": {"name": problem.name, "rows": problem.L.rows,
                    "cols": problem.L.cols, "metadata": problem.metadata},
        "params": _params_block(params),
        "iterations": cell.n_iters,
        "stopped_at": cell.stopped_at,
        **_oracle_fields(kkt),
        "final_fixed_point_residual": cell.final_residual,
        "certificates": cell.carry.result(),
    }
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out_dir / "trajectory.csv", cell.tables)
    write_json(out_dir / "summary.json", summary)
    cert = summary["certificates"]
    if cert["all_pass"] is False:
        print(f"certificate failure: first failing k = {cert['first_failing_k']} "
              f"(see {out_dir / 'summary.json'})", file=sys.stderr)
        return 1
    return 0


SWEEP_COLUMNS = ["theta", "safety", "ratio", "tau", "sigma", "product",
                 "status", "v_monotone", "max_descent_residual",
                 "ergodic_gap_final", "all_pass", "first_failing_k",
                 "exit_code"]


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if not cfg.grid or "theta" not in cfg.grid or "safety" not in cfg.grid:
        raise UsageError("sweep config needs grid: {theta: [...], safety: [...]}")
    if cfg.tau is not None or cfg.sigma is not None:
        raise UsageError("a sweep takes its step sizes from grid.safety; "
                         "give no tau or sigma")
    problem = _build_problem(cfg)
    norm = problem.L.norm_bound
    ratio = float(cfg.ratio)
    grid = [(theta, safety) for theta in cfg.grid["theta"]
            for safety in cfg.grid["safety"]]
    unformed = {}  # grid index -> why the cell's parameters could not be formed
    params = {}
    for i, (theta, safety) in enumerate(grid):
        try:
            p = SolverParams(*suggest_steps(theta, norm, safety, ratio), theta, norm)
            _check_runnable(p, cfg)
            params[i] = p
        except ValueError as e:  # UsageError is a ValueError
            unformed[i] = e
    kkt, prefix = _get_kkt(problem, cfg, params.values())
    outcomes = _certified_cells(problem, params, cfg, kkt, prefix)

    rows = []
    worst = 0
    for i, (theta, safety) in enumerate(grid):
        row = {"theta": theta, "safety": safety, "ratio": ratio, "error": None}
        if i in unformed:
            row.update({k: None for k in SWEEP_COLUMNS if k not in row})
            row["status"] = "config-error"
            row["exit_code"] = 2
            row["error"] = str(unformed[i])
            print(f"sweep cell theta={theta} safety={safety}: {unformed[i]}", file=sys.stderr)
        elif isinstance(outcomes[i], Exception):  # the first run failure sets the exit
            raise outcomes[i]
        else:
            p, summ = params[i], outcomes[i].carry.result()
            row.update({
                "tau": p.tau, "sigma": p.sigma, "product": p.product,
                "status": summ["status"],
                "v_monotone": (summ["fail_counts"]["v_monotone"] == 0
                               if summ["asserted"] else None),
                "max_descent_residual": summ["max_descent_residual"],
                "ergodic_gap_final": summ["final_ergodic_gap"],
                "all_pass": summ["all_pass"],
                "first_failing_k": summ["first_failing_k"],
                "exit_code": 0 if summ["all_pass"] in (True, None) else 1,
            })
            if row["exit_code"] == 1:
                worst = 1
        rows.append(row)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep_summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in SWEEP_COLUMNS])
    write_json(out_dir / "sweep_summary.json",
               {"config": cfg.to_dict(), **_oracle_fields(kkt), "cells": rows})
    return worst


@dataclass
class _Cell:
    """A cell in flight: its point and certifier state; once finished, its
    whole run's counts, summary (``carry.result()``) and (if kept) tables."""

    params: SolverParams
    z: PPoint
    tables: list | None
    carry: CertifyCarry = field(default_factory=CertifyCarry)
    n_iters: int = 0
    stopped_at: int | None = None
    final_residual: float = math.nan


def _certified_cells(problem, params: dict, cfg: ExperimentConfig, kkt,
                     prefix: list, keep_tables: bool = False) -> dict:
    """Run and certify the cells ``params`` (index -> SolverParams) as one batch.

    The batch runs in segments that end at the step counts of
    :func:`cpcert.certificates.segment_end`, or at ``cfg.iters``. Each
    segment goes to each cell's certifier and is dropped, so memory holds
    one segment per cell, never a full history; with ``keep_tables`` each
    cell also keeps its segment tables. ``prefix`` holds the long-run oracle's leading pieces (see
    :func:`_get_kkt`), one per segment: a cell at the oracle's parameters
    takes each piece in place of its segment's run, with ``cfg.stop_tol``
    applied to it step by step as :func:`run` would, and the pieces are
    dropped once used or once no such cell is left. A cell ends at its
    first failure: a non-finite iterate, a certificate error, or, once its
    run is done, a fault outside the run. A cell whose run stops leaves
    the batch as well. ``cfg.iters`` is at least 2 (checked at load), so
    every segment certifies at least one window. An error that a step
    raises itself (see :func:`run`) ends the whole batch and propagates.
    Returns index -> the finished :class:`_Cell` or its failure.
    """
    z0 = PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    live = {i: _Cell(p, z0, [] if keep_tables else None) for i, p in params.items()}
    outcomes = {}
    fault_k = None if cfg.fault is None else int(cfg.fault["k"])
    width = problem.L.cols + problem.L.rows
    done = 0  # the steps each live cell has taken
    while live:
        steps = min(segment_end(done, width), cfg.iters) - done
        piece = prefix.pop(0) if prefix else None
        # index -> (the cell's segment, or None, and its run's error, or None)
        segs = {i: (_replayed(piece, steps, cfg.stop_tol), None)
                for i, cell in live.items()
                if piece is not None and cell.params == piece.params}
        if not segs:
            prefix.clear()
        ran = [i for i in live if i not in segs]
        if ran:
            batch = run(problem, [live[i].params for i in ran], [live[i].z for i in ran],
                        max_iters=steps, stop_tol=cfg.stop_tol,
                        override_invalid=cfg.override_invalid)
            segs.update(zip(ran, zip(batch.trajectories, batch.errors)))
            del batch
        for i, cell in list(live.items()):
            seg, err = segs.pop(i)
            first = cell.n_iters  # iterate index of seg.X[0], fed already unless 0
            try:
                if err is not None:  # named by its run-wide iteration
                    raise NonFiniteIterateError(first + err.iteration)
                cell.n_iters += seg.n_iters
                cell.z = PPoint(seg.X[-1].copy(), seg.Y[-1].copy())
                if fault_k is not None and first <= fault_k <= cell.n_iters:
                    seg = corrupt_trajectory(seg, fault_k - first, float(cfg.fault["delta"]))
                table = certify_trajectory(seg, kkt, problem, tol=cfg.tolerance,
                                           carry=cell.carry)
                if cell.tables is not None:
                    cell.tables.append(table)
                if seg.stopped_at is None and cell.n_iters < cfg.iters:
                    continue  # the cell runs on
                if fault_k is not None:
                    _check_iterate(fault_k, cell.n_iters)
            except (ValueError, RuntimeError) as e:
                outcomes[i] = e
                del live[i]
                continue
            outcomes[i] = cell
            del live[i]
            if seg.stopped_at is not None:
                cell.stopped_at = first + seg.stopped_at
            cell.final_residual = fixed_point_residual(
                seg.X[-1] - seg.X[-2], seg.Y[-1] - seg.Y[-2],
                cell.params.tau, cell.params.sigma)
        del piece, seg  # free this segment before the next one is run
        done += steps
    prefix.clear()
    return outcomes


def _replayed(piece: Trajectory, steps: int, stop_tol: float | None) -> Trajectory:
    """The first ``steps`` steps of a kept oracle piece, as :func:`run` with
    ``stop_tol`` returns them: cut at the first step whose fixed-point
    residual is at most ``stop_tol``. The oracle's own stop rule does not
    apply: a kept piece never stopped."""
    tau, sigma = piece.params.tau, piece.params.sigma
    X, Y = piece.X, piece.Y
    stopped = None
    if stop_tol is not None:
        stopped = next((k for k in range(1, steps + 1)
                        if fixed_point_residual(X[k] - X[k - 1], Y[k] - Y[k - 1],
                                                tau, sigma) <= stop_tol), None)
    n = steps if stopped is None else stopped
    return Trajectory(piece.params, X[: n + 1], Y[: n + 1], n, stopped)


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
    pure function of the input CSV: each value is written as its shortest
    round-trip ``repr``, formatted once per distinct bit pattern
    (:func:`_fmt_column`), so the CSV's own number text (``1.50``,
    ``1E-5``) comes out canonical. Each file's text is joined whole and
    written at once; one file's text is held at a time.
    """
    cols = read_trajectory_csv(csv_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = len(cols["k"])
    # each line is three parts: "k ", the value (empty where blanked), "\n"
    parts = [None] * (3 * n)
    parts[0::3] = [f"{k} " for k in cols["k"].astype(int).tolist()]
    parts[2::3] = ["\n"] * n
    written = []
    metrics = [c for c in CSV_COLUMNS if c != "k"]
    for metric in metrics:
        vals = cols[metric]
        strs = _fmt_column(vals)
        finite = np.isfinite(vals)
        for path, keep in ((out_dir / f"{metric}.dat", finite),
                           (out_dir / f"{metric}_loglog.dat", finite & (vals > 0))):
            parts[1::3] = [s if ok else "" for s, ok in zip(strs, keep.tolist())]
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("".join(parts))
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
    except (ValueError, OSError, KeyError) as e:  # UsageError is a ValueError
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
