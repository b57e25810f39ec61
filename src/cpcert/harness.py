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
iterate. ``solve`` and ``sweep`` end at the first failure they meet, with
its exit code, and write nothing: a sweep's run failures end the whole
sweep, not only their cell. CSV and JSON outputs are byte-deterministic for a
fixed config: floats are serialized with shortest round-trip precision and
summaries carry no timestamps.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .schema import (INTEGER, NONNEGATIVE, NUMBER, OBJECT, POSITIVE, STRING,
                     check_fields, is_finite_list, is_int)

# The names this module takes from the numeric modules, bound on first use
# (:func:`_numeric`), so that ``rate`` and ``plotdata``, which read the CSV
# with the standard library, start without numpy. The solve/sweep pipeline
# calls them through this module's globals, where tests replace them and
# the benchmark wraps them by attribute.
_NUMERIC = {
    ".certificates": ("CertifyCarry", "_flag_arrays", "certify_trajectory",
                      "segment_end"),
    ".problems": ("OracleRejectedError", "kkt_by_long_run", "problem_from_config",
                  "read_problem_file"),
    ".solver": ("NonFiniteIterateError", "SolverParams", "Trajectory", "Validity",
                "find_cycle", "fixed_point_residual", "suggest_steps", "tile_cycle",
                "validate_params"),
    ".hilbert": ("PPoint",),
}


def _numeric() -> None:
    """Import numpy and the names of ``_NUMERIC`` into this module's
    globals, keeping any that a caller has already set."""
    g = globals()
    if "np" in g:  # bound last, so every name is bound
        return
    for module, names in _NUMERIC.items():
        mod = importlib.import_module(module, __package__)
        for name in names:
            g.setdefault(name, getattr(mod, name))
    g["np"] = importlib.import_module("numpy")


def __getattr__(name):
    if name != "np" and not any(name in names for names in _NUMERIC.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _numeric()
    return globals()[name]


def run(problem, params, z0, max_iters, **kwargs):
    """:func:`cpcert.solver.run`, imported when first called. The pipeline
    calls it by this module's name, which tests replace and the benchmark
    wraps (and reads before any command, so it is a function here, not a
    name bound on first use)."""
    from .solver import run as solver_run
    return solver_run(problem, params, z0, max_iters, **kwargs)


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


def _or_null(kind):
    ok, what = kind
    return (lambda v: v is None or ok(v), what)


# The config's fields and their kinds (see cpcert.schema.check_fields),
# accepting null where the default is null. Certification needs three
# iterates, so a run takes at least 2 iterations.
_FIELDS = {
    "problem": OBJECT,
    **dict.fromkeys(("theta", "safety"), NUMBER),
    "ratio": POSITIVE,
    **dict.fromkeys(("tau", "sigma"), _or_null(POSITIVE)),
    "stop_tol": _or_null(NONNEGATIVE),
    "iters": (lambda v: is_int(v) and v >= 2, "an integer >= 2"),
    "seed": INTEGER,
    "tolerance": NONNEGATIVE,
    "override_invalid": (lambda v: isinstance(v, bool), "true or false"),
    "oracle_iters": _or_null((lambda v: is_int(v) and v >= 1, "an integer >= 1")),
    "fault": _or_null(OBJECT),
    "grid": _or_null(OBJECT),
    "out": STRING,
}
# The fields of the config's sub-objects, each required when the object is
# given; ``problem``'s are checked when the problem is built
# (cpcert.problems.problem_from_config).
_OBJECT_FIELDS = {
    "grid": dict.fromkeys(("theta", "safety"), (lambda v: is_finite_list(v) and v != [],
                                                "a non-empty list of finite numbers")),
    "fault": {"k": INTEGER, "delta": NUMBER},
}
# The typed command-line options of solve, sweep and validate, each setting
# the config field of its name.
_OPTIONS = {**dict.fromkeys(("theta", "tau", "sigma", "safety", "ratio"), float),
            "iters": int, "seed": int, "out": str}


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
        check_fields(raw, _FIELDS, "the config", "config field '{}'", ("problem",),
                     UsageError)
        for name, table in _OBJECT_FIELDS.items():
            if raw.get(name) is not None:
                check_fields(raw[name], table, name, f"config field '{name}.{{}}'",
                             tuple(table), UsageError)
        cfg = cls(**raw)
        cfg.base_dir = str(Path(path).parent)
        return cfg

    def apply_overrides(self, args) -> None:
        """Set the fields given as options, checked as their config values are."""
        given = {name: v for name in _OPTIONS if (v := getattr(args, name, None)) is not None}
        check_fields(given, _FIELDS, "the options", "--{}", error=UsageError)
        for name, v in given.items():
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

    ``ks`` defaults to 1, 2, ...; rows with k <= 0 (log k is undefined) or
    a nonpositive or non-finite value are excluded, and fewer than 10
    usable points is a usage error. The fit is the closed-form least
    squares line through the centred logs, its sums taken with
    :func:`math.fsum`.
    """
    k_min, k_max = window
    ks = range(1, len(values) + 1) if ks is None else ks
    kept = [(k, v) for k, v in zip(ks, values)
            if k_min <= k <= k_max and k > 0 and math.isfinite(v) and v > 0]
    n = len(kept)
    if n < 10:
        raise UsageError(f"rate fit needs >= 10 positive points in window {window}, "
                         f"found {n}")
    lk, lv = (list(map(math.log, c)) for c in zip(*kept))
    mean_k, mean_v = math.fsum(lk) / n, math.fsum(lv) / n
    dk = list(map(float.__sub__, lk, itertools.repeat(mean_k)))
    dv = list(map(float.__sub__, lv, itertools.repeat(mean_v)))
    sxx = math.fsum(map(float.__mul__, dk, dk))
    if sxx == 0.0:
        raise UsageError(f"rate fit needs two distinct k in window {window}")
    slope = math.fsum(map(float.__mul__, dk, dv)) / sxx
    intercept = mean_v - slope * mean_k
    # 1 - (residual sum) / (total sum), exact to rounding where r2 is near 1
    residuals = list(map(float.__sub__, dv, map(slope.__mul__, dk)))
    ss_res = math.fsum(map(float.__mul__, residuals, residuals))
    ss_tot = math.fsum(map(float.__mul__, dv, dv))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope, intercept, r2, (int(k_min), int(k_max)), n)


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
    _numeric()
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
    _numeric()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for table in tables:
            cells = [map(repr, table.ks.tolist())]
            for name in CSV_COLUMNS[1:]:
                col = getattr(table, name)  # eta_plus and eta_minus are 0-d
                cells.append(itertools.repeat(_fmt(col)) if np.ndim(col) == 0
                             else _fmt_column(col))
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


# Data lines of a trajectory CSV read per block. Settled certificate
# columns repeat a few values, which a block parses once each; a small block
# keeps the strings held at once, and so the reader's peak memory, small.
_CSV_BLOCK = 128


def _number(text: str) -> float:
    """The number a CSV field holds: ``float``'s syntax, surrounding
    whitespace allowed, without the underscores and non-ASCII digits that
    ``float`` also takes and numpy's text reader does not."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"{text.strip()!r} is not a number")
    return float(text)


def _csv_blocks(path):
    """Stream the data rows of a trajectory CSV, checked, in blocks.

    Yields, per block of up to ``_CSV_BLOCK`` lines, the pair (fields,
    number): the block's field strings row by row, ``len(CSV_COLUMNS)`` to
    a row, and a dict from each distinct one to its float, parsed once
    (:func:`_number`). A header other than ``CSV_COLUMNS``, no data rows,
    a blank line, a row that is not ``len(CSV_COLUMNS)`` fields, a field
    that is not a number, or a ``k`` that is not a finite integer is a
    UsageError naming its line. Lines may end in ``\\n``, ``\\r\\n`` or
    ``\\r``, the last in none.
    """
    width = len(CSV_COLUMNS)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header != CSV_COLUMNS:
            raise UsageError(f"{path}: unexpected columns {header}")
        line_no = 2  # of the block's first line
        while lines := list(itertools.islice(fh, _CSV_BLOCK)):
            commas = list(map(str.count, lines, itertools.repeat(",")))
            if set(commas) != {width - 1}:
                i = next(i for i, n in enumerate(commas) if n != width - 1)
                what = ("blank line" if not lines[i].strip()
                        else f"{commas[i] + 1} fields, expected {width}")
                raise UsageError(f"{path}: line {line_no + i}: {what}")
            # every line has width fields, so one split gives the block's
            # fields row by row, each line's last with its line ending
            text = ",".join(lines)
            # where every character is ASCII and none is "_", float is _number
            parse = float if text.isascii() and "_" not in text else _number
            fields = text.split(",")
            del text
            distinct = set(fields)
            try:
                number = dict(zip(distinct, map(parse, distinct)))
            except ValueError:  # name the first field that is not a number
                for i, field_text in enumerate(fields):
                    try:
                        _number(field_text)
                    except ValueError as e:
                        raise UsageError(f"{path}: line {line_no + i // width}: "
                                         f"{CSV_COLUMNS[i % width]} {e}") from None
            ks = fields[0::width]
            if not all(map(float.is_integer, map(number.__getitem__, ks))):
                i = next(i for i, t in enumerate(ks) if not number[t].is_integer())
                raise UsageError(f"{path}: line {line_no + i}: k {ks[i].strip()!r} "
                                 "is not a finite integer")
            yield fields, number
            line_no += len(lines)
        if line_no == 2:
            raise UsageError(f"{path}: no data rows")


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into float64 column arrays, checked as
    :func:`_csv_blocks` checks it: the columns of one (rows, columns)
    array, filled block by block, so that at most one block of the file is
    held as Python strings and floats.
    """
    _numeric()
    values = itertools.chain.from_iterable(
        map(number.__getitem__, fields) for fields, number in _csv_blocks(path))
    table = np.fromiter(values, dtype=np.float64).reshape(-1, len(CSV_COLUMNS))
    return {name: table[:, j] for j, name in enumerate(CSV_COLUMNS)}


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
    solver steps that produced it (None for none) and its residual; all
    three None when no saddle point was taken (``kkt`` None)."""
    if kkt is None:
        return dict.fromkeys(("kkt_oracle_kind", "kkt_oracle_iterations",
                              "kkt_oracle_residual"))
    return {"kkt_oracle_kind": kkt.kind, "kkt_oracle_iterations": kkt.iterations,
            "kkt_oracle_residual": kkt.residual}


def _resolved_problem_config(cfg: ExperimentConfig) -> dict:
    """Problem config, read from its file if it references one, with the
    experiment seed as the default generator seed. Relative paths in it
    resolve against the directory of the file that names them."""
    pc = read_problem_file(cfg.problem, cfg.base_dir)
    return {**pc, "params": {"seed": cfg.seed, **pc.get("params", {})}}


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
    _numeric()
    problem = _build_problem(cfg)
    params = _resolve_params(cfg, problem.L.norm_bound)
    _check_runnable(params, cfg)  # Invalid parameters fail before any oracle run
    kkt, prefix = _get_kkt(problem, cfg, [params])
    cell = _certified_cells(problem, {0: params}, cfg, kkt, prefix, keep_tables=True)[0]
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
    _numeric()
    if not cfg.grid:
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
    # a sweep with no runnable cell runs no oracle, and reports none
    kkt, prefix = _get_kkt(problem, cfg, params.values()) if params else (None, [])
    cells = _certified_cells(problem, params, cfg, kkt, prefix)

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
        else:
            p, summ = params[i], cells[i].carry.result()
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
    """A cell in flight: its point, certifier state and, once its run
    repeats a state, the exact cycle it replays (:func:`find_cycle`); once
    finished, its whole run's counts, summary (``carry.result()``) and (if
    kept) tables."""

    params: SolverParams
    z: PPoint
    tables: list | None
    carry: CertifyCarry = field(default_factory=lambda: CertifyCarry())
    cycle: Trajectory | None = None
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
    cell also keeps its segment tables. A cell's segment has one of three
    sources, each bitwise the segment :func:`run` would compute:

    * a replayed cycle: once a segment of the cell's repeats its last
      iterate bitwise (:func:`find_cycle`, searched before a ``fault``
      corrupts the certifier's copy), the cell keeps one period of
      iterates, leaves the ``run`` batch, and takes every later segment by
      tiling that period (:func:`tile_cycle`);
    * a kept oracle piece: ``prefix`` holds the long-run oracle's leading
      pieces (see :func:`_get_kkt`), one per segment, and a cell at the
      oracle's parameters takes each piece in place of its segment's run,
      with ``cfg.stop_tol`` applied to it step by step as :func:`run`
      would; the pieces are dropped once used or once no cell takes them;
    * otherwise the cell's row of the batch's :func:`run` call.

    No stop rule fires inside a cycle: each of its steps was taken, and
    checked, by the run or piece in which the cycle was found. A cell whose
    run stops leaves the batch. ``cfg.iters`` is at least 2 (checked at
    load), so every segment certifies at least one window.

    The first failure ends the whole batch and propagates: within a
    segment, the batch's :func:`run` comes first (its NonFiniteIterateError
    renumbered by the segment's first step, or an error a step raises
    itself), then each cell's certification in index order (a certificate
    error, or, once the cell's run is done, a fault outside it).
    Returns index -> the finished :class:`_Cell`.
    """
    z0 = PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    live = {i: _Cell(p, z0, [] if keep_tables else None) for i, p in params.items()}
    finished = {}
    fault_k = None if cfg.fault is None else int(cfg.fault["k"])
    width = problem.L.cols + problem.L.rows
    done = 0  # the steps each live cell has taken
    while live:
        steps = min(segment_end(done, width), cfg.iters) - done
        piece = prefix.pop(0) if prefix else None
        segs = {i: _replayed(piece, steps, cfg.stop_tol)
                for i, cell in live.items() if cell.cycle is None
                and piece is not None and cell.params == piece.params}
        if not segs:  # no cell takes the pieces any more
            prefix.clear()
        for i, cell in live.items():
            if cell.cycle is not None:
                segs[i], cell.cycle = tile_cycle(cell.cycle, steps)
        ran = [i for i in live if i not in segs]
        if ran:
            try:
                batch = run(problem, [live[i].params for i in ran],
                            [live[i].z for i in ran], max_iters=steps,
                            stop_tol=cfg.stop_tol, override_invalid=cfg.override_invalid)
            except NonFiniteIterateError as e:  # named by its run-wide iteration
                raise NonFiniteIterateError(done + e.iteration) from None
            segs.update(zip(ran, batch.trajectories))
            del batch
        for i, cell in list(live.items()):
            seg = segs.pop(i)
            first = cell.n_iters  # iterate index of seg.X[0], fed already unless 0
            cell.n_iters += seg.n_iters
            cell.z = seg.final
            runs_on = seg.stopped_at is None and cell.n_iters < cfg.iters
            if runs_on and cell.cycle is None:
                cell.cycle = find_cycle(seg)
            if fault_k is not None and first <= fault_k <= cell.n_iters:
                seg = corrupt_trajectory(seg, fault_k - first, float(cfg.fault["delta"]))
            table = certify_trajectory(seg, kkt, problem, tol=cfg.tolerance,
                                       carry=cell.carry)
            if cell.tables is not None:
                cell.tables.append(table)
            if runs_on:
                continue  # the cell runs on
            if fault_k is not None:
                _check_iterate(fault_k, cell.n_iters)
            finished[i] = live.pop(i)
            if seg.stopped_at is not None:
                cell.stopped_at = first + seg.stopped_at
            cell.final_residual = fixed_point_residual(
                seg.X[-1] - seg.X[-2], seg.Y[-1] - seg.Y[-2],
                cell.params.tau, cell.params.sigma)
        del piece, seg  # free this segment before the next one is run
        done += steps
    prefix.clear()
    return finished


def _replayed(piece: Trajectory, steps: int, stop_tol: float | None) -> Trajectory:
    """The first ``steps`` steps of a kept oracle piece, as :func:`run` with
    ``stop_tol`` returns them: cut at the first step whose fixed-point
    residual is at most ``stop_tol``. The oracle's own stop rule does not
    apply: a kept piece never stopped."""
    X, Y = piece.X[: steps + 1], piece.Y[: steps + 1]
    stopped = None
    if stop_tol is not None:
        res = fixed_point_residual(np.diff(X, axis=0), np.diff(Y, axis=0),
                                   piece.params.tau, piece.params.sigma)
        below = np.flatnonzero(res <= stop_tol)
        stopped = int(below[0]) + 1 if below.size else None
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
    _numeric()
    problem = problem_from_config(_resolved_problem_config(cfg))
    params = _resolve_params(cfg, problem.L.norm_bound)
    print(json.dumps(_params_block(params), indent=2, sort_keys=True))
    return 0


def cmd_rate(csv_path, metric: str, window: tuple[int, int]) -> int:
    """Print the :func:`fit_rate` of ``metric`` against k from a trajectory
    CSV, read by :func:`_csv_blocks`; only these two columns are kept."""
    if metric not in CSV_COLUMNS:
        raise UsageError(f"unknown metric {metric!r}; available: {CSV_COLUMNS[1:]}")
    j, width = CSV_COLUMNS.index(metric), len(CSV_COLUMNS)
    ks, values = [], []
    for fields, number in _csv_blocks(csv_path):
        ks += map(number.__getitem__, fields[0::width])
        values += map(number.__getitem__, fields[j::width])
    fit = fit_rate(values, window, ks=ks)
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
    pure function of the input CSV: each value is written as the shortest
    round-trip ``repr`` of its float, so the CSV's own number text
    (``1.50``, ``1E-5``) comes out canonical. The CSV is streamed
    (:func:`_csv_blocks`): each block's lines are appended to every data
    file, with one ``repr`` and one blanking decision per distinct field of
    a column in the block. A CSV rejected in its first block writes nothing; one
    rejected later leaves no data file behind.
    """
    blocks = _csv_blocks(csv_path)
    first = next(blocks)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics, width = CSV_COLUMNS[1:], len(CSV_COLUMNS)
    paths = [out_dir / f"{metric}{kind}.dat" for metric in metrics
             for kind in ("", "_loglog")]
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                     for path in paths]
            for fields, number in itertools.chain([first], blocks):
                # each line is "k ", then the value's text and "\n", the text
                # left out where the value is blanked
                heads = [f"{int(number[t])} " for t in fields[0::width]]
                parts = [""] * (2 * len(heads))
                parts[0::2] = heads
                for j, (fh, fh_log) in enumerate(zip(files[0::2], files[1::2]), start=1):
                    col = fields[j::width]
                    distinct = set(col)
                    text = dict(zip(distinct, map("{!r}\n".format,
                                                  map(number.__getitem__, distinct))))
                    text.update((t, "\n") for t in distinct if not math.isfinite(number[t]))
                    text_log = {**text, **{t: "\n" for t in distinct if not number[t] > 0}}
                    for out, shown in ((fh, text), (fh_log, text_log)):
                        parts[1::2] = map(shown.__getitem__, col)
                        out.write("".join(parts))
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise
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
    return [str(path) for path in paths] + [str(script)]


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
        for name, kind in _OPTIONS.items():
            p.add_argument(f"--{name}", type=kind,
                           help="output directory" if name == "out" else None)
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
    except RuntimeError as e:  # the run failures are the numeric modules' RuntimeErrors
        _numeric()
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, (OracleRejectedError, NonFiniteIterateError)) else 1


if __name__ == "__main__":
    sys.exit(main())
