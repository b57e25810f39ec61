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
its exit code, and write nothing: a sweep runs every cell or none, and a
failure in one cell, a config error included, ends the whole sweep. CSV
and JSON outputs are byte-deterministic for a fixed config: floats are
serialized with shortest round-trip precision and summaries carry no
timestamps.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import importlib
import itertools
import json
import math
import sys
import threading
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .schema import (COUNT, COUNT2, INTEGER, NONNEGATIVE, NUMBER, OBJECT, POSITIVE, SEED,
                     STRING, UNIT, UNIT_LIST, check_fields)

# The names this module takes from the numeric modules, bound on first use
# (:func:`_numeric`), so that ``rate`` and ``plotdata``, which read the CSV
# with the standard library, start without numpy. The solve/sweep pipeline
# calls them through this module's globals, where tests replace them and
# the benchmark wraps them by attribute.
_NUMERIC = {
    ".certificates": ("CertifyCarry", "_flag_arrays", "certify_beside_run",
                      "certify_trajectory", "segment_end"),
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
# iterates, so a run takes at least 2 iterations. ``theta`` is checked where
# the steps are formed: explicit steps with ``override_invalid`` may run any.
_FIELDS = {
    "problem": OBJECT,
    "theta": NUMBER,
    "safety": UNIT,
    "ratio": POSITIVE,
    **dict.fromkeys(("tau", "sigma"), _or_null(POSITIVE)),
    "stop_tol": _or_null(NONNEGATIVE),
    "iters": COUNT2,
    "seed": SEED,
    "tolerance": NONNEGATIVE,
    "override_invalid": (lambda v: isinstance(v, bool), "true or false"),
    "oracle_iters": _or_null(COUNT),
    "fault": _or_null(OBJECT),
    "grid": _or_null(OBJECT),
    "out": STRING,
}
# The fields of the config's sub-objects, each required when the object is
# given; ``problem``'s are checked when the problem is built
# (cpcert.problems.problem_from_config). A sweep forms every cell's steps
# from its grid, so each grid theta lies in (0, 1] as well.
_OBJECT_FIELDS = {
    "grid": dict.fromkeys(("theta", "safety"), UNIT_LIST),
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
        except ValueError as e:  # JSONDecodeError, or text that is not UTF-8
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
    """Shift every entry of the primal iterate x_k by delta, leaving y_k
    unchanged (negative-control helper)."""
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
    tau, sigma = suggest_steps(cfg.theta, operator_norm, cfg.safety, cfg.ratio)
    return SolverParams(tau, sigma, cfg.theta, operator_norm)


def _get_kkt(problem, cfg: ExperimentConfig):
    """The saddle point for ``problem``: its own, or the long-run oracle's over
    ``cfg.oracle_iters`` steps (default the larger of 20000 and 10 ``cfg.iters``)."""
    if problem.kkt is not None:
        return problem.kkt
    return kkt_by_long_run(problem, max(20000, 10 * cfg.iters) if cfg.oracle_iters is None
                           else cfg.oracle_iters)


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
    return {**pc, "params": {"seed": cfg.seed, **pc.get("params", {})}}


def _build_problem(cfg: ExperimentConfig):
    """The problem of a solve, sweep or validate. A ``fault.k`` outside the
    run's iterates 0..iters is a usage error, found before the build."""
    if cfg.fault is not None:
        _check_iterate(cfg.fault["k"], cfg.iters)
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
    kkt = _get_kkt(problem, cfg)
    cell = _certified_cells(problem, {0: params}, cfg, kkt, keep_tables=True)[0]
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
    params = {i: SolverParams(*suggest_steps(theta, norm, safety, ratio), theta, norm)
              for i, (theta, safety) in enumerate(grid)}
    for p in params.values():
        _check_runnable(p, cfg)
    kkt = _get_kkt(problem, cfg)
    cells = _certified_cells(problem, params, cfg, kkt)

    rows = []
    for i, (theta, safety) in enumerate(grid):
        p, summ = params[i], cells[i].carry.result()
        rows.append({
            "theta": theta, "safety": safety, "ratio": ratio,
            "tau": p.tau, "sigma": p.sigma, "product": p.product,
            "status": summ["status"],
            "v_monotone": (summ["fail_counts"]["v_monotone"] == 0
                           if summ["asserted"] else None),
            "max_descent_residual": summ["max_descent_residual"],
            "ergodic_gap_final": summ["final_ergodic_gap"],
            "all_pass": summ["all_pass"],
            "first_failing_k": summ["first_failing_k"],
            "exit_code": 0 if summ["all_pass"] in (True, None) else 1,
            "error": None,  # kept for readers of sweep_summary.json: always null
        })
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep_summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in SWEEP_COLUMNS])
    write_json(out_dir / "sweep_summary.json",
               {"config": cfg.to_dict(), **_oracle_fields(kkt), "cells": rows})
    return max(row["exit_code"] for row in rows)


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


def _batch_run(problem, starts: dict, steps: int, done: int, cfg: ExperimentConfig) -> dict:
    """Index -> segment of each cell of ``starts`` (index -> its params and
    point after ``done`` steps), from one batch :func:`run` of ``steps``
    steps. Its NonFiniteIterateError is renumbered by its run-wide step."""
    if not starts:
        return {}
    params, points = zip(*starts.values())
    try:
        batch = run(problem, list(params), list(points), max_iters=steps,
                    stop_tol=cfg.stop_tol, override_invalid=cfg.override_invalid)
    except NonFiniteIterateError as e:
        raise NonFiniteIterateError(done + e.iteration) from None
    return dict(zip(starts, batch.trajectories))


class _Pending:
    """A call ``fn(*args)`` made later: on a worker thread once
    :meth:`start` is called, otherwise on the calling thread by
    :meth:`result`."""

    def __init__(self, fn, *args):
        self._call = functools.partial(fn, *args)
        self._thread = None
        self._outcome = None  # (value, error) once the worker has returned

    def start(self) -> None:
        self._thread = threading.Thread(target=self._record)
        self._thread.start()

    def _record(self) -> None:
        try:
            self._outcome = self._call(), None
        except BaseException as e:  # raised on the calling thread by result()
            self._outcome = None, e

    def result(self):
        """The call's value, or its error raised."""
        if self._thread is None:
            return self._call()
        self._thread.join()
        (value, error), self._outcome = self._outcome, None
        if error is not None:
            raise error
        return value

    def cancel(self) -> None:
        """Wait for a started call to end, and drop its outcome."""
        if self._thread is not None:
            self._thread.join()
            self._outcome = None


def _certified_cells(problem, params: dict, cfg: ExperimentConfig, kkt,
                     keep_tables: bool = False) -> dict:
    """Run and certify the cells ``params`` (index -> SolverParams) as one batch.

    The batch runs in segments that end at the step counts of
    :func:`cpcert.certificates.segment_end`, or at ``cfg.iters``. Each
    segment goes to each cell's certifier and is dropped, so memory holds
    one segment per cell, two where segments overlap (below), never a full
    history; with ``keep_tables`` each cell also keeps its segment tables.
    A cell's segment has one of two sources, each bitwise the segment
    :func:`run` would compute:

    * a replayed cycle: once a segment of the cell's repeats its last
      iterate bitwise (:func:`find_cycle`, searched before a ``fault``
      corrupts the certifier's copy), the cell keeps one period of
      iterates, leaves the ``run`` batch, and takes every later segment by
      tiling that period (:func:`tile_cycle`);
    * otherwise the cell's row of the batch's :func:`run` call.

    No stop rule fires inside replayed iterates: each step of a cycle was
    taken, and checked, by the run in which the cycle was found. A cell
    whose run stops leaves the batch. ``cfg.iters`` is at least 2 (checked at
    load), so every segment certifies at least one window.

    Once a segment is in, the calling thread takes each cell's final
    point, cycle and ``fault`` copy, and finishes the cells whose run is
    done; then it certifies the segment. Where
    :func:`cpcert.certificates.certify_beside_run` holds, the next
    segment's batch :func:`run` is meanwhile made on a worker thread, and
    memory holds one more segment per cell; elsewhere, and for the first
    segment, the run is made on the calling thread once the segment before
    it is certified and dropped. The order of failures is the same either
    way, and the first one ends the whole batch and propagates: a
    segment's run (its NonFiniteIterateError renumbered by the segment's
    first step, or an error a step raises itself), then each cell's
    certification of it in index order (a certificate error, or, once the
    cell's run is done, a fault outside it), then the next segment's run.
    No worker thread outlives the call. Returns index -> the finished
    :class:`_Cell`.
    """
    z0 = PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    live = {i: _Cell(p, z0, [] if keep_tables else None) for i, p in params.items()}
    finished = {}
    fault_k = None if cfg.fault is None else int(cfg.fault["k"])
    width = problem.L.cols + problem.L.rows
    beside = certify_beside_run(problem.L)
    done, steps = 0, min(segment_end(0, width), cfg.iters)
    pending = _Pending(_batch_run, problem, {i: (p, z0) for i, p in params.items()},
                       steps, done, cfg)
    try:
        while pending is not None:
            segs = pending.result()
            cells = list(live.items())  # this segment's, in index order
            for i, cell in cells:
                if cell.cycle is not None:
                    segs[i], cell.cycle = tile_cycle(cell.cycle, steps)
            for i, cell in cells:
                seg = segs[i]
                first = cell.n_iters  # iterate index of seg.X[0], fed already unless 0
                cell.n_iters += seg.n_iters
                cell.z = seg.final
                runs_on = seg.stopped_at is None and cell.n_iters < cfg.iters
                if runs_on and cell.cycle is None:
                    cell.cycle = find_cycle(seg)
                if fault_k is not None and first <= fault_k <= cell.n_iters:
                    segs[i] = seg = corrupt_trajectory(seg, fault_k - first,
                                                       float(cfg.fault["delta"]))
                if runs_on:
                    continue  # the cell runs on
                finished[i] = live.pop(i)
                if seg.stopped_at is not None:
                    cell.stopped_at = first + seg.stopped_at
                cell.final_residual = float(fixed_point_residual(
                    np.diff(seg.X[-2:], axis=0), np.diff(seg.Y[-2:], axis=0),
                    cell.params.tau, cell.params.sigma)[0])
            done += steps
            pending = None
            if live:
                steps = min(segment_end(done, width), cfg.iters) - done
                starts = {i: (cell.params, cell.z) for i, cell in live.items()
                          if cell.cycle is None}
                pending = _Pending(_batch_run, problem, starts, steps, done, cfg)
                if beside and starts:
                    pending.start()
            for i, cell in cells:
                seg = segs.pop(i)
                table = certify_trajectory(seg, kkt, problem, tol=cfg.tolerance,
                                           carry=cell.carry)
                if cell.tables is not None:
                    cell.tables.append(table)
                if fault_k is not None and i not in live:
                    _check_iterate(fault_k, cell.n_iters)
            del seg, table  # free this segment before the next one is joined
    finally:
        if pending is not None:
            pending.cancel()  # no worker outlives the call, whatever ends it
    return finished


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
    problem = _build_problem(cfg)
    params = _resolve_params(cfg, problem.L.norm_bound)
    print(json.dumps(_params_block(params), indent=2, sort_keys=True))
    return 0


def cmd_rate(csv_path, metric: str, window: tuple[int, int]) -> int:
    """Print the :func:`fit_rate` of ``metric`` against k from a trajectory
    CSV, read by :func:`_csv_blocks`; only these two columns are kept."""
    if metric not in CSV_COLUMNS[1:]:
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
        if args.command == "sweep" and (args.theta, args.safety) != (None, None):
            raise UsageError("a sweep takes theta and safety from grid, not options")
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
