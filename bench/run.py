#!/usr/bin/env python3
"""cpcert benchmark: certified solves through the real CLI.

Usage, from the repository root::

    python3 bench/run.py --workload quad_long|tv_sweep|lasso_dense|all
                         [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs the workload's CLI commands one after another, each in
a fresh child process (``bench/child.py``, which calls
``cpcert.harness.main``, the ``cpcert`` console-script entry point), from
``src/`` of this checkout. Children run one at a time, with the BLAS and
OpenMP thread pools pinned to one thread. Repetitions continue until
``--seconds`` have been measured (at least three).

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics: span and counter medians over the traced repetitions,
single-call timings from one kernel child, and the tracing overhead.
``--workload all`` does both for every workload and prints the report.

Every repetition passes a correctness gate, and once per invocation an
untimed negative control must be caught by the certificates. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
CHILD = BENCH / "child.py"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0
# Held out: not used while the benchmark was tuned. Confirm a claimed gain
# on it as well as on DEFAULT_SEED.
HELDOUT_SEED = 97
MIN_REPS = 3
MIN_TRACED_REPS = 2
# A single-workload invocation must end within 180 s; children still
# running at this point are killed and their repetition counts as failed.
DEADLINE_S = 165.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NEGATIVE_CONTROL_K = 59  # iterate 60 is corrupted; window 59 is the first to see it

WORKLOADS = {
    "quad_long": "one 20k-iteration quadratic solve with exact z*, then rate "
                 "and plotdata on its CSV: per-step overhead, 20k-row "
                 "certify, CSV write and read-back",
    "tv_sweep": "15 TV-1D cells of 2000 iterations sharing one oracle: many "
                "small runs, box-prox conjugate, analytic norm bound",
    "lasso_dense": "900x600 Gaussian lasso: gemv-bound steps, power-iteration "
                   "norm bound, 4000-iteration oracle beside a full-history "
                   "run, largest history",
}

END_TO_END = {  # name: (unit, better)
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cert_iters_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {  # name: (unit, better)
    "solver.step_us": ("us", "lower"),
    "solver.us_per_iter": ("us", "lower"),
    "solver.run_s": ("s", "lower"),
    "solver.run_calls": ("count", "lower"),
    "hilbert.apply_us": ("us", "lower"),
    "hilbert.apply_adjoint_us": ("us", "lower"),
    "hilbert.apply_calls_per_iter": ("count/iter", "lower"),
    "hilbert.bytes_per_iter_computed": ("B/iter", "lower"),
    "hilbert.norm_bound_s": ("s", "lower"),
    "prox.f_prox_us": ("us", "lower"),
    "prox.gstar_prox_us": ("us", "lower"),
    "prox.evaluate_us": ("us", "lower"),
    "prox.evaluate_calls": ("count", "lower"),
    "certificates.certify_s": ("s", "lower"),
    "certificates.us_per_row": ("us", "lower"),
    "certificates.rows": ("count", "higher"),
    "certificates.max_headroom": ("ratio", "lower"),
    "problems.build_s": ("s", "lower"),
    "problems.oracle_s": ("s", "lower"),
    "problems.oracle_iters": ("count", "lower"),
    "problems.oracle_residual": ("1", "lower"),
    "harness.write_csv_s": ("s", "lower"),
    "harness.csv_bytes": ("B", "lower"),
    "harness.write_json_s": ("s", "lower"),
    "harness.read_csv_s": ("s", "lower"),
    "harness.plotdata_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

SPAN_METRICS = {  # per-layer metric: span whose summed duration it reports
    "solver.run_s": "solver.run",
    "certificates.certify_s": "certificates.certify_trajectory",
    "problems.build_s": "problems.problem_from_config",
    "problems.oracle_s": "problems.kkt_by_long_run",
    "harness.write_csv_s": "harness.write_trajectory_csv",
    "harness.write_json_s": "harness.write_json",
    "harness.read_csv_s": "harness.read_trajectory_csv",
    "harness.plotdata_s": "harness.emit_plotdata",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def commands(workload: str, seed: int, out: Path) -> list[tuple[str, list[str]]]:
    """The workload's CLI commands, in order, as (label, argv) pairs."""
    cfg = str(CONFIGS / f"{workload}.json")
    s = str(seed)
    if workload == "tv_sweep":
        return [("sweep", ["sweep", "--config", cfg, "--seed", s,
                           "--out", str(out / "sweep")])]
    cmds = [("solve", ["solve", "--config", cfg, "--seed", s,
                       "--out", str(out / "solve")])]
    if workload == "quad_long":
        csv_path = str(out / "solve" / "trajectory.csv")
        cmds += [("rate", ["rate", csv_path, "--metric", "ergodic_gap",
                           "--window", "50", "20000"]),
                 ("plotdata", ["plotdata", csv_path, "--out", str(out / "plots")])]
    return cmds


# --- child processes ---------------------------------------------------------

@dataclass
class Proc:
    label: str
    code: int
    t_spawn: float
    wall: float
    cpu: float
    rss_mb: float
    report: dict | None
    stdout: str
    stderr: str


def spawn(child_args: list[str], rep_dir: Path, label: str, env: dict,
          deadline: float) -> Proc:
    """Run one child to completion; measure its wall, CPU and peak RSS."""
    report = rep_dir / f"{label}.report.json"
    out_path = rep_dir / f"{label}.stdout"
    err_path = rep_dir / f"{label}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = now()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(report), *child_args],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - now(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = now() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        rep = json.loads(report.read_text())
    except (OSError, ValueError):
        rep = None
    return Proc(label, code, t0, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, rep, out_path.read_text(),
                err_path.read_text())


# --- correctness gate ----------------------------------------------------------

@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    certified_iters: int = 0
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, set[str]] = field(default_factory=lambda: defaultdict(set))

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gate_solve(g: Gate, harness, out: Path) -> bool:
    summary = json.loads((out / "summary.json").read_text())
    cert = summary["certificates"]
    iters = summary["config"]["iters"]
    ok = g.check(cert["asserted"] is True, "solve: certificates not asserted")
    ok &= g.check(cert["all_pass"] is True,
                  f"solve: all_pass is {cert['all_pass']}, "
                  f"first failing k {cert['first_failing_k']}")
    ok &= g.check(summary["iterations"] == iters and cert["rows"] == iters - 1,
                  f"solve: {cert['rows']} rows for {iters} iterations")
    flags = harness.recompute_flags_from_csv(out / "trajectory.csv", cert["tol"])
    ok &= g.check(all(bool(f.all()) for f in flags.values()),
                  "solve: flags recomputed from the CSV fail")
    for name in ("summary.json", "trajectory.csv"):
        g.hashes[f"solve/{name}"].add(sha256(out / name))
    if ok:
        g.certified_iters += summary["iterations"]
    return ok


def gate_sweep(g: Gate, out: Path) -> bool:
    data = json.loads((out / "sweep_summary.json").read_text())
    grid, iters = data["config"]["grid"], data["config"]["iters"]
    cells = data["cells"]
    ok = g.check(len(cells) == len(grid["theta"]) * len(grid["safety"]),
                 f"sweep: {len(cells)} cells")
    g.attempted += len(cells)
    for cell in cells:
        if g.check(cell["all_pass"] is True,
                   f"sweep cell theta={cell['theta']} safety={cell['safety']}: "
                   f"all_pass is {cell['all_pass']}"):
            g.certified_iters += iters
        else:
            g.failed += 1
    for name in ("sweep_summary.json", "sweep_summary.csv"):
        g.hashes[f"sweep/{name}"].add(sha256(out / name))
    return ok


def gate_command(g: Gate, harness, proc: Proc, rep_dir: Path) -> None:
    """Gate one command; each command is one attempt, each sweep cell one more."""
    g.attempted += 1
    ok = g.check(proc.code == 0, f"{proc.label}: exit code {proc.code}: "
                 f"{proc.stderr.strip()[-300:]}")
    if ok:
        try:
            if proc.label == "solve":
                ok = gate_solve(g, harness, rep_dir / "solve")
            elif proc.label == "sweep":
                ok = gate_sweep(g, rep_dir / "sweep")
            elif proc.label == "rate":
                ok = g.check(math.isfinite(json.loads(proc.stdout)["slope"]),
                             "rate: slope is not finite")
            elif proc.label == "plotdata":
                ok = g.check((rep_dir / "plots" / "plots.gp").is_file(),
                             "plotdata: no plots.gp")
        except (OSError, ValueError, KeyError, TypeError) as e:
            ok = g.check(False, f"{proc.label}: unreadable output: {e!r}")
    if not ok:
        g.failed += 1


def negative_control(seed: int, env: dict, work: Path, deadline: float) -> str | None:
    """Untimed: a corrupted iterate must fail certification at k = 59."""
    rep_dir = work / "negative_control"
    rep_dir.mkdir(parents=True)
    argv = ["solve", "--config", str(CONFIGS / "negative_control.json"),
            "--seed", str(seed), "--out", str(rep_dir / "solve")]
    proc = spawn(["plain", "--", *argv], rep_dir, "solve", env, deadline)
    try:
        summary = json.loads((rep_dir / "solve" / "summary.json").read_text())
        first = summary["certificates"]["first_failing_k"]
    except (OSError, ValueError, KeyError):
        first = None
    shutil.rmtree(rep_dir)
    if proc.code == 1 and first == NEGATIVE_CONTROL_K:
        return None
    return (f"negative control not caught: exit {proc.code}, "
            f"first_failing_k {first} (want 1 and {NEGATIVE_CONTROL_K})")


# --- repetitions ------------------------------------------------------------------

@dataclass
class Rep:
    traced: bool
    e2e: dict[str, float]
    layer: dict[str, float]
    self_s: dict[str, float]
    span_calls: dict[str, int]
    coverage: float


def span_tables(procs: list[Proc]):
    """Summed duration, self time and call count per span name."""
    total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    top_s = 0.0
    for p in procs:
        spans = p.report["spans"] if p.report else []
        child_s = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for s, inner in zip(spans, child_s):
            dur = s["end"] - s["start"]
            total[s["name"]] += dur
            self_s[s["name"]] += dur - inner
            calls[s["name"]] += 1
            if s["parent"] is None:
                top_s += dur
    return total, self_s, calls, top_s


def bytes_per_apply(op: dict) -> int:
    """Computed bytes one operator apply reads and writes (float64)."""
    if op["matrix"]:
        return 8 * (op["rows"] * op["cols"] + op["rows"] + op["cols"])
    return 8 * (op["rows"] + op["cols"])


def layer_metrics(procs: list[Proc], total: dict, calls: dict,
                  rep_dir: Path) -> dict[str, float]:
    notes, counts = defaultdict(list), defaultdict(int)
    for p in procs:
        for k, v in (p.report or {}).get("notes", {}).items():
            notes[k] += v
        for k, v in (p.report or {}).get("counts", {}).items():
            counts[k] += v
    iters = sum(notes["run_iters"])
    per_iter = sum(notes["run_operator_calls"]) / iters
    rows = sum(notes["cert_rows"])
    m = {name: total[span] for name, span in SPAN_METRICS.items()}
    csv_path = rep_dir / "solve" / "trajectory.csv"
    m.update({
        "solver.run_calls": float(calls["solver.run"]),
        "solver.us_per_iter": total["solver.run"] / iters * 1e6,
        "hilbert.apply_calls_per_iter": per_iter,
        "hilbert.bytes_per_iter_computed": per_iter * bytes_per_apply(notes["operator"][0]),
        "prox.evaluate_calls": float(counts["prox.evaluate"]),
        "certificates.rows": float(rows),
        "certificates.us_per_row": total["certificates.certify_trajectory"] / rows * 1e6,
        "certificates.max_headroom": max(notes["cert_headroom"]),
        "problems.oracle_iters": float(sum(notes["oracle_iters"])),
        "problems.oracle_residual": max(notes["oracle_residual"], default=0.0),
        "harness.csv_bytes": float(csv_path.stat().st_size if csv_path.exists() else 0),
    })
    return m


def run_rep(workload: str, seed: int, traced: bool, rep_dir: Path, env: dict,
            deadline: float, g: Gate, harness) -> Rep:
    rep_dir.mkdir(parents=True)
    mode = "trace" if traced else "plain"
    procs = [spawn([mode, "--", *argv], rep_dir, label, env, deadline)
             for label, argv in commands(workload, seed, rep_dir)]
    failed_before, iters_before = g.failed, g.certified_iters
    for p in procs:
        gate_command(g, harness, p, rep_dir)
    wall = sum(p.wall for p in procs)
    first = (procs[0].report or {}).get("t_first_run")
    setup = first - procs[0].t_spawn if first is not None else math.nan
    e2e = {
        "wall_s": wall,
        "cpu_s": sum(p.cpu for p in procs),
        "setup_s": setup,
        "cert_iters_per_s": (g.certified_iters - iters_before) / (wall - setup),
        "peak_rss_mb": max(p.rss_mb for p in procs),
    }
    layer, self_s, span_calls, coverage = {}, {}, {}, math.nan
    if traced and g.failed == failed_before:
        total, self_s, span_calls, top_s = span_tables(procs)
        layer = layer_metrics(procs, total, span_calls, rep_dir)
        # share of the children's post-import wall time that top-level spans cover
        coverage = top_s / sum(p.wall - (p.report["t_ready"] - p.t_spawn)
                               for p in procs)
    shutil.rmtree(rep_dir)
    return Rep(traced, e2e, layer, dict(self_s), dict(span_calls), coverage)


# --- measurement -----------------------------------------------------------------

@dataclass
class Result:
    workload: str
    trace: bool
    gate: Gate
    reps: list[Rep]
    kernels: dict[str, float]
    control_error: str | None

    def samples(self, traced: bool, key: str) -> list[float]:
        return [r.e2e[key] for r in self.reps if r.traced == traced]

    def e2e(self) -> dict[str, float]:
        return {k: median(self.samples(False, k)) for k in END_TO_END}

    def layer(self) -> dict[str, float]:
        traced = [r.layer for r in self.reps if r.layer]
        m = {k: median([t[k] for t in traced]) for k in traced[0]} if traced else {}
        m.update(self.kernels)
        m["trace.overhead_frac"] = (median(self.samples(True, "wall_s"))
                                    / median(self.samples(False, "wall_s")) - 1.0)
        return {k: m.get(k, math.nan) for k in PER_LAYER}


def median(values: list[float]) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict,
            harness) -> Result:
    """Run repetitions of one workload for ``seconds`` (plus the controls)."""
    t_begin = now()
    deadline = t_begin + DEADLINE_S
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    g = Gate()
    reps: list[Rep] = []
    kernels: dict[str, float] = {}
    try:
        control_error = negative_control(seed, env, work, deadline)
        if trace:
            kdir = work / "kernels"
            kdir.mkdir()
            proc = spawn(["kernels", str(CONFIGS / f"{workload}.json"), str(seed)],
                         kdir, "kernels", env, deadline)
            g.check(proc.code == 0 and proc.report is not None,
                    f"kernels: exit code {proc.code}: {proc.stderr.strip()[-300:]}")
            kernels = proc.report or {}
        t_measure = now()
        while True:
            n_plain = sum(not r.traced for r in reps)
            n_traced = len(reps) - n_plain
            enough = (n_plain >= (MIN_TRACED_REPS if trace else MIN_REPS)
                      and (not trace or n_traced >= MIN_TRACED_REPS))
            spent = now() - t_measure
            rep_s = spent / len(reps) if reps else 0.0
            if enough and (spent >= seconds or now() + 1.5 * rep_s > deadline):
                break
            if g.failed or now() + rep_s > deadline:
                break
            traced = trace and n_traced < n_plain
            reps.append(run_rep(workload, seed, traced, work / f"rep{len(reps)}",
                                env, deadline, g, harness))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return Result(workload, trace, g, reps, kernels, control_error)


# --- report --------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float]:
    values = [v for v in values if math.isfinite(v)]
    if len(values) < 2:
        return (values[0], values[0]) if values else (math.nan, math.nan)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_s = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_s = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas_s}, nproc {os.cpu_count()} "
            f"(affinity {len(os.sched_getaffinity(0))}), {threads}")


def print_report(results: list[Result], seed: int) -> None:
    print(f"# cpcert benchmark, seed {seed}: {environment()}")
    print("# closed loop, one client, one command at a time")
    for res in results:
        g = res.gate
        mode = "traced" if res.trace else "untraced"
        print(f"\n## {res.workload} ({mode}): {WORKLOADS[res.workload]}")
        print(f"attempted {g.attempted}, failed {g.failed}, failed_frac "
              f"{g.failed / max(g.attempted, 1):.4g}; negative control "
              f"{'caught' if res.control_error is None else res.control_error}")
        for what in g.problems[:10]:
            print(f"  gate: {what}")
        for name, digests in sorted(g.hashes.items()):
            shown = " ".join(sorted(d[:16] for d in digests))
            print(f"  sha256 {name} {shown} (information only)")
        if not res.trace:
            n = sum(not r.traced for r in res.reps)
            print(f"{'metric':<20}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}  n")
            for key, (unit, _) in END_TO_END.items():
                vals = res.samples(False, key)
                q1, q3 = quartiles(vals)
                print(f"{key:<20}{unit:<7}{median(vals):>12.5g}{q1:>12.5g}{q3:>12.5g}  {n}")
        traced = [r for r in res.reps if r.layer]
        if res.trace:
            print(f"per layer (median of {len(traced)} traced repetitions; "
                  f"*_us and norm_bound_s from single-call timings)")
            for key, value in res.layer().items():
                print(f"  {key:<34}{PER_LAYER[key][0]:<11}{value:>14.6g}")
            print("self time per span (s, median per repetition; calls):")
            for name in sorted({n for r in traced for n in r.self_s}):
                self_s = median([r.self_s.get(name, 0.0) for r in traced])
                calls = median([r.span_calls.get(name, 0) for r in traced])
                print(f"  {name:<36}{self_s:>10.4f}{calls:>8.0f}")
            print(f"top-level spans cover {median([r.coverage for r in traced]):.4f} "
                  "of the children's wall time after import")


def result_line(results: list[Result]) -> dict:
    metrics = {}
    for res in results:
        prefix = f"{res.workload}." if len(results) > 1 else ""
        values, spec = (res.layer(), PER_LAYER) if res.trace else (res.e2e(), END_TO_END)
        for key, value in values.items():
            metrics[prefix + key] = {"value": value if math.isfinite(value) else None,
                                     "unit": spec[key][0]}
    attempted = sum(r.gate.attempted for r in results)
    failed = sum(r.gate.failed for r in results)
    correct = (failed == 0 and attempted > 0
               and all(r.control_error is None and not r.gate.problems for r in results)
               and all(m["value"] is not None for m in metrics.values()))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"problem seed (default {DEFAULT_SEED}; held-out "
                             f"seed {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per workload and mode")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cpcert" / "harness.py").is_file():
        print(f"error: no cpcert sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    seed = args.seed % 2 ** 32  # generator seeds must be nonnegative
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    import cpcert.harness as harness

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.workload == "all" else [bool(args.trace)]
    results = [measure(name, seed, args.seconds, trace, env, harness)
               for name in names for trace in modes]
    print_report(results, seed)
    print(json.dumps(result_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
