"""One benchmark child process: a cpcert CLI command, or the kernel timings.

Usage (started by ``bench/run.py``, one process per command)::

    python bench/child.py REPORT plain  -- CLI-ARGS...
    python bench/child.py REPORT trace  -- CLI-ARGS...
    python bench/child.py REPORT kernels CONFIG SEED

``plain`` and ``trace`` call ``cpcert.harness.main(CLI-ARGS)``, the entry
point of the ``cpcert`` console script, and exit with its code. ``plain``
only records when ``cpcert.harness.run`` is first entered (the end of
set-up). ``trace`` also records a span around each public call the harness
makes into the other modules and counts operator and prox calls on the
built problem. ``kernels`` builds the workload's problem and times single
public calls on it. Every mode writes its measurements as JSON to REPORT.
Times are CLOCK_MONOTONIC seconds, which the parent reads with the same
clock, so set-up can be measured from the moment the process was spawned.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_cpcert():
    """Import cpcert from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cpcert.harness

    origin = Path(cpcert.harness.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"cpcert imported from {origin}, not from {SRC}")
    return cpcert.harness


class Tracer:
    """Spans (name, start, end, parent) and call counters, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.notes: dict[str, list] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "start": now(), "end": None,
                           "parent": parent})
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = now()
        self.stack.pop()

    def note(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)

    def wrap(self, module, attr: str, name: str, after=None):
        """Replace ``module.attr`` by a version that records a span.

        ``after(result, before_counts)`` runs once the span is closed, so its
        cost lands in the parent span's self time.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            before = Counter(self.counts)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, before)
            return result

        setattr(module, attr, traced)

    def counting(self, fn, key: str):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted


OPERATOR_CALLS = ("hilbert.apply", "hilbert.apply_adjoint", "hilbert.apply_stack")


def install_trace(h, tracer: Tracer) -> None:
    """Wrap the names the harness calls, plus the oracle's inner run."""
    import cpcert.problems as problems
    import numpy as np

    def instrument(problem):
        L = problem.L
        for meth in ("apply", "apply_adjoint", "apply_stack"):
            setattr(L, meth, tracer.counting(getattr(L, meth), "hilbert." + meth))
        f = dataclasses.replace(
            problem.f, prox=tracer.counting(problem.f.prox, "prox.f_prox"),
            evaluate=tracer.counting(problem.f.evaluate, "prox.evaluate"))
        gstar = dataclasses.replace(
            problem.gstar, prox=tracer.counting(problem.gstar.prox, "prox.gstar_prox"),
            evaluate=tracer.counting(problem.gstar.evaluate, "prox.evaluate"))
        traced = dataclasses.replace(problem, f=f, gstar=gstar)
        tracer.counts.clear()  # drop the saddle-point re-check in replace()
        return traced

    build = h.problem_from_config

    def build_and_instrument(cfg):
        idx = tracer.open("problems.problem_from_config")
        try:
            problem = build(cfg)
        finally:
            tracer.close(idx)
        L = problem.L
        matrix = hasattr(L, "matrix")
        tracer.note("operator", {"rows": L.rows, "cols": L.cols, "matrix": matrix})
        return instrument(problem)

    h.problem_from_config = build_and_instrument

    def after_run(traj, before):
        tracer.note("run_iters", traj.n_iters)
        tracer.note("run_operator_calls",
                    sum(tracer.counts[k] - before[k] for k in OPERATOR_CALLS))

    def after_certify(table, before):
        # residual / allowance of each of the six checks, as in their pass
        # flags; a ratio <= 1 passes
        tol, v, v0 = table.tol, table.lyapunov, table.v0
        scale = tol * (1.0 + np.abs(v))
        ratios = [table.descent_residual / scale,
                  table.lower_bound_residual / scale,
                  (v[1:] - v[:-1]) / scale[:-1]]
        k = table.ks[1:].astype(float)
        if k.size:
            erg, sum_gap = table.ergodic_gap[1:], table.sum_gap[1:]
            mean_gap = sum_gap / k
            ratios += [(erg - mean_gap) / (tol * (1.0 + np.abs(mean_gap))),
                       (sum_gap - v0) / (tol * (1.0 + abs(v0))),
                       (erg - v0 / k) / (tol * (1.0 + np.abs(v0 / k)))]
        tracer.note("cert_rows", int(len(table.ks)))
        tracer.note("cert_headroom",
                    float(max(np.max(r) for r in ratios if r.size)))

    def after_oracle(kkt, before):
        tracer.note("oracle_residual", float(kkt.residual or 0.0))

    tracer.wrap(h, "kkt_by_long_run", "problems.kkt_by_long_run", after_oracle)
    tracer.wrap(problems, "run", "problems.run",
                lambda traj, before: tracer.note("oracle_iters", traj.n_iters))
    tracer.wrap(h, "run", "solver.run", after_run)
    tracer.wrap(h, "certify_trajectory", "certificates.certify_trajectory",
                after_certify)
    tracer.wrap(h, "write_trajectory_csv", "harness.write_trajectory_csv")
    tracer.wrap(h, "write_json", "harness.write_json")
    tracer.wrap(h, "read_trajectory_csv", "harness.read_trajectory_csv")
    tracer.wrap(h, "emit_plotdata", "harness.emit_plotdata")


def run_cli(report: Path, mode: str, argv: list[str]) -> int:
    h = import_cpcert()
    t_ready = now()
    first_run: list[float] = []
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install_trace(h, tracer)
    inner_run = h.run

    def run_probe(*args, **kwargs):
        if not first_run:
            first_run.append(now())
        return inner_run(*args, **kwargs)

    h.run = run_probe
    if tracer is not None:
        top = tracer.open("cli." + argv[0])
    try:
        code = h.main(argv)
    finally:
        if tracer is not None:
            tracer.close(top)
    out = {"t_ready": t_ready, "t_first_run": first_run[0] if first_run else None}
    if tracer is not None:
        out.update(spans=tracer.spans, counts=dict(tracer.counts),
                   notes=tracer.notes)
    report.write_text(json.dumps(out))
    return code


def per_call_us(fn, *args, batch_s: float = 0.02, batches: int = 7) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    fn(*args)
    n = 1
    while True:
        t0 = now()
        for _ in range(n):
            fn(*args)
        if now() - t0 >= batch_s or n >= 1 << 20:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        t0 = now()
        for _ in range(n):
            fn(*args)
        samples.append((now() - t0) / n)
    return statistics.median(samples) * 1e6


def run_kernels(report: Path, config: str, seed: int) -> int:
    """Time the public per-iteration calls on the workload's built problem."""
    h = import_cpcert()
    import numpy as np
    from cpcert.hilbert import MatrixOperator, PPoint, estimate_norm
    from cpcert.problems import problem_from_config
    from cpcert.solver import SolverParams, step, suggest_steps

    cfg = h.ExperimentConfig.from_file(config)
    pc = dict(cfg.problem)
    pc["params"] = {"seed": seed, **pc.get("params", {})}
    problem = problem_from_config(pc)
    L = problem.L
    tau, sigma = suggest_steps(cfg.theta, L.norm_bound, cfg.safety, cfg.ratio)
    params = SolverParams(tau, sigma, cfg.theta, L.norm_bound)
    rng = np.random.default_rng(seed)
    z = PPoint(rng.standard_normal(L.cols), rng.standard_normal(L.rows))
    z = step(z, problem, params)  # a point inside dom f x dom g*
    x_in = z.x - tau * L.apply_adjoint(z.y)
    y_in = z.y + sigma * L.apply(z.x)
    evaluate_us = 0.5 * (per_call_us(problem.f.evaluate, z.x)
                         + per_call_us(problem.gstar.evaluate, z.y))
    out = {
        "solver.step_us": per_call_us(step, z, problem, params),
        "hilbert.apply_us": per_call_us(L.apply, z.x),
        "hilbert.apply_adjoint_us": per_call_us(L.apply_adjoint, z.y),
        "prox.f_prox_us": per_call_us(problem.f.prox, x_in, tau),
        "prox.gstar_prox_us": per_call_us(problem.gstar.prox, y_in, sigma),
        "prox.evaluate_us": evaluate_us,
        "hilbert.norm_bound_s": 0.0,
    }
    if isinstance(L, MatrixOperator):  # other operators carry an analytic bound
        times = []
        for _ in range(3):
            t0 = now()
            estimate_norm(L)
            times.append(now() - t0)
        out["hilbert.norm_bound_s"] = statistics.median(times)
    report.write_text(json.dumps(out))
    return 0


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        raise SystemExit(__doc__)
    report, mode, rest = Path(argv[0]), argv[1], argv[2:]
    if mode in ("plain", "trace") and rest[:1] == ["--"]:
        return run_cli(report, mode, rest[1:])
    if mode == "kernels" and len(rest) == 2:
        return run_kernels(report, rest[0], int(rest[1]))
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
