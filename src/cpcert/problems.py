"""Test-problem generators with prox-friendly structure.

Every generator returns a :class:`ProblemSpec` with f, the conjugate-side
function g* (value map registered analytically, prox obtained through the
Moreau identity when the problem is stated via g), the coupling operator,
and, where available, a saddle point exact to rounding: in closed form for
the quadratic family, by a direct algorithm for TV-1D. The lasso has
neither; its long-run oracle polishes a short run's point instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import prox as _prox
from .certificates import (KKTPoint, kkt_residual, make_kkt, segment_end,
                           spare_rows)
from .hilbert import (ForwardDifferenceOperator, LinearOperator,
                      MatrixOperator, PPoint, as_vector, load_matrix)
from .prox import ProxFn, rowwise
from .schema import INTEGER, NUMBER, OBJECT, STRING, VECTOR, check_fields
from .solver import NonFiniteIterateError, Validity, run, validate_params

__all__ = [
    "OracleRejectedError",
    "ProblemSpec",
    "make_quadratic",
    "make_lasso",
    "make_tv1d",
    "kkt_by_long_run",
    "random_quadratic",
    "random_lasso",
    "default_tv_signal",
    "problem_from_config",
    "GENERATORS",
]


# Iterations per block of the long-run oracle (the polish hook is tried
# after each), and the bytes of iterates one block may span, which also
# bound the pieces it keeps: 8 MiB keeps 512-iteration blocks up to
# n + m = 2048.
_ORACLE_BLOCK = 512
_ORACLE_BLOCK_BYTES = 8 << 20
# The largest fixed-point residual a saddle point stored with a problem may have.
_STORED_KKT_TOL = 1e-8
# A polished point is run this many more solver steps, and kept only if the
# fixed-point residual after them is at most _POLISH_TOL.
_POLISH_ITERS = 50
_POLISH_TOL = 1e-12


class OracleRejectedError(RuntimeError):
    """The long-run oracle's point is too far from a saddle point to use."""


@dataclass(frozen=True)
class ProblemSpec:
    """A saddle-point test problem min_x max_y f(x) + <Lx, y> - g*(y).

    ``gstar`` carries both the value map and the prox used by the dual
    update; generators that state the problem through g derive it by
    Moreau conjugation.
    """

    name: str
    f: ProxFn
    gstar: ProxFn
    L: LinearOperator
    kkt: KKTPoint | None = None
    metadata: dict = field(default_factory=dict)
    # polish(z) -> a candidate saddle point refined from the iterate z, or
    # None; :func:`kkt_by_long_run` tries it after each block of its run
    polish: Callable[[PPoint], PPoint | None] | None = None

    def __post_init__(self):
        if self.kkt is not None:
            star = self.kkt.star
            if star.x.shape[0] != self.L.cols or star.y.shape[0] != self.L.rows:
                raise ValueError("saddle point dimensions do not match the operator")
            res = kkt_residual(self, star)
            if res > _STORED_KKT_TOL:
                raise ValueError(f"stored saddle point has residual {res:.3e} > "
                                 f"{_STORED_KKT_TOL:g}")


def make_quadratic(L: LinearOperator, a, b) -> ProblemSpec:
    """f(x) = 0.5||x - a||^2, g*(y) = 0.5||y - b||^2, with exact saddle point.

    The optimality conditions reduce to the positive-definite linear system
    (I + L^T L) x* = a - L^T b with y* = L x* + b, so the saddle point is
    solved exactly and certificates carry no oracle error.
    """
    a = as_vector(a)
    b = as_vector(b)
    if a.shape[0] != L.cols or b.shape[0] != L.rows:
        raise ValueError("data dimensions do not match the operator")
    mat = L.matrix
    x_star = np.linalg.solve(np.eye(L.cols) + mat.T @ mat, a - mat.T @ b)
    y_star = mat @ x_star + b
    problem = ProblemSpec(
        name="quadratic",
        f=_prox.quadratic_distance(a),
        gstar=_prox.quadratic_distance(b),
        L=L,
        metadata={"generator": "quadratic"},
    )
    kkt = make_kkt(problem, PPoint(x_star, y_star), check_tol=1e-10)
    return replace(problem, kkt=kkt)


def make_lasso(A: LinearOperator, b, lam: float) -> ProblemSpec:
    """f = lam*||.||_1, g = 0.5||. - b||^2 composed with A.

    g*(y) = 0.5||y||^2 + <y, b>; its prox follows from g by Moreau. No
    closed-form saddle point: :func:`kkt_by_long_run` finds one, and tries
    the attached ``polish`` hook (:func:`_lasso_polish`) on its iterates.
    """
    b = as_vector(b)
    if b.shape[0] != A.rows:
        raise ValueError("data dimension does not match the operator")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    g = _prox.quadratic_distance(b)

    def gstar_value(y):  # sum of y * (0.5 y + b), with one temporary the size of y
        t = 0.5 * y
        t += b
        t *= y
        return rowwise(np.sum(t, axis=-1))

    gstar = _prox.conjugate(g, evaluate=gstar_value)
    return ProblemSpec(
        name="lasso",
        f=_prox.l1(lam),
        gstar=gstar,
        L=A,
        metadata={"generator": "lasso", "lam": lam},
        polish=lambda z: _lasso_polish(A, b, lam, z.x),
    )


def _lasso_polish(A: LinearOperator, b: np.ndarray, lam: float,
                  x: np.ndarray) -> PPoint | None:
    """The lasso solution on the support and signs of ``x``, or None.

    Solution polishing as in OSQP (Stellato et al., Math. Prog. Comp.
    2020): take S = {x != 0} and s = sign(x_S), and solve the reduced
    normal equations A_S^T A_S x_S = A_S^T b - lam s by conjugate gradients
    from x_S. Only operator applies on masked vectors are used, so nothing
    of the size of A is formed. The result, with y = Ax - b, satisfies the
    lasso's optimality conditions if sign(x_S) is still s and
    |A^T y| <= lam off S; otherwise, or if |S| is 0 or exceeds the rows
    (A_S^T A_S is then singular), there is no candidate.
    """
    support = x != 0
    size = int(np.count_nonzero(support))
    if not 0 < size <= A.rows:
        return None
    signs = np.sign(x[support])
    padded = np.zeros_like(x)

    def normal(v):  # A_S^T A_S v
        padded[support] = v
        return A.apply_adjoint(A.apply(padded))[support]

    rhs = A.apply_adjoint(b)[support] - lam * signs
    x_s = _conjugate_gradients(normal, rhs, x[support], max_iters=2 * size + 10)
    if not np.array_equal(np.sign(x_s), signs):
        return None
    xp = np.zeros_like(x)
    xp[support] = x_s
    y = A.apply(xp) - b
    if np.max(np.abs(A.apply_adjoint(y)[~support]), initial=0.0) > lam:
        return None
    return PPoint(xp, y)


def _conjugate_gradients(apply, rhs: np.ndarray, x: np.ndarray,
                         max_iters: int) -> np.ndarray:
    """Solve apply(v) = rhs for a symmetric positive-definite map, from x.

    Stops when the recurred residual reaches rounding level, 1e-15
    relative to the right-hand side, or after ``max_iters`` steps.
    """
    x = x.copy()
    r = rhs - apply(x)
    p = r.copy()
    rr = float(r @ r)
    floor = (1e-15 * float(np.linalg.norm(rhs))) ** 2
    for _ in range(max_iters):
        if rr <= floor:
            break
        q = apply(p)
        pq = float(p @ q)
        if not pq > 0.0:
            break
        alpha = rr / pq
        x += alpha * p
        r -= alpha * q
        rr, rr_prev = float(r @ r), rr
        p = r + (rr / rr_prev) * p
    return x


def make_tv1d(signal, lam: float) -> ProblemSpec:
    """1-D total-variation denoising: f = 0.5||. - signal||^2, g = lam*||.||_1,
    L = forward differences.

    g* is the indicator of the box ||y||_inf <= lam; its prox (the box
    projection) again follows from g by Moreau. The operator bound is the
    safe analytic value 2. The saddle point comes from a direct solve
    (:func:`_tv1d_direct`) and is attached as ``kkt`` with kind
    ``"direct"``; should its residual exceed what a stored point may have
    (1e-8), none is attached and the long-run oracle serves instead.
    """
    signal = as_vector(signal)
    if signal.shape[0] < 2:
        raise ValueError("signal must have at least 2 samples")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    g = _prox.l1(lam)
    band = lam * (1.0 + 1e-12) + 1e-15  # roundoff guard for box membership

    def gstar_value(y):
        inside = np.max(np.abs(y), axis=-1) <= band
        return rowwise(np.where(inside, 0.0, math.inf))

    gstar = _prox.conjugate(g, evaluate=gstar_value)
    problem = ProblemSpec(
        name="tv1d",
        f=_prox.quadratic_distance(signal),
        gstar=gstar,
        L=ForwardDifferenceOperator(signal.shape[0]),
        metadata={"generator": "tv1d", "lam": lam},
    )
    res, star = _tv1d_direct(problem, signal, lam)
    if res > _STORED_KKT_TOL:
        return problem
    return replace(problem, kkt=make_kkt(problem, star, check_tol=None, kind="direct"))


def _tv1d_direct(problem: ProblemSpec, signal: np.ndarray,
                 lam: float) -> tuple[float, PPoint]:
    """The fixed-point residual and the TV-1D saddle point (x*, y*) of
    ``problem``, from Condat's algorithm.

    Stationarity, x* - signal + L^T y* = 0, gives y*_i = sum_{j<=i}
    (x*_j - signal_j), clipped to the box. That plain sum carries rounding
    across the whole signal; :func:`_tv1d_resummed` restarts it at each
    jump. The resummed point is kept unless the plain one has a smaller
    residual, as when rounding splits a segment in two.
    """
    x = np.array(_condat_tv1d(signal.tolist(), lam))
    plain = PPoint(x, np.clip(np.cumsum(x - signal)[:-1], -lam, lam))
    resummed = _tv1d_resummed(signal, lam, x)
    return min(((kkt_residual(problem, z), z) for z in (resummed, plain)),
               key=lambda t: t[0])


def _tv1d_resummed(signal: np.ndarray, lam: float, x: np.ndarray) -> PPoint:
    """The saddle point on the segments and jump signs of the primal ``x``.

    At a jump between i and i + 1, y*_i = lam sign(x*_{i+1} - x*_i), and
    y* = 0 past the last sample. So each segment's value is its mean of
    the signal plus (y* at its end - y* before its start) / its length;
    it is recomputed from the signal, and y* is summed per segment from
    its exact value before the segment.
    """
    jumps = np.flatnonzero(x[1:] != x[:-1])  # a jump between i and i + 1
    at_jump = lam * np.sign(x[jumps + 1] - x[jumps])
    starts = np.concatenate(([0], jumps + 1))
    lengths = np.diff(np.append(starts, x.shape[0]))
    before = np.concatenate(([0.0], at_jump))  # y* just before each segment
    values = (np.add.reduceat(signal, starts) + np.append(at_jump, 0.0) - before) / lengths
    x = np.repeat(values, lengths)
    sums = np.cumsum(x - signal)
    y = (sums + np.repeat(before - np.concatenate(([0.0], sums[jumps])), lengths))[:-1]
    y[jumps] = at_jump
    return PPoint(x, np.clip(y, -lam, lam))


def _condat_tv1d(s: list, lam: float) -> list:
    """argmin_x 0.5||x - s||^2 + lam sum_i |x_{i+1} - x_i|, by Condat's
    direct algorithm (L. Condat, "A direct algorithm for 1-D total variation
    denoising", IEEE Signal Processing Letters 20(11), 2013).

    A port of the published C routine: one left-to-right pass that keeps
    the current segment's value bounds [vmin, vmax] and the dual variable's
    bounds umin, umax, and backtracks to the last point where a bound was
    attained when a jump becomes necessary. It takes O(n) time in practice.
    """
    n = len(s)
    x = [0.0] * n

    def close(k0, last, value):
        """Set x[k0..max(k0, last)] to value; the next segment's start."""
        end = max(k0, last) + 1
        x[k0:end] = [value] * (end - k0)
        return end

    k = k0 = kplus = kminus = 0
    umin, umax = lam, -lam
    vmin, vmax = s[0] - lam, s[0] + lam
    while True:
        while k == n - 1:  # the right boundary, where y = 0
            if umin < 0.0:  # vmin is too high: a negative jump
                k = k0 = kminus = close(k0, kminus, vmin)
                vmin = s[k]
                umin = lam
                umax = vmin + lam - vmax
            elif umax > 0.0:  # vmax is too low: a positive jump
                k = k0 = kplus = close(k0, kplus, vmax)
                vmax = s[k]
                umax = -lam
                umin = vmax - lam - vmin
            else:
                close(k0, k, vmin + umin / (k - k0 + 1))
                return x
        umin += s[k + 1] - vmin
        if umin < -lam:  # a negative jump
            k = k0 = kplus = kminus = close(k0, kminus, vmin)
            vmin = s[k]
            vmax = vmin + 2.0 * lam
            umin, umax = lam, -lam
            continue
        umax += s[k + 1] - vmax
        if umax > lam:  # a positive jump
            k = k0 = kplus = kminus = close(k0, kplus, vmax)
            vmax = s[k]
            vmin = vmax - 2.0 * lam
            umin, umax = lam, -lam
            continue
        k += 1  # no jump: extend the segment
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= -lam:
            kplus = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = -lam


def kkt_by_long_run(problem: ProblemSpec, params, iters: int,
                    stop_tol: float = 1e-13, accept_tol: float = 1e-6,
                    prefix: list | None = None) -> KKTPoint:
    """Approximate saddle point from a solver run (oracle construction).

    Run far past the horizon of the experiment the point will serve (at
    least 10x). The run goes in pieces, each continuing from the last
    one's final point; the iteration is memoryless and the stop rule is
    checked on every step, so the point is the one a single run of
    ``iters`` steps ends at. Each piece ends at the first of: the end of a
    certified run's segment (:func:`cpcert.certificates.segment_end`), the
    end of a block (:func:`_oracle_block` iterations) and the horizon.
    Each piece is dropped once its final point is copied, so memory holds
    about one segment of iterates.

    If the problem has a ``polish`` hook, it is tried on the final point of
    every piece that did not stop and ends a block or the horizon. A
    candidate is run ``_POLISH_ITERS`` more steps and kept, ending the
    run, if its fixed-point residual is then at most ``_POLISH_TOL``; such
    a point has kind ``"polished"``. A candidate that fails is dropped and
    the run goes on as if it had never been tried, so the point otherwise
    is the long run's, of kind ``"long_run"``. The returned point carries
    its measured fixed-point residual and the solver steps taken; a
    residual above ``accept_tol`` rejects the oracle outright with
    :class:`OracleRejectedError`.

    With a ``prefix`` list, the leading pieces that ran their whole
    segment without stopping and ended inside the first block are
    appended to it (as :class:`~cpcert.solver.Trajectory`, in order from
    iterate 0) while they fit in the rows of one block left beside one
    segment's certifier working set
    (:func:`cpcert.certificates.spare_rows`). A run at ``params`` from the
    origin may use them, bitwise, in place of its first segments' runs; it
    holds them beside the working set of the segment it certifies, so the
    budget bounds the iterate rows that run holds at once by one block's,
    about ``_ORACLE_BLOCK_BYTES``.
    """
    status = validate_params(params)
    if status.kind is not Validity.STRICTLY_VALID:
        raise ValueError(f"long-run oracle needs StrictlyValid parameters, got {status}")
    z = PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    block = _oracle_block(problem)
    width = problem.L.rows + problem.L.cols
    room = 0 if prefix is None else spare_rows(block + 1, width)  # rows left to keep
    done = 0
    kkt = None
    while done < iters:
        whole = segment_end(done, width)
        end = min(whole, (done // block + 1) * block, iters)
        try:
            traj = run(problem, params, z, end - done, stop_tol=stop_tol)
        except NonFiniteIterateError as e:  # named by its run-wide iteration
            raise NonFiniteIterateError(done + e.iteration) from None
        z = traj.final  # a copy: the piece is dropped before the next one runs
        done += traj.n_iters
        stopped = traj.stopped_at is not None
        # keep whole unstopped segments, in order, while they fit; pieces from
        # the origin to step ``done`` hold more than ``done`` rows, and the
        # budget is at most ``block + 1``, so all fall in the first block
        if stopped or done != whole or traj.X.shape[0] > room:
            room = 0
        else:
            prefix.append(traj)
            room -= traj.X.shape[0]
        del traj
        if stopped:
            break
        if problem.polish is not None and (done % block == 0 or done == iters):
            kkt = _polished(problem, params, z, stop_tol, done)
            if kkt is not None:
                break
    if kkt is None:
        kkt = make_kkt(problem, z, check_tol=None, kind="long_run", iterations=done)
    if kkt.residual > accept_tol:
        raise OracleRejectedError(
            f"long-run oracle rejected: residual {kkt.residual:.3e} > {accept_tol:g} "
            f"after {kkt.iterations} iterations"
        )
    return kkt


def _polished(problem: ProblemSpec, params, z: PPoint, stop_tol: float,
              done: int) -> KKTPoint | None:
    """The polish hook's candidate from z, the final point after ``done``
    steps, run ``_POLISH_ITERS`` more steps: a ``"polished"`` KKTPoint
    counting all the steps taken, if its fixed-point residual is then at
    most ``_POLISH_TOL``; otherwise None."""
    candidate = problem.polish(z)
    if candidate is None:
        return None
    try:
        traj = run(problem, params, candidate, _POLISH_ITERS, stop_tol=stop_tol)
    except NonFiniteIterateError:
        return None
    kkt = make_kkt(problem, traj.final, check_tol=None, kind="polished",
                   iterations=done + traj.n_iters)
    return kkt if kkt.residual <= _POLISH_TOL else None


def _oracle_block(problem: ProblemSpec) -> int:
    """Iterations per oracle block: ``_ORACLE_BLOCK``, or fewer so that a
    block spans about ``_ORACLE_BLOCK_BYTES`` of iterates (at least one)."""
    per_iterate = 8 * (problem.L.rows + problem.L.cols)
    return min(_ORACLE_BLOCK, max(1, _ORACLE_BLOCK_BYTES // per_iterate))


# --- seeded instance builders and the config registry ---------------------

def random_quadratic(rows: int, cols: int, seed: int) -> ProblemSpec:
    """Quadratic family instance with Gaussian operator and data."""
    rng = np.random.default_rng(seed)
    L = MatrixOperator(rng.standard_normal((rows, cols)))
    a = rng.standard_normal(cols)
    b = rng.standard_normal(rows)
    p = make_quadratic(L, a, b)
    p.metadata.update({"seed": seed, "rows": rows, "cols": cols})
    return p


def random_lasso(rows: int, cols: int, lam: float, seed: int) -> ProblemSpec:
    rng = np.random.default_rng(seed)
    A = MatrixOperator(rng.standard_normal((rows, cols)))
    b = rng.standard_normal(rows)
    p = make_lasso(A, b, lam)
    p.metadata.update({"seed": seed, "rows": rows, "cols": cols})
    return p


def default_tv_signal(n: int, seed: int = 0, noise: float = 0.05) -> np.ndarray:
    """Piecewise-constant test signal with seeded Gaussian perturbation."""
    rng = np.random.default_rng(seed)
    levels = np.array([0.0, 2.0, -1.0, 1.0])
    edges = np.linspace(0, n, len(levels) + 1).astype(int)
    signal = np.empty(n)
    for lev, lo, hi in zip(levels, edges[:-1], edges[1:]):
        signal[lo:hi] = lev
    return signal + noise * rng.standard_normal(n)


def _build_quadratic(params: dict) -> ProblemSpec:
    if "matrix" in params:
        L = MatrixOperator(load_matrix(params["matrix"]))
        return make_quadratic(L, params["a"], params["b"])
    return random_quadratic(params["rows"], params["cols"], params.get("seed", 0))


def _build_lasso(params: dict) -> ProblemSpec:
    lam = float(params["lam"])
    if "matrix" in params:
        return make_lasso(MatrixOperator(load_matrix(params["matrix"])), params["b"], lam)
    return random_lasso(params["rows"], params["cols"], lam, params.get("seed", 0))


def _build_tv1d(params: dict) -> ProblemSpec:
    lam = float(params["lam"])
    if "signal" in params:
        p = make_tv1d(params["signal"], lam)
    else:
        p = make_tv1d(default_tv_signal(params["n"], params.get("seed", 0),
                                        float(params.get("noise", 0.05))), lam)
    p.metadata.update({k: params[k] for k in ("n", "seed") if k in params})
    return p


class Generator(NamedTuple):
    """A generator's builder and its two forms of parameters, each a
    :func:`check_fields` table of the keys it requires: ``seeded`` builds
    from a seed, ``data`` from given data and is the form used when its
    first key is given. ``optional`` holds the seeded form's keys that may
    be left out; every form takes ``seed``, which the harness fills in
    from the config's."""

    build: Callable[[dict], ProblemSpec]
    seeded: dict
    data: dict
    optional: dict = {}


GENERATORS = {
    "quadratic": Generator(_build_quadratic, {"rows": INTEGER, "cols": INTEGER},
                           {"matrix": STRING, "a": VECTOR, "b": VECTOR}),
    "lasso": Generator(_build_lasso, {"rows": INTEGER, "cols": INTEGER, "lam": NUMBER},
                       {"matrix": STRING, "b": VECTOR, "lam": NUMBER}),
    "tv1d": Generator(_build_tv1d, {"n": INTEGER, "lam": NUMBER},
                      {"signal": VECTOR, "lam": NUMBER}, {"noise": NUMBER}),
}
# The two forms of a problem reference: a file, or a generator and its params.
_FILE_REFERENCE = {"file": STRING}
_GENERATOR_REFERENCE = {
    "generator": (lambda v: isinstance(v, str) and v in GENERATORS,
                  f"one of {sorted(GENERATORS)}"),
    "params": OBJECT,
}


def read_problem_file(cfg, base_dir="."):
    """The generator reference {"generator": name, "params": {...}} that
    ``cfg`` is, or references as {"file": path}, following a file that
    references another in turn; each reference is checked against the
    table of its form (:func:`check_fields`).

    A relative path, of such a file or of a generator's "matrix", resolves
    against the directory of the JSON file it appears in: ``base_dir`` for
    ``cfg`` itself. A reference cycle is a ValueError.
    """
    seen = set()
    while isinstance(cfg, dict) and "file" in cfg and "generator" not in cfg:
        check_fields(cfg, _FILE_REFERENCE, "problem", "problem.{}")
        path = Path(base_dir, cfg["file"])
        if path.resolve() in seen:
            raise ValueError(f"problem file {path} is in a reference cycle")
        seen.add(path.resolve())
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        base_dir = path.parent
    check_fields(cfg, _GENERATOR_REFERENCE, "problem", "problem.{}", ("generator",))
    params = cfg.get("params", {})
    if isinstance(params.get("matrix"), str):
        cfg = {**cfg, "params": {**params, "matrix": str(Path(base_dir, params["matrix"]))}}
    return cfg


def problem_from_config(cfg: dict) -> ProblemSpec:
    """Build a problem from {"generator": name, "params": {...}}.

    A problem definition may also live in its own JSON file, referenced as
    {"file": path} (see :func:`read_problem_file`). The params must be in
    one of the generator's two forms (:class:`Generator`): a key of the
    other form is an unknown key.
    """
    cfg = read_problem_file(cfg)
    generator = GENERATORS[cfg["generator"]]
    params = cfg.get("params", {})
    seeded = next(iter(generator.data)) not in params
    form = generator.seeded if seeded else generator.data
    check_fields(params, {**form, **(generator.optional if seeded else {}), "seed": INTEGER},
                 f"{cfg['generator']} params", "generator parameter '{}'", tuple(form))
    return generator.build(params)
