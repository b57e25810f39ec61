"""Test-problem generators with prox-friendly structure.

Every generator returns a :class:`ProblemSpec` with f, the conjugate-side
function g* (value map registered analytically, prox obtained through the
Moreau identity when the problem is stated via g), the coupling operator,
and, where available, a saddle point exact to rounding: in closed form for
the quadratic family, by a direct algorithm for TV-1D. The lasso has
neither; its long-run oracle tries an active-set solve from its start
point, and from its run's points after that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import prox as _prox
from .certificates import KKTPoint, kkt_residual, make_kkt, segment_end
from .hilbert import (ForwardDifferenceOperator, LinearOperator,
                      MatrixOperator, PPoint, as_vector, load_matrix)
from .prox import ProxFn, rowwise
from .schema import (COUNT, COUNT2, NONNEGATIVE, NUMBER, OBJECT, SEED, STRING, VECTOR,
                     check_fields)
from .solver import NonFiniteIterateError, SolverParams, run, suggest_steps

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


# Iterations per block of the long-run oracle: the polish hook is tried on
# the start point and after each block. The block sets only where the
# polish is tried, and so which point the oracle returns; the memory of
# the oracle's runs is bounded by segments (`certificates.segment_end`)
# alone.
_ORACLE_BLOCK = 512
# The largest fixed-point residual a saddle point stored with a problem may have.
_STORED_KKT_TOL = 1e-8
# A polished point is run this many more solver steps, and kept only if the
# fixed-point residual after them is at most _POLISH_TOL.
_POLISH_ITERS = 50
_POLISH_TOL = 1e-12
# The lasso polish's active-set solve: its most passes, the conjugate
# gradients' relative residual on a pass that only finds the next active
# set and on one that confirms it or ends the budget, and the columns of
# A^T A formed per matrix product.
_PDAS_PASSES = 50
_PDAS_LOOSE_TOL = 1e-6
_PDAS_TIGHT_TOL = 1e-15
_GRAM_BLOCK = 128
# The long run's stop rule and its rejection threshold, on the fixed-point residual.
_ORACLE_STOP_TOL = 1e-13
_ORACLE_ACCEPT_TOL = 1e-6


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
    # None; :func:`kkt_by_long_run` tries it on its start point and after
    # each block of its run
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


def make_lasso(A: MatrixOperator, b, lam: float) -> ProblemSpec:
    """f = lam*||.||_1, g = 0.5||. - b||^2 composed with A.

    g*(y) = 0.5||y||^2 + <y, b>; its prox follows from g by Moreau. No
    closed-form saddle point: :func:`kkt_by_long_run` finds one, and tries
    the attached ``polish`` hook (:func:`_lasso_polish`) on its iterates.
    """
    b = as_vector(b)
    if b.shape[0] != A.rows:
        raise ValueError("data dimension does not match the operator")
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


def _lasso_polish(A: MatrixOperator, b: np.ndarray, lam: float,
                  x: np.ndarray) -> PPoint | None:
    """The lasso solution by a primal-dual active-set solve from ``x``, or None.

    The active-set solve of Hintermueller, Ito and Kunisch (SIAM J. Optim.
    2002): each pass takes u = x + A^T (b - Ax), the active set
    S = {|u| > lam} and its signs s = sign(u_S), and solves the reduced
    normal equations A_S^T A_S x_S = A_S^T b - lam s by conjugate gradients
    from x_S, with x = 0 off S. Each pass is a semismooth Newton step, and
    an inexact one only needs to fix the next active set (Dembo, Eisenstat
    and Steihaug, SIAM J. Numer. Anal. 1982), so a pass stops its
    conjugate gradients at a relative residual of ``_PDAS_LOOSE_TOL``.
    When (S, s) repeats, that set is solved once more to rounding level
    (``_PDAS_TIGHT_TOL``), and the passes end if (S, s) still repeats
    after it. The last of the ``_PDAS_PASSES`` passes is solved to
    rounding level too, so no candidate comes from a loose solve. From the
    900x600 bench lasso's start point that is 9-12 solves and 445-496
    products with A^T A (seeds 0-9), where solving every pass to rounding
    level took 8-9 solves and 990-1130 products.

    Each reduced product is the masked (A^T A v)[S], so no copy of G_SS or
    A_S is made. Where A has at least as many rows as columns, G = A^T A
    (no larger than A) is formed once the first active set passes the
    guard, ``_GRAM_BLOCK`` columns per product so that no packing buffer
    of BLAS adds to it, and the products after that are G v; otherwise
    each is two operator applies, which for a wide A also cost less than
    G v once n > 2m. The result, with y = Ax - b, satisfies the lasso's
    optimality conditions if sign(x_S) is still s and |A^T y| <= lam off
    S; otherwise, or if |S| is 0 or exceeds the rows (A_S^T A_S is then
    singular), there is no candidate.
    """
    gram = None

    def normal_full(v):  # A^T A v
        return A.apply_adjoint(A.apply(v)) if gram is None else gram @ v

    atb = A.apply_adjoint(b)
    padded = np.empty_like(x)
    active, tight = None, False
    for k in range(_PDAS_PASSES):
        u = x + atb - normal_full(x)
        support = np.abs(u) > lam
        signs = np.sign(u[support])
        repeat = active is not None and np.array_equal(support, active[0]) \
            and np.array_equal(signs, active[1])
        if repeat and tight:
            break
        tight = repeat or k == _PDAS_PASSES - 1
        size = int(np.count_nonzero(support))
        if not 0 < size <= A.rows:
            return None
        if gram is None and A.cols <= A.rows:
            a = A.matrix
            gram = np.empty((A.cols, A.cols))
            for j in range(0, A.cols, _GRAM_BLOCK):
                np.matmul(a.T, a[:, j:j + _GRAM_BLOCK], out=gram[:, j:j + _GRAM_BLOCK])
        padded.fill(0.0)

        def normal(v):  # A_S^T A_S v, as (A^T A v)[S]
            padded[support] = v
            return normal_full(padded)[support]

        x_s = _conjugate_gradients(normal, atb[support] - lam * signs, x[support],
                                   max_iters=2 * size + 10,
                                   rtol=_PDAS_TIGHT_TOL if tight else _PDAS_LOOSE_TOL)
        x = np.zeros_like(x)
        x[support] = x_s
        active = support, signs
    if not np.array_equal(np.sign(x[support]), signs):
        return None
    y = A.apply(x) - b
    if np.max(np.abs(A.apply_adjoint(y)[~support]), initial=0.0) > lam:
        return None
    return PPoint(x, y)


def _conjugate_gradients(apply, rhs: np.ndarray, x: np.ndarray,
                         max_iters: int, rtol: float) -> np.ndarray:
    """Solve apply(v) = rhs for a symmetric positive-definite map, from x.

    Stops when the recurred residual is at most ``rtol`` relative to the
    right-hand side, or after ``max_iters`` steps. The lasso polish asks
    1e-6 of a pass that only finds the next active set and 1e-15, rounding
    level, of one that confirms it: 474 products with A^T A from the
    900x600 bench lasso's start point (seed 0), against 1098 with every
    pass at 1e-15.
    """
    x = x.copy()
    r = rhs - apply(x)
    p = r.copy()
    rr = float(r @ r)
    floor = (rtol * float(np.linalg.norm(rhs))) ** 2
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
    (:func:`_tv1d_direct`) and is attached as ``kkt``; should its residual
    exceed what a stored point may have (1e-8), none is attached and the
    long-run oracle serves instead.
    """
    signal = as_vector(signal)
    if signal.shape[0] < 2:
        raise ValueError("signal must have at least 2 samples")
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
    kkt = _tv1d_direct(problem, signal, lam)
    return problem if kkt.residual > _STORED_KKT_TOL else replace(problem, kkt=kkt)


def _tv1d_direct(problem: ProblemSpec, signal: np.ndarray, lam: float) -> KKTPoint:
    """The TV-1D saddle point (x*, y*) of ``problem``, from Condat's
    algorithm: a KKTPoint of kind ``"direct"`` with its fixed-point residual.

    Stationarity, x* - signal + L^T y* = 0, gives y*_i = sum_{j<=i}
    (x*_j - signal_j), clipped to the box. That plain sum carries rounding
    across the whole signal; :func:`_tv1d_resummed` restarts it at each
    jump. The resummed point is kept unless the plain one has a smaller
    residual, as when rounding splits a segment in two.
    """
    x = np.array(_condat_tv1d(signal.tolist(), lam))
    plain = PPoint(x, np.clip(np.cumsum(x - signal)[:-1], -lam, lam))
    return min((make_kkt(problem, z, check_tol=None, kind="direct")
                for z in (_tv1d_resummed(signal, lam, x), plain)),
               key=lambda kkt: kkt.residual)


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


def kkt_by_long_run(problem: ProblemSpec, iters: int) -> KKTPoint:
    """Approximate saddle point from a run of its own at θ = 1, safety 0.9, ratio 1.

    Those steps are StrictlyValid for every positive norm bound. Run far
    past the horizon of the experiment the point will serve (at least 10x),
    in blocks of ``_ORACLE_BLOCK`` iterations that each run in segment
    pieces (:func:`_run_pieces`): memory holds about one segment of
    iterates, none of which outlives the oracle, and the point is the one
    a single run of ``iters`` steps ends at.

    If the problem has a ``polish`` hook, it is tried on the start point
    (0, 0), before the first block, and on the final point of every block
    that did not stop. A candidate is run ``_POLISH_ITERS`` more steps, in
    pieces too, and kept, ending the run, if its fixed-point residual is
    then at most ``_POLISH_TOL``; such a point has kind
    ``"polished"``. A candidate that fails, by a non-finite step too, is
    dropped and the run goes on as if it had never been tried; the point
    otherwise is the long run's, of kind ``"long_run"``. The returned point
    carries its measured fixed-point residual and the solver steps taken; a
    residual above ``_ORACLE_ACCEPT_TOL`` rejects the oracle outright with
    :class:`OracleRejectedError`.
    """
    norm = problem.L.norm_bound
    params = SolverParams(*suggest_steps(1.0, norm, 0.9, 1.0), 1.0, norm)
    z = PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    done, kkt = 0, None
    while True:
        candidate = None if problem.polish is None else problem.polish(z)
        if candidate is not None:
            try:
                star, steps, _ = _run_pieces(problem, params, candidate, done,
                                             done + _POLISH_ITERS)
            except NonFiniteIterateError:
                pass
            else:
                kkt = make_kkt(problem, star, check_tol=None, kind="polished",
                               iterations=steps)
                if kkt.residual <= _POLISH_TOL:
                    break
                kkt = None
        if done >= iters:
            break
        block_end = min((done // _ORACLE_BLOCK + 1) * _ORACLE_BLOCK, iters)
        z, done, stopped = _run_pieces(problem, params, z, done, block_end)
        if stopped:
            break
    if kkt is None:
        kkt = make_kkt(problem, z, check_tol=None, kind="long_run", iterations=done)
    if kkt.residual > _ORACLE_ACCEPT_TOL:
        raise OracleRejectedError(
            f"long-run oracle rejected: residual {kkt.residual:.3e} > "
            f"{_ORACLE_ACCEPT_TOL:g} after {kkt.iterations} iterations"
        )
    return kkt


def _run_pieces(problem: ProblemSpec, params, z: PPoint, done: int,
                end: int) -> tuple[PPoint, int, bool]:
    """Run from z, the point after ``done`` steps, to step ``end``: the
    final point, the steps done and whether ``_ORACLE_STOP_TOL`` ended it.

    Each piece is one :func:`run` call that ends at a segment end
    (:func:`cpcert.certificates.segment_end`) or at ``end`` and is dropped
    once its final point is copied, so memory holds about one segment of
    iterates. The iteration is memoryless and the stop rule is checked on
    every step, so the point is the one a single run ends at. A
    :class:`NonFiniteIterateError` is named by its run-wide step.
    """
    width = problem.L.rows + problem.L.cols
    stopped = False
    while done < end and not stopped:
        try:
            traj = run(problem, params, z, min(segment_end(done, width), end) - done,
                       stop_tol=_ORACLE_STOP_TOL)
        except NonFiniteIterateError as e:
            raise NonFiniteIterateError(done + e.iteration) from None
        z, done, stopped = traj.final, done + traj.n_iters, traj.stopped_at is not None
        del traj
    return z, done, stopped


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
    "quadratic": Generator(_build_quadratic, {"rows": COUNT, "cols": COUNT},
                           {"matrix": STRING, "a": VECTOR, "b": VECTOR}),
    "lasso": Generator(_build_lasso, {"rows": COUNT, "cols": COUNT, "lam": NONNEGATIVE},
                       {"matrix": STRING, "b": VECTOR, "lam": NONNEGATIVE}),
    # a signal has at least 2 samples, so that it has a difference
    "tv1d": Generator(_build_tv1d, {"n": COUNT2, "lam": NONNEGATIVE},
                      {"signal": VECTOR, "lam": NONNEGATIVE}, {"noise": NUMBER}),
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
            try:
                cfg = json.load(fh)
            except ValueError as e:  # JSONDecodeError, or text that is not UTF-8
                raise ValueError(f"problem file {path} is not valid JSON: {e}") from None
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
    check_fields(params, {**form, **(generator.optional if seeded else {}), "seed": SEED},
                 f"{cfg['generator']} params", "generator parameter '{}'", tuple(form))
    return generator.build(params)
