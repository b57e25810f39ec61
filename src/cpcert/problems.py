"""Test-problem generators with prox-friendly structure.

Every generator returns a :class:`ProblemSpec` with f, the conjugate-side
function g* (value map registered analytically, prox obtained through the
Moreau identity when the problem is stated via g), the coupling operator,
and, where available, an exact saddle point for oracle-free certificates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import prox as _prox
from .certificates import KKTPoint, kkt_residual, make_kkt
from .hilbert import (ForwardDifferenceOperator, LinearOperator,
                      MatrixOperator, PPoint, as_vector, load_matrix)
from .prox import ProxFn, rowwise
from .solver import Validity, run, validate_params

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


# Iterations per block of the long-run oracle: bounds its stored history.
_ORACLE_BLOCK = 512


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

    def __post_init__(self):
        if self.kkt is not None:
            star = self.kkt.star
            if star.x.shape[0] != self.L.cols or star.y.shape[0] != self.L.rows:
                raise ValueError("saddle point dimensions do not match the operator")
            res = kkt_residual(self, star)
            if res > 1e-8:
                raise ValueError(f"stored saddle point has residual {res:.3e} > 1e-8")


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
    return ProblemSpec(problem.name, problem.f, problem.gstar, L,
                       kkt=kkt, metadata=problem.metadata)


def make_lasso(A: LinearOperator, b, lam: float) -> ProblemSpec:
    """f = lam*||.||_1, g = 0.5||. - b||^2 composed with A.

    g*(y) = 0.5||y||^2 + <y, b>; its prox follows from g by Moreau. No
    closed-form saddle point; use :func:`kkt_by_long_run`.
    """
    b = as_vector(b)
    if b.shape[0] != A.rows:
        raise ValueError("data dimension does not match the operator")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    g = _prox.quadratic_distance(b)

    def gstar_value(y):
        y = np.asarray(y)
        if y.ndim == 2:
            # One dot product per row, as for a single point: a matrix
            # product sums in another order, and near the saddle point the
            # gap is at rounding level, so that order would change it.
            return np.array([gstar_value(row) for row in y])
        return 0.5 * float(y @ y) + float(y @ b)

    gstar = _prox.conjugate(g, evaluate=gstar_value)
    return ProblemSpec(
        name="lasso",
        f=_prox.l1(lam),
        gstar=gstar,
        L=A,
        metadata={"generator": "lasso", "lam": lam},
    )


def make_tv1d(signal, lam: float) -> ProblemSpec:
    """1-D total-variation denoising: f = 0.5||. - signal||^2, g = lam*||.||_1,
    L = forward differences.

    g* is the indicator of the box ||y||_inf <= lam; its prox (the box
    projection) again follows from g by Moreau. The operator bound is the
    safe analytic value 2.
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
    return ProblemSpec(
        name="tv1d",
        f=_prox.quadratic_distance(signal),
        gstar=gstar,
        L=ForwardDifferenceOperator(signal.shape[0]),
        metadata={"generator": "tv1d", "lam": lam},
    )


def kkt_by_long_run(problem: ProblemSpec, params, iters: int,
                    stop_tol: float = 1e-13, accept_tol: float = 1e-6) -> KKTPoint:
    """Approximate saddle point from a long solver run (oracle construction).

    Run far past the horizon of the experiment the point will serve (at
    least 10x). The run goes in blocks of ``_ORACLE_BLOCK`` iterations, each
    continuing from the last one's final point, so memory stays bounded;
    the iteration is memoryless and the stop rule is checked on every step,
    so the point is the one a single run of ``iters`` steps ends at. The
    returned point carries its measured fixed-point residual; a residual
    above ``accept_tol`` rejects the oracle outright with
    :class:`OracleRejectedError`.
    """
    status = validate_params(params)
    if status.kind is not Validity.STRICTLY_VALID:
        raise ValueError(f"long-run oracle needs StrictlyValid parameters, got {status}")
    z = PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    done = 0
    while True:
        traj = run(problem, params, z, min(_ORACLE_BLOCK, iters - done),
                   stop_tol=stop_tol)
        z = traj.final
        done += traj.n_iters
        if traj.stopped_at is not None or done >= iters:
            break
    star = PPoint(z.x.copy(), z.y.copy())  # do not pin the last block
    res = kkt_residual(problem, star)
    if res > accept_tol:
        raise OracleRejectedError(
            f"long-run oracle rejected: residual {res:.3e} > {accept_tol:g} "
            f"after {done} iterations"
        )
    return make_kkt(problem, star, check_tol=None, residual=res)


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


def is_finite_number(v) -> bool:
    """A JSON number that is a finite float: not a bool, NaN, an infinity
    (Python's json parses Infinity and NaN) or an int too large for a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _param(params: dict, key: str, kind, default=None):
    """``kind(params[key])`` for a JSON number (or a string, for kind str).

    A missing key without a default, or a value of another JSON type, is a
    ValueError naming the parameter.
    """
    v = params.get(key, default)
    if kind is str:
        ok = isinstance(v, str)
    else:
        ok = is_finite_number(v)
    if not ok:
        what = "a string" if kind is str else "a finite number"
        raise ValueError(f"generator parameter {key!r} must be {what}, got {v!r}")
    return kind(v)


def _vector_param(params: dict, key: str) -> np.ndarray:
    """``params[key]`` as a vector: it must be a JSON list of finite numbers."""
    v = params.get(key)
    if not (isinstance(v, list) and all(map(is_finite_number, v))):
        raise ValueError(f"generator parameter {key!r} must be a list of finite "
                         f"numbers, got {v!r}")
    return np.array(v, dtype=float)


def _build_quadratic(params: dict) -> ProblemSpec:
    if "matrix" in params:
        L = MatrixOperator(load_matrix(_param(params, "matrix", str)))
        return make_quadratic(L, _vector_param(params, "a"), _vector_param(params, "b"))
    return random_quadratic(_param(params, "rows", int), _param(params, "cols", int),
                            _param(params, "seed", int, 0))


def _build_lasso(params: dict) -> ProblemSpec:
    lam = _param(params, "lam", float)
    if "matrix" in params:
        A = MatrixOperator(load_matrix(_param(params, "matrix", str)))
        return make_lasso(A, _vector_param(params, "b"), lam)
    return random_lasso(_param(params, "rows", int), _param(params, "cols", int), lam,
                        _param(params, "seed", int, 0))


def _build_tv1d(params: dict) -> ProblemSpec:
    lam = _param(params, "lam", float)
    if "signal" in params:
        p = make_tv1d(_vector_param(params, "signal"), lam)
    else:
        sig = default_tv_signal(_param(params, "n", int), _param(params, "seed", int, 0),
                                _param(params, "noise", float, 0.05))
        p = make_tv1d(sig, lam)
    p.metadata.update({k: params[k] for k in ("n", "seed") if k in params})
    return p


GENERATORS = {
    "quadratic": _build_quadratic,
    "lasso": _build_lasso,
    "tv1d": _build_tv1d,
}


def problem_from_config(cfg: dict) -> ProblemSpec:
    """Build a problem from {"generator": name, "params": {...}}.

    A problem definition may also live in its own JSON file, referenced as
    {"file": path}.
    """
    if isinstance(cfg, dict) and "file" in cfg and "generator" not in cfg:
        with open(cfg["file"], "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    try:
        name = cfg["generator"]
    except (KeyError, TypeError):
        raise ValueError("problem config needs a 'generator' key") from None
    builder = GENERATORS.get(name) if isinstance(name, str) else None
    if builder is None:
        raise ValueError(f"unknown generator {name!r}; available: {sorted(GENERATORS)}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"generator params must be an object, got {params!r}")
    return builder(params)
