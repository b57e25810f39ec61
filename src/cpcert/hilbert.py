"""Finite-dimensional Hilbert space primitives.

Dense float64 vectors, linear operators with explicit adjoints and a
certified operator-norm bound, deterministic power-iteration norm
estimation, and the step-size weighted quadratic form

    ||(x, y)||_P^2 = (1/tau)||x||^2 + (1/sigma)||y||^2 - (1+theta)<Lx, y>

used throughout the convergence certificates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_NORM_SAFETY",
    "PPoint",
    "LinearOperator",
    "MatrixOperator",
    "IdentityOperator",
    "ZeroOperator",
    "ForwardDifferenceOperator",
    "as_vector",
    "dot",
    "estimate_norm",
    "p_quadratic_form",
    "p_inner",
    "load_matrix",
    "save_matrix",
]

# Inflation applied to power-iteration estimates so the stored bound is an
# upper bound on ||L|| (estimates converge from below).
DEFAULT_NORM_SAFETY = 1.0 + 1e-8


def as_vector(v) -> np.ndarray:
    """Coerce ``v`` to a 1-D float64 array, rejecting non-finite entries."""
    arr = as_vector_unchecked(v)
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


def as_vector_unchecked(v) -> np.ndarray:
    """Coerce ``v`` to a 1-D float64 array without scanning its entries.

    For operator and prox inputs inside the solver loop, whose data were
    validated at problem construction and whose iterates are checked for
    finiteness once per iteration by :func:`cpcert.solver.run`.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {arr.shape}")
    return arr


def dot(a, b) -> float:
    """Canonical inner product sum_i a_i b_i."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(a @ b)


@dataclass(frozen=True)
class PPoint:
    """A primal-dual pair (x, y) in the product space H x G."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))
        object.__setattr__(self, "y", as_vector(self.y))

    def __sub__(self, other: "PPoint") -> "PPoint":
        return PPoint(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        """Canonical product norm sqrt(||x||^2 + ||y||^2)."""
        return float(np.sqrt(self.x @ self.x + self.y @ self.y))


class LinearOperator:
    """A bounded linear map L : R^cols -> R^rows with explicit adjoint.

    Subclasses implement :meth:`apply` and :meth:`apply_adjoint`. Both
    check the input dimension but do not scan entries for finiteness.
    ``norm_bound`` is a certified upper bound on the operator norm; it is
    either supplied exactly (structured operators) or set to a
    power-iteration estimate inflated by a small safety factor.
    """

    def __init__(self, rows: int, cols: int, norm_bound: float):
        if rows < 1 or cols < 1:
            raise ValueError("operator dimensions must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.norm_bound = float(norm_bound)
        if not np.isfinite(self.norm_bound) or self.norm_bound < 0:
            raise ValueError("norm_bound must be finite and nonnegative")

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_stack(self, xs: np.ndarray) -> np.ndarray:
        """Apply to each row of ``xs`` (shape (k, cols)) -> shape (k, rows)."""
        return np.stack([self.apply(x) for x in xs])

    def as_matrix(self) -> np.ndarray:
        """Dense (rows, cols) matrix representation."""
        return self.apply_stack(np.eye(self.cols)).T

    def _check_domain(self, x: np.ndarray):
        if x.shape[0] != self.cols:
            raise ValueError(f"dimension mismatch: operator expects {self.cols}, got {x.shape[0]}")

    def _check_range(self, y: np.ndarray):
        if y.shape[0] != self.rows:
            raise ValueError(f"dimension mismatch: adjoint expects {self.rows}, got {y.shape[0]}")


class MatrixOperator(LinearOperator):
    """Dense-matrix operator. The adjoint is the transpose."""

    def __init__(self, matrix, norm_bound: float | None = None,
                 norm_safety: float = DEFAULT_NORM_SAFETY):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        self._a = a.copy()
        self._a.flags.writeable = False
        super().__init__(a.shape[0], a.shape[1], 0.0)
        if norm_bound is None:
            norm_bound = estimate_norm(self) * norm_safety
        self.norm_bound = float(norm_bound)

    @property
    def matrix(self) -> np.ndarray:
        return self._a

    def apply(self, x):
        x = as_vector_unchecked(x)
        self._check_domain(x)
        return self._a @ x

    def apply_adjoint(self, y):
        y = as_vector_unchecked(y)
        self._check_range(y)
        return self._a.T @ y

    def apply_stack(self, xs):
        return xs @ self._a.T

    def as_matrix(self):
        return self._a


class IdentityOperator(LinearOperator):
    """Identity on R^n; exact norm 1."""

    def __init__(self, n: int):
        super().__init__(n, n, 1.0)

    def apply(self, x):
        x = as_vector_unchecked(x)
        self._check_domain(x)
        return x.copy()

    apply_adjoint = apply

    def apply_stack(self, xs):
        return xs.copy()


class ZeroOperator(LinearOperator):
    """Zero map R^cols -> R^rows; exact norm 0."""

    def __init__(self, rows: int, cols: int):
        super().__init__(rows, cols, 0.0)

    def apply(self, x):
        x = as_vector_unchecked(x)
        self._check_domain(x)
        return np.zeros(self.rows)

    def apply_adjoint(self, y):
        y = as_vector_unchecked(y)
        self._check_range(y)
        return np.zeros(self.cols)

    def apply_stack(self, xs):
        return np.zeros((xs.shape[0], self.rows))


class ForwardDifferenceOperator(LinearOperator):
    """1-D forward differences (Lx)_i = x_{i+1} - x_i, R^n -> R^{n-1}.

    The certified bound is the safe analytic value 2 (the exact norm is
    2 sin(pi (n-1) / (2n)) < 2; overestimating only shrinks the admissible
    step-size product).
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("forward differences need n >= 2")
        super().__init__(n - 1, n, 2.0)

    def apply(self, x):
        x = as_vector_unchecked(x)
        self._check_domain(x)
        return x[1:] - x[:-1]  # np.diff's arithmetic without its call overhead

    def apply_adjoint(self, y):
        y = as_vector_unchecked(y)
        self._check_range(y)
        out = np.zeros(self.cols)
        out[:-1] -= y
        out[1:] += y
        return out

    def apply_stack(self, xs):
        return np.diff(xs, axis=1)


def estimate_norm(L: LinearOperator, tol: float = 1e-10,
                  max_iters: int = 10000, seed=None) -> float:
    """Largest singular value of ``L`` by power iteration on L*L.

    Parameters
    ----------
    L : LinearOperator
        Operator to measure.
    tol : float
        Relative tolerance on successive estimates; on matrices with a
        spectral gap the returned value has relative error <= tol.
    max_iters : int
        Iteration cap. Non-convergence is reported with a RuntimeWarning
        and the current estimate is returned, never silently.
    seed : optional
        RNG seed for the start vector; defaults to a seed derived from the
        operator shape so repeated calls are reproducible.

    Returns
    -------
    float
        Estimate of ||L||; converges to the true value from below.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng([L.rows, L.cols] if seed is None else seed)
    v = rng.standard_normal(L.cols)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iters):
        u = L.apply(v)
        s = float(np.linalg.norm(u))  # sqrt(v' L'L v), Rayleigh estimate
        if s == 0.0:
            return 0.0
        if abs(s - sigma) <= tol * s:
            return s
        sigma = s
        w = L.apply_adjoint(u)
        v = w / np.linalg.norm(w)
    warnings.warn(
        f"power iteration did not converge to rel. tol {tol:g} within "
        f"{max_iters} iterations; returning current estimate {sigma:.17g}",
        RuntimeWarning,
    )
    return sigma


def _check_point(z: PPoint, L: LinearOperator):
    if z.x.shape[0] != L.cols or z.y.shape[0] != L.rows:
        raise ValueError(
            f"point dims ({z.x.shape[0]}, {z.y.shape[0]}) do not match "
            f"operator dims ({L.cols}, {L.rows})"
        )


def p_quadratic_form(z: PPoint, L: LinearOperator, params) -> float:
    """Quadratic form (1/tau)||x||^2 + (1/sigma)||y||^2 - (1+theta)<Lx, y>.

    ``params`` is anything with ``tau``, ``sigma``, ``theta`` attributes,
    typically a :class:`cpcert.solver.SolverParams`. Nonnegative for all z
    whenever the step-size product condition holds.
    """
    _check_point(z, L)
    return (
        float(z.x @ z.x) / params.tau
        + float(z.y @ z.y) / params.sigma
        - (1.0 + params.theta) * float(L.apply(z.x) @ z.y)
    )


def p_inner(z1: PPoint, z2: PPoint, L: LinearOperator, params) -> float:
    """Symmetric bilinear form polarizing :func:`p_quadratic_form`."""
    _check_point(z1, L)
    _check_point(z2, L)
    return (
        float(z1.x @ z2.x) / params.tau
        + float(z1.y @ z2.y) / params.sigma
        - 0.5 * (1.0 + params.theta)
        * (float(L.apply(z1.x) @ z2.y) + float(L.apply(z2.x) @ z1.y))
    )


def load_matrix(path) -> np.ndarray:
    """Read a dense matrix from plain text: first line "rows cols", then
    row-major whitespace-separated decimals."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    data = tokens[2:]
    if len(data) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, found {len(data)}")
    return np.array(data, dtype=float).reshape(rows, cols)


def save_matrix(path, a) -> None:
    """Write a dense matrix in the plain-text format read by :func:`load_matrix`."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
