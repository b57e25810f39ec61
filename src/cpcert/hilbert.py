"""Finite-dimensional Hilbert space primitives.

Dense float64 vectors, primal-dual points, linear operators with explicit
adjoints and an operator-norm bound, deterministic power-iteration norm
estimation, and plain-text matrix input.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PPoint",
    "LinearOperator",
    "MatrixOperator",
    "ForwardDifferenceOperator",
    "as_vector",
    "estimate_norm",
    "load_matrix",
]

# Inflation of power-iteration estimates, which converge from below; the
# result is still an estimate (see MatrixOperator).
_NORM_SAFETY = 1.0 + 1e-8


def as_vector(v) -> np.ndarray:
    """Coerce ``v`` to a 1-D float64 array, rejecting non-finite entries."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


def as_operand(v) -> np.ndarray:
    """Coerce ``v`` to one float64 vector (n,) or a stack of them (k, n).

    Does not scan entries: for operator and prox inputs inside the solver
    loop, whose data were validated at problem construction and whose
    iterates are checked for finiteness once per iteration by
    :func:`cpcert.solver.run`.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1)
    if arr.ndim > 2:
        raise ValueError(f"expected a vector or a stack of vectors, got array "
                         f"of shape {arr.shape}")
    return arr


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


class LinearOperator:
    """A bounded linear map L : R^cols -> R^rows with explicit adjoint.

    Subclasses implement :meth:`apply` and :meth:`apply_adjoint`. Both act
    on the last axis: a vector gives a vector, and a stack of cells' vectors
    (k, n) gives each row the bits of its own single-vector apply, so no
    product may mix rows (:class:`MatrixOperator` says how a dense one
    keeps them apart). They check the input dimension but do not scan
    entries for finiteness.
    :meth:`apply_stack`, the image of a run's history, is :meth:`apply` on
    the stack unless a subclass has a faster form (see
    :class:`MatrixOperator`). ``norm_bound`` is a bound on the operator
    norm, either supplied exactly (structured operators) or a
    power-iteration estimate (see :class:`MatrixOperator`).
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
        """Apply to each row of ``xs`` (shape (k, cols)) -> shape (k, rows).

        For a history of one run: in a subclass's own form, the rounding of
        a row may depend on the rows around it (see :class:`MatrixOperator`).
        The result is a new array, which the caller may overwrite (the
        certifier does).
        """
        return self.apply(xs)

    def _check_domain(self, x: np.ndarray):
        if x.shape[-1] != self.cols:
            raise ValueError(f"dimension mismatch: operator expects {self.cols}, got {x.shape[-1]}")

    def _check_range(self, y: np.ndarray):
        if y.shape[-1] != self.rows:
            raise ValueError(f"dimension mismatch: adjoint expects {self.rows}, got {y.shape[-1]}")


class MatrixOperator(LinearOperator):
    """Dense-matrix operator. The adjoint is the transpose.

    Without ``norm_bound`` the bound is :func:`estimate_norm` times
    1 + 1e-8. That is an estimate, not a certified upper bound: power
    iteration stops on relative change, and when the top singular values
    cluster it has been measured up to 1.0e-4 (relative) below ||L||
    with no warning raised (40x40 matrices, sigma_1 - sigma_2 from 1e-9
    to 1e-2). A given ``norm_bound`` must be finite and nonnegative, as
    :class:`LinearOperator` checks.

    :meth:`apply` and :meth:`apply_adjoint` multiply the matrix into a
    stack of column vectors (k, n, 1): a stacked matmul makes one
    matrix-vector product (BLAS gemv) per row, so each row gets the bits
    of ``matrix @ row``. One matrix-matrix product (gemm) over the rows
    would round each row differently, and by the rows around it.
    :meth:`apply_stack` is that gemm over a history.
    """

    def __init__(self, matrix, norm_bound: float | None = None):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        self._a = a.copy()
        self._a.flags.writeable = False
        super().__init__(a.shape[0], a.shape[1], 0.0 if norm_bound is None else norm_bound)
        if norm_bound is None:
            self.norm_bound = float(estimate_norm(self) * _NORM_SAFETY)

    @property
    def matrix(self) -> np.ndarray:
        return self._a

    def apply(self, x):
        x = as_operand(x)
        self._check_domain(x)
        return (self._a @ x[..., None])[..., 0]

    def apply_adjoint(self, y):
        y = as_operand(y)
        self._check_range(y)
        return (self._a.T @ y[..., None])[..., 0]

    def apply_stack(self, xs):
        return xs @ self._a.T


class ForwardDifferenceOperator(LinearOperator):
    """1-D forward differences (Lx)_i = x_{i+1} - x_i, R^n -> R^{n-1}.

    The bound is the safe analytic value 2 (the exact norm is
    2 sin(pi (n-1) / (2n)) < 2; overestimating only shrinks the admissible
    step-size product).
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("forward differences need n >= 2")
        super().__init__(n - 1, n, 2.0)

    def apply(self, x):
        x = as_operand(x)
        self._check_domain(x)
        return x[..., 1:] - x[..., :-1]  # np.diff's arithmetic without its call overhead

    def apply_adjoint(self, y):
        y = as_operand(y)
        self._check_range(y)
        out = np.zeros(y.shape[:-1] + (self.cols,))
        out[..., :-1] -= y
        out[..., 1:] += y
        return out


def estimate_norm(L: LinearOperator, tol: float = 1e-10,
                  max_iters: int = 10000) -> float:
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

    Returns
    -------
    float
        Estimate of ||L||; converges to the true value from below. The
        start vector is seeded from the operator shape, so repeated calls
        are reproducible.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng([L.rows, L.cols])
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


# Characters of matrix text that :func:`load_matrix` splits and converts
# at a time.
_TEXT_CHUNK = 1 << 16


def load_matrix(path) -> np.ndarray:
    """Read a dense matrix from plain text: first line "rows cols", two
    integers >= 1, then row-major whitespace-separated decimals.

    The text is split and converted in chunks of ``_TEXT_CHUNK``
    characters into one preallocated array, so memory holds the matrix and
    one chunk's tokens, however the entries are laid out in lines."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _read_matrix(path, fh)
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None


def _read_matrix(path, fh) -> np.ndarray:
    chunks = _token_chunks(fh)
    tokens = []
    for chunk in chunks:  # up to the two header tokens
        tokens += chunk
        if len(tokens) >= 2:
            break
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'rows cols' header")
    header, tokens = tokens[:2], tokens[2:]
    if not all(t.isascii() and t.isdigit() and int(t) >= 1 for t in header):
        raise ValueError(f"{path}: header 'rows cols' must be integers >= 1, "
                         f"got {' '.join(header)!r}")
    rows, cols = map(int, header)
    # a file of n bytes holds fewer than n // 2 + 1 entries, so a header
    # larger than its file allocates no more (a pipe has size 0: no bound)
    size = os.fstat(fh.fileno()).st_size
    out = np.empty(min(rows * cols, size // 2 + 1) if size else rows * cols)
    found = 0
    for chunk in itertools.chain([tokens], chunks):
        room = out[found:found + len(chunk)]
        try:
            room[:] = np.array(chunk[:len(room)], dtype=float)
        except ValueError as e:  # an entry that is not a decimal
            raise ValueError(f"{path}: {e}") from None
        found += len(chunk)
    if found != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, found {found}")
    return out.reshape(rows, cols)


def _token_chunks(fh):
    """The whitespace-separated tokens of the text file ``fh``, as one list
    per ``_TEXT_CHUNK`` characters read; a token cut by a chunk's end is
    carried into the next list."""
    carry = ""
    while text := fh.read(_TEXT_CHUNK):
        tokens = (carry + text).split()
        carry = "" if text[-1].isspace() else tokens.pop()
        yield tokens
    if carry:
        yield [carry]
