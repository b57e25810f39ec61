"""Finite-dimensional Hilbert space primitives.

Dense float64 vectors, primal-dual points, linear operators with explicit
adjoints and an operator-norm bound, deterministic norm estimation by
Golub-Kahan-Lanczos bidiagonalization, and plain-text matrix input.
"""

from __future__ import annotations

import itertools
import math
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

# Inflation of the Lanczos estimate, a Ritz value that converges from below;
# the result is still an estimate (see MatrixOperator).
_NORM_SAFETY = 1.0 + 1e-8

# Rows per block of the Lanczos bases, which grow a block at a time.
_BASIS_BLOCK = 32

# Machine epsilon, and the relative margin above the top eigenvalue of the
# small tridiagonal at which its shifted factorizations are taken.
_EPS = 2.0 ** -52
_MARGIN = 2.0 ** -40


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
    norm, either supplied exactly (structured operators) or a Lanczos
    estimate (see :class:`MatrixOperator`).
    """

    def __init__(self, rows: int, cols: int, norm_bound: float):
        if rows < 1 or cols < 1:
            raise ValueError("operator dimensions must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.norm_bound = _checked_bound(norm_bound)

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


def _checked_bound(norm_bound) -> float:
    """``norm_bound`` as a float, which must be finite and nonnegative."""
    bound = float(norm_bound)
    if not math.isfinite(bound) or bound < 0:
        raise ValueError(f"norm_bound must be finite and nonnegative, got {bound!r}")
    return bound


class MatrixOperator(LinearOperator):
    """Dense-matrix operator. The adjoint is the transpose.

    Without ``norm_bound`` the bound is :func:`estimate_norm` times
    1 + 1e-8. That is an estimate, not a certified upper bound: the
    Lanczos value is a Ritz value, which approaches ||L|| from below and
    stops on a residual. It has been measured within 2.6e-15 (relative)
    of ``np.linalg.norm(A, 2)`` on the 900x600 Gaussian matrices of
    seeds 0 and 97 and on 900x600 matrices whose sigma_1 - sigma_2 runs
    from 1e-2 to 1e-9, so the bound lay about 1e-8 above ||L|| on each.
    The bound, given or estimated, must be finite and nonnegative, as
    :class:`LinearOperator` checks: a matrix whose norm overflows the
    float range is refused.

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
            self.norm_bound = _checked_bound(estimate_norm(self) * _NORM_SAFETY)

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
    """Largest singular value of ``L`` by Golub-Kahan-Lanczos bidiagonalization.

    Step k makes one :meth:`~LinearOperator.apply` and one
    :meth:`~LinearOperator.apply_adjoint`, each reorthogonalized in full
    against the bases kept so far, U_k and V_k (Golub & Kahan, SIAM J.
    Numer. Anal. B 2 (1965)). L V_k = U_k B_k for the upper-bidiagonal
    B_k, and the top singular triple (s, p, q) of B_k leaves the residual
    beta_{k+1} |e_k' p| in L' U_k p - s V_k q. The bases grow in blocks of
    ``_BASIS_BLOCK`` rows, so k steps hold O(k (rows + cols)) floats.

    Parameters
    ----------
    L : LinearOperator
        Operator to measure.
    tol : float
        The steps stop when that residual is at most ``tol * s``. They
        also stop on breakdown, a new Lanczos vector of norm at most
        ``tol * s`` (L then maps the kept bases into each other), and
        after min(rows, cols) steps, where a basis spans its space.
    max_iters : int
        Cap on the Lanczos steps, at least 1. Non-convergence is reported
        with a RuntimeWarning and the current estimate is returned, never
        silently.

    Returns
    -------
    float
        The top singular value of U_k' L V_{k+1}, the bidiagonal B_k with
        its column beta_{k+1} e_k: a Ritz value, so it approaches ||L||
        from below. The start vector is seeded from the operator shape, so
        repeated calls are reproducible. ``inf`` when a Lanczos vector
        overflows the float range.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    last = min(L.rows, L.cols)
    us, vs = _Basis(L.rows, last), _Basis(L.cols, last)
    v = np.random.default_rng([L.rows, L.cols]).standard_normal(L.cols)
    v /= _norm(v)
    vs.add(v)
    u = L.apply(v)
    alpha = _norm(u)
    if alpha == 0.0:
        return 0.0
    alphas, betas = [], []
    for k in range(1, last + 1):
        if not math.isfinite(alpha):
            return math.inf
        u = u / alpha
        us.add(u)
        alphas.append(alpha)
        w = vs.orthogonalize(L.apply_adjoint(u) - alpha * v)
        beta = _norm(w)
        if not math.isfinite(beta):
            return math.inf
        betas.append(beta)
        s, q_last = _top_right(alphas, betas[:-1])
        # e_k' p = alpha_k q_k / s: B_k's last row holds alpha_k alone
        if beta * (alpha * q_last / s) <= tol * s or k == last:
            break
        if k == max_iters:
            warnings.warn(
                f"Lanczos bidiagonalization did not converge to rel. tol {tol:g} "
                f"within {max_iters} steps; returning current estimate", RuntimeWarning)
            break
        v = w / beta
        vs.add(v)
        u = us.orthogonalize(L.apply(v) - beta * u)
        alpha = _norm(u)
        if alpha <= tol * s:  # breakdown: L maps V_{k+1} into the span of U_k
            break
    return _top_right(alphas, betas)[0]


def _top_right(alphas: list, betas: list) -> tuple[float, float]:
    """The top singular value s of the upper-bidiagonal matrix with
    ``alphas`` on its diagonal and ``betas`` above it (k x k, or k x (k + 1)
    when ``betas`` holds k values), and |q_n|, the last entry of its right
    singular vector q.

    s**2 is the top eigenvalue of the tridiagonal T = M'M, which Laguerre's
    method reaches from Gershgorin's bound above it, decreasing
    monotonically because T's eigenvalues are real; q comes from two steps
    of inverse iteration at a shift just above s**2. Both read the LDL'
    pivots of shift*I - T, in floats, because the first LAPACK call in a
    process maps about 1.5 MB of code (a 60x60 SVD, measured). The entries
    are first scaled by a power of two, so their squares neither over- nor
    underflow.
    """
    e = math.frexp(max(alphas + betas))[1]
    n = len(betas) + 1
    a = [math.ldexp(x, -e) for x in alphas] + [0.0] * (n - len(alphas))
    b = [0.0] + [math.ldexp(x, -e) for x in betas]
    diag = [x * x + y * y for x, y in zip(a, b)]
    off = [x * y for x, y in zip(a, b[1:])]
    # 2**-40 relative lies far above the pivots' rounding, so lam*I - T is
    # definite at Gershgorin's bound and at the inverse iteration's shift
    lam = max(t + abs(u) + abs(w) for t, u, w in zip(diag, [0.0] + off, off + [0.0]))
    lam *= 1.0 + _MARGIN
    while (step := _laguerre_step(lam, diag, off)) is not None:
        lam -= step
        if step <= _EPS * lam:
            break
    x = [1.0] * n
    for _ in range(2):
        x = _shifted_solve(lam * (1.0 + _MARGIN), diag, off, x)
        size = math.hypot(*x)
        x = [v / size for v in x]
    return math.ldexp(math.sqrt(lam), e), abs(x[-1])


def _laguerre_step(lam: float, diag: list, off: list) -> float | None:
    """Laguerre's step down toward the top eigenvalue of the tridiagonal
    (``diag``, ``off``) from ``lam`` above it, or None when the pivots of
    lam*I - T show that lam is not above it.

    With p = det(lam*I - T) = D_1 ... D_n, g = p'/p = sum D_i'/D_i and
    h = g**2 - p''/p = sum (D_i'/D_i)**2 - D_i''/D_i, carried through the
    pivot recurrence D_i = lam - t_i - o_{i-1}**2 / D_{i-1}.
    """
    n = len(diag)
    d, d1, d2 = lam - diag[0], 1.0, 0.0
    if not d > 0.0:
        return None
    g = 1.0 / d
    h = g * g
    for t, o in zip(diag[1:], off):
        r = o * o / (d * d)
        d2 = r * (d2 - 2.0 * d1 * d1 / d)
        d1 = 1.0 + r * d1
        d = lam - t - o * o / d
        if not d > 0.0:
            return None
        ratio = d1 / d
        g += ratio
        h += ratio * ratio - d2 / d
    return n / (g + math.sqrt(max((n - 1) * (n * h - g * g), 0.0)))


def _shifted_solve(shift: float, diag: list, off: list, rhs: list) -> list:
    """(shift*I - T) x = rhs for the tridiagonal T (``diag``, ``off``), by
    its LDL' factorization; shift*I - T must be positive definite."""
    pivots, mults, y = [shift - diag[0]], [], [rhs[0]]
    for t, o, r in zip(diag[1:], off, rhs[1:]):
        mult = -o / pivots[-1]
        mults.append(mult)
        pivots.append(shift - t + o * mult)
        y.append(r - mult * y[-1])
    x = [y[-1] / pivots[-1]]
    for yi, di, mult in zip(y[-2::-1], pivots[-2::-1], mults[::-1]):
        x.append(yi / di - mult * x[-1])
    return x[::-1]


def _norm(v: np.ndarray) -> float:
    """||v||_2 with no under- or overflow of the squares: v is scaled by an
    exact power of two to a largest entry in [1/2, 1) first."""
    big = float(np.max(np.abs(v)))
    if not 0.0 < big < math.inf:
        return big
    e = math.frexp(big)[1]
    w = np.ldexp(v, -e)
    return math.ldexp(math.sqrt(float(w @ w)), e)


class _Basis:
    """Orthonormal vectors of one length, as the rows of blocks of
    ``_BASIS_BLOCK`` rows allocated as they fill, at most ``cap`` in all."""

    def __init__(self, dim: int, cap: int):
        self._dim, self._cap = dim, cap
        self._blocks = []
        self._count = 0

    def add(self, row: np.ndarray):
        free = self._count % _BASIS_BLOCK
        if free == 0:
            size = min(_BASIS_BLOCK, self._cap - self._count)
            self._blocks.append(np.empty((size, self._dim)))
        self._blocks[-1][free] = row
        self._count += 1

    def orthogonalize(self, w: np.ndarray) -> np.ndarray:
        """``w`` less its projection on the rows, by classical Gram-Schmidt
        twice over ("twice is enough": Giraud, Langou, Rozloznik & van den
        Eshof, Numer. Math. 101 (2005)); overwrites ``w``."""
        for _ in range(2):
            for i, block in enumerate(self._blocks):
                rows = block[:self._count - i * _BASIS_BLOCK]
                w -= (rows @ w) @ rows
        return w


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
