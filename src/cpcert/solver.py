"""Primal-dual (Chambolle-Pock) iteration with step-size validation.

The iteration for the saddle-point problem min_x max_y f(x) + <Lx, y> - g*(y):

    x_{k+1} = prox_{tau f}(x_k - tau L* y_k)
    y_{k+1} = prox_{sigma g*}(y_k + sigma L(x_{k+1} + theta (x_{k+1} - x_k)))

with relaxation 0 < theta <= 1. The admissible step-size region is

    sigma * tau * ||L||^2 <= 4 theta (2 - theta) / (1 - 2 theta + 9 theta^2 - 4 theta^3),

non-strict for the ergodic duality-gap rate, strict for iterate convergence.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import PPoint, as_vector

__all__ = [
    "NonFiniteIterateError",
    "Validity",
    "SolverParams",
    "ParamStatus",
    "Trajectory",
    "find_cycle",
    "tile_cycle",
    "RunBatch",
    "bound_rhs",
    "running_averages",
    "fixed_point_residual",
    "validate_params",
    "suggest_steps",
    "step",
    "run",
    "EQUALITY_RTOL",
]

# Relative tolerance for classifying the boundary case product == bound.
EQUALITY_RTOL = 1e-12


class NonFiniteIterateError(RuntimeError):
    """The iteration produced a non-finite prox argument or iterate.

    ``iteration`` counts from the start point of the run that raised it.
    """

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate produced at iteration {iteration}")
        self.iteration = iteration


class Validity(enum.Enum):
    STRICTLY_VALID = "StrictlyValid"
    ERGODIC_ONLY = "ErgodicOnly"
    INVALID = "Invalid"


@dataclass(frozen=True)
class SolverParams:
    """Step sizes (tau, sigma), relaxation theta, and the ||L|| bound.

    ``operator_norm`` is taken as an upper bound on ||L||. For a
    :class:`~cpcert.hilbert.MatrixOperator` it is a Lanczos estimate times
    1 + 1e-8, not a verified bound: the estimate has been measured within
    2.6e-15 (relative) of ||L||, so the bound about 1e-8 above it.
    """

    tau: float
    sigma: float
    theta: float
    operator_norm: float

    def __post_init__(self):
        for name in ("tau", "sigma", "theta", "operator_norm"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.tau <= 0 or self.sigma <= 0:
            raise ValueError("tau and sigma must be strictly positive")
        if self.operator_norm < 0:
            raise ValueError("operator_norm must be nonnegative")

    @property
    def product(self) -> float:
        """sigma * tau * ||L||^2, the quantity the step-size condition bounds."""
        return self.sigma * self.tau * self.operator_norm ** 2


@dataclass(frozen=True)
class ParamStatus:
    """Classification of solver parameters against the step-size condition.

    ``p_positivity_product`` is sigma*tau*||L||^2*(1+theta)^2; the weighted
    quadratic form is positive semidefinite iff it is <= 4, which the
    step-size condition implies.
    """

    kind: Validity
    bound_rhs: float
    product: float
    margin: float
    p_positivity_product: float
    p_positivity_ok: bool

    def __str__(self):
        return (
            f"{self.kind.value}(product={self.product:.6g}, "
            f"bound={self.bound_rhs:.6g}, margin={self.margin:.6g})"
        )


def bound_rhs(theta: float) -> float:
    """Right-hand side 4 theta (2-theta) / (1 - 2 theta + 9 theta^2 - 4 theta^3).

    Defined for 0 < theta <= 1; the denominator is positive there since it
    equals (1-theta)^2 + 4 theta^2 (2-theta). At theta = 1 the value is 1,
    recovering the classical condition sigma*tau*||L||^2 < 1.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    num, den = _region_terms(theta)
    return num / den


def _region_terms(theta: float) -> tuple[float, float]:
    """The numerator and denominator of :func:`bound_rhs`, as it states them."""
    return (4.0 * theta * (2.0 - theta),
            1.0 - 2.0 * theta + 9.0 * theta ** 2 - 4.0 * theta ** 3)


def validate_params(p: SolverParams) -> ParamStatus:
    """Classify (tau, sigma, theta, ||L||) against the step-size condition.

    StrictlyValid: 0 < theta <= 1 and product strictly below the bound.
    ErgodicOnly: product equals the bound within EQUALITY_RTOL relative.
    Invalid: anything else. Invalid is a value, not an error.
    """
    product = p.product
    corner = product * (1.0 + p.theta) ** 2
    if not 0.0 < p.theta <= 1.0:
        return ParamStatus(Validity.INVALID, math.nan, product, math.nan,
                           corner, False)
    rhs = bound_rhs(p.theta)
    margin = rhs - product
    corner_ok = corner <= 4.0 * (1.0 + EQUALITY_RTOL)
    if abs(product - rhs) <= EQUALITY_RTOL * rhs:
        kind = Validity.ERGODIC_ONLY
    elif product < rhs:
        kind = Validity.STRICTLY_VALID
    else:
        kind = Validity.INVALID
    return ParamStatus(kind, rhs, product, margin, corner, corner_ok)


def suggest_steps(theta: float, operator_norm: float, safety: float = 0.99,
                  ratio: float = 1.0) -> tuple[float, float]:
    """Pick (tau, sigma) with sigma*tau*||L||^2 = safety * bound and tau/sigma = ratio.

    ``safety`` in (0, 1) yields StrictlyValid parameters. safety = 1.0 aims at
    the boundary, but the rounded product lies above it in 988 of 2000 random
    draws, classed ErgodicOnly only by ``EQUALITY_RTOL`` (ROADMAP item 1).
    A norm whose square leaves the float range (1e-200 or 1e200) forms no
    finite positive steps, and raises ValueError.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety must lie in (0, 1], got {safety}")
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if operator_norm <= 0:
        raise ValueError("operator_norm must be positive")
    try:
        target = safety * bound_rhs(theta) / float(operator_norm) ** 2
    except (OverflowError, ZeroDivisionError):  # ||L||^2 leaves the float range
        target = math.nan
    sigma = math.sqrt(target / ratio)
    tau = ratio * sigma
    if not (0.0 < sigma < math.inf and 0.0 < tau < math.inf):
        raise ValueError(f"operator_norm {operator_norm!r} and ratio {ratio!r} give no "
                         f"finite positive steps")
    return tau, sigma


def _advance(x, y, L, prox_f, prox_g, tau, sigma, theta):
    """One update on raw arrays: returns (x_new, y_new, finite).

    ``x`` and ``y`` are one point's vectors with float step sizes, or the
    rows of a batch of cells, (B, n) and (B, m), with step columns of shape
    (B, 1); ``prox_f`` and ``prox_g`` are f's and g*'s proxes bound to
    ``tau`` and ``sigma`` (:meth:`cpcert.prox.ProxFn.at`). Operators and
    proxes act on the last axis, so each row gets the bits of its own
    single-cell update. ``finite`` is one flag, for every row, from a
    finiteness pass over both prox arguments and both new iterates; a prox
    such as a projection can map a non-finite argument to a finite point,
    so checking the iterates alone would hide overflow.
    """
    x_arg = x - tau * L.apply_adjoint(y)
    x_new = prox_f(x_arg)
    x_bar = x_new + theta * (x_new - x)
    y_arg = y + sigma * L.apply(x_bar)
    y_new = prox_g(y_arg)
    finite = np.isfinite(np.concatenate((x_arg, y_arg, x_new, y_new), axis=-1)).all()
    return x_new, y_new, finite


def step(z: PPoint, problem, params: SolverParams) -> PPoint:
    """One primal-dual update from z = (x_k, y_k) to (x_{k+1}, y_{k+1}).

    ``problem`` provides ``f`` and ``gstar`` (ProxFn) and the operator ``L``.
    Raises ValueError if a prox argument or the new point is non-finite.
    """
    tau, sigma = params.tau, params.sigma
    x_new, y_new, finite = _advance(z.x, z.y, problem.L, problem.f.at(tau),
                                    problem.gstar.at(sigma), tau, sigma, params.theta)
    if not finite:
        raise ValueError("step produced non-finite entries")
    return PPoint(x_new, y_new)


def fixed_point_residual(dx, dy, tau, sigma):
    """max(||dx||/tau, ||dy||/sigma) for each row of a step's increments.

    ``dx`` and ``dy`` are stacks of steps (k, n) and (k, m), giving k
    values; ``tau`` and ``sigma`` are floats or step columns of shape
    (k, 1), as :func:`_advance` takes them. Each norm is sqrt(v.dot(v)),
    np.linalg.norm's arithmetic on a vector, with the bits of that row
    alone: a stacked matmul of each row into itself makes one BLAS dot per
    row (a summed square, such as ``(v * v).sum(-1)`` or einsum, rounds
    differently).
    """
    def norms(d):  # one per row, shape (k, 1) like the step columns
        return np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0]

    return np.maximum(norms(dx) / tau, norms(dy) / sigma)[:, 0]


def continued_cumsum(A: np.ndarray, prefix: np.ndarray | None = None) -> np.ndarray:
    """Cumulative sums of the rows of ``A``, continuing a carried sum.

    Row j is prefix + A[0] + ... + A[j] (``prefix`` None for a fresh
    start). Sums run left to right, so consecutive blocks that each pass on
    the last row give bitwise the sums of one unsplit call. A fresh start
    adds no zero row: 0.0 + (-0.0) would lose a signed zero.
    """
    if prefix is None:
        return np.cumsum(A, axis=0)
    return np.cumsum(np.concatenate((np.asarray(prefix)[None], A)), axis=0)[1:]


def running_averages(A: np.ndarray, prefix: np.ndarray | None = None,
                     count: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Running means of the rows of ``A``, continuing a carried prefix sum.

    Row j of the means is (prefix + A[0] + ... + A[j]) / (count + j + 1),
    where ``prefix`` is the sum of the ``count`` rows that precede ``A``
    (None for a fresh start). Returns (means, sum through the last row);
    consecutive blocks that each pass on the returned sum give bitwise the
    means of one unsplit call (see :func:`continued_cumsum`).
    """
    sums = continued_cumsum(A, prefix)
    total = sums[-1].copy()
    sums /= np.arange(count + 1, count + sums.shape[0] + 1)[:, None]
    return sums, total


@dataclass(frozen=True)
class Trajectory:
    """Iterate log of one solver run.

    ``X`` and ``Y`` stack iterates 0..n_iters row-wise.
    """

    params: SolverParams
    X: np.ndarray
    Y: np.ndarray
    n_iters: int
    stopped_at: int | None

    def __post_init__(self):
        self.X.flags.writeable = False
        self.Y.flags.writeable = False

    @property
    def final(self) -> PPoint:
        """A copy of the last iterate, which outlives the stored history."""
        return PPoint(self.X[-1].copy(), self.Y[-1].copy())


# A step's bits are a function of the bits of (x_k, y_k) alone, as long as
# ``ProxFn.prox`` is pure and the operator applies are deterministic (the
# batch path of :func:`run` already requires this of each row). So once a
# run repeats a state bitwise, its later iterates repeat the period in
# between; the two functions below find such a cycle and replay it.

def find_cycle(traj: Trajectory) -> Trajectory | None:
    """The exact cycle that ``traj`` has entered, or None.

    Searches ``traj``'s iterates, its first included, for the most recent
    earlier iterate j whose bits equal those of the last iterate n: the
    rows are compared as int64, so -0.0 and 0.0 differ. On a hit, returns
    a copy of iterates j..n, whose first and last rows are bitwise equal:
    one period of p = n - j steps (``n_iters``), which
    :func:`tile_cycle` repeats. Only the last iterate is looked up, so a
    segment whose only match is its last iterate finds nothing.
    """
    X, Y = traj.X.view(np.int64), traj.Y.view(np.int64)
    same = (X[:-1] == X[-1]).all(axis=1) & (Y[:-1] == Y[-1]).all(axis=1)
    hits = np.flatnonzero(same)
    if not hits.size:
        return None
    j = int(hits[-1])
    return Trajectory(traj.params, traj.X[j:].copy(), traj.Y[j:].copy(),
                      traj.n_iters - j, None)


def tile_cycle(cycle: Trajectory, steps: int) -> tuple[Trajectory, Trajectory]:
    """The next ``steps`` steps of a run that has entered the exact cycle
    ``cycle`` (see :func:`find_cycle`), without running them.

    Returns the segment, iterates 0..steps counted from the cycle's last
    iterate, bitwise those :func:`run` would compute from it, and the
    cycle that then ends the run, for the segment after it. Every step of
    the segment is a step of the cycle, which the run that found it has
    taken and checked: it never stops early or fails.
    """
    p = cycle.n_iters

    def take(at: np.ndarray) -> Trajectory:  # iterate i of the cycle is row i mod p
        return Trajectory(cycle.params, cycle.X[at], cycle.Y[at], at.size - 1, None)

    return take(np.arange(steps + 1) % p), take(np.arange(steps, steps + p + 1) % p)


@dataclass(frozen=True)
class RunBatch:
    """Iterate logs of cells that :func:`run` advanced together.

    ``trajectories[i]`` is cell i's Trajectory, exactly as a run of that
    cell alone returns it. ``n_iters`` is the number of steps the batch
    took: that of its longest-running cell.
    """

    trajectories: tuple
    n_iters: int


def run(problem, params, z0, max_iters: int,
        stop_tol: float | None = 1e-10, override_invalid: bool = False):
    """Run the iteration from z0 for up to ``max_iters`` steps.

    Parameters
    ----------
    problem : object
        Provides ``f``, ``gstar`` (ProxFn) and ``L`` (LinearOperator). Each
        ``prox`` must be pure and each operator apply deterministic: a step's
        bits must be a function of the bits of (x_k, y_k), because once a run
        repeats a state, the harness replays its cycle instead of
        recomputing it (see :func:`find_cycle`).
    params : SolverParams or sequence of SolverParams
        Must not classify Invalid unless ``override_invalid`` is set. A
        sequence runs a batch of cells, one per entry. Every run, a lone
        cell's too, steps its cells as the rows of (B, n) and (B, m) stacks,
        each prox bound to its step column once (and again as cells leave).
    z0 : PPoint or sequence of PPoint
        Initial point; for a batch, one per cell.
    max_iters : int
        Iteration cap; the trajectory then holds iterates 0..K with K <=
        max_iters.
    stop_tol : float or None
        A cell stops early at the first step k whose fixed-point residual
        max(||x_k - x_{k-1}||/tau, ||y_k - y_{k-1}||/sigma) is at most
        stop_tol; None runs every cell for ``max_iters`` steps.
    override_invalid : bool
        Permit Invalid parameters (boundary-exploration experiments);
        downstream certificates then report observational results only.

    Returns
    -------
    Trajectory, or for a batch a :class:`RunBatch`
        A cell's arithmetic never depends on the other cells: each cell's
        trajectory is bitwise that of its run alone. A cell leaves the
        batch when it stops; the others keep running.

    Raises
    ------
    ValueError
        Invalid parameters without the override flag, dimension errors, or
        a non-finite z0, all checked once, before the loop. An error that a
        step raises itself, such as a prox returning the wrong shape,
        propagates unchanged and ends the whole batch.
    NonFiniteIterateError
        A prox argument or an iterate is non-finite (named by iteration
        index), found by one finiteness pass per iteration. In a batch, the
        first step at which any cell turns non-finite ends the whole batch,
        with the error that cell's run alone would raise.
    """
    batch = not isinstance(params, SolverParams)
    cells = tuple(params) if batch else (params,)
    starts = tuple(z0) if batch else (z0,)
    if not cells or len(starts) != len(cells):
        raise ValueError(f"a batch needs one start point per cell, got "
                         f"{len(starts)} for {len(cells)} cells")
    for p in cells:
        status = validate_params(p)
        if status.kind is Validity.INVALID and not override_invalid:
            raise ValueError(f"solver parameters are Invalid ({status}); "
                             "pass override_invalid=True to run anyway")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    L = problem.L
    n, m = L.cols, L.rows
    points = [(as_vector(z.x), as_vector(z.y)) for z in starts]
    for x, y in points:
        if x.shape[0] != n or y.shape[0] != m:
            raise ValueError(f"z0 dims ({x.shape[0]}, {y.shape[0]}) do not match "
                             f"problem dims ({n}, {m})")
    x, y = (np.stack(side) for side in zip(*points))
    tau, sigma, theta = (np.array([[getattr(p, name)] for p in cells])
                         for name in ("tau", "sigma", "theta"))
    prox_f, prox_g = problem.f.at(tau), problem.gstar.at(sigma)

    B = len(cells)
    X = np.empty((B, max_iters + 1, n))
    Y = np.empty((B, max_iters + 1, m))
    X[:, 0], Y[:, 0] = x, y
    live = np.arange(B)  # the cell of each stack row
    rows = slice(None)  # where the live rows go in X[:, k]
    ends = [max_iters] * B
    stopped = [None] * B
    for k in range(1, max_iters + 1):
        x_new, y_new, finite = _advance(x, y, L, prox_f, prox_g, tau, sigma, theta)
        if not finite:
            raise NonFiniteIterateError(k)
        X[rows, k], Y[rows, k] = x_new, y_new
        if stop_tol is None:
            x, y = x_new, y_new
            continue
        stop = fixed_point_residual(x_new - x, y_new - y, tau, sigma) <= stop_tol
        x, y = x_new, y_new
        if np.count_nonzero(stop):  # a third of stop.any()'s overhead
            for cell in live[stop].tolist():
                stopped[cell] = ends[cell] = k
            live = rows = live[~stop]
            if not live.size:
                break
            x, y, tau, sigma, theta = (a[~stop] for a in (x, y, tau, sigma, theta))
            prox_f, prox_g = problem.f.at(tau), problem.gstar.at(sigma)

    trajectories = tuple(
        Trajectory(cells[i], X[i, : ends[i] + 1], Y[i, : ends[i] + 1], ends[i], stopped[i])
        for i in range(B))
    return RunBatch(trajectories, k) if batch else trajectories[0]
