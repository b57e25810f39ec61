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
    "bound_rhs",
    "running_averages",
    "validate_params",
    "suggest_steps",
    "step",
    "run",
    "EQUALITY_RTOL",
]

# Relative tolerance for classifying the boundary case product == bound.
EQUALITY_RTOL = 1e-12


class NonFiniteIterateError(RuntimeError):
    """The iteration produced a non-finite prox argument or iterate."""


class Validity(enum.Enum):
    STRICTLY_VALID = "StrictlyValid"
    ERGODIC_ONLY = "ErgodicOnly"
    INVALID = "Invalid"


@dataclass(frozen=True)
class SolverParams:
    """Step sizes (tau, sigma), relaxation theta, and the ||L|| bound.

    ``operator_norm`` is taken as an upper bound on ||L||. For a
    :class:`~cpcert.hilbert.MatrixOperator` it is a power-iteration
    estimate, which can fall slightly below ||L||.
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
    return 4.0 * theta * (2.0 - theta) / (1.0 - 2.0 * theta + 9.0 * theta ** 2 - 4.0 * theta ** 3)


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

    ``safety`` in (0, 1) yields StrictlyValid parameters; safety = 1.0 places
    the product exactly on the boundary (ErgodicOnly), which is useful for
    boundary experiments.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety must lie in (0, 1], got {safety}")
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if operator_norm <= 0:
        raise ValueError("operator_norm must be positive")
    target = safety * bound_rhs(theta) / operator_norm ** 2
    sigma = math.sqrt(target / ratio)
    tau = ratio * sigma
    return tau, sigma


def _advance(x, y, problem, tau, sigma, theta):
    """One update on raw arrays: returns (x_new, y_new, finite).

    ``finite`` is one finiteness pass over both prox arguments and both new
    iterates; a prox such as a projection can map a non-finite argument
    to a finite point, so checking the iterates alone would hide overflow.
    """
    L = problem.L
    x_arg = x - tau * L.apply_adjoint(y)
    x_new = problem.f.prox(x_arg, tau)
    x_bar = x_new + theta * (x_new - x)
    y_arg = y + sigma * L.apply(x_bar)
    y_new = problem.gstar.prox(y_arg, sigma)
    finite = bool(np.isfinite(np.concatenate((x_arg, y_arg, x_new, y_new))).all())
    return x_new, y_new, finite


def step(z: PPoint, problem, params: SolverParams) -> PPoint:
    """One primal-dual update from z = (x_k, y_k) to (x_{k+1}, y_{k+1}).

    ``problem`` provides ``f.prox``, ``gstar.prox`` and the operator ``L``.
    Raises ValueError if a prox argument or the new point is non-finite.
    """
    x_new, y_new, finite = _advance(z.x, z.y, problem, params.tau,
                                    params.sigma, params.theta)
    if not finite:
        raise ValueError("step produced non-finite entries")
    return PPoint(x_new, y_new)


def running_averages(A: np.ndarray, prefix: np.ndarray | None = None,
                     count: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Running means of the rows of ``A``, continuing a carried prefix sum.

    Row j of the means is (prefix + A[0] + ... + A[j]) / (count + j + 1),
    where ``prefix`` is the sum of the ``count`` rows that precede ``A``
    (None for a fresh start). Returns (means, sum through the last row).
    Sums run left to right, so consecutive blocks that each pass on the
    returned sum give bitwise the means of one unsplit call. A fresh start
    adds no zero row: 0.0 + (-0.0) would lose a signed zero.
    """
    if prefix is None:
        sums = np.cumsum(A, axis=0)
    else:
        sums = np.cumsum(np.concatenate((prefix[None], A)), axis=0)[1:]
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

    def point(self, k: int) -> PPoint:
        if not 0 <= k <= self.n_iters:
            raise IndexError(f"iterate {k} not stored (have 0..{self.n_iters})")
        return PPoint(self.X[k], self.Y[k])

    @property
    def final(self) -> PPoint:
        return PPoint(self.X[-1], self.Y[-1])


def run(problem, params: SolverParams, z0: PPoint, max_iters: int,
        stop_tol: float | None = 1e-10, stop=None,
        override_invalid: bool = False) -> Trajectory:
    """Run the iteration from z0 for up to ``max_iters`` steps.

    Parameters
    ----------
    problem : object
        Provides ``f``, ``gstar`` (ProxFn) and ``L`` (LinearOperator).
    params : SolverParams
        Must not classify Invalid unless ``override_invalid`` is set.
    z0 : PPoint
        Initial point.
    max_iters : int
        Iteration cap; the trajectory then holds iterates 0..K with K <=
        max_iters.
    stop_tol : float or None
        Fixed-point residual threshold max(||dx||/tau, ||dy||/sigma) <=
        stop_tol stops the run early; None disables the default rule.
    stop : callable or None
        Custom rule ``stop(k, z_prev, z_new) -> bool`` checked after each
        step (k is the index of z_new); overrides the default rule.
    override_invalid : bool
        Permit Invalid parameters (boundary-exploration experiments);
        downstream certificates then report observational results only.

    Raises
    ------
    ValueError
        Invalid parameters without the override flag, dimension errors, or
        a non-finite z0.
    NonFiniteIterateError
        A prox argument or an iterate is non-finite (named by iteration
        index). Parameters, dimensions and z0 are validated once, before the
        loop; each iteration then makes one finiteness pass.
    """
    status = validate_params(params)
    if status.kind is Validity.INVALID and not override_invalid:
        raise ValueError(f"solver parameters are Invalid ({status}); "
                         "pass override_invalid=True to run anyway")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    L = problem.L
    n, m = L.cols, L.rows
    x, y = as_vector(z0.x), as_vector(z0.y)
    if x.shape[0] != n or y.shape[0] != m:
        raise ValueError(f"z0 dims ({x.shape[0]}, {y.shape[0]}) do not match "
                         f"problem dims ({n}, {m})")
    tau, sigma, theta = params.tau, params.sigma, params.theta

    X = np.empty((max_iters + 1, n))
    Y = np.empty((max_iters + 1, m))
    X[0], Y[0] = x, y
    stopped_at = None
    k_final = max_iters
    for k in range(1, max_iters + 1):
        try:
            x_new, y_new, finite = _advance(x, y, problem, tau, sigma, theta)
        except ValueError as e:
            raise NonFiniteIterateError(
                f"non-finite iterate produced at iteration {k}: {e}") from None
        if not finite:
            raise NonFiniteIterateError(f"non-finite iterate produced at iteration {k}")
        X[k], Y[k] = x_new, y_new
        if stop is not None:
            fire = stop(k, PPoint(x, y), PPoint(x_new, y_new))
        elif stop_tol is not None:
            res = max(
                float(np.linalg.norm(x_new - x)) / tau,
                float(np.linalg.norm(y_new - y)) / sigma,
            )
            fire = res <= stop_tol
        else:
            fire = False
        x, y = x_new, y_new
        if fire:
            stopped_at = k
            k_final = k
            break
    return Trajectory(params, X[: k_final + 1], Y[: k_final + 1], k_final, stopped_at)
