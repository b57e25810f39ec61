"""Numerical convergence certificates along primal-dual trajectories.

Evaluates, at every iteration of a recorded run, the analysis objects that
prove convergence of the relaxed primal-dual iteration:

* the duality gap D(x, y) = f(x) + g*(y) + <L*y*, x> - <y, Lx*> - f(x*) - g*(y*),
  nonnegative and zero at a saddle point;
* the Lyapunov value V(k) built from the step-size weighted quadratic form;
* the descent inequality V(k+1) <= V(k) - D(z_{k+1}) - (weighted increment
  norms), whose weights eta_+/- vanish exactly on the step-size boundary;
* the lower bound V(k) >= 0.5 ||z_{k+1} - z*||_P^2 >= 0;
* the ergodic chain D(avg) <= (1/k) sum D <= V(0)/k.

Each check reports a residual (<= 0 expected) and a pass flag: it passes
when it exceeds its bound by at most the allowance tol (1 + |value|), for a
declared tolerance and the dominant magnitude (:func:`_allowance`). A run
is certified segment by segment, and its :class:`CertifyCarry` folds the
segment tables into the run's one verdict (:meth:`CertifyCarry.result`).
Runs executed with Invalid parameters are reported observationally, with
no pass/fail claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import PPoint
from .solver import (ParamStatus, SolverParams, Trajectory, Validity,
                     continued_cumsum, running_averages, validate_params)

__all__ = [
    "KKTPoint",
    "CertificateTable",
    "CertifyCarry",
    "make_kkt",
    "kkt_residual",
    "eta_coefficients",
    "certify_trajectory",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-9

# Bytes of iterates per run segment: each segment temporary, such as a
# (rows, n) or (rows, m) difference, then stays in a core's L2 cache.
_SEGMENT_BYTES = 384 * 1024
# The fewest iterates per segment, so that re-reading the two carried
# iterates stays cheap, and the most, so that a segment's table stays small.
_MIN_SEGMENT, _MAX_SEGMENT = 8, 256
# An upper bound on the working memory of one certify call, in rows of
# n + m floats per iterate passed: about 3.5 measured, besides the iterates
# themselves (see :func:`_certify`).
_WORKING_ROWS = 4


def _segment_iterates(width: int) -> int:
    """Iterates per run segment for iterates of ``width`` = n + m entries.

    A run certified in segments (see :class:`CertifyCarry`) ends each one
    at a multiple of this many iterates.
    """
    return min(max(_SEGMENT_BYTES // (8 * width), _MIN_SEGMENT), _MAX_SEGMENT)


def segment_end(done: int, width: int) -> int:
    """The step count at which a run of iterates of ``width`` = n + m
    entries that has taken ``done`` steps ends its next segment.

    Segments end at multiples of ``_segment_iterates(width)`` iterates, so
    a run certified in segments (see :class:`CertifyCarry`) runs from one
    such step count to the next.
    """
    s = _segment_iterates(width)
    return ((done + 1) // s + 1) * s - 1


def spare_rows(rows: int, width: int) -> int:
    """Of ``rows`` rows of ``width`` = n + m floats, those left beside one
    segment's certifier working set (``_WORKING_ROWS`` rows per iterate)."""
    return rows - _WORKING_ROWS * _segment_iterates(width)


# Where a saddle point came from: a closed form, a direct algorithm, a
# short run whose point was polished on its active set, or a long run.
ORACLE_KINDS = ("closed_form", "direct", "polished", "long_run")


@dataclass(frozen=True)
class KKTPoint:
    """A saddle point (x*, y*) with cached objective values f(x*), g*(y*).

    ``residual`` records its measured fixed-point residual. ``kind`` says
    where the point came from (one of ``ORACLE_KINDS``) and ``iterations``
    how many solver steps produced it, None for a point no run produced.
    """

    star: PPoint
    f_star: float
    gstar_star: float
    residual: float | None = None
    kind: str = "closed_form"
    iterations: int | None = None

    def __post_init__(self):
        if self.kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}; one of {ORACLE_KINDS}")


def kkt_residual(problem, z: PPoint) -> float:
    """Fixed-point residual of the optimality conditions at z = (x, y).

    Zero iff -L*y in df(x) and Lx in dg*(y), by the prox characterization
    with unit steps: x = prox_f(x - L*y) and y = prox_{g*}(y + Lx).
    """
    L = problem.L
    rx = z.x - problem.f.prox(z.x - L.apply_adjoint(z.y), 1.0)
    ry = z.y - problem.gstar.prox(z.y + L.apply(z.x), 1.0)
    return max(float(np.linalg.norm(rx)), float(np.linalg.norm(ry)))


def make_kkt(problem, star: PPoint, check_tol: float | None = 1e-8,
             kind: str = "closed_form", iterations: int | None = None) -> KKTPoint:
    """Build a KKTPoint, verifying the optimality residual unless disabled."""
    res = kkt_residual(problem, star)
    if check_tol is not None and res > check_tol:
        raise ValueError(f"candidate saddle point has residual {res:.3e} > {check_tol:g}")
    f_star = problem.f.evaluate(star.x)
    gstar_star = problem.gstar.evaluate(star.y)
    if not (math.isfinite(f_star) and math.isfinite(gstar_star)):
        raise ValueError("saddle point has non-finite objective values")
    return KKTPoint(star, f_star, gstar_star, res, kind, iterations)


def _eta_numerator(params: SolverParams) -> float:
    t = params.theta
    return 4.0 * t * (2.0 - t) - params.product * (1.0 - 2.0 * t + 9.0 * t ** 2 - 4.0 * t ** 3)


def eta_coefficients(params: SolverParams) -> tuple[float, float]:
    """The increment weights (eta_+, eta_-) of the descent inequality.

    eta_pm = [4 t (2-t) - sigma tau ||L||^2 (1 - 2t + 9t^2 - 4t^3)]
             / [8 (1 pm sqrt(tau sigma) ||L|| t (1-t))]

    Nonnegative under the non-strict step-size condition, strictly positive
    under the strict one, and exactly zero on the boundary.
    """
    t = params.theta
    if not 0.0 < t <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {t}")
    s = math.sqrt(params.tau * params.sigma) * params.operator_norm
    num = _eta_numerator(params)
    den_plus = 8.0 * (1.0 + s * t * (1.0 - t))
    den_minus = 8.0 * (1.0 - s * t * (1.0 - t))
    if den_plus <= 0 or den_minus <= 0:
        raise ValueError(
            "nonpositive denominator in the increment weights; parameters "
            "violate sigma*tau*||L||^2*(1+theta)^2 <= 4"
        )
    return num / den_plus, num / den_minus


_CHECKS = ("descent", "lower_bound", "v_monotone", "jensen", "sum_bound",
           "ergodic_rate")


def _allowance(value, tol):
    """What a check at ``value`` may exceed its bound by: tol (1 + |value|)."""
    return tol * (1.0 + np.abs(value))


def _flag_arrays(ks, lyap, ergodic_gap, descent, lower, sum_gap, v0, tol):
    """Boolean pass arrays from the residual columns; pure in (values, tol)."""
    n = len(ks)
    scale = _allowance(lyap, tol)
    flags = {
        "descent": descent <= scale,
        "lower_bound": lower <= scale,
    }
    v_mono = np.ones(n, dtype=bool)  # final row vacuous: no successor recorded
    v_mono[:-1] = lyap[1:] <= lyap[:-1] + scale[:-1]
    flags["v_monotone"] = v_mono
    jensen = np.ones(n, dtype=bool)
    sum_ok = np.ones(n, dtype=bool)
    rate = np.ones(n, dtype=bool)
    pos = ks >= 1
    kpos = ks[pos].astype(float)
    mean_gap = sum_gap[pos] / kpos
    jensen[pos] = ergodic_gap[pos] <= mean_gap + _allowance(mean_gap, tol)
    sum_ok[pos] = sum_gap[pos] <= v0 + _allowance(v0, tol)
    rate_rhs = v0 / kpos
    rate[pos] = ergodic_gap[pos] <= rate_rhs + _allowance(rate_rhs, tol)
    flags["jensen"] = jensen
    flags["sum_bound"] = sum_ok
    flags["ergodic_rate"] = rate
    return flags


@dataclass(frozen=True)
class CertificateTable:
    """Certificate values for full three-iterate windows of one run.

    Row k (k = 0..K-2) holds V(k), D(z_{k+1}), D(avg_k), the descent and
    lower-bound residuals for the window (z_k, z_{k+1}, z_{k+2}), the
    canonical distance ||z_k - z*||, and sum_gap = sum_{i<=k} D(z_i).
    ``ergodic_gap`` is NaN at k = 0 (averages start at k = 1). A table of
    one segment of a run (see :class:`CertifyCarry`) holds that segment's
    rows, with their run-wide k; ``v0`` is always the run's V(0).
    """

    ks: np.ndarray
    lyapunov: np.ndarray
    gap: np.ndarray
    ergodic_gap: np.ndarray
    descent_residual: np.ndarray
    lower_bound_residual: np.ndarray
    dist_to_star: np.ndarray
    sum_gap: np.ndarray
    v0: float
    eta_plus: float
    eta_minus: float
    tol: float
    status: ParamStatus
    asserted: bool

    def flags(self) -> dict[str, np.ndarray]:
        return _flag_arrays(self.ks, self.lyapunov, self.ergodic_gap,
                            self.descent_residual, self.lower_bound_residual,
                            self.sum_gap, self.v0, self.tol)


def _json_float(v) -> float | None:
    v = float(v)
    return v if math.isfinite(v) else None


@dataclass
class CertifyCarry:
    """One run's certifier state, which :func:`certify_trajectory` carries
    from one segment of the run to the next and folds each segment's table into.

    Pass a fresh ``CertifyCarry()`` with a run's first segment and the same
    object with each later one; :meth:`result` then gives the summary of
    the whole run. To certify a segment, the carry holds the number of
    iterates fed so far (the table row offset follows from it), the prefix
    sums of X and Y behind the running averages, the running sum of the
    gap column, the images L x* and L* y*, and the last two iterates fed,
    with their images: the overlap that the next segment's first windows
    need. The last table holds the run constants, computed once with the
    first segment: V(0), the parameter status, whether the checks are
    asserted, and the increment weights. The summary is folded as the
    tables arrive: their row count, the largest residuals, the failures of
    each check and the first failing k. A segment's last row has no
    successor in its own table, so its V-monotonicity check is made when
    the next segment arrives. A call that raises leaves the carry as it was.
    """

    iterates: int = 0
    sum_x: np.ndarray | None = None
    sum_y: np.ndarray | None = None
    gap_sum: float | None = None
    lx_star: np.ndarray | None = None
    lty_star: np.ndarray | None = None
    overlap: tuple = ()
    last: CertificateTable | None = None
    rows: int = 0
    max_residual: dict = field(default_factory=dict)
    fail_counts: dict = field(default_factory=lambda: dict.fromkeys(_CHECKS, 0))
    first_failing_k: int | None = None

    def _fold(self, table: CertificateTable) -> None:
        """Fold the next segment's table into the run's summary."""
        prev, self.last = self.last, table
        self.rows += len(table.ks)
        for name in ("descent_residual", "lower_bound_residual"):
            m = np.max(getattr(table, name))
            self.max_residual[name] = np.maximum(self.max_residual.get(name, m), m)
        if not table.asserted:
            return
        if prev is not None:
            v = prev.lyapunov[-1]
            if not table.lyapunov[0] <= v + _allowance(v, prev.tol):
                self._fail("v_monotone", 1, int(prev.ks[-1]))
        flags = table.flags()
        bad = ~np.logical_and.reduce([flags[c] for c in _CHECKS])
        if bad.any():
            for c in _CHECKS:
                self._fail(c, int(np.size(flags[c]) - np.count_nonzero(flags[c])),
                           int(table.ks[np.argmax(bad)]))

    def _fail(self, check: str, count: int, k: int) -> None:
        self.fail_counts[check] += count
        if count and self.first_failing_k is None:
            self.first_failing_k = k

    def result(self) -> dict:
        """The pass/fail summary of the run's tables so far (observational
        when the checks are not asserted)."""
        t = self.last
        out = {
            "rows": self.rows,
            "status": t.status.kind.value,
            "asserted": t.asserted,
            "tol": t.tol,
            "v0": _json_float(t.v0),
            "eta_plus": _json_float(t.eta_plus),
            "eta_minus": _json_float(t.eta_minus),
            "max_descent_residual": _json_float(self.max_residual["descent_residual"]),
            "max_lower_bound_residual": _json_float(self.max_residual["lower_bound_residual"]),
            "final_gap": _json_float(t.gap[-1]),
            "final_ergodic_gap": _json_float(t.ergodic_gap[-1]),
            "final_dist_to_star": _json_float(t.dist_to_star[-1]),
            "final_sum_gap": _json_float(t.sum_gap[-1]),
        }
        if t.asserted:
            out.update(mode="asserted", all_pass=self.first_failing_k is None,
                       first_failing_k=self.first_failing_k,
                       fail_counts=dict(self.fail_counts))
        else:
            out.update(mode="observational", all_pass=None, first_failing_k=None,
                       fail_counts=None)
        return out


def certify_trajectory(traj: Trajectory, kkt: KKTPoint, problem,
                       tol: float = DEFAULT_TOL,
                       carry: CertifyCarry | None = None) -> CertificateTable:
    """Evaluate every certificate along a trajectory.

    The iterates are certified in one pass: each value map is called on
    the stack of rows, and the P-forms, descent and lower-bound residuals,
    distances and ergodic gaps are row-wise reductions over stacks of
    differences. Working memory is therefore a fixed number of
    history-sized temporaries, each dropped once its row sums are taken:
    about 3.5 rows of n + m floats per row passed (at most
    ``_WORKING_ROWS``), so a long run is fed in segments.

    With a ``carry``, ``traj`` is one segment of a longer run, and the
    returned table holds the rows whose windows the segments fed so far
    complete. The first segment starts at iterate 0; each later one is the
    run continued from the last iterate fed, so its first iterate repeats
    that one and is skipped. The segment is certified together with the
    two iterates carried over from the one before, and its table is folded
    into the carry's summary of the run (:meth:`CertifyCarry.result`); its
    rows may then be dropped, as the carry holds all that later rows need.

    Segment alignment: LX = L.apply_stack(X) is computed once per call, over
    the iterates it brings, and a dense ``apply_stack`` (a matrix-matrix
    product) may round a row differently depending on where it sits in the
    stack. A segment fed with a carry must therefore start at a multiple
    of ``_segment_iterates(n + m)`` iterates (a ValueError otherwise): as
    many iterates as fit in ``_SEGMENT_BYTES``, at least ``_MIN_SEGMENT``
    and at most ``_MAX_SEGMENT``. Each row's image is computed exactly
    once. Every other value is a row-wise reduction, which does not depend
    on the split, so the table is bitwise that of one call on the whole
    history, except for rows that a dense ``apply_stack`` rounds
    differently on segments. No ``carry`` means a fresh one: the history
    is one segment. The per-window scalar definitions of the same values
    live in the test suite's reference oracles (``tests/oracles.py``).

    Raises ValueError for a negative or non-finite ``tol``, for fewer than
    2 iterations, if a value map does not return one value per row, and
    RuntimeError at the first non-finite V(k) of an asserted run.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"certificate tolerance must be finite and nonnegative, got {tol}")
    if carry is None:
        carry = CertifyCarry()
    segment = _segment_iterates(traj.X.shape[1] + traj.Y.shape[1])
    if carry.iterates % segment:
        raise ValueError(f"a continued segment must start at a multiple of "
                         f"{segment} iterates, not at iterate {carry.iterates}")
    new = slice(1 if carry.iterates else 0, None)
    X, Y = traj.X[new], traj.Y[new]
    # Diverging observational runs may overflow to inf/NaN; report those
    # values as-is instead of warning. Asserted runs raise on non-finite V.
    with np.errstate(over="ignore", invalid="ignore"):
        return _certify(traj.params, X, Y, kkt, problem, tol, carry)


def _stack_values(fn, rows: np.ndarray, name: str) -> np.ndarray:
    """Values of ``fn`` on each row of ``rows``, checked to have shape (k,)."""
    values = np.asarray(fn.evaluate(rows), dtype=float)
    if values.shape != (rows.shape[0],):
        raise ValueError(
            f"{name}.evaluate returned shape {values.shape} for a stack of "
            f"{rows.shape[0]} rows; value maps must be row-wise"
        )
    return values


def _gap_terms(fn, rows: np.ndarray, star_image: np.ndarray, name: str) -> tuple:
    """The terms of the gap that one side of each row brings: the value map
    ``fn`` on the row and its inner product with ``star_image``."""
    return _stack_values(fn, rows, name), (rows * star_image).sum(axis=1)


def _gaps(kkt, x_terms, y_terms) -> np.ndarray:
    """D(x, y) for each row from the terms of its x, (f(x), <L*y*, x>), and
    of its y, (g*(y), <y, Lx*>) (see :func:`_gap_terms`)."""
    (fx, x_dot), (gy, y_dot) = x_terms, y_terms
    return fx + gy + x_dot - y_dot - kkt.f_star - kkt.gstar_star


def _certify(params, X_new, Y_new, kkt, problem, tol, carry):
    """Certify the rows that the iterates ``X_new``, ``Y_new`` complete;
    then advance ``carry`` past them and fold their table into it.

    Each full-width array is dropped as soon as its row sums are taken, so
    at most five (rows, n) or (rows, m) arrays are alive at once besides
    the iterates passed (``_WORKING_ROWS``).
    """
    fed = carry.iterates
    r0, r1 = max(fed - 2, 0), fed + X_new.shape[0] - 2  # table rows [r0, r1)
    if r1 <= r0:
        raise ValueError("need at least 2 iterations to certify")
    L = problem.L
    tau, sigma, theta = params.tau, params.sigma, params.theta
    m_bound = params.operator_norm
    c = 0.5 * (1.0 - theta)
    x_star, y_star = kkt.star.x, kkt.star.y
    prev = carry.last
    if prev is None:  # the run constants, computed once per run
        status = validate_params(params)
        asserted = status.kind is not Validity.INVALID
        try:
            eta_p, eta_m = eta_coefficients(params)
        except ValueError:
            if asserted:
                raise
            eta_p = eta_m = math.nan
        lx_star, lty_star = L.apply(x_star), L.apply_adjoint(y_star)
    else:
        status, asserted = prev.status, prev.asserted
        eta_p, eta_m = prev.eta_plus, prev.eta_minus
        lx_star, lty_star = carry.lx_star, carry.lty_star
    # iterates r0..r1+1: the carried overlap, then the new ones
    LX = L.apply_stack(X_new)  # X_new[0] is iterate ``fed``
    X, Y = X_new, Y_new
    if carry.overlap:
        LX = np.concatenate((carry.overlap[2], LX))
        X, Y = (np.concatenate(pair) for pair in zip(carry.overlap, (X, Y)))
    overlap = tuple(a[-2:].copy() for a in (X, Y, LX))
    # ergodic averages over iterates 1..k start at k = 1: rows k0..r1-1
    k0 = max(r0, 1)
    averaged, averaging = slice(k0 - r0, r1 - r0), k0 < r1
    sum_x, sum_y = carry.sum_x, carry.sum_y  # rows 1..r0-1

    # x side: gap terms, ||x_k - x*||^2, ||x_{k+1} - x_k||^2, ergodic terms
    x_terms = _gap_terms(problem.f, X, lty_star, "f")
    dxs = X - x_star
    sq_dx = (dxs * dxs).sum(axis=1)
    del dxs
    inc_x = np.diff(X, axis=0)
    sq_inc_x = (inc_x * inc_x).sum(axis=1)
    del inc_x
    if averaging:
        ex, sum_x = running_averages(X[averaged], sum_x, k0 - 1)
        erg_x = _gap_terms(problem.f, ex, lty_star, "f")
        del ex
    del X

    # y side: gap terms and ergodic terms; y_k - y* and the increments stay
    gaps = _gaps(kkt, x_terms, _gap_terms(problem.gstar, Y, lx_star, "gstar"))
    erg = np.full(r1 - r0, math.nan)
    if averaging:
        ey, sum_y = running_averages(Y[averaged], sum_y, k0 - 1)
        erg[averaged] = _gaps(kkt, erg_x, _gap_terms(problem.gstar, ey, lx_star, "gstar"))
        del ey
    inc_y = np.diff(Y, axis=0)
    dys = Y - y_star
    del Y
    sq_dy = (dys * dys).sum(axis=1)
    sq_inc_y = (inc_y * inc_y).sum(axis=1)

    # P-form of z_k - z* and of consecutive increments, and their cross term
    inc_lx = np.diff(LX, axis=0)
    ldxs = LX - lx_star
    del LX
    p_star = sq_dx / tau + sq_dy / sigma - (1.0 + theta) * (ldxs * dys).sum(axis=1)
    p_inc = (sq_inc_x / tau + sq_inc_y / sigma
             - (1.0 + theta) * (inc_lx * inc_y).sum(axis=1))
    cross = ((dys[:-1] * inc_lx).sum(axis=1) - (ldxs[:-1] * inc_y).sum(axis=1))
    del dys, ldxs
    v = 0.5 * p_star[:-1] - 0.25 * p_inc - c * gaps[1:] - c * cross  # V(r0..r1)
    if asserted and not np.all(np.isfinite(v)):
        bad = r0 + int(np.argmax(~np.isfinite(v)))
        raise RuntimeError(f"non-finite Lyapunov value at iteration {bad}")

    # Descent windows: increments x_{k+2}-x_{k+1} vs y_{k+1}-y_k, in the
    # weighted norms of w+- = K dx / sqrt(tau) +- dy / sqrt(sigma)
    k_dx = inc_lx[1:] / m_bound if m_bound > 0 else np.zeros_like(inc_lx[1:])
    del inc_lx
    theta_term = theta / (4.0 * tau) * (sq_inc_x[1:] - (k_dx * k_dx).sum(axis=1))
    k_part = k_dx / math.sqrt(tau)
    del k_dx
    y_part = inc_y[:-1] / math.sqrt(sigma)
    del inc_y
    w = k_part + y_part
    sq_wp = (w * w).sum(axis=1)
    del w
    w = k_part - y_part
    sq_wm = (w * w).sum(axis=1)
    del w, k_part, y_part
    descent = (v[1:] - v[:-1] + gaps[1:-1]
               + theta_term
               + 0.25 * eta_p * sq_wp
               + 0.25 * eta_m * sq_wm)
    lyap = v[:-1]
    gap = gaps[1:-1]
    dist = np.sqrt(sq_dx[:-2] + sq_dy[:-2])

    # sum_gap[k] = gap[0] + ... + gap[k-1], continuing the carried sum
    gap_sums = continued_cumsum(gap, carry.gap_sum)
    first = 0.0 if carry.gap_sum is None else carry.gap_sum
    v0 = float(lyap[0]) if prev is None else prev.v0
    table = CertificateTable(
        ks=np.arange(r0, r1),
        lyapunov=lyap,
        gap=gap,
        ergodic_gap=erg,
        descent_residual=descent,
        lower_bound_residual=0.5 * p_star[1:-1] - lyap,
        dist_to_star=dist,
        sum_gap=np.concatenate([[first], gap_sums[:-1]]),
        v0=v0,
        eta_plus=float(eta_p),
        eta_minus=float(eta_m),
        tol=tol,
        status=status,
        asserted=asserted,
    )
    carry.iterates = fed + X_new.shape[0]
    carry.sum_x, carry.sum_y = sum_x, sum_y
    carry.gap_sum = gap_sums[-1]
    carry.lx_star, carry.lty_star = lx_star, lty_star
    carry.overlap = overlap
    carry._fold(table)
    return table
