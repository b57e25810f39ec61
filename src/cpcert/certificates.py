"""Numerical convergence certificates along primal-dual trajectories.

Evaluates, at every iteration of a recorded run, the analysis objects that
prove convergence of the relaxed primal-dual iteration:

* the duality gap D(x, y) = f(x) + g*(y) + <y*, Lx> - <y, Lx*> - f(x*) - g*(y*),
  nonnegative and zero at a saddle point;
* the Lyapunov value V(k) built from the step-size weighted quadratic form;
* the descent inequality V(k+1) <= V(k) - D(z_{k+1}) - (weighted increment
  norms), whose weights eta_+/- vanish exactly on the step-size boundary;
* the lower bound V(k) >= 0.5 ||z_{k+1} - z*||_P^2 >= 0;
* the ergodic chain D(avg) <= (1/k) sum D <= V(0)/k.

Each check reports a residual (<= 0 expected) and a pass flag at a declared
tolerance, relative to 1 + the dominant magnitude. Runs executed with
Invalid parameters are reported observationally, with no pass/fail claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import PPoint
from .solver import (ParamStatus, SolverParams, Trajectory, Validity,
                     continued_cumsum, running_averages, validate_params)

__all__ = [
    "KKTPoint",
    "CertificateTable",
    "CertifyCarry",
    "RunSummary",
    "make_kkt",
    "kkt_residual",
    "eta_coefficients",
    "certify_trajectory",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-9

# Table rows per certification block: bounds the certifier's working memory.
# Segments of a run fed with a CertifyCarry start at multiples of it.
_CERT_BLOCK = 256


@dataclass(frozen=True)
class KKTPoint:
    """A saddle point (x*, y*) with cached objective values f(x*), g*(y*).

    ``residual`` records the measured fixed-point residual when the point
    came from a long solver run rather than a closed form.
    """

    star: PPoint
    f_star: float
    gstar_star: float
    residual: float | None = None


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
             residual: float | None = None) -> KKTPoint:
    """Build a KKTPoint, verifying the optimality residual unless disabled."""
    res = kkt_residual(problem, star)
    if check_tol is not None and res > check_tol:
        raise ValueError(f"candidate saddle point has residual {res:.3e} > {check_tol:g}")
    f_star = problem.f.evaluate(star.x)
    gstar_star = problem.gstar.evaluate(star.y)
    if not (math.isfinite(f_star) and math.isfinite(gstar_star)):
        raise ValueError("saddle point has non-finite objective values")
    return KKTPoint(star, f_star, gstar_star, residual if residual is not None else res)


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


def _flag_arrays(ks, lyap, ergodic_gap, descent, lower, sum_gap, v0, tol):
    """Boolean pass arrays from the residual columns; pure in (values, tol)."""
    n = len(ks)
    scale = tol * (1.0 + np.abs(lyap))
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
    jensen[pos] = ergodic_gap[pos] <= mean_gap + tol * (1.0 + np.abs(mean_gap))
    sum_ok[pos] = sum_gap[pos] <= v0 + tol * (1.0 + abs(v0))
    rate_rhs = v0 / kpos
    rate[pos] = ergodic_gap[pos] <= rate_rhs + tol * (1.0 + np.abs(rate_rhs))
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

    def summarize(self) -> dict:
        """Aggregate pass/fail summary (observational when not asserted)."""
        summary = RunSummary()
        summary.add(self)
        return summary.result()


class RunSummary:
    """The summary of one run's table, folded from the tables of its segments.

    Add the tables of a run's consecutive segments in order; :meth:`result`
    is then what :meth:`CertificateTable.summarize` gives for the table of
    the whole run. A segment's last row has no successor in its own table,
    so its V-monotonicity check is made when the next segment arrives.
    Only the last table and running counts are held.
    """

    def __init__(self):
        self._last = None
        self._rows = 0
        self._max = {}
        self._fails = dict.fromkeys(_CHECKS, 0)
        self._first_k = None

    def add(self, table: CertificateTable) -> None:
        prev, self._last = self._last, table
        self._rows += len(table.ks)
        for name in ("descent_residual", "lower_bound_residual"):
            m = np.max(getattr(table, name))
            self._max[name] = m if prev is None else np.maximum(self._max[name], m)
        if not table.asserted:
            return
        if prev is not None:
            v = prev.lyapunov[-1]
            if not table.lyapunov[0] <= v + prev.tol * (1.0 + np.abs(v)):
                self._fail("v_monotone", 1, int(prev.ks[-1]))
        flags = table.flags()
        bad = ~np.logical_and.reduce([flags[c] for c in _CHECKS])
        if bad.any():
            for c in _CHECKS:
                self._fail(c, int(np.size(flags[c]) - np.count_nonzero(flags[c])),
                           int(table.ks[np.argmax(bad)]))

    def _fail(self, check: str, count: int, k: int) -> None:
        self._fails[check] += count
        if count and self._first_k is None:
            self._first_k = k

    def result(self) -> dict:
        t = self._last
        out = {
            "rows": self._rows,
            "status": t.status.kind.value,
            "asserted": t.asserted,
            "tol": t.tol,
            "v0": _json_float(t.v0),
            "eta_plus": _json_float(t.eta_plus),
            "eta_minus": _json_float(t.eta_minus),
            "max_descent_residual": _json_float(self._max["descent_residual"]),
            "max_lower_bound_residual": _json_float(self._max["lower_bound_residual"]),
            "final_gap": _json_float(t.gap[-1]),
            "final_ergodic_gap": _json_float(t.ergodic_gap[-1]),
            "final_dist_to_star": _json_float(t.dist_to_star[-1]),
            "final_sum_gap": _json_float(t.sum_gap[-1]),
        }
        if not t.asserted:
            out["mode"] = "observational"
            out["all_pass"] = None
            out["first_failing_k"] = None
            out["fail_counts"] = None
            return out
        out["mode"] = "asserted"
        out["all_pass"] = self._first_k is None
        out["first_failing_k"] = self._first_k
        out["fail_counts"] = dict(self._fails)
        return out


def _json_float(v) -> float | None:
    v = float(v)
    return v if math.isfinite(v) else None


@dataclass
class CertifyCarry:
    """What :func:`certify_trajectory` carries from one segment of a run to the next.

    Pass a fresh ``CertifyCarry()`` with a run's first segment and the same
    object with each later one. It holds the number of iterates fed so far
    (the table row offset follows from it), the prefix sums of X, Y and LX
    behind the running averages, the running sum of the gap column, V(0),
    and the last two iterates fed, with their images and gap terms: the
    overlap that the next segment's first windows need. A call that raises
    leaves the carry as it was.
    """

    iterates: int = 0
    v0: float = math.nan
    sum_x: np.ndarray | None = None
    sum_y: np.ndarray | None = None
    sum_lx: np.ndarray | None = None
    gap_sum: float | None = None
    overlap: tuple = ()


def certify_trajectory(traj: Trajectory, kkt: KKTPoint, problem,
                       tol: float = DEFAULT_TOL,
                       carry: CertifyCarry | None = None) -> CertificateTable:
    """Evaluate every certificate along a trajectory.

    The table is built in blocks of ``_CERT_BLOCK`` rows. Block [lo, hi)
    reads iterates lo..hi+1, the two-iterate overlap that the descent
    window needs, and recomputes the one value V(hi) it shares with the
    next block. Across blocks it carries the prefix sums of X, Y and LX
    behind the running averages and the running sum of the gap column.
    Each value map is called on stacks of rows, so working memory is
    O(_CERT_BLOCK * (n + m)) besides the history and LX.

    With a ``carry``, ``traj`` is one segment of a longer run, and the
    returned table holds the rows whose windows the segments fed so far
    complete. The first segment starts at iterate 0; each later one is the
    run continued from the last iterate fed, so its first iterate repeats
    that one and is skipped. Its rows are certified and may then be
    dropped: the carry holds all that later rows need.

    Chunk alignment: LX = L.apply_stack(X) and the gap terms LX @ y* and
    Y @ Lx* are computed once per call, over the iterates it brings, and
    blocked matrix-vector products round some rows differently unless the
    block starts at a multiple of 256 rows from iterate 0. A segment fed
    with a carry must therefore start at a multiple of ``_CERT_BLOCK``
    iterates (a ValueError otherwise), and each row's products are computed
    exactly once. The table is then bitwise that of one call on the whole
    history, except that a dense ``apply_stack`` (a matrix-matrix product)
    may round some rows differently on segments than on the whole history.
    Row sums and per-row dot products do not depend on the split. Without
    a carry the whole history is one chunk. The per-window scalar
    definitions of the same values live in the test suite's reference
    oracles (``tests/oracles.py``).

    Raises ValueError for a negative or non-finite ``tol``, for fewer than
    2 iterations, if a value map does not return one value per row, and
    RuntimeError at the first non-finite V(k) of an asserted run.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"certificate tolerance must be finite and nonnegative, got {tol}")
    if carry is None:
        carry, X, Y = CertifyCarry(), traj.X, traj.Y
    elif carry.iterates % _CERT_BLOCK:
        raise ValueError(f"a continued segment must start at a multiple of "
                         f"{_CERT_BLOCK} iterates, not at iterate {carry.iterates}")
    else:
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


def _certify(params, X_new, Y_new, kkt, problem, tol, carry):
    """Certify the rows that the iterates ``X_new``, ``Y_new`` complete;
    then advance ``carry`` past them."""
    fed = carry.iterates
    r0, r1 = max(fed - 2, 0), fed + X_new.shape[0] - 2  # table rows [r0, r1)
    if r1 <= r0:
        raise ValueError("need at least 2 iterations to certify")
    status = validate_params(params)
    asserted = status.kind is not Validity.INVALID
    L = problem.L
    tau, sigma, theta = params.tau, params.sigma, params.theta
    m_bound = params.operator_norm
    c = 0.5 * (1.0 - theta)
    try:
        eta_p, eta_m = eta_coefficients(params)
    except ValueError:
        if asserted:
            raise
        eta_p = eta_m = math.nan

    x_star, y_star = kkt.star.x, kkt.star.y
    lx_star = L.apply(x_star)
    LX_new = L.apply_stack(X_new)
    fresh = (X_new, Y_new, LX_new, LX_new @ y_star, Y_new @ lx_star)
    if carry.overlap:
        X, Y, LX, lx_y, y_lx = (np.concatenate(pair) for pair in zip(carry.overlap, fresh))
    else:
        X, Y, LX, lx_y, y_lx = fresh
    base = fed - (len(carry.overlap[0]) if carry.overlap else 0)  # iterate of X[0]

    n_rows = r1 - r0
    lyap, gap, erg, descent, lower, dist = (np.empty(n_rows) for _ in range(6))
    if r0 == 0:
        erg[0] = math.nan  # averages start at k = 1
    sum_x, sum_y, sum_lx = carry.sum_x, carry.sum_y, carry.sum_lx  # rows 1..lo-1
    for lo in range(r0, r1, _CERT_BLOCK):
        hi = min(lo + _CERT_BLOCK, r1)
        rows = slice(lo - base, hi - base + 2)
        out = slice(lo - r0, hi - r0)
        Xb, Yb, LXb = X[rows], Y[rows], LX[rows]
        # gaps[i] = D(z_{lo+i}) for i = 0..hi-lo+1
        gaps = (_stack_values(problem.f, Xb, "f")
                + _stack_values(problem.gstar, Yb, "gstar")
                + lx_y[rows] - y_lx[rows] - kkt.f_star - kkt.gstar_star)

        dxs = Xb - x_star
        dys = Yb - y_star
        ldxs = LXb - lx_star
        # P-form of z_k - z* and of consecutive increments
        p_star = ((dxs * dxs).sum(axis=1) / tau + (dys * dys).sum(axis=1) / sigma
                  - (1.0 + theta) * (ldxs * dys).sum(axis=1))
        inc_x = np.diff(Xb, axis=0)
        inc_y = np.diff(Yb, axis=0)
        inc_lx = np.diff(LXb, axis=0)
        p_inc = ((inc_x * inc_x).sum(axis=1) / tau + (inc_y * inc_y).sum(axis=1) / sigma
                 - (1.0 + theta) * (inc_lx * inc_y).sum(axis=1))
        cross = ((dys[:-1] * inc_lx).sum(axis=1) - (ldxs[:-1] * inc_y).sum(axis=1))
        v = 0.5 * p_star[:-1] - 0.25 * p_inc - c * gaps[1:] - c * cross  # V(lo..hi)
        if asserted and not np.all(np.isfinite(v)):
            bad = lo + int(np.argmax(~np.isfinite(v)))
            raise RuntimeError(f"non-finite Lyapunov value at iteration {bad}")

        # Descent windows: increments x_{k+2}-x_{k+1} vs y_{k+1}-y_k
        k_dx = inc_lx[1:] / m_bound if m_bound > 0 else np.zeros_like(inc_lx[1:])
        theta_term = theta / (4.0 * tau) * (
            (inc_x[1:] * inc_x[1:]).sum(axis=1) - (k_dx * k_dx).sum(axis=1))
        wp = k_dx / math.sqrt(tau) + inc_y[:-1] / math.sqrt(sigma)
        wm = k_dx / math.sqrt(tau) - inc_y[:-1] / math.sqrt(sigma)
        descent[out] = (v[1:] - v[:-1] + gaps[1:-1]
                        + theta_term
                        + 0.25 * eta_p * (wp * wp).sum(axis=1)
                        + 0.25 * eta_m * (wm * wm).sum(axis=1))
        lyap[out] = v[:-1]
        gap[out] = gaps[1:-1]
        lower[out] = 0.5 * p_star[1:-1] - v[:-1]
        dist[out] = np.sqrt((dxs[:-2] * dxs[:-2]).sum(axis=1)
                            + (dys[:-2] * dys[:-2]).sum(axis=1))

        # Ergodic gaps D(avg_k) over iterates 1..k. The L-terms stay
        # per-row dot products: a matrix-vector product sums in another
        # order and would change the last bits.
        k0 = max(lo, 1)
        if k0 < hi:
            avg = slice(k0 - base, hi - base)
            ex, sum_x = running_averages(X[avg], sum_x, k0 - 1)
            f_erg = _stack_values(problem.f, ex, "f")
            ey, sum_y = running_averages(Y[avg], sum_y, k0 - 1)
            g_erg = _stack_values(problem.gstar, ey, "gstar")
            ey_lx = np.fromiter(map(lx_star.dot, ey), float, hi - k0)
            lex, sum_lx = running_averages(LX[avg], sum_lx, k0 - 1)
            lex_y = np.fromiter(map(y_star.dot, lex), float, hi - k0)
            erg[k0 - r0 : hi - r0] = (f_erg + g_erg + lex_y - ey_lx
                                      - kkt.f_star - kkt.gstar_star)

    # sum_gap[k] = gap[0] + ... + gap[k-1], continuing the carried sum
    gap_sums = continued_cumsum(gap, carry.gap_sum)
    first = 0.0 if carry.gap_sum is None else carry.gap_sum
    v0 = float(lyap[0]) if r0 == 0 else carry.v0

    carry.iterates = fed + X_new.shape[0]
    carry.v0 = v0
    carry.sum_x, carry.sum_y, carry.sum_lx = sum_x, sum_y, sum_lx
    carry.gap_sum = gap_sums[-1]
    carry.overlap = tuple(a[-2:].copy() for a in (X, Y, LX, lx_y, y_lx))
    return CertificateTable(
        ks=np.arange(r0, r1),
        lyapunov=lyap,
        gap=gap,
        ergodic_gap=erg,
        descent_residual=descent,
        lower_bound_residual=lower,
        dist_to_star=dist,
        sum_gap=np.concatenate([[first], gap_sums[:-1]]),
        v0=v0,
        eta_plus=float(eta_p),
        eta_minus=float(eta_m),
        tol=tol,
        status=status,
        asserted=asserted,
    )
