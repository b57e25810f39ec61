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

from .hilbert import PPoint, p_quadratic_form
from .solver import ParamStatus, SolverParams, Trajectory, Validity, validate_params

__all__ = [
    "KKTPoint",
    "CertificateReport",
    "CertificateTable",
    "ErgodicReport",
    "make_kkt",
    "kkt_residual",
    "duality_gap",
    "lyapunov",
    "eta_coefficients",
    "eta_from_proof_constants",
    "descent_residual",
    "lower_bound_residual",
    "ergodic_bound_check",
    "certify_trajectory",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-9


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


def kkt_residual(problem, z: PPoint, tau: float = 1.0, sigma: float = 1.0) -> float:
    """Fixed-point residual of the optimality conditions at z = (x, y).

    Zero iff -L*y in df(x) and Lx in dg*(y), by the prox characterization:
    x = prox_{tau f}(x - tau L*y) and y = prox_{sigma g*}(y + sigma Lx).
    """
    L = problem.L
    rx = z.x - problem.f.prox(z.x - tau * L.apply_adjoint(z.y), tau)
    ry = z.y - problem.gstar.prox(z.y + sigma * L.apply(z.x), sigma)
    return max(float(np.linalg.norm(rx)) / tau, float(np.linalg.norm(ry)) / sigma)


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


def duality_gap(z: PPoint, kkt: KKTPoint, problem) -> float:
    """Duality gap relative to the saddle point; may be +inf outside domains."""
    fx = problem.f.evaluate(z.x)
    gy = problem.gstar.evaluate(z.y)
    if math.isinf(fx) or math.isinf(gy):
        return math.inf
    L = problem.L
    return (
        fx + gy
        + float(L.apply(z.x) @ kkt.star.y)
        - float(z.y @ L.apply(kkt.star.x))
        - kkt.f_star - kkt.gstar_star
    )


def lyapunov(zk: PPoint, zk1: PPoint, kkt: KKTPoint, problem,
             params: SolverParams) -> float:
    """Lyapunov value V(k) from the consecutive iterates (z_k, z_{k+1}).

    V(k) = 0.5 ||z_k - z*||_P^2 - 0.25 ||z_{k+1} - z_k||_P^2
           - (1-theta)/2 * D(z_{k+1})
           - (1-theta)/2 * (<y_k - y*, L(x_{k+1} - x_k)> - <L(x_k - x*), y_{k+1} - y_k>)

    Along runs satisfying the step-size condition this is nonincreasing and
    bounded below by 0.5 ||z_{k+1} - z*||_P^2.
    """
    L = problem.L
    c = 0.5 * (1.0 - params.theta)
    gap = duality_gap(zk1, kkt, problem)
    cross = (
        float((zk.y - kkt.star.y) @ L.apply(zk1.x - zk.x))
        - float(L.apply(zk.x - kkt.star.x) @ (zk1.y - zk.y))
    )
    v = (
        0.5 * p_quadratic_form(zk - kkt.star, L, params)
        - 0.25 * p_quadratic_form(zk1 - zk, L, params)
        - c * gap
        - c * cross
    )
    if not math.isfinite(v):
        raise RuntimeError("non-finite Lyapunov value: iterates left dom f x dom g*")
    return v


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


def eta_from_proof_constants(params: SolverParams) -> tuple[float, float]:
    """Cross-check route: eta_pm = gamma_pm - beta_pm^2 / alpha_pm.

    alpha_pm = (1 pm s t (1-t)) / 2, beta_pm = (2(1-t) pm (1+t) s) / 4,
    gamma_pm = (1 pm s (1-t)) / 2 with s = sqrt(tau sigma) ||L||. Must agree
    with :func:`eta_coefficients` to roundoff.
    """
    t = params.theta
    s = math.sqrt(params.tau * params.sigma) * params.operator_norm
    out = []
    for sign in (+1.0, -1.0):
        alpha = 0.5 * (1.0 + sign * s * t * (1.0 - t))
        beta = 0.25 * (2.0 * (1.0 - t) + sign * (1.0 + t) * s)
        gamma = 0.5 * (1.0 + sign * s * (1.0 - t))
        if alpha <= 0:
            raise ValueError("nonpositive completion constant alpha")
        out.append(gamma - beta ** 2 / alpha)
    return out[0], out[1]


def descent_residual(zk: PPoint, zk1: PPoint, zk2: PPoint, kkt: KKTPoint,
                     problem, params: SolverParams) -> float:
    """LHS - RHS of the per-iteration descent inequality (<= 0 expected).

    Uses three consecutive iterates z_k, z_{k+1}, z_{k+2} of one run and the
    same certified operator-norm bound as parameter validation; K denotes
    L scaled by that bound (zero operator if the bound is zero).
    """
    L = problem.L
    m = params.operator_norm
    eta_p, eta_m = eta_coefficients(params)
    dx2 = zk2.x - zk1.x
    dy1 = zk1.y - zk.y
    k_dx2 = L.apply(dx2) / m if m > 0 else np.zeros_like(zk.y)
    w_plus = k_dx2 / math.sqrt(params.tau) + dy1 / math.sqrt(params.sigma)
    w_minus = k_dx2 / math.sqrt(params.tau) - dy1 / math.sqrt(params.sigma)
    vk = lyapunov(zk, zk1, kkt, problem, params)
    vk1 = lyapunov(zk1, zk2, kkt, problem, params)
    return (
        vk1 - vk
        + duality_gap(zk1, kkt, problem)
        + params.theta / (4.0 * params.tau)
        * (float(dx2 @ dx2) - float(k_dx2 @ k_dx2))
        + 0.25 * eta_p * float(w_plus @ w_plus)
        + 0.25 * eta_m * float(w_minus @ w_minus)
    )


def lower_bound_residual(zk: PPoint, zk1: PPoint, kkt: KKTPoint, problem,
                         params: SolverParams) -> float:
    """0.5 ||z_{k+1} - z*||_P^2 - V(k), expected <= 0."""
    vk = lyapunov(zk, zk1, kkt, problem, params)
    return 0.5 * p_quadratic_form(zk1 - kkt.star, problem.L, params) - vk


@dataclass(frozen=True)
class CertificateReport:
    """Per-iteration certificate values and pass flags.

    Flags are None when the run is observational (Invalid parameters under
    the override flag); nothing is asserted in that mode.
    """

    k: int
    lyapunov: float
    gap: float
    ergodic_gap: float
    descent_residual: float
    lower_bound_residual: float
    eta_plus: float
    eta_minus: float
    dist_to_star: float
    sum_gap: float
    pass_descent: bool | None
    pass_lower_bound: bool | None
    pass_v_monotone: bool | None
    pass_jensen: bool | None
    pass_sum_bound: bool | None
    pass_ergodic_rate: bool | None


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
    """Certificate values for every full three-iterate window of one run.

    Row k (k = 0..K-2) holds V(k), D(z_{k+1}), D(avg_k), the descent and
    lower-bound residuals for the window (z_k, z_{k+1}, z_{k+2}), the
    canonical distance ||z_k - z*||, and sum_gap = sum_{i<=k} D(z_i).
    ``ergodic_gap`` is NaN at k = 0 (averages start at k = 1).
    """

    ks: np.ndarray
    lyapunov: np.ndarray
    gap: np.ndarray
    ergodic_gap: np.ndarray
    descent_residual: np.ndarray
    lower_bound_residual: np.ndarray
    dist_to_star: np.ndarray
    sum_gap: np.ndarray
    eta_plus: float
    eta_minus: float
    tol: float
    status: ParamStatus
    asserted: bool

    @property
    def v0(self) -> float:
        return float(self.lyapunov[0])

    def flags(self) -> dict[str, np.ndarray]:
        return _flag_arrays(self.ks, self.lyapunov, self.ergodic_gap,
                            self.descent_residual, self.lower_bound_residual,
                            self.sum_gap, self.v0, self.tol)

    def rows(self) -> list[CertificateReport]:
        flags = self.flags() if self.asserted else None
        out = []
        for i, k in enumerate(self.ks):
            fl = {c: bool(flags[c][i]) if flags is not None else None for c in _CHECKS}
            out.append(CertificateReport(
                k=int(k),
                lyapunov=float(self.lyapunov[i]),
                gap=float(self.gap[i]),
                ergodic_gap=float(self.ergodic_gap[i]),
                descent_residual=float(self.descent_residual[i]),
                lower_bound_residual=float(self.lower_bound_residual[i]),
                eta_plus=self.eta_plus,
                eta_minus=self.eta_minus,
                dist_to_star=float(self.dist_to_star[i]),
                sum_gap=float(self.sum_gap[i]),
                pass_descent=fl["descent"],
                pass_lower_bound=fl["lower_bound"],
                pass_v_monotone=fl["v_monotone"],
                pass_jensen=fl["jensen"],
                pass_sum_bound=fl["sum_bound"],
                pass_ergodic_rate=fl["ergodic_rate"],
            ))
        return out

    def summarize(self) -> dict:
        """Aggregate pass/fail summary (observational when not asserted)."""
        out = {
            "rows": int(len(self.ks)),
            "status": self.status.kind.value,
            "asserted": self.asserted,
            "tol": self.tol,
            "v0": _json_float(self.v0),
            "eta_plus": _json_float(self.eta_plus),
            "eta_minus": _json_float(self.eta_minus),
            "max_descent_residual": _json_float(np.max(self.descent_residual)),
            "max_lower_bound_residual": _json_float(np.max(self.lower_bound_residual)),
            "final_gap": _json_float(self.gap[-1]),
            "final_ergodic_gap": _json_float(self.ergodic_gap[-1]),
            "final_dist_to_star": _json_float(self.dist_to_star[-1]),
            "final_sum_gap": _json_float(self.sum_gap[-1]),
        }
        if not self.asserted:
            out["mode"] = "observational"
            out["all_pass"] = None
            out["first_failing_k"] = None
            out["fail_counts"] = None
            return out
        flags = self.flags()
        fail_counts = {c: int(np.size(flags[c]) - np.count_nonzero(flags[c]))
                       for c in _CHECKS}
        all_ok = all(v == 0 for v in fail_counts.values())
        first_k = None
        if not all_ok:
            bad = ~np.logical_and.reduce([flags[c] for c in _CHECKS])
            first_k = int(self.ks[np.argmax(bad)])
        out["mode"] = "asserted"
        out["all_pass"] = bool(all_ok)
        out["first_failing_k"] = first_k
        out["fail_counts"] = fail_counts
        return out


def _json_float(v) -> float | None:
    v = float(v)
    return v if math.isfinite(v) else None


def certify_trajectory(traj: Trajectory, kkt: KKTPoint, problem,
                       tol: float = DEFAULT_TOL) -> CertificateTable:
    """Evaluate every certificate along a full-history trajectory.

    Equivalent to calling the per-window scalar functions at each k, but
    computed in one vectorized pass (operator images of the iterates are
    formed once and reused by every check, and each value map is called
    once on a stack of rows).

    Raises ValueError if a value map does not return one value per row.
    """
    if not traj.full_history:
        raise ValueError("certification needs a full-history trajectory")
    if traj.n_iters < 2:
        raise ValueError("need at least 2 iterations to certify")
    # Diverging observational runs may overflow to inf/NaN; report those
    # values as-is instead of warning. Asserted runs raise on non-finite V.
    with np.errstate(over="ignore", invalid="ignore"):
        return _certify(traj, kkt, problem, tol)


def _stack_values(fn, rows: np.ndarray, name: str) -> np.ndarray:
    """Values of ``fn`` on each row of ``rows``, checked to have shape (k,)."""
    values = np.asarray(fn.evaluate(rows), dtype=float)
    if values.shape != (rows.shape[0],):
        raise ValueError(
            f"{name}.evaluate returned shape {values.shape} for a stack of "
            f"{rows.shape[0]} rows; value maps must be row-wise"
        )
    return values


def _certify(traj, kkt, problem, tol):
    params = traj.params
    status = validate_params(params)
    asserted = status.kind is not Validity.INVALID
    L = problem.L
    tau, sigma, theta = params.tau, params.sigma, params.theta
    m_bound = params.operator_norm

    X, Y = traj.X, traj.Y
    big_k = traj.n_iters
    n_rows = big_k - 1
    # Value maps first: their stacked temporaries are freed before the
    # window arrays below exist, so they do not raise peak memory.
    f_vals = _stack_values(problem.f, X, "f")
    g_vals = _stack_values(problem.gstar, Y, "gstar")
    ex, ey = traj.ergodic_X[: n_rows - 1], traj.ergodic_Y[: n_rows - 1]
    f_erg = _stack_values(problem.f, ex, "f")
    g_erg = _stack_values(problem.gstar, ey, "gstar")

    LX = L.apply_stack(X)
    x_star, y_star = kkt.star.x, kkt.star.y
    lx_star = L.apply(x_star)

    dxs = X - x_star
    dys = Y - y_star
    ldxs = LX - lx_star
    # P-form of z_k - z* and of consecutive increments
    p_star = ((dxs * dxs).sum(axis=1) / tau + (dys * dys).sum(axis=1) / sigma
              - (1.0 + theta) * (ldxs * dys).sum(axis=1))
    inc_x = np.diff(X, axis=0)
    inc_y = np.diff(Y, axis=0)
    inc_lx = np.diff(LX, axis=0)
    p_inc = ((inc_x * inc_x).sum(axis=1) / tau + (inc_y * inc_y).sum(axis=1) / sigma
             - (1.0 + theta) * (inc_lx * inc_y).sum(axis=1))

    gaps = f_vals + g_vals + LX @ y_star - Y @ lx_star - kkt.f_star - kkt.gstar_star

    c = 0.5 * (1.0 - theta)
    cross = ((dys[:-1] * inc_lx).sum(axis=1) - (ldxs[:-1] * inc_y).sum(axis=1))
    v = 0.5 * p_star[:-1] - 0.25 * p_inc - c * gaps[1:] - c * cross  # V(0..K-1)
    if asserted and not np.all(np.isfinite(v)):
        bad = int(np.argmax(~np.isfinite(v)))
        raise RuntimeError(f"non-finite Lyapunov value at iteration {bad}")

    try:
        eta_p, eta_m = eta_coefficients(params)
    except ValueError:
        if asserted:
            raise
        eta_p = eta_m = math.nan

    # Descent windows k = 0..K-2: increments x_{k+2}-x_{k+1} vs y_{k+1}-y_k
    k_dx = inc_lx[1:] / m_bound if m_bound > 0 else np.zeros_like(inc_lx[1:])
    theta_term = theta / (4.0 * tau) * (
        (inc_x[1:] * inc_x[1:]).sum(axis=1) - (k_dx * k_dx).sum(axis=1))
    wp = k_dx / math.sqrt(tau) + inc_y[:-1] / math.sqrt(sigma)
    wm = k_dx / math.sqrt(tau) - inc_y[:-1] / math.sqrt(sigma)
    descent = (v[1:] - v[:-1] + gaps[1 : big_k]
               + theta_term
               + 0.25 * eta_p * (wp * wp).sum(axis=1)
               + 0.25 * eta_m * (wm * wm).sum(axis=1))

    lower = 0.5 * p_star[1 : big_k] - v[: big_k - 1]

    # Ergodic gaps D(avg_k) for k = 1..K-2, reusing cumulative images of L.
    # The L-terms stay per-row dot products: a matrix-vector product sums
    # in another order and would change the last bits.
    lex = np.cumsum(LX[1:], axis=0) / np.arange(1, big_k + 1)[:, None]
    lex_y = np.fromiter(map(y_star.dot, lex[: n_rows - 1]), float, n_rows - 1)
    ey_lx = np.fromiter(map(lx_star.dot, ey), float, n_rows - 1)
    erg = np.empty(n_rows)
    erg[0] = math.nan
    erg[1:] = f_erg + g_erg + lex_y - ey_lx - kkt.f_star - kkt.gstar_star

    sum_gap = np.concatenate([[0.0], np.cumsum(gaps[1 : big_k - 1])])
    dist = np.sqrt((dxs[:n_rows] * dxs[:n_rows]).sum(axis=1)
                   + (dys[:n_rows] * dys[:n_rows]).sum(axis=1))

    return CertificateTable(
        ks=np.arange(n_rows),
        lyapunov=v[:n_rows],
        gap=gaps[1 : big_k],
        ergodic_gap=erg,
        descent_residual=descent,
        lower_bound_residual=lower[:n_rows],
        dist_to_star=dist,
        sum_gap=sum_gap,
        eta_plus=float(eta_p),
        eta_minus=float(eta_m),
        tol=tol,
        status=status,
        asserted=asserted,
    )


@dataclass(frozen=True)
class ErgodicReport:
    """Per-k outcomes of the ergodic chain checks (k = 1..K-2).

    jensen_ok: D(avg_k) <= (1/k) sum_{i<=k} D(z_i)
    sum_ok:    sum_{i<=k} D(z_i) <= V(0)
    rate_ok:   D(avg_k) <= V(0)/k
    """

    ks: np.ndarray
    jensen_ok: np.ndarray
    sum_ok: np.ndarray
    rate_ok: np.ndarray
    sum_gap: np.ndarray
    v0: float

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.jensen_ok) and np.all(self.sum_ok)
                    and np.all(self.rate_ok))


def ergodic_bound_check(traj: Trajectory, kkt: KKTPoint, problem,
                        tol: float = DEFAULT_TOL) -> ErgodicReport:
    """Check the ergodic duality-gap chain along a trajectory."""
    table = certify_trajectory(traj, kkt, problem, tol=tol)
    flags = table.flags()
    pos = table.ks >= 1
    return ErgodicReport(
        ks=table.ks[pos],
        jensen_ok=flags["jensen"][pos],
        sum_ok=flags["sum_bound"][pos],
        rate_ok=flags["ergodic_rate"][pos],
        sum_gap=table.sum_gap[pos],
        v0=table.v0,
    )
