"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the spectral-norm
oracle runs a cyclic Jacobi eigensolver instead of power iteration, the
1-D total-variation oracle enumerates subgradient sign patterns instead of
running any iterative solver, the reference step re-validates every input
instead of trusting the solver loop's single finiteness pass, and the
reference certificate columns evaluate the value maps one row at a time.

The scalar reference certificates (duality gap, Lyapunov value, descent
and lower-bound residuals) evaluate one window of iterates at a time
through the step-size weighted quadratic form, where the library computes
every window in one vectorized pass. The subgradient membership tests
check the prox inclusion of each shipped function family.
"""

import itertools
import math

import numpy as np

from cpcert.certificates import eta_coefficients
from cpcert.hilbert import PPoint, as_vector
from cpcert.solver import running_averages


# --- inner products and the P-form ------------------------------------------

def dot(a, b) -> float:
    """Canonical inner product sum_i a_i b_i."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(a @ b)


def _check_point(z, L):
    if z.x.shape[0] != L.cols or z.y.shape[0] != L.rows:
        raise ValueError(
            f"point dims ({z.x.shape[0]}, {z.y.shape[0]}) do not match "
            f"operator dims ({L.cols}, {L.rows})"
        )


def p_quadratic_form(z, L, params) -> float:
    """Quadratic form (1/tau)||x||^2 + (1/sigma)||y||^2 - (1+theta)<Lx, y>.

    Nonnegative for all z whenever the step-size product condition holds.
    """
    _check_point(z, L)
    return (
        float(z.x @ z.x) / params.tau
        + float(z.y @ z.y) / params.sigma
        - (1.0 + params.theta) * float(L.apply(z.x) @ z.y)
    )


def p_inner(z1, z2, L, params) -> float:
    """Symmetric bilinear form polarizing :func:`p_quadratic_form`."""
    _check_point(z1, L)
    _check_point(z2, L)
    return (
        float(z1.x @ z2.x) / params.tau
        + float(z1.y @ z2.y) / params.sigma
        - 0.5 * (1.0 + params.theta)
        * (float(L.apply(z1.x) @ z2.y) + float(L.apply(z2.x) @ z1.y))
    )


def denominator_identity_residual(theta: float) -> float:
    """|(1 - 2t + 9t^2 - 4t^3) - ((1-t)^2 + 4t^2(2-t))| at t = theta."""
    lhs = 1.0 - 2.0 * theta + 9.0 * theta ** 2 - 4.0 * theta ** 3
    rhs = (1.0 - theta) ** 2 + 4.0 * theta ** 2 * (2.0 - theta)
    return abs(lhs - rhs)


# --- scalar reference certificates -------------------------------------------

def duality_gap(z, kkt, problem) -> float:
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


def lyapunov(zk, zk1, kkt, problem, params) -> float:
    """Lyapunov value V(k) from the consecutive iterates (z_k, z_{k+1}).

    V(k) = 0.5 ||z_k - z*||_P^2 - 0.25 ||z_{k+1} - z_k||_P^2
           - (1-theta)/2 * D(z_{k+1})
           - (1-theta)/2 * (<y_k - y*, L(x_{k+1} - x_k)> - <L(x_k - x*), y_{k+1} - y_k>)
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


def eta_from_proof_constants(params):
    """Cross-check route: eta_pm = gamma_pm - beta_pm^2 / alpha_pm.

    alpha_pm = (1 pm s t (1-t)) / 2, beta_pm = (2(1-t) pm (1+t) s) / 4,
    gamma_pm = (1 pm s (1-t)) / 2 with s = sqrt(tau sigma) ||L||. Must agree
    with :func:`cpcert.certificates.eta_coefficients` to roundoff.
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


def descent_residual(zk, zk1, zk2, kkt, problem, params) -> float:
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


def lower_bound_residual(zk, zk1, kkt, problem, params) -> float:
    """0.5 ||z_{k+1} - z*||_P^2 - V(k), expected <= 0."""
    vk = lyapunov(zk, zk1, kkt, problem, params)
    return 0.5 * p_quadratic_form(zk1 - kkt.star, problem.L, params) - vk


# --- prox inclusion checks ---------------------------------------------------

def check_prox_inclusion(f, x, gamma, subgrad_test) -> bool:
    """Check the subgradient inclusion (x - p)/gamma in df(p) at p = prox(x).

    ``subgrad_test(p, u)`` decides membership of u in the subdifferential
    of the concrete f at p, within its own tolerance. Returns False on
    violation rather than raising.
    """
    if not gamma > 0:
        raise ValueError(f"prox step must be positive, got {gamma}")
    x = as_vector(x)
    p = f.prox(x, gamma)
    return bool(subgrad_test(p, (x - p) / gamma))


def l1_subgrad_test(lam, tol=1e-9):
    """u in d(lam*||.||_1)(p): u_i = lam*sign(p_i) off zero, |u_i| <= lam at zero."""
    def test(p, u):
        p = np.asarray(p)
        u = np.asarray(u)
        at_zero = np.abs(p) <= tol
        ok_zero = np.abs(u[at_zero]) <= lam + tol
        ok_pos = np.abs(u[~at_zero] - lam * np.sign(p[~at_zero])) <= tol
        return bool(np.all(ok_zero) and np.all(ok_pos))
    return test


def quadratic_subgrad_test(a, tol=1e-9):
    """d(0.5*||. - a||^2)(p) = {p - a}."""
    a = as_vector(a)

    def test(p, u):
        return bool(np.linalg.norm(u - (p - a)) <= tol * (1.0 + np.linalg.norm(p)))
    return test


def jacobi_eigenvalues(s, sweeps=60, tol=1e-14):
    """Eigenvalues of a symmetric matrix by the cyclic Jacobi method."""
    a = np.array(s, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    scale = max(np.max(np.abs(a)), 1.0)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                phi = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(phi) / (abs(phi) + np.sqrt(phi * phi + 1.0))
                if phi == 0.0:
                    t = 1.0
                cth = 1.0 / np.sqrt(t * t + 1.0)
                sth = t * cth
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = cth
                rot[p, q] = sth
                rot[q, p] = -sth
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def jacobi_spectral_norm(matrix):
    """Largest singular value via Jacobi eigenvalues of the Gram matrix."""
    a = np.asarray(matrix, dtype=float)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    eigs = jacobi_eigenvalues(gram)
    return float(np.sqrt(max(eigs[-1], 0.0)))


def forward_difference_matrix(n):
    d = np.zeros((n - 1, n))
    for i in range(n - 1):
        d[i, i] = -1.0
        d[i, i + 1] = 1.0
    return d


def tv1d_exhaustive(signal, lam, feas_tol=1e-9):
    """Exact minimizer of 0.5||x - s||^2 + lam*||Dx||_1 for tiny n.

    Enumerates every sign pattern of Dx, solves the stationarity system
    x = s - lam * D^T u with u fixed to the pattern signs off the zero set
    and determined by (Dx)_Z = 0 on it, keeps patterns whose multiplier is
    feasible, and returns the candidate with the smallest objective.
    """
    s = np.asarray(signal, dtype=float)
    n = s.shape[0]
    if n > 8:
        raise ValueError("exhaustive oracle is for n <= 8")
    if lam == 0.0:
        return s.copy()
    d = forward_difference_matrix(n)
    ddt = d @ d.T
    ds = d @ s
    best_x, best_obj = None, np.inf
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=n - 1):
        sig = np.array(pattern)
        zero = sig == 0.0
        free = ~zero
        u = sig.copy()
        if zero.any():
            rhs = ds[zero] - lam * ddt[np.ix_(zero, free)] @ sig[free]
            u[zero] = np.linalg.solve(lam * ddt[np.ix_(zero, zero)], rhs)
            if np.max(np.abs(u[zero])) > 1.0 + feas_tol:
                continue
        x = s - lam * (d.T @ u)
        dx = d @ x
        if free.any() and np.min(sig[free] * dx[free]) < -feas_tol:
            continue
        if zero.any() and np.max(np.abs(dx[zero])) > feas_tol:
            continue
        obj = 0.5 * np.sum((x - s) ** 2) + lam * np.sum(np.abs(dx))
        if obj < best_obj:
            best_obj, best_x = obj, x
    if best_x is None:
        raise RuntimeError("no feasible sign pattern found")
    return best_x


def checked_step(z, problem, params):
    """One primal-dual update with every input and result re-validated."""
    tau, sigma, theta = params.tau, params.sigma, params.theta
    L = problem.L
    x, y = as_vector(z.x), as_vector(z.y)
    x_arg = as_vector(x - tau * L.apply_adjoint(as_vector(y)))
    x_new = as_vector(problem.f.prox(x_arg, tau))
    x_bar = as_vector(x_new + theta * (x_new - x))
    y_arg = as_vector(y + sigma * L.apply(x_bar))
    y_new = as_vector(problem.gstar.prox(y_arg, sigma))
    return PPoint(x_new, y_new)


def checked_iterates(problem, params, z0, iters):
    """Iterates 0..iters of :func:`checked_step`, stacked as (X, Y)."""
    zs = [z0]
    for _ in range(iters):
        zs.append(checked_step(zs[-1], problem, params))
    return np.stack([z.x for z in zs]), np.stack([z.y for z in zs])


def per_row_certificate_columns(traj, kkt, problem):
    """Certificate columns of a full-history run, value maps called per row.

    Follows the same formulas as the vectorized certifier, so on the same
    trajectory every column must agree bitwise.
    """
    params = traj.params
    L = problem.L
    tau, sigma, theta = params.tau, params.sigma, params.theta
    m_bound = params.operator_norm
    X, Y = traj.X, traj.Y
    big_k = traj.n_iters
    n_rows = big_k - 1
    LX = L.apply_stack(X)
    x_star, y_star = kkt.star.x, kkt.star.y
    lx_star = L.apply(x_star)

    dxs, dys, ldxs = X - x_star, Y - y_star, LX - lx_star
    p_star = ((dxs * dxs).sum(axis=1) / tau + (dys * dys).sum(axis=1) / sigma
              - (1.0 + theta) * (ldxs * dys).sum(axis=1))
    inc_x, inc_y, inc_lx = np.diff(X, axis=0), np.diff(Y, axis=0), np.diff(LX, axis=0)
    p_inc = ((inc_x * inc_x).sum(axis=1) / tau + (inc_y * inc_y).sum(axis=1) / sigma
             - (1.0 + theta) * (inc_lx * inc_y).sum(axis=1))

    f_vals = np.array([problem.f.evaluate(x) for x in X])
    g_vals = np.array([problem.gstar.evaluate(y) for y in Y])
    gaps = f_vals + g_vals + LX @ y_star - Y @ lx_star - kkt.f_star - kkt.gstar_star

    c = 0.5 * (1.0 - theta)
    cross = (dys[:-1] * inc_lx).sum(axis=1) - (ldxs[:-1] * inc_y).sum(axis=1)
    v = 0.5 * p_star[:-1] - 0.25 * p_inc - c * gaps[1:] - c * cross

    eta_p, eta_m = eta_coefficients(params)
    k_dx = inc_lx[1:] / m_bound
    theta_term = theta / (4.0 * tau) * (
        (inc_x[1:] * inc_x[1:]).sum(axis=1) - (k_dx * k_dx).sum(axis=1))
    wp = k_dx / math.sqrt(tau) + inc_y[:-1] / math.sqrt(sigma)
    wm = k_dx / math.sqrt(tau) - inc_y[:-1] / math.sqrt(sigma)
    descent = (v[1:] - v[:-1] + gaps[1:big_k] + theta_term
               + 0.25 * eta_p * (wp * wp).sum(axis=1)
               + 0.25 * eta_m * (wm * wm).sum(axis=1))

    lex = running_averages(LX[1:])[0]
    ergodic_x, ergodic_y = running_averages(X[1:])[0], running_averages(Y[1:])[0]
    erg = np.full(n_rows, math.nan)
    for k in range(1, n_rows):
        ex, ey = ergodic_x[k - 1], ergodic_y[k - 1]
        erg[k] = (problem.f.evaluate(ex) + problem.gstar.evaluate(ey)
                  + float(lex[k - 1] @ y_star) - float(ey @ lx_star)
                  - kkt.f_star - kkt.gstar_star)

    return {
        "lyapunov": v[:n_rows],
        "gap": gaps[1:big_k],
        "ergodic_gap": erg,
        "descent_residual": descent,
        "lower_bound_residual": (0.5 * p_star[1:big_k] - v[: big_k - 1])[:n_rows],
        "dist_to_star": np.sqrt((dxs[:n_rows] * dxs[:n_rows]).sum(axis=1)
                                + (dys[:n_rows] * dys[:n_rows]).sum(axis=1)),
        "sum_gap": np.concatenate([[0.0], np.cumsum(gaps[1 : big_k - 1])]),
    }
