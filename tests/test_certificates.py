import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import cpcert as c
from cpcert import certificates
from cpcert.certificates import (CertifyCarry, RunSummary, certify_trajectory,
                                 eta_coefficients, kkt_residual, make_kkt)
from cpcert.harness import corrupt_trajectory
from cpcert.solver import SolverParams, running_averages, suggest_steps

from oracles import (descent_residual, duality_gap, eta_from_proof_constants,
                     lower_bound_residual, lyapunov, p_quadratic_form,
                     per_row_certificate_columns)
from test_prox import shipped_functions


def ergodic_point(traj, k):
    """Running average of iterates 1..k."""
    return c.PPoint(running_averages(traj.X[1 : k + 1])[0][-1],
                    running_averages(traj.Y[1 : k + 1])[0][-1])


def one_d_problem():
    L = c.MatrixOperator([[1.0]], norm_bound=1.0)
    return c.make_quadratic(L, [1.0], [0.0])


def medium_run(theta=0.5, safety=0.9, iters=400, seed=7, dims=(8, 6)):
    problem = c.random_quadratic(*dims, seed=seed)
    tau, sigma = suggest_steps(theta, problem.L.norm_bound, safety)
    params = SolverParams(tau, sigma, theta, problem.L.norm_bound)
    z0 = c.PPoint(np.zeros(dims[1]), np.zeros(dims[0]))
    traj = c.run(problem, params, z0, max_iters=iters, stop_tol=None)
    return problem, params, traj


def origin_run(problem, params, iters, **kw):
    z0 = c.PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    return c.run(problem, params, z0, max_iters=iters, stop_tol=None, **kw)


def assert_blocks_match_reference(monkeypatch, traj, kkt, problem):
    """Every block split gives bitwise the per-row reference columns."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = per_row_certificate_columns(traj, kkt, problem)
    n_rows = traj.n_iters - 1
    for block in (1, 2, 3, 7, n_rows - 1, n_rows, n_rows + 5):
        monkeypatch.setattr(certificates, "_CERT_BLOCK", block)
        table = certify_trajectory(traj, kkt, problem)
        for name, column in want.items():
            assert np.array_equal(getattr(table, name), column, equal_nan=True), \
                (problem.name, block, name)


def test_kkt_residual_zero_at_saddle():
    problem = c.random_quadratic(6, 4, seed=0)
    assert kkt_residual(problem, problem.kkt.star) <= 1e-10


def test_make_kkt_rejects_non_saddle():
    problem = c.random_quadratic(6, 4, seed=0)
    bogus = c.PPoint(problem.kkt.star.x + 0.05, problem.kkt.star.y)
    with pytest.raises(ValueError):
        make_kkt(problem, bogus, check_tol=1e-8)


def test_duality_gap_zero_at_saddle():
    problem = c.random_quadratic(5, 5, seed=1)
    assert duality_gap(problem.kkt.star, problem.kkt, problem) == pytest.approx(0.0, abs=1e-12)


def test_duality_gap_pinned_value():
    # 1-D quadratic with saddle (0.5, 0.5): evaluating the Lagrangian
    # difference at (0, 0) by hand gives 0.375 - 0.125 = 0.25
    problem = one_d_problem()
    assert duality_gap(c.PPoint([0.0], [0.0]), problem.kkt, problem) == pytest.approx(0.25)


def test_duality_gap_nonnegative_on_random_points():
    problem = c.random_quadratic(7, 5, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        z = c.PPoint(rng.standard_normal(5) * 3, rng.standard_normal(7) * 3)
        assert duality_gap(z, problem.kkt, problem) >= -1e-12


def test_duality_gap_infinite_outside_domain():
    tv = c.make_tv1d(np.array([1.0, 0.0, 1.0]), lam=0.5)
    tau, sigma = suggest_steps(1.0, tv.L.norm_bound)
    params = SolverParams(tau, sigma, 1.0, tv.L.norm_bound)
    kkt = c.kkt_by_long_run(tv, params, 50000)
    outside = c.PPoint(np.zeros(3), np.array([5.0, 5.0]))  # |y| > lam
    assert duality_gap(outside, kkt, tv) == math.inf


def test_lyapunov_zero_at_saddle():
    problem = c.random_quadratic(5, 4, seed=4)
    params = SolverParams(*suggest_steps(0.3, problem.L.norm_bound),
                          theta=0.3, operator_norm=problem.L.norm_bound)
    star = problem.kkt.star
    assert lyapunov(star, star, problem.kkt, problem, params) == pytest.approx(0.0, abs=1e-12)


def test_lyapunov_theta_one_drops_gap_and_cross_terms():
    problem, params, traj = medium_run(theta=1.0, iters=30)
    zk, zk1 = traj.point(3), traj.point(4)
    want = (0.5 * p_quadratic_form(zk - problem.kkt.star, problem.L, params)
            - 0.25 * p_quadratic_form(zk1 - zk, problem.L, params))
    got = lyapunov(zk, zk1, problem.kkt, problem, params)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_lyapunov_dominates_next_distance_along_run():
    problem, params, traj = medium_run(theta=0.25, iters=300)
    for k in range(0, 300, 17):
        zk, zk1 = traj.point(k), traj.point(k + 1) if k + 1 <= 300 else None
        if zk1 is None:
            break
        v = lyapunov(zk, zk1, problem.kkt, problem, params)
        half_next = 0.5 * p_quadratic_form(zk1 - problem.kkt.star, problem.L, params)
        assert v >= half_next - 1e-10 * (1 + abs(v))
        assert v >= -1e-10 * (1 + abs(v))


def test_eta_theta_one_closed_form():
    for product in (0.25, 0.81, 1.0):
        tau = sigma = math.sqrt(product)
        params = SolverParams(tau, sigma, 1.0, 1.0)
        ep, em = eta_coefficients(params)
        want = (1.0 - product) / 2.0
        assert ep == pytest.approx(want, abs=1e-12)
        assert em == pytest.approx(want, abs=1e-12)


def test_eta_vanishes_on_boundary_theta_grid():
    thetas = np.append(np.linspace(0.01, 1.0, 101), [0.5, 0.25])
    for theta in thetas:
        tau, sigma = suggest_steps(float(theta), 1.0, safety=1.0)
        params = SolverParams(tau, sigma, float(theta), 1.0)
        ep, em = eta_coefficients(params)
        assert abs(ep) <= 1e-12
        assert abs(em) <= 1e-12


def test_eta_positive_under_strict_condition():
    for theta in (0.1, 0.25, 0.5, 0.75, 1.0):
        for safety in (0.5, 0.9, 0.99):
            tau, sigma = suggest_steps(theta, 2.0, safety=safety)
            ep, em = eta_coefficients(SolverParams(tau, sigma, theta, 2.0))
            assert ep > 0
            assert em > 0


def test_eta_cross_check_against_proof_constants():
    rng = np.random.default_rng(5)
    for _ in range(200):
        theta = float(rng.uniform(1e-3, 1.0))
        # any product below the positivity corner 4/(1+theta)^2 is admissible
        s2 = float(rng.uniform(0.0, 4.0 / (1 + theta) ** 2 * 0.999))
        ratio = float(10.0 ** rng.uniform(-1, 1))
        sigma = math.sqrt(s2 / ratio)
        tau = ratio * sigma
        params = SolverParams(tau, sigma, theta, 1.0)
        a = eta_coefficients(params)
        b = eta_from_proof_constants(params)
        for x, y in zip(a, b):
            assert abs(x - y) <= 1e-12 * (1.0 + abs(x))


def test_eta_rejects_nonpositive_denominator():
    # huge product forces 1 - sqrt(tau sigma)||L|| theta(1-theta) < 0
    params = SolverParams(5.0, 5.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        eta_coefficients(params)


def test_descent_and_lower_bound_zero_at_saddle():
    problem = c.random_quadratic(5, 4, seed=6)
    params = SolverParams(*suggest_steps(0.6, problem.L.norm_bound),
                          theta=0.6, operator_norm=problem.L.norm_bound)
    star = problem.kkt.star
    assert descent_residual(star, star, star, problem.kkt, problem, params) == \
        pytest.approx(0.0, abs=1e-12)
    assert lower_bound_residual(star, star, problem.kkt, problem, params) == \
        pytest.approx(0.0, abs=1e-12)


def test_descent_residual_along_quadratic_run():
    problem, params, traj = medium_run(theta=0.5, iters=2000, dims=(10, 8))
    kkt = problem.kkt
    for k in range(0, 1999, 97):
        zk, zk1, zk2 = traj.point(k), traj.point(k + 1), traj.point(k + 2)
        v = lyapunov(zk, zk1, kkt, problem, params)
        r = descent_residual(zk, zk1, zk2, kkt, problem, params)
        assert r <= 1e-10 * (1.0 + abs(v))


def test_descent_residual_tv_new_regime():
    tv = c.make_tv1d(c.default_tv_signal(30, seed=1), lam=0.4)
    oracle = SolverParams(*suggest_steps(1.0, tv.L.norm_bound, 0.9),
                          theta=1.0, operator_norm=tv.L.norm_bound)
    kkt = c.kkt_by_long_run(tv, oracle, 200000)
    tau, sigma = suggest_steps(0.3, tv.L.norm_bound, 0.9)
    params = SolverParams(tau, sigma, 0.3, tv.L.norm_bound)
    z0 = c.PPoint(np.zeros(30), np.zeros(29))
    traj = c.run(tv, params, z0, max_iters=500, stop_tol=None)
    table = certify_trajectory(traj, kkt, tv)
    assert bool(np.all(table.flags()["descent"]))


def test_lower_bound_on_boundary_params():
    problem = c.random_quadratic(6, 5, seed=8)
    tau, sigma = suggest_steps(0.75, problem.L.norm_bound, safety=1.0)
    params = SolverParams(tau, sigma, 0.75, problem.L.norm_bound)
    z0 = c.PPoint(np.zeros(5), np.zeros(6))
    traj = c.run(problem, params, z0, max_iters=300, stop_tol=None)
    table = certify_trajectory(traj, problem.kkt, problem)
    assert table.status.kind is c.Validity.ERGODIC_ONLY
    assert bool(np.all(table.flags()["lower_bound"]))


def test_table_matches_scalar_functions():
    problem, params, traj = medium_run(theta=0.75, iters=120, seed=9)
    kkt = problem.kkt
    table = certify_trajectory(traj, kkt, problem)
    for k in (0, 1, 17, 60, 118):
        zk, zk1 = traj.point(k), traj.point(k + 1)
        zk2 = traj.point(k + 2)
        assert table.lyapunov[k] == pytest.approx(
            lyapunov(zk, zk1, kkt, problem, params), rel=1e-9, abs=1e-12)
        assert table.gap[k] == pytest.approx(
            duality_gap(zk1, kkt, problem), rel=1e-9, abs=1e-12)
        assert table.descent_residual[k] == pytest.approx(
            descent_residual(zk, zk1, zk2, kkt, problem, params), rel=1e-6, abs=1e-12)
        assert table.lower_bound_residual[k] == pytest.approx(
            lower_bound_residual(zk, zk1, kkt, problem, params), rel=1e-9, abs=1e-12)
        if k >= 1:
            assert table.ergodic_gap[k] == pytest.approx(
                duality_gap(ergodic_point(traj, k), kkt, problem), rel=1e-9, abs=1e-12)


def test_v_monotone_along_valid_runs():
    for theta, safety in ((0.1, 0.9), (0.5, 1.0), (1.0, 0.99)):
        problem, params, traj = medium_run(theta=theta, safety=safety, iters=400)
        table = certify_trajectory(traj, problem.kkt, problem)
        v = table.lyapunov
        assert np.all(v[1:] <= v[:-1] + 1e-10 * (1.0 + np.abs(v[:-1])))


def test_gap_sum_bounded_by_v0():
    problem, params, traj = medium_run(theta=0.25, iters=600, seed=10)
    table = certify_trajectory(traj, problem.kkt, problem)
    assert np.all(np.diff(table.sum_gap) >= -1e-15)
    assert np.all(table.sum_gap <= table.v0 * (1.0 + 1e-9) + 1e-15)


def test_k_term_nonnegative_along_run():
    problem, params, traj = medium_run(theta=0.4, iters=200, seed=11)
    m = params.operator_norm
    for k in range(1, 199, 13):
        dx = traj.X[k + 1] - traj.X[k]
        kdx = problem.L.apply(dx) / m
        lhs = float(dx @ dx) - float(kdx @ kdx)
        assert lhs >= -1e-12 * float(dx @ dx)


def test_ergodic_bound_check_chain():
    problem, params, traj = medium_run(theta=0.75, iters=5000, seed=12)
    table = certify_trajectory(traj, problem.kkt, problem)
    flags = table.flags()
    pos = table.ks >= 1
    for check in ("jensen", "sum_bound", "ergodic_rate"):
        assert bool(np.all(flags[check][pos])), check
    assert table.ks[pos][0] == 1
    sum_gap = table.sum_gap[pos]
    # Jensen at k = 1 holds with equality: the average IS the first iterate
    gap1 = duality_gap(ergodic_point(traj, 1), problem.kkt, problem)
    assert gap1 == pytest.approx(sum_gap[0], rel=1e-12, abs=1e-15)
    # partial sums are nondecreasing and bounded by V(0)
    assert np.all(np.diff(sum_gap) >= -1e-15)
    assert sum_gap[-1] <= table.v0 * (1.0 + 1e-9)


def test_observational_mode_for_invalid_params():
    problem = one_d_problem()
    bad = SolverParams(1.1, 1.1, 1.0, 1.0)  # product 1.21 > 1
    z0 = c.PPoint([0.0], [0.0])
    traj = c.run(problem, bad, z0, max_iters=200, override_invalid=True, stop_tol=None)
    table = certify_trajectory(traj, problem.kkt, problem)
    assert not table.asserted
    summary = table.summarize()
    assert summary["mode"] == "observational"
    assert summary["all_pass"] is None
    # no per-check pass claims either
    assert summary["fail_counts"] is None
    assert summary["first_failing_k"] is None


def test_certificate_report_rows_carry_values():
    problem, params, traj = medium_run(iters=50, seed=13)
    table = certify_trajectory(traj, problem.kkt, problem)
    assert len(table.ks) == 49
    assert table.ks[0] == 0
    assert math.isnan(table.ergodic_gap[0])
    assert bool(table.flags()["descent"][10]) is True
    assert table.eta_plus == eta_coefficients(params)[0]


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
def test_table_matches_per_row_reference_bitwise(theta, tv_problem, monkeypatch):
    quad = c.random_quadratic(12, 10, seed=7)
    for problem, kkt in ((quad, quad.kkt), tv_problem):
        tau, sigma = suggest_steps(theta, problem.L.norm_bound, 0.9)
        params = SolverParams(tau, sigma, theta, problem.L.norm_bound)
        traj = origin_run(problem, params, 300)
        assert_blocks_match_reference(monkeypatch, traj, kkt, problem)


def test_certify_rejects_vector_only_value_map():
    tv = c.make_tv1d(np.array([1.0, 0.0, 1.0, 0.5]), lam=0.7)
    params = SolverParams(*suggest_steps(1.0, tv.L.norm_bound),
                          theta=1.0, operator_norm=tv.L.norm_bound)
    kkt = c.kkt_by_long_run(tv, params, 50000)
    z0 = c.PPoint(np.zeros(4), np.zeros(3))
    traj = c.run(tv, params, z0, max_iters=20, stop_tol=None)
    assert certify_trajectory(traj, kkt, tv).asserted
    # this box value map returns one scalar for a whole stack
    box = {name: fn for name, fn, _ in shipped_functions()}["box(conj l1)"]
    vector_only = c.ProblemSpec(tv.name, tv.f, box, tv.L)
    with pytest.raises(ValueError, match="row-wise"):
        certify_trajectory(traj, kkt, vector_only)


def test_block_split_bitwise_lasso_signed_zeros(monkeypatch):
    lasso = c.random_lasso(30, 20, 0.2, seed=3)
    norm = lasso.L.norm_bound
    kkt = c.kkt_by_long_run(lasso, SolverParams(*suggest_steps(1.0, norm, 0.9),
                                                theta=1.0, operator_norm=norm), 20000)
    traj = origin_run(lasso, SolverParams(*suggest_steps(0.5, norm, 0.9),
                                          theta=0.5, operator_norm=norm), 120)
    # soft-thresholding leaves -0.0 entries in the history
    assert np.any(np.signbit(traj.X) & (traj.X == 0.0))
    assert_blocks_match_reference(monkeypatch, traj, kkt, lasso)


def test_block_split_bitwise_overflowing_run(monkeypatch):
    problem = c.random_quadratic(12, 10, seed=7)
    norm = problem.L.norm_bound
    bad = SolverParams(3.0 / norm, 3.0 / norm, 1.0, norm)  # product 9 > 1
    traj = origin_run(problem, bad, 300, override_invalid=True)
    table = certify_trajectory(traj, problem.kkt, problem)
    assert not table.asserted
    assert np.isinf(table.gap).any() and np.isnan(table.lyapunov).any()
    assert_blocks_match_reference(monkeypatch, traj, problem.kkt, problem)


@pytest.mark.parametrize("block", [7, certificates._CERT_BLOCK])
def test_block_split_keeps_first_failing_k(monkeypatch, block):
    problem = c.random_quadratic(12, 10, seed=7)
    params = SolverParams(*suggest_steps(0.5, problem.L.norm_bound, 0.9),
                          theta=0.5, operator_norm=problem.L.norm_bound)
    clean = origin_run(problem, params, block + 40)
    for k in (block - 1, block, block + 1):
        traj = corrupt_trajectory(clean, k, 1.0)
        monkeypatch.setattr(certificates, "_CERT_BLOCK", traj.n_iters + 5)
        whole = certify_trajectory(traj, problem.kkt, problem).summarize()
        assert whole["first_failing_k"] is not None
        monkeypatch.setattr(certificates, "_CERT_BLOCK", block)
        assert certify_trajectory(traj, problem.kkt, problem).summarize() == whole
        assert_blocks_match_reference(monkeypatch, traj, problem.kkt, problem)


def test_certify_memory_is_bounded_by_history():
    tv = c.make_tv1d(c.default_tv_signal(200, seed=2), lam=0.5)
    quad = c.random_quadratic(60, 40, seed=3)
    for problem, theta in ((tv, 0.5), (quad, 0.75)):
        norm = problem.L.norm_bound
        params = SolverParams(*suggest_steps(theta, norm, 0.9), theta=theta,
                              operator_norm=norm)
        traj = origin_run(problem, params, 4000)
        kkt = problem.kkt or make_kkt(problem, traj.final, check_tol=None)
        history = traj.X.nbytes + traj.Y.nbytes
        tracemalloc.start()
        try:
            certify_trajectory(traj, kkt, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * history, (problem.name, peak / history)


# --- certifying a run segment by segment ------------------------------------

TABLE_COLUMNS = ("ks", "lyapunov", "gap", "ergodic_gap", "descent_residual",
                 "lower_bound_residual", "dist_to_star", "sum_gap")


def run_segments(problem, params, iters):
    """The run as the sweep makes it: segments ending at multiples of _CERT_BLOCK."""
    z = c.PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    start = 0
    while start <= iters:
        end = min(start + certificates._CERT_BLOCK, iters + 1)
        seg = c.run(problem, params, z, end - max(start, 1), stop_tol=None)
        yield start, seg
        z, start = seg.final, end


def segment_problems(tv_problem):
    quad = c.random_quadratic(12, 10, seed=7)
    lasso = c.random_lasso(30, 20, 0.2, seed=3)
    norm = lasso.L.norm_bound
    lasso_kkt = c.kkt_by_long_run(lasso, SolverParams(*suggest_steps(1.0, norm, 0.9),
                                                      theta=1.0, operator_norm=norm), 20000)
    return [(quad, quad.kkt), tv_problem, (lasso, lasso_kkt)]


@pytest.mark.parametrize("theta", [0.1, 1.0])
def test_segments_certify_bitwise_as_whole_history(theta, tv_problem):
    for problem, kkt in segment_problems(tv_problem):
        norm = problem.L.norm_bound
        params = SolverParams(*suggest_steps(theta, norm, 0.9), theta=theta,
                              operator_norm=norm)
        clean = origin_run(problem, params, 700)
        segments = list(run_segments(problem, params, 700))
        for fault_k in (None, 255, 256, 257):
            carry, summary, tables = CertifyCarry(), RunSummary(), []
            for start, seg in segments:
                if fault_k is not None and start <= fault_k <= start + seg.n_iters:
                    seg = corrupt_trajectory(seg, fault_k - max(start - 1, 0), 1.0)
                table = certify_trajectory(seg, kkt, problem, carry=carry)
                summary.add(table)
                tables.append(table)
            whole = clean if fault_k is None else corrupt_trajectory(clean, fault_k, 1.0)
            want = certify_trajectory(whole, kkt, problem)
            assert len(tables) == 3
            for table in tables:
                assert table.v0 == want.v0
            for name in TABLE_COLUMNS:
                got = np.concatenate([getattr(t, name) for t in tables])
                assert np.array_equal(got, getattr(want, name), equal_nan=True), \
                    (problem.name, fault_k, name)
            assert summary.result() == want.summarize(), (problem.name, fault_k)
            assert (want.summarize()["first_failing_k"] is None) == (fault_k is None)


def test_segment_boundary_checks_v_monotone():
    # V rises only from the last row of one segment to the first of the next
    problem = c.random_quadratic(12, 10, seed=7)
    params = SolverParams(*suggest_steps(0.5, problem.L.norm_bound, 0.9), theta=0.5,
                          operator_norm=problem.L.norm_bound)
    (_, first), (_, second) = run_segments(problem, params, 400)
    carry, summary = CertifyCarry(), RunSummary()
    a = certify_trajectory(first, problem.kkt, problem, carry=carry)
    b = certify_trajectory(second, problem.kkt, problem, carry=carry)
    summary.add(a)
    summary.add(dataclasses.replace(b, lyapunov=b.lyapunov + 10 * (1.0 + abs(a.v0))))
    result = summary.result()
    assert result["fail_counts"]["v_monotone"] == 1
    assert result["first_failing_k"] == a.ks[-1] == 253


def test_continued_segment_must_be_block_aligned():
    problem, params, traj = medium_run(iters=300)
    carry = CertifyCarry()
    certify_trajectory(c.run(problem, params, c.PPoint(np.zeros(6), np.zeros(8)), 99,
                             stop_tol=None), problem.kkt, problem, carry=carry)
    with pytest.raises(ValueError, match="multiple of"):
        certify_trajectory(traj, problem.kkt, problem, carry=carry)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
def test_certify_rejects_nonfinite_or_negative_tol(tol):
    # an infinite tolerance turned every allowance into inf and passed anything
    problem, params, traj = medium_run(iters=50)
    bad = corrupt_trajectory(traj, 20, 1e3)
    with pytest.raises(ValueError, match="tolerance"):
        certify_trajectory(bad, problem.kkt, problem, tol=tol)
