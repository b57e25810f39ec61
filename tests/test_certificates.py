import dataclasses
import itertools
import math

import numpy as np
import pytest

import cpcert as c
from cpcert import certificates
from cpcert.certificates import (CertificateTable, CertifyCarry, _flag_arrays,
                                 certify_trajectory, eta_coefficients, kkt_residual,
                                 make_kkt)
from cpcert.harness import corrupt_trajectory
from cpcert.solver import SolverParams, running_averages, suggest_steps

from conftest import traced_peak
from oracles import (descent_residual, duality_gap, eta_from_proof_constants,
                     lower_bound_residual, lyapunov, p_quadratic_form,
                     per_row_certificate_columns)
from test_prox import shipped_functions


def ergodic_point(traj, k):
    """Running average of iterates 1..k."""
    return c.PPoint(running_averages(traj.X[1 : k + 1])[0][-1],
                    running_averages(traj.Y[1 : k + 1])[0][-1])


def iterate(traj, k):
    """Iterate k of a run as a point."""
    return c.PPoint(traj.X[k], traj.Y[k])


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


def segment_bounds(length, iterates):
    """(start, end) iterates of each segment of a run of ``iterates``
    iterates cut every ``length``, as the harness cuts it; the first segment
    ends at the first multiple of ``length`` that gives it one window
    (three iterates)."""
    start, end = 0, -(-3 // length) * length
    while start < iterates:
        end = min(end, iterates)
        yield start, end
        start, end = end, end + length


def summary_of(traj, kkt, problem):
    """The summary of ``traj`` certified as one segment."""
    carry = CertifyCarry()
    certify_trajectory(traj, kkt, problem, carry=carry)
    return carry.result()


def certify_in_segments(monkeypatch, traj, kkt, problem, length, carry=None):
    """The tables of ``traj`` fed in carried segments of ``length`` iterates,
    each later one repeating the last iterate fed, and the history's image
    as the segments compute it. Pass ``carry`` to read the run's summary."""
    monkeypatch.setattr(certificates, "_segment_iterates", lambda width: length)
    carry = CertifyCarry() if carry is None else carry
    tables, images = [], []
    for start, end in segment_bounds(length, traj.n_iters + 1):
        lo = max(start - 1, 0)
        seg = c.Trajectory(traj.params, traj.X[lo:end], traj.Y[lo:end], end - lo - 1, None)
        images.append(problem.L.apply_stack(traj.X[start:end]))
        tables.append(certify_trajectory(seg, kkt, problem, carry=carry))
    return tables, np.concatenate(images)


def assert_segments_match_reference(monkeypatch, traj, kkt, problem):
    """Carried segments of every length give bitwise the per-row reference
    columns, on the history's image as the segments compute it."""
    n = traj.n_iters + 1  # iterates
    for length in (1, 2, 3, 7, n - 1, n, n + 5):
        with np.errstate(over="ignore", invalid="ignore"):
            tables, lx = certify_in_segments(monkeypatch, traj, kkt, problem, length)
            want = per_row_certificate_columns(traj, kkt, problem, LX=lx)
        ks = np.concatenate([t.ks for t in tables])
        assert np.array_equal(ks, np.arange(n - 2)), (problem.name, length)
        for name, column in want.items():
            got = np.concatenate([getattr(t, name) for t in tables])
            assert np.array_equal(got, column, equal_nan=True), \
                (problem.name, length, name)


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
    kkt = c.kkt_by_long_run(tv, 50000)
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
    zk, zk1 = iterate(traj, 3), iterate(traj, 4)
    want = (0.5 * p_quadratic_form(zk - problem.kkt.star, problem.L, params)
            - 0.25 * p_quadratic_form(zk1 - zk, problem.L, params))
    got = lyapunov(zk, zk1, problem.kkt, problem, params)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_lyapunov_dominates_next_distance_along_run():
    problem, params, traj = medium_run(theta=0.25, iters=300)
    for k in range(0, 300, 17):
        zk, zk1 = iterate(traj, k), iterate(traj, k + 1) if k + 1 <= 300 else None
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
        zk, zk1, zk2 = iterate(traj, k), iterate(traj, k + 1), iterate(traj, k + 2)
        v = lyapunov(zk, zk1, kkt, problem, params)
        r = descent_residual(zk, zk1, zk2, kkt, problem, params)
        assert r <= 1e-10 * (1.0 + abs(v))


def test_descent_residual_tv_new_regime():
    tv = c.make_tv1d(c.default_tv_signal(30, seed=1), lam=0.4)
    kkt = c.kkt_by_long_run(tv, 200000)
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
        zk, zk1 = iterate(traj, k), iterate(traj, k + 1)
        zk2 = iterate(traj, k + 2)
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
    carry = CertifyCarry()
    table = certify_trajectory(traj, problem.kkt, problem, carry=carry)
    assert not table.asserted
    summary = carry.result()
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
        assert_segments_match_reference(monkeypatch, traj, kkt, problem)


def test_certify_needs_two_iterations(tv_problem):
    problem, kkt = tv_problem
    params = SolverParams(*suggest_steps(1.0, problem.L.norm_bound),
                          theta=1.0, operator_norm=problem.L.norm_bound)
    with pytest.raises(ValueError, match="at least 2 iterations"):
        certify_trajectory(origin_run(problem, params, 1), kkt, problem)


def test_certify_rejects_vector_only_value_map():
    tv = c.make_tv1d(np.array([1.0, 0.0, 1.0, 0.5]), lam=0.7)
    params = SolverParams(*suggest_steps(1.0, tv.L.norm_bound),
                          theta=1.0, operator_norm=tv.L.norm_bound)
    kkt = c.kkt_by_long_run(tv, 50000)
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
    kkt = c.kkt_by_long_run(lasso, 20000)
    traj = origin_run(lasso, SolverParams(*suggest_steps(0.5, norm, 0.9),
                                          theta=0.5, operator_norm=norm), 120)
    # soft-thresholding leaves -0.0 entries in the history
    assert np.any(np.signbit(traj.X) & (traj.X == 0.0))
    assert_segments_match_reference(monkeypatch, traj, kkt, lasso)


def test_block_split_bitwise_overflowing_run(monkeypatch):
    problem = c.random_quadratic(12, 10, seed=7)
    norm = problem.L.norm_bound
    bad = SolverParams(3.0 / norm, 3.0 / norm, 1.0, norm)  # product 9 > 1
    traj = origin_run(problem, bad, 300, override_invalid=True)
    table = certify_trajectory(traj, problem.kkt, problem)
    assert not table.asserted
    assert np.isinf(table.gap).any() and np.isnan(table.lyapunov).any()
    assert_segments_match_reference(monkeypatch, traj, problem.kkt, problem)


@pytest.mark.parametrize("length", [7, 256])
def test_block_split_keeps_first_failing_k(monkeypatch, length):
    problem = c.random_quadratic(12, 10, seed=7)
    params = SolverParams(*suggest_steps(0.5, problem.L.norm_bound, 0.9),
                          theta=0.5, operator_norm=problem.L.norm_bound)
    clean = origin_run(problem, params, length + 40)
    for k in (length - 1, length, length + 1):
        traj = corrupt_trajectory(clean, k, 1.0)
        whole = summary_of(traj, problem.kkt, problem)
        assert whole["first_failing_k"] is not None
        carry = CertifyCarry()
        certify_in_segments(monkeypatch, traj, problem.kkt, problem, length, carry)
        assert carry.result() == whole
        assert_segments_match_reference(monkeypatch, traj, problem.kkt, problem)


def test_certify_memory_is_bounded_per_row():
    # one call holds a fixed number of history-sized temporaries, each
    # dropped once its row sums are taken: 2.5 to 3.4 rows of n + m floats
    # per row passed (6.5 to 7.9 while every temporary lived to the end);
    # the harness passes at most about 384 KiB of iterates at once
    tv = c.make_tv1d(c.default_tv_signal(200, seed=2), lam=0.5)
    quad = c.random_quadratic(60, 40, seed=3)
    for (problem, theta), iters in itertools.product(((tv, 0.5), (quad, 0.75)),
                                                     (300, 4000)):
        norm = problem.L.norm_bound
        params = SolverParams(*suggest_steps(theta, norm, 0.9), theta=theta,
                              operator_norm=norm)
        traj = origin_run(problem, params, iters)
        kkt = problem.kkt or make_kkt(problem, traj.final, check_tol=None)
        row_bytes = traj.X.itemsize * (traj.X.shape[1] + traj.Y.shape[1])
        peak, _ = traced_peak(certify_trajectory, traj, kkt, problem)
        rows = traj.n_iters + 1
        assert peak <= certificates._WORKING_ROWS * rows * row_bytes, (
            problem.name, peak / (rows * row_bytes))


# --- certifying a run segment by segment ------------------------------------

TABLE_COLUMNS = ("ks", "lyapunov", "gap", "ergodic_gap", "descent_residual",
                 "lower_bound_residual", "dist_to_star", "sum_gap")


def run_segments(problem, params, iters):
    """The run as the sweep makes it: segments ending at multiples of
    ``_segment_iterates(n + m)`` iterates."""
    z = c.PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    length = certificates._segment_iterates(problem.L.cols + problem.L.rows)
    for start, end in segment_bounds(length, iters + 1):
        seg = c.run(problem, params, z, end - max(start, 1), stop_tol=None)
        yield start, seg
        z = seg.final


def segment_problems(tv_problem):
    quad = c.random_quadratic(12, 10, seed=7)
    lasso = c.random_lasso(30, 20, 0.2, seed=3)
    lasso_kkt = c.kkt_by_long_run(lasso, 20000)
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
            carry, tables = CertifyCarry(), []
            for start, seg in segments:
                if fault_k is not None and start <= fault_k <= start + seg.n_iters:
                    seg = corrupt_trajectory(seg, fault_k - max(start - 1, 0), 1.0)
                tables.append(certify_trajectory(seg, kkt, problem, carry=carry))
            whole = clean if fault_k is None else corrupt_trajectory(clean, fault_k, 1.0)
            want_carry = CertifyCarry()
            want = certify_trajectory(whole, kkt, problem, carry=want_carry)
            assert len(tables) == 3
            for table in tables:
                assert table.v0 == want.v0
            for name in TABLE_COLUMNS:
                got = np.concatenate([getattr(t, name) for t in tables])
                assert np.array_equal(got, getattr(want, name), equal_nan=True), \
                    (problem.name, fault_k, name)
            assert carry.result() == want_carry.result(), (problem.name, fault_k)
            assert (want_carry.result()["first_failing_k"] is None) == (fault_k is None)


def test_block_rows_follow_iterate_bytes():
    # a 900x600 lasso gets segments of 32 iterates; problems up to n + m =
    # 192 keep 256-iterate segments, and no iterate width goes below the floor
    assert certificates._segment_iterates(1500) == 32
    assert certificates._segment_iterates(22) == certificates._segment_iterates(192) == 256
    assert certificates._segment_iterates(193) < 256
    assert certificates._segment_iterates(10 ** 7) == certificates._MIN_SEGMENT


def dense_segment_case():
    """A dense lasso run cut into segments by ``_segment_iterates``, with its
    history and the image of each segment's new iterates, as the certifier
    computes it."""
    lasso = c.random_lasso(60, 40, 0.2, seed=5)
    norm = lasso.L.norm_bound
    params = SolverParams(*suggest_steps(0.5, norm, 0.9), theta=0.5, operator_norm=norm)
    segments = list(run_segments(lasso, params, 700))
    # a later segment's first iterate repeats the last one fed
    fed = [(s.X[min(i, 1):], s.Y[min(i, 1):]) for i, (_, s) in enumerate(segments)]
    history = c.Trajectory(params, *(np.concatenate(a) for a in zip(*fed)), 700, None)
    lx = np.concatenate([lasso.L.apply_stack(x) for x, _ in fed])
    kkt = make_kkt(lasso, history.final, check_tol=None)
    return lasso, kkt, segments, history, lx


@pytest.mark.parametrize("rows", [1, 7, 32, 256])
def test_dense_segments_bitwise_for_any_block_rows(monkeypatch, rows):
    # segments of ``rows`` iterates, each certified with the two iterates
    # carried over from the one before
    monkeypatch.setattr(certificates, "_segment_iterates", lambda width: rows)
    lasso, kkt, segments, history, lx = dense_segment_case()
    want = per_row_certificate_columns(history, kkt, lasso, LX=lx)
    carry, tables = CertifyCarry(), []
    for _, seg in segments:
        tables.append(certify_trajectory(seg, kkt, lasso, carry=carry))
    assert [len(t.ks) for t in tables] == [
        end - max(start, 2) for start, end in segment_bounds(rows, 701)]
    for name, column in want.items():
        got = np.concatenate([getattr(t, name) for t in tables])
        assert np.array_equal(got, column, equal_nan=True), (rows, name)


def test_certify_segment_memory_is_blocks_not_copies():
    # one 32-iterate segment of a 900x600 lasso: X and Y are 0.4 MB and its
    # image 0.2 MB; with the carried iterates and the temporaries, each
    # dropped once its row sums are taken, the call peaks at 1.27 MB (3.8 MB
    # while every temporary lived to the end, 1.33 MB while the lasso
    # conjugate's value map took two temporaries and L x - L x* a third):
    # 3.3 rows of n + m floats per iterate passed, within the _WORKING_ROWS
    # the long-run oracle budgets
    lasso = c.random_lasso(900, 600, 0.2, seed=0)
    norm = lasso.L.norm_bound
    params = SolverParams(*suggest_steps(1.0, norm, 0.9), theta=1.0, operator_norm=norm)
    assert certificates._segment_iterates(lasso.L.cols + lasso.L.rows) == 32
    (_, first), (_, second) = run_segments(lasso, params, 63)
    kkt = make_kkt(lasso, second.final, check_tol=None)
    carry = CertifyCarry()
    certify_trajectory(first, kkt, lasso, carry=carry)
    peak, _ = traced_peak(lambda: certify_trajectory(second, kkt, lasso, carry=carry))
    assert peak <= 1.3e6, peak / 1e6  # 1.27 MB measured
    row_bytes = 8 * (lasso.L.cols + lasso.L.rows)
    assert peak <= certificates._WORKING_ROWS * 32 * row_bytes, peak / (32 * row_bytes)


def lx_form_gaps(traj, kkt, problem):
    """The gap and ergodic_gap columns in the <Lx, y*> form, with the running
    average of LX for averages, each with the magnitude sum of its terms."""
    L, X, Y = problem.L, traj.X, traj.Y
    x_star, y_star = kkt.star.x, kkt.star.y
    lx_star, LX = L.apply(x_star), L.apply_stack(X)
    abs_l = np.abs(L.apply_stack(np.eye(L.cols))).T  # |L_ij|

    def form(xs, ys, lxs, abs_xs, abs_ys):
        f, g = problem.f.evaluate(xs), problem.gstar.evaluate(ys)
        value = f + g + lxs @ y_star - ys @ lx_star - kkt.f_star - kkt.gstar_star
        # every summand, down to each product L_ij x_j y*_i and y_i L_ij x*_j
        terms = (np.abs(f) + np.abs(g) + abs(kkt.f_star) + abs(kkt.gstar_star)
                 + abs_xs @ abs_l.T @ np.abs(y_star) + abs_ys @ abs_l @ np.abs(x_star))
        return value, terms

    def avg(A):  # averages of iterates 1..k for the rows k = 1..K-2
        return running_averages(A[1:-2])[0]

    return (form(X[1:-1], Y[1:-1], LX[1:-1], np.abs(X[1:-1]), np.abs(Y[1:-1])),
            form(avg(X), avg(Y), avg(LX), avg(np.abs(X)), avg(np.abs(Y))))


@pytest.mark.parametrize("theta", [0.1, 1.0])
def test_gaps_match_the_lx_form_within_rounding(theta, tv_problem):
    u = np.finfo(float).eps / 2
    for problem, kkt in segment_problems(tv_problem):
        norm = problem.L.norm_bound
        params = SolverParams(*suggest_steps(theta, norm, 0.9), theta=theta,
                              operator_norm=norm)
        traj = origin_run(problem, params, 600)
        table = certify_trajectory(traj, kkt, problem)
        (gap, gap_terms), (erg, erg_terms) = lx_form_gaps(traj, kkt, problem)
        n_m = problem.L.cols + problem.L.rows
        assert np.all(np.abs(table.gap - gap) <= n_m * u * gap_terms), problem.name
        assert np.all(np.abs(table.ergodic_gap[1:] - erg)
                      <= (n_m + table.ks[1:]) * u * erg_terms), problem.name


def test_segment_boundary_checks_v_monotone():
    # V rises only from the last row of one segment to the first of the next
    problem = c.random_quadratic(12, 10, seed=7)
    params = SolverParams(*suggest_steps(0.5, problem.L.norm_bound, 0.9), theta=0.5,
                          operator_norm=problem.L.norm_bound)
    (_, first), (_, second) = run_segments(problem, params, 400)
    carry = CertifyCarry()
    a = certify_trajectory(first, problem.kkt, problem, carry=carry)
    # lower the carried last V, the one the next segment's first V is checked against
    carry.last = dataclasses.replace(a, lyapunov=a.lyapunov - 10 * (1.0 + abs(a.v0)))
    certify_trajectory(second, problem.kkt, problem, carry=carry)
    result = carry.result()
    assert result["fail_counts"]["v_monotone"] == 1
    assert result["first_failing_k"] == a.ks[-1] == 253


def test_run_constants_are_computed_once_per_run(monkeypatch):
    # the status and the increment weights come with the first segment
    problem = c.random_quadratic(12, 10, seed=7)
    params = SolverParams(*suggest_steps(0.5, problem.L.norm_bound, 0.9), theta=0.5,
                          operator_norm=problem.L.norm_bound)
    segments = list(run_segments(problem, params, 700))
    calls = []
    for name in ("validate_params", "eta_coefficients"):
        fn = getattr(certificates, name)
        monkeypatch.setattr(certificates, name,
                            lambda p, fn=fn, name=name: calls.append(name) or fn(p))
    carry = CertifyCarry()
    tables = [certify_trajectory(seg, problem.kkt, problem, carry=carry)
              for _, seg in segments]
    assert len(tables) == 3
    assert calls == ["validate_params", "eta_coefficients"]
    assert all(t.eta_plus == eta_coefficients(params)[0] for t in tables)


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


# --- the power of each check on its own columns ------------------------------

FAIL_K = 5


def passing_columns(rows=12):
    """Table columns on which every check passes with room to spare: V falls
    as 10 / (1 + k), and the gaps as 1 / (1 + k)^2, summing far below V(0)."""
    ks = np.arange(rows)
    gap = 1.0 / (1.0 + ks) ** 2
    sum_gap = np.concatenate([[0.0], np.cumsum(gap)[:-1]])
    erg = np.full(rows, math.nan)
    erg[1:] = 0.5 * sum_gap[1:] / ks[1:]
    return {"ks": ks, "lyapunov": 10.0 / (1.0 + ks), "gap": gap, "ergodic_gap": erg,
            "descent_residual": np.full(rows, -1.0),
            "lower_bound_residual": np.full(rows, -1.0),
            "dist_to_star": np.ones(rows), "sum_gap": sum_gap}


def break_check(cols, check, tol):
    """Make ``check`` fail at row FAIL_K and nowhere else, and no other check fail."""
    k, v0 = FAIL_K, cols["lyapunov"][0]
    if check == "descent":
        cols["descent_residual"][k] = 1.0
    elif check == "lower_bound":
        cols["lower_bound_residual"][k] = 1.0
    elif check == "v_monotone":
        cols["lyapunov"][k + 1] = cols["lyapunov"][k] + 1.0
    elif check == "jensen":  # D(avg_k) between the mean gap and V(0)/k
        cols["ergodic_gap"][k] = 0.5 * (cols["sum_gap"][k] / k + v0 / k)
    elif check == "sum_bound":
        cols["sum_gap"][k] = v0 + 1.0
    else:  # jensen and sum_bound imply ergodic_rate up to their allowances,
        # so it fails alone only inside them
        cols["sum_gap"][k] = v0 + 0.9 * tol * (1.0 + v0)
        mean = cols["sum_gap"][k] / k
        cols["ergodic_gap"][k] = mean + 0.9 * tol * (1.0 + mean)


@pytest.mark.parametrize("check", certificates._CHECKS)
def test_each_check_fails_first_and_alone_on_its_columns(check):
    tol = 1e-3
    cols = passing_columns()
    v0 = cols["lyapunov"][0]

    def failing_rows():
        flags = _flag_arrays(cols["ks"], cols["lyapunov"], cols["ergodic_gap"],
                             cols["descent_residual"], cols["lower_bound_residual"],
                             cols["sum_gap"], v0, tol)
        return {name: np.flatnonzero(~f).tolist() for name, f in flags.items()}

    assert failing_rows() == dict.fromkeys(certificates._CHECKS, [])
    break_check(cols, check, tol)
    assert failing_rows() == {name: [FAIL_K] if name == check else []
                              for name in certificates._CHECKS}
    status = c.validate_params(SolverParams(0.5, 0.5, 0.5, 1.0))
    whole = CertificateTable(**cols, v0=v0, eta_plus=0.1, eta_minus=0.1, tol=tol,
                             status=status, asserted=True)
    # the run in one segment, and in two that meet after the failing row,
    # which makes a v_monotone failure a check across the seam
    for cuts in ([], [FAIL_K + 1]):
        carry = CertifyCarry()
        for lo, hi in zip([0, *cuts], [*cuts, None]):
            carry._fold(dataclasses.replace(
                whole, **{name: col[lo:hi] for name, col in cols.items()}))
        result = carry.result()
        assert result["fail_counts"] == {name: int(name == check)
                                         for name in certificates._CHECKS}, cuts
        assert result["first_failing_k"] == FAIL_K
        assert result["all_pass"] is False
