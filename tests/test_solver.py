from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import cpcert as c
from cpcert.solver import (EQUALITY_RTOL, RunBatch, SolverParams, Trajectory,
                           Validity, bound_rhs, find_cycle, fixed_point_residual,
                           run, running_averages, step, suggest_steps,
                           tile_cycle, validate_params)

from oracles import checked_iterates, denominator_identity_residual


def test_bound_rhs_values():
    assert bound_rhs(1.0) == 1.0  # classical product condition at theta = 1
    assert bound_rhs(0.5) == pytest.approx(12.0 / 7.0, rel=1e-15)
    assert bound_rhs(1e-12) == pytest.approx(0.0, abs=1e-11)


def test_bound_rhs_domain():
    for theta in (0.0, -0.1, 1.0001, 2.0):
        with pytest.raises(ValueError):
            bound_rhs(theta)


def test_denominator_identity():
    # both sides at the pinned points: 1.75, 1, 4
    for theta, val in ((0.5, 1.75), (0.0, 1.0), (1.0, 4.0)):
        assert (1 - 2 * theta + 9 * theta**2 - 4 * theta**3) == pytest.approx(val)
        assert denominator_identity_residual(theta) <= 1e-12
    for theta in np.linspace(0.001, 1.0, 1000):
        assert denominator_identity_residual(float(theta)) <= 1e-12


def test_bound_rhs_below_corner_bound():
    thetas = np.linspace(0.001, 1.0, 1000)
    for theta in thetas[:-1]:
        assert bound_rhs(float(theta)) < 4.0 / (1.0 + theta) ** 2
    assert bound_rhs(1.0) == 4.0 / (1.0 + 1.0) ** 2


def test_params_validation_fields():
    with pytest.raises(ValueError):
        SolverParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SolverParams(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SolverParams(1.0, 1.0, 1.0, -0.5)


def test_validate_params_classification():
    st = validate_params(SolverParams(0.9, 0.9, 1.0, 1.0))
    assert st.kind is Validity.STRICTLY_VALID
    assert st.product == pytest.approx(0.81)
    assert st.bound_rhs == 1.0
    assert st.margin == pytest.approx(0.19)

    st = validate_params(SolverParams(1.0, 1.0, 1.0, 1.0))
    assert st.kind is Validity.ERGODIC_ONLY

    st = validate_params(SolverParams(1.0, 1.0, 0.5, 1.4))
    assert st.kind is Validity.INVALID
    assert st.product == pytest.approx(1.96)
    assert st.bound_rhs == pytest.approx(12.0 / 7.0)

    st = validate_params(SolverParams(1.0, 1.0, 0.0, 1.0))
    assert st.kind is Validity.INVALID

    st = validate_params(SolverParams(1.0, 1.0, 1.5, 1.0))
    assert st.kind is Validity.INVALID


def test_validate_params_reports_corner_inequality():
    st = validate_params(SolverParams(0.9, 0.9, 1.0, 1.0))
    assert st.p_positivity_product == pytest.approx(0.81 * 4.0)
    assert st.p_positivity_ok
    st = validate_params(SolverParams(2.0, 2.0, 1.0, 1.0))
    assert not st.p_positivity_ok


def test_classification_monotone_in_product():
    # increasing the product never moves Invalid back to StrictlyValid
    order = {Validity.STRICTLY_VALID: 0, Validity.ERGODIC_ONLY: 1, Validity.INVALID: 2}
    for theta in (0.1, 0.5, 1.0):
        last = 0
        for scale in np.linspace(0.1, 2.0, 50):
            tau = sigma = float(np.sqrt(scale * bound_rhs(theta)))
            rank = order[validate_params(SolverParams(tau, sigma, theta, 1.0)).kind]
            assert rank >= last
            last = rank


def test_boundary_classification_tolerance():
    theta = 0.37
    tau, sigma = suggest_steps(theta, 2.0, safety=1.0)
    st = validate_params(SolverParams(tau, sigma, theta, 2.0))
    assert st.kind is Validity.ERGODIC_ONLY
    assert abs(st.product - st.bound_rhs) <= EQUALITY_RTOL * st.bound_rhs


@pytest.mark.xfail(strict=True, reason="validate_params classifies a product up to "
                   "EQUALITY_RTOL above the bound as ErgodicOnly")
def test_product_one_ulp_above_the_bound_is_invalid():
    st = validate_params(SolverParams(1.0, np.nextafter(1.0, 2.0), 1.0, 1.0))
    assert st.product > st.bound_rhs == 1.0
    assert st.kind is Validity.INVALID


def test_suggest_steps_examples():
    tau, sigma = suggest_steps(1.0, 1.0, safety=0.99, ratio=1.0)
    assert tau == pytest.approx(np.sqrt(0.99))
    assert sigma == pytest.approx(np.sqrt(0.99))

    tau, sigma = suggest_steps(0.25, 2.0, safety=0.9, ratio=1.0)
    assert tau == pytest.approx(np.sqrt(0.9 * bound_rhs(0.25)) / 2.0)
    assert sigma == pytest.approx(tau)

    tau1, sigma1 = suggest_steps(0.6, 1.5, safety=0.8, ratio=4.0)
    assert tau1 / sigma1 == pytest.approx(4.0)
    assert tau1 * sigma1 * 1.5**2 == pytest.approx(0.8 * bound_rhs(0.6))
    assert validate_params(SolverParams(tau1, sigma1, 0.6, 1.5)).kind is Validity.STRICTLY_VALID


def test_suggest_steps_domain():
    with pytest.raises(ValueError):
        suggest_steps(0.5, 1.0, safety=0.0)
    with pytest.raises(ValueError):
        suggest_steps(0.5, 1.0, safety=1.1)
    with pytest.raises(ValueError):
        suggest_steps(0.5, 1.0, safety=0.9, ratio=-1.0)
    with pytest.raises(ValueError):
        suggest_steps(0.5, 0.0)
    with pytest.raises(ValueError):
        suggest_steps(0.0, 1.0)


def one_d_problem():
    L = c.MatrixOperator([[1.0]], norm_bound=1.0)
    return c.make_quadratic(L, [1.0], [0.0])


def test_step_hand_computed():
    problem = one_d_problem()
    params = SolverParams(0.5, 0.5, 1.0, 1.0)
    z1 = step(c.PPoint([0.0], [0.0]), problem, params)
    assert z1.x[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert z1.y[0] == pytest.approx(2.0 / 9.0, rel=1e-15)


def test_step_fixed_point_at_saddle():
    for seed, dims in enumerate([(6, 4), (9, 9), (4, 7)]):
        problem = c.random_quadratic(*dims, seed=seed)
        star = problem.kkt.star
        for theta in (0.2, 0.7, 1.0):
            for safety in (0.5, 0.95, 1.0):  # any non-Invalid classification
                tau, sigma = suggest_steps(theta, problem.L.norm_bound, safety, ratio=1.7)
                params = SolverParams(tau, sigma, theta, problem.L.norm_bound)
                z1 = step(star, problem, params)
                assert np.linalg.norm(z1.x - star.x) <= 1e-10
                assert np.linalg.norm(z1.y - star.y) <= 1e-10


def test_step_decouples_without_coupling():
    # theta = 0 and L = 0: independent proximal-point steps on f and g*
    L = c.MatrixOperator(np.zeros((3, 3)))
    a = np.array([1.0, -1.0, 2.0])
    b = np.array([0.5, 0.0, -0.5])
    problem = c.make_quadratic(L, a, b)
    params = SolverParams(0.7, 1.3, 0.0, 0.0)
    z = c.PPoint(np.array([2.0, 2.0, 2.0]), np.array([-1.0, 1.0, 0.0]))
    z1 = step(z, problem, params)
    assert np.allclose(z1.x, problem.f.prox(z.x, 0.7))
    assert np.allclose(z1.y, problem.gstar.prox(z.y, 1.3))


def test_run_constant_at_fixed_point():
    problem = c.random_quadratic(5, 4, seed=2)
    star = problem.kkt.star
    tau, sigma = suggest_steps(0.5, problem.L.norm_bound)
    params = SolverParams(tau, sigma, 0.5, problem.L.norm_bound)
    traj = run(problem, params, star, max_iters=20, stop_tol=None)
    for x, y in zip(traj.X, traj.Y):
        assert np.linalg.norm(x - star.x) <= 1e-10
        assert np.linalg.norm(y - star.y) <= 1e-10


def test_run_converges_on_quadratic():
    problem = one_d_problem()
    params = SolverParams(0.5, 0.5, 1.0, 1.0)
    traj = run(problem, params, c.PPoint([0.0], [0.0]), max_iters=5000, stop_tol=1e-12)
    star = problem.kkt.star
    final = traj.final
    err = np.hypot(final.x[0] - star.x[0], final.y[0] - star.y[0])
    assert err <= 1e-8
    assert traj.stopped_at is not None and traj.stopped_at < 5000


def test_run_ergodic_matches_recomputation():
    problem = c.random_quadratic(6, 5, seed=3)
    tau, sigma = suggest_steps(0.75, problem.L.norm_bound)
    params = SolverParams(tau, sigma, 0.75, problem.L.norm_bound)
    z0 = c.PPoint(np.zeros(5), np.zeros(6))
    traj = run(problem, params, z0, max_iters=200, stop_tol=None)
    for k in (1, 2, 57, 200):
        want_x = traj.X[1 : k + 1].mean(axis=0)
        want_y = traj.Y[1 : k + 1].mean(axis=0)
        got_x = running_averages(traj.X[1 : k + 1])[0][-1]
        got_y = running_averages(traj.Y[1 : k + 1])[0][-1]
        assert np.linalg.norm(got_x - want_x) <= 1e-12 * (1 + np.linalg.norm(want_x))
        assert np.linalg.norm(got_y - want_y) <= 1e-12 * (1 + np.linalg.norm(want_y))


def test_running_averages_blocks_continue_bitwise():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((50, 6))
    A[rng.random(A.shape) < 0.3] = -0.0
    A[:3, 0] = -0.0
    whole, total = running_averages(A)
    assert np.signbit(whole[:3, 0]).all()  # no zero row is added in front
    for block in (1, 2, 7, 49, 50):
        parts, prefix = [], None
        for lo in range(0, 50, block):
            means, prefix = running_averages(A[lo : lo + block], prefix, lo)
            parts.append(means)
        got = np.concatenate(parts)
        assert np.array_equal(got, whole), block
        assert np.array_equal(np.signbit(got), np.signbit(whole)), block
        assert np.array_equal(prefix, total), block


def test_run_is_deterministic():
    problem = c.random_quadratic(7, 6, seed=4)
    tau, sigma = suggest_steps(0.25, problem.L.norm_bound)
    params = SolverParams(tau, sigma, 0.25, problem.L.norm_bound)
    z0 = c.PPoint(np.zeros(6), np.zeros(7))
    t1 = run(problem, params, z0, max_iters=100, stop_tol=None)
    t2 = run(problem, params, z0, max_iters=100, stop_tol=None)
    assert np.array_equal(t1.X, t2.X)
    assert np.array_equal(t1.Y, t2.Y)


def test_run_rejects_invalid_without_override():
    problem = one_d_problem()
    bad = SolverParams(2.0, 2.0, 1.0, 1.0)
    z0 = c.PPoint([0.0], [0.0])
    with pytest.raises(ValueError):
        run(problem, bad, z0, max_iters=10)
    traj = run(problem, bad, z0, max_iters=10, override_invalid=True, stop_tol=None)
    assert traj.n_iters == 10


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_run_names_nan_iteration():
    problem = one_d_problem()
    insane = SolverParams(1e12, 1e12, 1.0, 1.0)
    z0 = c.PPoint([1.0], [1.0])
    with pytest.raises(RuntimeError, match="iteration"):
        run(problem, insane, z0, max_iters=100000, override_invalid=True, stop_tol=None)


def test_trajectory_has_one_storage_mode():
    assert [f.name for f in fields(c.Trajectory)] == [
        "params", "X", "Y", "n_iters", "stopped_at"]
    problem = one_d_problem()
    params = SolverParams(0.5, 0.5, 1.0, 1.0)
    traj = run(problem, params, c.PPoint([0.0], [0.0]), max_iters=5, stop_tol=None)
    assert traj.X.shape == (6, 1)
    assert traj.X[5][0] == traj.final.x[0]
    assert not np.shares_memory(traj.final.x, traj.X)  # a copy of the last row
    assert not np.shares_memory(traj.final.y, traj.Y)
    with pytest.raises(IndexError):
        traj.X[6]


def test_trajectory_immutable():
    problem = one_d_problem()
    params = SolverParams(0.5, 0.5, 1.0, 1.0)
    traj = run(problem, params, c.PPoint([0.0], [0.0]), max_iters=5, stop_tol=None)
    with pytest.raises(ValueError):
        traj.X[0, 0] = 99.0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_run_detects_overflow_hidden_by_projection():
    # x - tau L*y overflows to -inf at iteration 1; projecting it onto the
    # orthant gives the finite x = 0, so only the prox argument shows it
    nonneg = c.ProxFn(evaluate=lambda x: 0.0,
                      prox=lambda x, gamma: np.maximum(x, 0.0))
    problem = c.ProblemSpec("overflow", nonneg, c.quadratic_distance(np.zeros(1)),
                            c.MatrixOperator([[1.0]], norm_bound=1.0))
    params = SolverParams(10.0, 1e-3, 1.0, 1.0)
    z0 = c.PPoint([0.0], [1e308])
    with pytest.raises(RuntimeError, match=r"iteration 1\b") as info:
        run(problem, params, z0, max_iters=3, stop_tol=None, override_invalid=True)
    assert isinstance(info.value, c.NonFiniteIterateError)
    with pytest.raises(ValueError):
        step(z0, problem, params)


@pytest.mark.parametrize("cells", [1, 2])
def test_run_propagates_a_step_error(cells):
    # a prox returning the wrong shape is an error of the program, not a
    # non-finite iterate; in a batch it ends every cell
    problem = batch_problems()["quadratic"]
    calls = []

    def f_prox(x, gamma):
        calls.append(gamma)
        out = problem.f.prox(x, gamma)
        return np.append(out, 0.0) if len(calls) == 5 else out

    broken = c.ProblemSpec("broken", c.ProxFn(problem.f.evaluate, f_prox),
                           problem.gstar, problem.L)
    params = batch_cells(problem, thetas=(0.5,), safeties=(0.9,)) * cells
    with pytest.raises(ValueError, match="could not be broadcast") as info:
        run(broken, params, [origin(problem)] * cells, max_iters=10, stop_tol=None)
    assert not isinstance(info.value, c.NonFiniteIterateError)


def test_fixed_point_residual_is_the_norm_ratio_bitwise():
    rng = np.random.default_rng(4)
    for n, m in ((1, 1), (10, 12), (600, 900)):
        dx, dy = rng.standard_normal(n), rng.standard_normal(m)
        tau, sigma = rng.uniform(0.01, 2.0, 2)
        want = max(float(np.linalg.norm(dx)) / tau, float(np.linalg.norm(dy)) / sigma)
        assert fixed_point_residual(dx, dy, tau, sigma) == want


def test_run_rejects_nonfinite_start():
    problem = one_d_problem()
    params = SolverParams(0.5, 0.5, 1.0, 1.0)
    z0 = SimpleNamespace(x=np.array([np.nan]), y=np.array([0.0]))
    with pytest.raises(ValueError):
        run(problem, params, z0, max_iters=3)


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
def test_run_matches_checked_reference_bitwise(theta):
    quad = c.random_quadratic(12, 10, seed=7)
    tv = c.make_tv1d(c.default_tv_signal(50, seed=0), lam=0.5)
    for problem in (quad, tv):
        tau, sigma = suggest_steps(theta, problem.L.norm_bound, 0.9)
        params = SolverParams(tau, sigma, theta, problem.L.norm_bound)
        z0 = c.PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
        traj = run(problem, params, z0, max_iters=300, stop_tol=None)
        want_x, want_y = checked_iterates(problem, params, z0, 300)
        assert np.array_equal(traj.X, want_x), problem.name
        assert np.array_equal(traj.Y, want_y), problem.name
        z = c.PPoint(traj.X[150], traj.Y[150])
        stepped = step(z, problem, params)
        assert np.array_equal(stepped.x, traj.X[151])
        assert np.array_equal(stepped.y, traj.Y[151])


# --- batched runs ----------------------------------------------------------

def batch_problems():
    lasso = c.random_lasso(30, 20, 0.2, seed=3)
    return {
        "tv1d": c.make_tv1d(c.default_tv_signal(50, seed=0), lam=0.5),
        "quadratic": c.random_quadratic(12, 10, seed=7),
        "lasso": lasso,
    }


def batch_cells(problem, thetas=(0.1, 0.5, 1.0), safeties=(0.5, 0.9, 0.99)):
    norm = problem.L.norm_bound
    return [SolverParams(*suggest_steps(theta, norm, safety), theta=theta,
                         operator_norm=norm)
            for theta in thetas for safety in safeties]


def origin(problem):
    return c.PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))


def assert_same_run(got, want):
    assert got.params == want.params
    assert (got.n_iters, got.stopped_at) == (want.n_iters, want.stopped_at)
    assert np.array_equal(got.X, want.X) and np.array_equal(got.Y, want.Y)


@pytest.mark.parametrize("name", ["tv1d", "quadratic", "lasso"])
def test_batched_run_matches_single_runs_bitwise(name):
    problem = batch_problems()[name]
    cells = batch_cells(problem)
    z0 = origin(problem)
    batch = run(problem, cells, [z0] * len(cells), max_iters=300, stop_tol=None)
    assert batch.n_iters == 300
    for params, traj in zip(cells, batch.trajectories):
        assert_same_run(traj, run(problem, params, z0, max_iters=300, stop_tol=None))
    # a one-cell batch still returns a RunBatch, with the plain run's bits
    one = run(problem, cells[:1], [z0], max_iters=300, stop_tol=None)
    assert isinstance(one, RunBatch) and one.n_iters == 300
    assert_same_run(one.trajectories[0], batch.trajectories[0])


@pytest.mark.parametrize("name", ["tv1d", "quadratic", "lasso"])
def test_batched_run_stops_each_cell_as_alone(name):
    problem = batch_problems()[name]
    cells = batch_cells(problem)
    z0 = origin(problem)
    batch = run(problem, cells, [z0] * len(cells), max_iters=1000, stop_tol=1e-6)
    stops = [traj.stopped_at for traj in batch.trajectories]
    assert len(set(stops)) > 3 and None not in stops  # cells leave at different k
    assert batch.n_iters == max(stops)
    for params, traj in zip(cells, batch.trajectories):
        assert_same_run(traj, run(problem, params, z0, max_iters=1000, stop_tol=1e-6))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("diverging", [{1: 1e3}, {1: 30.0, 3: 1e3}],
                         ids=["one-cell", "two-cells"])
def test_batched_run_raises_as_its_first_diverging_cell(diverging):
    # Invalid steps tau = sigma = 1e3 turn non-finite at iteration 192 and
    # 30 at 197, so with both the later-listed cell fails first
    problem = batch_problems()["quadratic"]
    norm = problem.L.norm_bound
    cells = batch_cells(problem, thetas=(0.5,))
    for i, steps in diverging.items():
        cells.insert(i, SolverParams(steps, steps, 0.5, norm))
    z0 = origin(problem)
    alone = []
    for i in diverging:
        with pytest.raises(c.NonFiniteIterateError) as error:
            run(problem, cells[i], z0, max_iters=200, stop_tol=None, override_invalid=True)
        alone.append(error.value)
    assert len({e.iteration for e in alone}) == len(alone)
    first = min(alone, key=lambda e: e.iteration)
    with pytest.raises(c.NonFiniteIterateError) as batch:
        run(problem, cells, [z0] * len(cells), max_iters=200, stop_tol=None,
            override_invalid=True)
    assert (str(batch.value), batch.value.iteration) == (str(first), first.iteration)


def test_batched_run_checks_its_cells():
    problem = one_d_problem()
    good = SolverParams(0.5, 0.5, 1.0, 1.0)
    z0 = c.PPoint([0.0], [0.0])
    with pytest.raises(ValueError, match="one start point per cell"):
        run(problem, [good, good], [z0], max_iters=5)
    with pytest.raises(ValueError, match="Invalid"):
        run(problem, [good, SolverParams(2.0, 2.0, 1.0, 1.0)], [z0, z0], max_iters=5)
    batch = run(problem, [good], [z0], max_iters=5, stop_tol=np.inf)
    assert batch.trajectories[0].stopped_at == 1 and batch.n_iters == 1


def test_batched_run_continues_in_segments():
    # a run continued from its last point repeats the steps of one long run
    problem = batch_problems()["tv1d"]
    cells = batch_cells(problem, thetas=(0.25, 1.0), safeties=(0.9,))
    z0 = origin(problem)
    whole = run(problem, cells, [z0] * 2, max_iters=300, stop_tol=None)
    first = run(problem, cells, [z0] * 2, max_iters=120, stop_tol=None)
    rest = run(problem, cells, [t.final for t in first.trajectories], max_iters=180,
               stop_tol=None)
    for w, a, b in zip(whole.trajectories, first.trajectories, rest.trajectories):
        assert np.array_equal(w.X, np.concatenate((a.X, b.X[1:])))
        assert np.array_equal(w.Y, np.concatenate((a.Y, b.Y[1:])))


# --- exact cycles: found by their bits, replayed by tiling --------------------

UNIT = SolverParams(0.5, 0.5, 1.0, 1.0)


def hand_built(xs, ys=None):
    """A trajectory of the given x rows, with y rows (default all 0.0)."""
    X = np.array(xs, dtype=float).reshape(len(xs), -1)
    Y = np.zeros((len(xs), 1)) if ys is None else np.array(ys, dtype=float).reshape(len(ys), -1)
    return Trajectory(UNIT, X, Y, len(xs) - 1, None)


def test_find_cycle_tells_signed_zeros_apart():
    # iterate 1 equals the last iterate as floats, but its y has -0.0
    traj = hand_built([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [3.0, 4.0]],
                      [[0.0], [-0.0], [1.0], [0.0]])
    assert traj.X[1].tolist() == traj.X[3].tolist() and traj.Y[1] == traj.Y[3]
    assert find_cycle(traj) is None
    traj = hand_built([[0.0], [1.0], [-0.0]])
    assert find_cycle(traj) is None


def test_find_cycle_takes_the_most_recent_match():
    # iterates 0, 2 and 4 all equal the last one: the period is 2, not 6
    traj = hand_built([[7.0], [1.0], [7.0], [2.0], [7.0], [3.0], [7.0]])
    cycle = find_cycle(traj)
    assert cycle.n_iters == 2
    assert cycle.X.tolist() == [[7.0], [3.0], [7.0]]
    assert cycle.params == UNIT and cycle.stopped_at is None
    assert not np.shares_memory(cycle.X, traj.X)  # a copy: the segment may go


def test_find_cycle_ignores_the_last_iterate_itself():
    assert find_cycle(hand_built([[1.0], [2.0], [3.0]])) is None
    assert find_cycle(hand_built([[1.0]])) is None


def test_find_cycle_counts_the_carried_first_iterate():
    # a segment's first iterate is the one carried from the segment before
    cycle = find_cycle(hand_built([[4.0], [5.0], [6.0], [4.0]], [[1.0], [2.0], [3.0], [1.0]]))
    assert cycle.n_iters == 3
    assert cycle.X[:, 0].tolist() == [4.0, 5.0, 6.0, 4.0]
    assert cycle.Y[:, 0].tolist() == [1.0, 2.0, 3.0, 1.0]


def test_find_cycle_needs_x_and_y_to_repeat():
    assert find_cycle(hand_built([[1.0], [2.0], [1.0]], [[0.0], [0.0], [5.0]])) is None


@pytest.mark.parametrize("steps", [1, 2, 3, 7])
def test_tile_cycle_continues_the_cycle(steps):
    cycle = find_cycle(hand_built([[9.0], [4.0], [5.0], [6.0], [4.0]]))
    seg, after = tile_cycle(cycle, steps)
    expected = [4.0, 5.0, 6.0] * 4
    assert seg.X[:, 0].tolist() == expected[: steps + 1]
    assert seg.n_iters == steps and seg.stopped_at is None
    # the next segment goes on where this one ends
    assert after.n_iters == 3
    assert after.X[:, 0].tolist() == expected[steps: steps + 4]
    more, _ = tile_cycle(after, 5)
    assert more.X[:, 0].tolist() == (expected * 2)[steps: steps + 6]


def test_tiled_cycle_is_the_run_bitwise():
    # a converged run repeats a state; tiling its cycle gives the bits that
    # running on from the cycle's last iterate gives. This run enters a
    # period-6 cycle at k = 1546.
    problem = c.random_quadratic(12, 10, seed=0)
    norm = problem.L.norm_bound
    params = SolverParams(*suggest_steps(0.5, norm, 0.9), 0.5, norm)
    z0 = c.PPoint(np.zeros(10), np.zeros(12))
    head = run(problem, params, z0, 1600, stop_tol=None)
    cycle = find_cycle(head)
    assert cycle.n_iters == 6
    seg, _ = tile_cycle(cycle, 100)
    tail = run(problem, params, head.final, 100, stop_tol=None)
    assert seg.X.tobytes() == tail.X.tobytes() and seg.Y.tobytes() == tail.Y.tobytes()
