import time
import tracemalloc

import numpy as np
import pytest

import cpcert as c

# wall-clock cost of building each session fixture, keyed by fixture name
FIXTURE_SECONDS = {}

# Acceptance grid: quadratic family over 5 seeds/dims plus TV-1D at n=50,
# theta x safety cells, >= 2000 certified iterations per run.
QUAD_DIMS = [(6, 4), (10, 8), (12, 10), (16, 12), (20, 15)]
THETAS = [0.1, 0.25, 0.5, 0.75, 1.0]
SAFETIES = [0.9, 0.99]
RUN_ITERS = 2050


@pytest.fixture(scope="session")
def quad_problems():
    return [c.random_quadratic(r, n, seed=i) for i, (r, n) in enumerate(QUAD_DIMS)]


@pytest.fixture(scope="session")
def tv_problem():
    problem = c.make_tv1d(c.default_tv_signal(50, seed=0), lam=0.5)
    assert problem.kkt.kind == "direct"
    return problem, problem.kkt


def traced_peak(fn, *args):
    """``fn(*args)`` under tracemalloc: the peak bytes it traced, and the result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def grid_params(problem, theta, safety):
    tau, sigma = c.suggest_steps(theta, problem.L.norm_bound, safety, 1.0)
    return c.SolverParams(tau, sigma, theta, problem.L.norm_bound)


def certified_runs(problem, kkt, cells, iters=RUN_ITERS, tol=1e-9):
    """Certified runs of ``cells`` ((theta, safety) pairs) from one batched run.

    Each cell's trajectory is bitwise that of its run alone.
    """
    params = [grid_params(problem, theta, safety) for theta, safety in cells]
    z0 = c.PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows))
    batch = c.run(problem, params, [z0] * len(params), max_iters=iters, stop_tol=None)
    return [(p, traj, c.certify_trajectory(traj, kkt, problem, tol=tol))
            for p, traj in zip(params, batch.trajectories)]


def grid_cases(quad_problems, tv_problem):
    cases = [(f"quad{i}", p, p.kkt) for i, p in enumerate(quad_problems)]
    cases.append(("tv1d", *tv_problem))
    return cases


@pytest.fixture(scope="session")
def certified_grid(quad_problems, tv_problem):
    """All acceptance runs keyed by (problem label, theta, safety)."""
    t0 = time.perf_counter()
    runs = {}
    cells = [(theta, safety) for theta in THETAS for safety in SAFETIES]
    for label, problem, kkt in grid_cases(quad_problems, tv_problem):
        for cell, result in zip(cells, certified_runs(problem, kkt, cells)):
            runs[(label, *cell)] = (problem, kkt, *result)
    FIXTURE_SECONDS["certified_grid"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def boundary_grid(quad_problems, tv_problem):
    """Boundary runs (safety = 1.0, ErgodicOnly) for every problem and theta."""
    t0 = time.perf_counter()
    runs = {}
    cells = [(theta, 1.0) for theta in THETAS]
    for label, problem, kkt in grid_cases(quad_problems, tv_problem):
        for (theta, _), result in zip(cells, certified_runs(problem, kkt, cells)):
            runs[(label, theta)] = (problem, kkt, *result)
    FIXTURE_SECONDS["boundary_grid"] = time.perf_counter() - t0
    return runs
