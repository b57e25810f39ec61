"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavy runs (quadratic family over 5 seeds, TV-1D at n = 50,
theta x safety grid, >= 2000 certified iterations each) are shared through
session fixtures.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import cpcert as c
from cpcert.certificates import eta_coefficients
from cpcert.harness import fit_rate, main
from cpcert.solver import (SolverParams, Validity, bound_rhs, suggest_steps,
                           validate_params)

import conftest
from conftest import SAFETIES, THETAS
from oracles import (check_prox_inclusion, denominator_identity_residual,
                     jacobi_spectral_norm)
from test_prox import moreau, shipped_functions


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {label}: PASS")


def test_criterion_1_parameter_formulas():
    with criterion(1, "parameter formulas"):
        t0 = time.perf_counter()
        assert bound_rhs(1.0) == 1.0  # exact, matches the classical condition
        grid = np.linspace(1e-6, 1.0, 1000)
        for theta in grid:
            theta = float(theta)
            assert denominator_identity_residual(theta) <= 1e-12
            corner = 4.0 / (1.0 + theta) ** 2
            if theta == 1.0:
                assert bound_rhs(theta) == corner
            else:
                assert bound_rhs(theta) < corner
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_prox_suite():
    with criterion(2, "prox suite"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for name, fn, subgrad in shipped_functions():
            for _ in range(100):
                x = rng.standard_normal(5) * 3.0
                u = rng.standard_normal(5) * 3.0
                gamma = float(10.0 ** rng.uniform(-3, 3))
                assert check_prox_inclusion(fn, x, gamma, subgrad), name
                px, pu = fn.prox(x, gamma), fn.prox(u, gamma)
                lhs = float(np.sum((px - pu) ** 2))
                rhs = float((px - pu) @ (x - u))
                assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs)), name
        # Moreau identity for every g shipped through a conjugate
        for g in (c.quadratic_distance(rng.standard_normal(5)), c.l1(0.7), c.l1(0.0)):
            for _ in range(100):
                y = rng.standard_normal(5) * 2.0
                sigma = float(10.0 ** rng.uniform(-3, 3))
                resid = moreau(g).prox(y, sigma) + sigma * g.prox(y / sigma, 1.0 / sigma) - y
                assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(y))
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_lyapunov_descent(certified_grid):
    with criterion(3, "Lyapunov descent over the theta grid"):
        t0 = time.perf_counter()
        assert len(certified_grid) == 6 * len(THETAS) * len(SAFETIES)
        for (label, theta, safety), (_, _, _, traj, table) in certified_grid.items():
            assert traj.n_iters >= 2000
            assert table.asserted
            ok = table.descent_residual <= 1e-9 * (1.0 + np.abs(table.lyapunov))
            assert bool(np.all(ok)), (label, theta, safety, int(np.argmin(ok)))
        elapsed = conftest.FIXTURE_SECONDS["certified_grid"] + time.perf_counter() - t0
        assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_4_lower_bound(certified_grid, boundary_grid):
    with criterion(4, "Lyapunov lower bound incl. boundary runs"):
        for (label, theta, safety), (_, _, _, _, table) in certified_grid.items():
            ok = table.lower_bound_residual <= 1e-9 * (1.0 + np.abs(table.lyapunov))
            assert bool(np.all(ok)), (label, theta, safety)
        for (label, theta), (_, _, params, _, table) in boundary_grid.items():
            assert validate_params(params).kind is Validity.ERGODIC_ONLY
            ok = table.lower_bound_residual <= 1e-9 * (1.0 + np.abs(table.lyapunov))
            assert bool(np.all(ok)), (label, theta, "boundary")


def test_criterion_5_ergodic_bound_and_rate(certified_grid):
    with criterion(5, "ergodic duality-gap bound and O(1/k) rate"):
        for (label, theta, safety), (_, _, _, _, table) in certified_grid.items():
            ks = table.ks[1:].astype(float)
            erg = table.ergodic_gap[1:]
            sums = table.sum_gap[1:]
            v0 = table.v0
            assert bool(np.all(erg <= v0 / ks * (1.0 + 1e-9) + 1e-15)), (label, theta, safety)
            assert bool(np.all(erg <= sums / ks * (1.0 + 1e-9) + 1e-15)), "Jensen"
            assert bool(np.all(sums <= v0 * (1.0 + 1e-9) + 1e-15)), "sum bound"
            fit = fit_rate(table.ergodic_gap, (50, 2000), ks=table.ks)
            assert fit.slope <= -0.85, (label, theta, safety, fit.slope)


def first_iterate_near(problem, params, star, radius, max_iters):
    """The first k <= max_iters whose iterate lies within ``radius`` of
    ``star``, or None; the run goes in pieces of 1000 steps."""
    z, done = c.PPoint(np.zeros(problem.L.cols), np.zeros(problem.L.rows)), 0
    while done < max_iters:
        traj = c.run(problem, params, z, min(1000, max_iters - done), stop_tol=None)
        dist = np.hypot(np.linalg.norm(traj.X[1:] - star.x, axis=1),
                        np.linalg.norm(traj.Y[1:] - star.y, axis=1))
        near = np.flatnonzero(dist <= radius)
        if near.size:
            return done + 1 + int(near[0])
        z, done = traj.final, done + traj.n_iters
    return None


def test_criterion_6_iterate_convergence_and_eta(quad_problems):
    with criterion(6, "iterate convergence and eta positivity"):
        for problem in quad_problems:
            star = problem.kkt.star
            norm = problem.L.norm_bound
            for theta in THETAS:
                for safety in SAFETIES:
                    tau, sigma = suggest_steps(theta, norm, safety)
                    params = SolverParams(tau, sigma, theta, norm)
                    assert validate_params(params).kind is Validity.STRICTLY_VALID
                    ep, em = eta_coefficients(params)
                    assert ep > 0 and em > 0

                    hit = first_iterate_near(problem, params, star, 1e-7, 50000)
                    assert hit is not None, (problem.name, theta, safety)
                # exact boundary: eta vanishes to 1e-12 absolute
                tau, sigma = suggest_steps(theta, norm, safety=1.0)
                ep, em = eta_coefficients(SolverParams(tau, sigma, theta, norm))
                assert abs(ep) <= 1e-12 and abs(em) <= 1e-12


def test_criterion_7_oracle_cross_validation(quad_problems):
    with criterion(7, "oracle cross-validation"):
        problem = quad_problems[2]
        kkt = c.kkt_by_long_run(problem, 100000)
        star = problem.kkt.star
        err = math.hypot(np.linalg.norm(kkt.star.x - star.x),
                         np.linalg.norm(kkt.star.y - star.y))
        assert err <= 1e-7

        rng = np.random.default_rng(777)
        for _ in range(20):
            rows = int(rng.integers(1, 11))
            cols = int(rng.integers(1, 11))
            a = rng.standard_normal((rows, cols))
            got = c.estimate_norm(c.MatrixOperator(a, norm_bound=0.0), tol=1e-12)
            want = jacobi_spectral_norm(a)
            assert abs(got - want) <= 1e-6 * max(want, 1e-12), (rows, cols)


def test_criterion_8_harness_reproducibility(tmp_path):
    with criterion(8, "harness reproducibility and exit codes"):
        cfg = {
            "problem": {"generator": "quadratic",
                        "params": {"rows": 8, "cols": 6, "seed": 21}},
            "theta": 0.5,
            "safety": 0.9,
            "iters": 200,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

        # certificate failure on a synthetically corrupted trajectory
        bad_cfg = dict(cfg, fault={"k": 100, "delta": 1.0})
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad_cfg))
        assert main(["solve", "--config", str(bad_path), "--out", str(tmp_path / "bad")]) == 1

        # usage errors
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2
        assert main(["solve"]) == 2
