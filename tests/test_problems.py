import numpy as np
import pytest

import cpcert as c
from cpcert.certificates import kkt_residual
from cpcert.problems import problem_from_config
from cpcert.solver import SolverParams, suggest_steps

from oracles import duality_gap, tv1d_exhaustive


def strict_params(problem, theta=1.0, safety=0.9, ratio=1.0):
    tau, sigma = suggest_steps(theta, problem.L.norm_bound, safety, ratio)
    return SolverParams(tau, sigma, theta, problem.L.norm_bound)


def test_quadratic_one_d_closed_form():
    problem = c.make_quadratic(c.MatrixOperator([[1.0]], norm_bound=1.0), [1.0], [0.0])
    assert problem.kkt.star.x[0] == pytest.approx(0.5)
    assert problem.kkt.star.y[0] == pytest.approx(0.5)


def test_quadratic_decouples_with_zero_operator():
    a = np.array([1.0, -2.0, 0.5])
    b = np.array([3.0, 4.0])
    problem = c.make_quadratic(c.MatrixOperator(np.zeros((2, 3))), a, b)
    assert np.allclose(problem.kkt.star.x, a)
    assert np.allclose(problem.kkt.star.y, b)


def test_quadratic_random_kkt_residual():
    problem = c.random_quadratic(6, 4, seed=42)
    assert kkt_residual(problem, problem.kkt.star) <= 1e-10


def test_quadratic_gap_is_psd_in_distance():
    problem = c.random_quadratic(6, 4, seed=7)
    rng = np.random.default_rng(0)
    assert duality_gap(problem.kkt.star, problem.kkt, problem) == pytest.approx(0.0, abs=1e-12)
    for _ in range(200):
        z = c.PPoint(rng.standard_normal(4) * 2, rng.standard_normal(6) * 2)
        assert duality_gap(z, problem.kkt, problem) >= -1e-12


def test_quadratic_dimension_check():
    with pytest.raises(ValueError):
        c.make_quadratic(c.MatrixOperator([[1.0, 0.0]]), [1.0], [0.0])


def test_lasso_huge_lambda_gives_zero_solution():
    rng = np.random.default_rng(3)
    A = c.MatrixOperator(rng.standard_normal((6, 4)))
    b = rng.standard_normal(6)
    lam = float(np.max(np.abs(A.apply_adjoint(b)))) * 2.0
    problem = c.make_lasso(A, b, lam)
    kkt = c.kkt_by_long_run(problem, strict_params(problem), 50000)
    # optimality at 0: ||A^T b||_inf <= lam
    assert np.max(np.abs(kkt.star.x)) <= 1e-7
    assert np.allclose(kkt.star.y, -b, atol=1e-6)


def test_lasso_zero_lambda_square_invertible():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    A = c.MatrixOperator(a)
    b = rng.standard_normal(4)
    problem = c.make_lasso(A, b, lam=0.0)
    kkt = c.kkt_by_long_run(problem, strict_params(problem), 100000)
    want = np.linalg.solve(a, b)
    assert np.allclose(kkt.star.x, want, atol=1e-6)


def test_lasso_zero_data_gives_zero():
    rng = np.random.default_rng(5)
    A = c.MatrixOperator(rng.standard_normal((5, 3)))
    problem = c.make_lasso(A, np.zeros(5), lam=0.7)
    kkt = c.kkt_by_long_run(problem, strict_params(problem), 50000)
    assert np.max(np.abs(kkt.star.x)) <= 1e-8


def test_tv_zero_lambda_returns_signal():
    sig = np.array([1.0, -0.5, 2.0, 0.0])
    problem = c.make_tv1d(sig, lam=0.0)
    kkt = c.kkt_by_long_run(problem, strict_params(problem), 50000)
    assert np.allclose(kkt.star.x, sig, atol=1e-8)


def test_tv_constant_signal_unchanged():
    sig = np.full(6, 1.3)
    problem = c.make_tv1d(sig, lam=0.8)
    kkt = c.kkt_by_long_run(problem, strict_params(problem), 50000)
    assert np.allclose(kkt.star.x, sig, atol=1e-8)


def test_tv_small_instances_match_exhaustive_oracle():
    rng = np.random.default_rng(6)
    for trial in range(4):
        n = int(rng.integers(4, 9))
        sig = np.repeat(rng.standard_normal(3), 3)[:n] + 0.1 * rng.standard_normal(n)
        for lam in (0.15, 0.4):
            want = tv1d_exhaustive(sig, lam)
            problem = c.make_tv1d(sig, lam)
            kkt = c.kkt_by_long_run(problem, strict_params(problem), 200000)
            assert np.max(np.abs(kkt.star.x - want)) <= 1e-7, (trial, lam)


def test_tv_requires_two_samples():
    with pytest.raises(ValueError):
        c.make_tv1d([1.0], lam=0.5)


def test_long_run_matches_closed_form_quadratic():
    problem = c.random_quadratic(8, 6, seed=9)
    kkt = c.kkt_by_long_run(problem, strict_params(problem, theta=0.5), 100000)
    star = problem.kkt.star
    err = np.hypot(np.linalg.norm(kkt.star.x - star.x), np.linalg.norm(kkt.star.y - star.y))
    assert err <= 1e-7
    assert kkt.residual is not None and kkt.residual <= 1e-6


def test_long_run_is_near_fixed_point():
    problem = c.random_quadratic(5, 5, seed=10)
    params = strict_params(problem, theta=0.75)
    kkt = c.kkt_by_long_run(problem, params, 100000)
    moved = c.step(kkt.star, problem, params)
    assert np.linalg.norm(moved.x - kkt.star.x) <= 1e-9
    assert np.linalg.norm(moved.y - kkt.star.y) <= 1e-9


def test_long_run_rejects_unconverged():
    problem = c.random_quadratic(8, 6, seed=11)
    with pytest.raises(RuntimeError):
        c.kkt_by_long_run(problem, strict_params(problem), iters=2)


def blocked_oracle_case():
    tv = c.make_tv1d(c.default_tv_signal(50, seed=0), lam=0.5)
    z0 = c.PPoint(np.zeros(tv.L.cols), np.zeros(tv.L.rows))
    return tv, strict_params(tv, theta=1.0), z0


def test_long_run_blocks_end_at_single_run_point():
    # 1300 iterations run as blocks of 512, 512 and 276
    tv, params, z0 = blocked_oracle_case()
    kkt = c.kkt_by_long_run(tv, params, 1300, stop_tol=None)
    final = c.run(tv, params, z0, max_iters=1300, stop_tol=None).final
    assert np.array_equal(kkt.star.x, final.x)
    assert np.array_equal(kkt.star.y, final.y)


def test_long_run_blocks_stop_inside_second_block():
    tv, params, z0 = blocked_oracle_case()
    single = c.run(tv, params, z0, max_iters=1300, stop_tol=1e-11)
    assert 512 < single.stopped_at <= 1024
    kkt = c.kkt_by_long_run(tv, params, 1300, stop_tol=1e-11)
    assert np.array_equal(kkt.star.x, single.final.x)
    assert np.array_equal(kkt.star.y, single.final.y)


def test_long_run_rejection_reports_total_iterations():
    tv, params, _ = blocked_oracle_case()
    with pytest.raises(c.OracleRejectedError, match="after 1300 iterations"):
        c.kkt_by_long_run(tv, params, 1300, stop_tol=None, accept_tol=0.0)


def test_long_run_requires_strict_params():
    problem = c.random_quadratic(5, 4, seed=12)
    tau, sigma = suggest_steps(1.0, problem.L.norm_bound, safety=1.0)
    boundary = SolverParams(tau, sigma, 1.0, problem.L.norm_bound)
    with pytest.raises(ValueError):
        c.kkt_by_long_run(problem, boundary, 1000)


def test_problem_spec_rejects_bogus_kkt():
    problem = c.random_quadratic(5, 4, seed=13)
    shifted = c.KKTPoint(
        star=c.PPoint(problem.kkt.star.x + 0.1, problem.kkt.star.y),
        f_star=problem.kkt.f_star,
        gstar_star=problem.kkt.gstar_star,
    )
    with pytest.raises(ValueError):
        c.ProblemSpec(problem.name, problem.f, problem.gstar, problem.L, kkt=shifted)


def test_problem_from_config_registry(tmp_path):
    p = problem_from_config({"generator": "quadratic",
                             "params": {"rows": 5, "cols": 4, "seed": 2}})
    assert p.name == "quadratic"
    assert p.kkt is not None
    assert p.metadata["seed"] == 2

    p = problem_from_config({"generator": "tv1d", "params": {"n": 12, "lam": 0.3}})
    assert p.L.rows == 11 and p.L.cols == 12

    mat = tmp_path / "A.txt"
    mat.write_text("2 2\n1.0 0.5\n0.0 2.0\n")
    p = problem_from_config({"generator": "lasso",
                             "params": {"matrix": str(mat), "b": [1.0, -1.0], "lam": 0.1}})
    assert p.L.rows == 2 and p.L.cols == 2

    with pytest.raises(ValueError):
        problem_from_config({"generator": "nope", "params": {}})
    with pytest.raises(ValueError):
        problem_from_config({})


def test_problem_from_file_reference(tmp_path):
    import json

    spec_path = tmp_path / "problem.json"
    spec_path.write_text(json.dumps(
        {"generator": "quadratic", "params": {"rows": 4, "cols": 3, "seed": 11}}))
    p = problem_from_config({"file": str(spec_path)})
    assert p.name == "quadratic"
    assert p.metadata["seed"] == 11
    with pytest.raises(OSError):
        problem_from_config({"file": str(tmp_path / "missing.json")})
