import dataclasses
import math
import time

import numpy as np
import pytest

import cpcert as c
from cpcert import certificates, problems
from cpcert.certificates import kkt_residual
from cpcert.problems import problem_from_config
from cpcert.solver import SolverParams, Validity, suggest_steps, validate_params

from conftest import traced_peak
from oracles import duality_gap, tv1d_exhaustive


def strict_params(problem, theta=1.0, safety=0.9, ratio=1.0):
    """StrictlyValid steps; at the defaults, the long-run oracle's own."""
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
    kkt = c.kkt_by_long_run(problem, 50000)
    # optimality at 0: ||A^T b||_inf <= lam
    assert np.max(np.abs(kkt.star.x)) <= 1e-7
    assert np.allclose(kkt.star.y, -b, atol=1e-6)


def test_lasso_zero_lambda_square_invertible():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    A = c.MatrixOperator(a)
    b = rng.standard_normal(4)
    problem = c.make_lasso(A, b, lam=0.0)
    kkt = c.kkt_by_long_run(problem, 100000)
    want = np.linalg.solve(a, b)
    assert np.allclose(kkt.star.x, want, atol=1e-6)


def test_lasso_zero_data_gives_zero():
    rng = np.random.default_rng(5)
    A = c.MatrixOperator(rng.standard_normal((5, 3)))
    problem = c.make_lasso(A, np.zeros(5), lam=0.7)
    kkt = c.kkt_by_long_run(problem, 50000)
    assert np.max(np.abs(kkt.star.x)) <= 1e-8


def test_tv_zero_lambda_returns_signal():
    sig = np.array([1.0, -0.5, 2.0, 0.0])
    problem = c.make_tv1d(sig, lam=0.0)
    kkt = c.kkt_by_long_run(problem, 50000)
    assert np.allclose(kkt.star.x, sig, atol=1e-8)


def test_tv_constant_signal_unchanged():
    sig = np.full(6, 1.3)
    problem = c.make_tv1d(sig, lam=0.8)
    kkt = c.kkt_by_long_run(problem, 50000)
    assert np.allclose(kkt.star.x, sig, atol=1e-8)


def test_tv_small_instances_match_exhaustive_oracle():
    rng = np.random.default_rng(6)
    for trial in range(4):
        n = int(rng.integers(4, 9))
        sig = np.repeat(rng.standard_normal(3), 3)[:n] + 0.1 * rng.standard_normal(n)
        for lam in (0.15, 0.4):
            want = tv1d_exhaustive(sig, lam)
            problem = c.make_tv1d(sig, lam)
            kkt = c.kkt_by_long_run(problem, 200000)
            assert np.max(np.abs(kkt.star.x - want)) <= 1e-7, (trial, lam)
            assert np.max(np.abs(problem.kkt.star.x - want)) <= 1e-12, (trial, lam)


def test_tv_requires_two_samples():
    with pytest.raises(ValueError):
        c.make_tv1d([1.0], lam=0.5)


def test_long_run_matches_closed_form_quadratic():
    problem = c.random_quadratic(8, 6, seed=9)
    kkt = c.kkt_by_long_run(problem, 100000)
    star = problem.kkt.star
    err = np.hypot(np.linalg.norm(kkt.star.x - star.x), np.linalg.norm(kkt.star.y - star.y))
    assert err <= 1e-7
    assert kkt.residual is not None and kkt.residual <= 1e-6


def test_long_run_is_near_fixed_point():
    problem = c.random_quadratic(5, 5, seed=10)
    kkt = c.kkt_by_long_run(problem, 100000)
    moved = c.step(kkt.star, problem, strict_params(problem, theta=0.75))
    assert np.linalg.norm(moved.x - kkt.star.x) <= 1e-9
    assert np.linalg.norm(moved.y - kkt.star.y) <= 1e-9


def test_long_run_rejects_unconverged():
    problem = c.random_quadratic(8, 6, seed=11)
    with pytest.raises(RuntimeError):
        c.kkt_by_long_run(problem, iters=2)


def blocked_oracle_case():
    tv = c.make_tv1d(c.default_tv_signal(50, seed=0), lam=0.5)
    z0 = c.PPoint(np.zeros(tv.L.cols), np.zeros(tv.L.rows))
    return tv, strict_params(tv, theta=1.0), z0


def test_long_run_blocks_end_at_single_run_point(monkeypatch):
    # 1300 iterations run as blocks of 512, 512 and 276
    tv, params, z0 = blocked_oracle_case()
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", None)
    kkt = c.kkt_by_long_run(tv, 1300)
    final = c.run(tv, params, z0, max_iters=1300, stop_tol=None).final
    assert np.array_equal(kkt.star.x, final.x)
    assert np.array_equal(kkt.star.y, final.y)


def test_long_run_blocks_stop_inside_second_block(monkeypatch):
    tv, params, z0 = blocked_oracle_case()
    single = c.run(tv, params, z0, max_iters=1300, stop_tol=1e-11)
    assert 512 < single.stopped_at <= 1024
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", 1e-11)
    kkt = c.kkt_by_long_run(tv, 1300)
    assert np.array_equal(kkt.star.x, single.final.x)
    assert np.array_equal(kkt.star.y, single.final.y)


def test_small_blocks_end_at_single_run_point(monkeypatch):
    # 1300 iterations run as 144 blocks of 9 and one of 4
    tv, params, z0 = blocked_oracle_case()
    monkeypatch.setattr(problems, "_ORACLE_BLOCK", 9)
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", None)
    kkt = c.kkt_by_long_run(tv, 1300)
    final = c.run(tv, params, z0, max_iters=1300, stop_tol=None).final
    assert np.array_equal(kkt.star.x, final.x)
    assert np.array_equal(kkt.star.y, final.y)


def test_small_blocks_stop_inside_a_block(monkeypatch):
    tv, params, z0 = blocked_oracle_case()
    monkeypatch.setattr(problems, "_ORACLE_BLOCK", 9)
    single = c.run(tv, params, z0, max_iters=1300, stop_tol=1e-11)
    assert single.stopped_at % 9 not in (0, 1)  # neither a block's first nor last step
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", 1e-11)
    kkt = c.kkt_by_long_run(tv, 1300)
    assert np.array_equal(kkt.star.x, single.final.x)
    assert np.array_equal(kkt.star.y, single.final.y)


def unchecked_oracle(monkeypatch):
    """Run the oracle to its horizon and accept any residual."""
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", None)
    monkeypatch.setattr(problems, "_ORACLE_ACCEPT_TOL", math.inf)


def oracle_peak_bytes(monkeypatch, problem, iters):
    unchecked_oracle(monkeypatch)
    return traced_peak(lambda: c.kkt_by_long_run(problem, iters))[0]


def test_long_run_holds_one_segment(monkeypatch):
    # each block runs as pieces that end where a certified run's segments
    # end, 245 iterates here against 512 per block, and each piece is
    # dropped once its final point is copied (1.04 pieces measured)
    lasso = c.random_lasso(120, 80, 0.2, seed=1)
    width = lasso.L.rows + lasso.L.cols
    segment = certificates._segment_iterates(width)
    assert 2 * segment < problems._ORACLE_BLOCK
    peak = oracle_peak_bytes(monkeypatch, lasso, 3 * problems._ORACLE_BLOCK)
    piece = (segment + 1) * width * 8
    assert peak <= 1.3 * piece, peak / piece


def test_long_run_stops_inside_a_segment_at_the_single_run_point(monkeypatch):
    # 61-iterate segments: the stop rule fires between k = 150 and 200, in
    # the oracle's third or fourth piece; without the hook, which would
    # solve this lasso from the start point
    lasso = dataclasses.replace(c.random_lasso(480, 320, 0.2, seed=1), polish=None)
    params = strict_params(lasso)
    z0 = c.PPoint(np.zeros(lasso.L.cols), np.zeros(lasso.L.rows))
    single = c.run(lasso, params, z0, max_iters=400, stop_tol=0.2)
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", 0.2)
    monkeypatch.setattr(problems, "_ORACLE_ACCEPT_TOL", math.inf)
    kkt = c.kkt_by_long_run(lasso, 20000)
    assert 150 < kkt.iterations == single.stopped_at < 200
    assert np.array_equal(kkt.star.x, single.final.x)
    assert np.array_equal(kkt.star.y, single.final.y)


def test_wide_long_run_holds_one_segment(monkeypatch):
    # at n = 5000 a segment is 8 iterates, so 300 steps run as 38 pieces
    # inside one block, and each is dropped once its final point is copied
    # (1.82 pieces measured)
    tv = c.make_tv1d(c.default_tv_signal(5000, seed=0), lam=0.5)
    width = tv.L.rows + tv.L.cols
    piece = (certificates._segment_iterates(width) + 1) * width * 8
    peak = oracle_peak_bytes(monkeypatch, tv, 300)
    assert peak <= 2.5 * piece, peak / piece


def test_polish_check_holds_one_segment():
    # n + m = 1500: 32-iterate segments, so the 50-step polish check runs as
    # pieces too (1.27 pieces measured; 1.82 with the check as one piece).
    # The candidate, the polish of the start point, is formed outside the
    # trace; test_lasso_oracle_peak bounds the whole oracle, polish included.
    lasso = c.random_lasso(900, 600, 0.2, seed=0)
    width = lasso.L.rows + lasso.L.cols
    piece = (certificates._segment_iterates(width) + 1) * width * 8
    assert certificates._segment_iterates(width) < problems._POLISH_ITERS
    candidate = lasso.polish(c.PPoint(np.zeros(lasso.L.cols), np.zeros(lasso.L.rows)))
    hooked = dataclasses.replace(lasso, polish=lambda z: candidate)
    peak, kkt = traced_peak(c.kkt_by_long_run, hooked, 4000)
    assert kkt.kind == "polished" and kkt.iterations == problems._POLISH_ITERS
    assert peak <= 1.5 * piece, peak / piece


def test_polish_forms_one_gram_matrix():
    # G = A^T A is the polish's one array of n^2 floats (1.02 of it
    # measured): a copy of G_SS or of A_S would add |S| columns, 589 here
    lasso = c.random_lasso(900, 600, 0.2, seed=0)
    n = lasso.L.cols
    z0 = c.PPoint(np.zeros(n), np.zeros(lasso.L.rows))
    peak, candidate = traced_peak(lasso.polish, z0)
    assert candidate is not None and np.count_nonzero(candidate.x) >= n // 2
    assert peak <= 1.1 * 8 * n * n + 32 * 8 * n, peak / (8 * n * n)


@pytest.mark.parametrize("rows", [900, 100])
def test_lasso_oracle_peak(rows):
    # the whole oracle on a 600-column lasso: its runs hold about one
    # segment piece, and the polish holds G = A^T A besides only where A
    # has at least as many rows as columns. 900x600: 7.48 pieces, G being
    # 7.27; 100x600, polished at the fourth try: 1.13 pieces, where G would
    # be 7.24
    lasso = c.random_lasso(rows, 600, 0.2, seed=0)
    n, width = lasso.L.cols, lasso.L.rows + lasso.L.cols
    piece = (certificates._segment_iterates(width) + 1) * width * 8
    gram = 8 * n * n if n <= rows else 0
    peak, kkt = traced_peak(c.kkt_by_long_run, lasso, 4000)
    assert kkt.kind == "polished"
    assert peak <= 1.5 * piece + 1.1 * gram, (peak / piece, gram / piece)


def test_start_point_polish_solves_the_bench_lasso():
    # the active-set solve from (0, 0) is kept after its 50-step check
    for seed in (0, 97):
        kkt = c.kkt_by_long_run(c.random_lasso(900, 600, 0.2, seed), 4000)
        assert kkt.kind == "polished" and kkt.iterations == problems._POLISH_ITERS
        assert kkt.residual <= problems._POLISH_TOL


@pytest.mark.parametrize("seed", [0, 97])
def test_start_point_polish_of_the_bench_lasso_takes_few_products(monkeypatch, seed):
    # passes that only find the next active set stop their conjugate
    # gradients at a relative residual of 1e-6: 474 and 466 products with
    # A^T A measured, against over 1000 with every pass at rounding level
    lasso = c.random_lasso(900, 600, 0.2, seed)
    cg, solves, applies = problems._conjugate_gradients, [], []

    def counted(apply, *args, **kwargs):
        solves.append(kwargs["rtol"])

        def product(v):
            applies.append(None)
            return apply(v)

        return cg(product, *args, **kwargs)

    monkeypatch.setattr(problems, "_conjugate_gradients", counted)
    candidate = lasso.polish(c.PPoint(np.zeros(lasso.L.cols), np.zeros(lasso.L.rows)))
    assert candidate is not None and kkt_residual(lasso, candidate) <= 1e-11
    assert solves[-1] == problems._PDAS_TIGHT_TOL
    # each pass takes one product for u; the last pass finds (S, s) repeated
    # and solves nothing
    assert len(applies) + len(solves) + 1 <= 600


def test_polish_solves_its_last_pass_to_rounding_level(monkeypatch):
    # a pass budget that ends before (S, s) repeats ends on a solve to
    # rounding level, so a loose solve is never returned: here a run's
    # point whose one pass finds the lasso's active set, whose loose solve
    # would leave a residual of 2e-10, and the bench lasso's start point
    monkeypatch.setattr(problems, "_PDAS_PASSES", 1)
    lasso = c.random_lasso(90, 60, 0.2, seed=1)
    z0 = c.PPoint(np.zeros(60), np.zeros(90))
    z = c.run(lasso, strict_params(lasso), z0, max_iters=600, stop_tol=None).final
    candidate = lasso.polish(z)
    assert candidate is not None and kkt_residual(lasso, candidate) <= 1e-11
    bench = c.random_lasso(900, 600, 0.2, seed=0)
    candidate = bench.polish(c.PPoint(np.zeros(600), np.zeros(900)))
    assert candidate is None or kkt_residual(bench, candidate) <= 1e-11


@pytest.mark.parametrize("seed", [0, 6])
def test_polish_solves_the_underdetermined_lasso_the_long_run_could_not(seed):
    # 300x600, lam = 0.2: the start point's active set exceeds the rows, so
    # a block-end polish is kept (at step 1035 for seed 0 and 2573 for seed
    # 6, where the long run alone stalls above the 1e-6 acceptance
    # threshold within 20000 steps)
    kkt = c.kkt_by_long_run(c.random_lasso(300, 600, 0.2, seed=seed), 20000)
    assert kkt.kind == "polished" and kkt.iterations < 20000
    assert kkt.residual <= 1e-12


def test_wide_long_run_tries_the_polish_once_per_block(monkeypatch):
    # n + m = 2199: the polish is tried on the start point, after every 512
    # steps and at the horizon, whatever the width, on the point a single
    # run ends at
    tv = c.make_tv1d(c.default_tv_signal(1100, seed=0), lam=0.5)
    tried = []

    def polish(z):
        tried.append(z)
        return None

    hooked = dataclasses.replace(tv, polish=polish)
    unchecked_oracle(monkeypatch)
    c.kkt_by_long_run(hooked, 1000)
    assert len(tried) == 3
    assert not tried[0].x.any() and not tried[0].y.any()
    z0 = c.PPoint(np.zeros(tv.L.cols), np.zeros(tv.L.rows))
    final = c.run(tv, strict_params(tv), z0, max_iters=512, stop_tol=None).final
    assert np.array_equal(tried[1].x, final.x)
    assert np.array_equal(tried[1].y, final.y)


def test_long_run_names_the_run_wide_nonfinite_iteration(monkeypatch):
    # the prox fails at iteration 600, inside the second block of 512
    tv, _, _ = blocked_oracle_case()
    prox, calls = tv.f.prox, []

    def f_prox(x, gamma):
        calls.append(gamma)
        return np.full_like(x, np.nan) if len(calls) == 600 else prox(x, gamma)

    bad = c.ProblemSpec(tv.name, c.ProxFn(tv.f.evaluate, f_prox), tv.gstar, tv.L)
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", None)
    with pytest.raises(c.NonFiniteIterateError, match="at iteration 600$"):
        c.kkt_by_long_run(bad, 1300)


def test_long_run_rejection_reports_total_iterations(monkeypatch):
    tv, _, _ = blocked_oracle_case()
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", None)
    monkeypatch.setattr(problems, "_ORACLE_ACCEPT_TOL", 0.0)
    with pytest.raises(c.OracleRejectedError, match="after 1300 iterations"):
        c.kkt_by_long_run(tv, 1300)


def params_bits(params):
    return [float(v).hex() for v in dataclasses.astuple(params)]


ORACLE_CASES = {
    "quadratic": lambda: c.random_quadratic(5, 4, seed=12),
    "lasso": lambda: c.random_lasso(30, 20, 0.2, seed=3),
    "tv1d": lambda: c.make_tv1d(c.default_tv_signal(50, seed=0), lam=0.5),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_long_run_picks_the_oracle_params(monkeypatch, name):
    # the oracle forms its own steps, theta = 1, safety 0.9 and ratio 1
    # against the norm bound: bitwise the steps the harness formed for it
    # when the oracle took them as an argument
    problem, seen, run = ORACLE_CASES[name](), [], problems.run

    def spy(problem, params, *args, **kwargs):
        seen.append(params)
        return run(problem, params, *args, **kwargs)

    monkeypatch.setattr(problems, "run", spy)
    c.kkt_by_long_run(problem, 20000)
    norm = problem.L.norm_bound
    want = SolverParams(*suggest_steps(1.0, norm, 0.9, 1.0), theta=1.0, operator_norm=norm)
    assert seen and all(params_bits(p) == params_bits(want) for p in seen)
    assert validate_params(want).kind is Validity.STRICTLY_VALID


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


# --- the direct TV-1D saddle point ---------------------------------------------

def assert_direct(problem, tol=1e-12):
    assert problem.kkt is not None and problem.kkt.kind == "direct"
    assert problem.kkt.iterations is None
    assert problem.kkt.residual == kkt_residual(problem, problem.kkt.star) <= tol
    assert problem.gstar.evaluate(problem.kkt.star.y) == 0.0  # y* inside the box band
    return problem.kkt.star


@pytest.mark.parametrize("seed", range(10))
def test_tv_direct_matches_long_run(seed):
    tv = c.make_tv1d(c.default_tv_signal(50, seed=seed), lam=0.5)
    star = assert_direct(tv)
    long_run = c.kkt_by_long_run(tv, 200000)
    assert long_run.kind == "long_run"
    assert np.max(np.abs(long_run.star.x - star.x)) <= 1e-11
    assert np.max(np.abs(long_run.star.y - star.y)) <= 1e-11


def test_tv_direct_zero_lambda_is_the_signal():
    sig = np.random.default_rng(1).standard_normal(40)
    star = assert_direct(c.make_tv1d(sig, lam=0.0))
    assert np.array_equal(star.x, sig)
    assert not star.y.any()


def test_tv_direct_large_lambda_is_the_mean():
    sig = c.default_tv_signal(60, seed=2)
    lam = 1.01 * float(np.max(np.abs(np.cumsum(sig - sig.mean()))))
    star = assert_direct(c.make_tv1d(sig, lam))
    assert np.allclose(star.x, sig.mean(), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("sig, lam, want", [
    ([0.0, 1.0], 0.2, [0.2, 0.8]),  # a jump of 1 shrinks by 2 lam
    ([0.0, 1.0], 0.7, [0.5, 0.5]),  # lam >= half the jump merges the two
    ([2.0, -1.0], 0.5, [1.5, -0.5]),
])
def test_tv_direct_two_samples(sig, lam, want):
    star = assert_direct(c.make_tv1d(sig, lam))
    assert np.allclose(star.x, want, rtol=0.0, atol=1e-15)


def test_tv_direct_constant_signal():
    star = assert_direct(c.make_tv1d(np.full(9, -0.3), lam=0.4))
    assert np.array_equal(star.x, np.full(9, -0.3))
    assert not star.y.any()


def test_tv_direct_large_signal_is_fast():
    sig = c.default_tv_signal(5000, seed=0)
    t0 = time.perf_counter()
    tv = c.make_tv1d(sig, lam=0.5)
    elapsed = time.perf_counter() - t0
    assert_direct(tv, tol=1e-10)
    assert elapsed < 0.5, elapsed


def test_tv_direct_falls_back_to_the_long_run(monkeypatch):
    # a direct point that fails the residual check is not attached
    monkeypatch.setattr(problems, "_condat_tv1d", lambda s, lam: [0.0] * len(s))
    tv = c.make_tv1d(c.default_tv_signal(20, seed=0), lam=0.1)
    assert tv.kkt is None


# --- the polished lasso oracle --------------------------------------------------

@pytest.mark.parametrize("rows, cols", [(90, 60), (200, 100)])
@pytest.mark.parametrize("seed", range(5))
def test_polished_lasso_matches_long_run(monkeypatch, rows, cols, seed):
    lasso = c.random_lasso(rows, cols, 0.2, seed)
    kkt = c.kkt_by_long_run(lasso, 4000)
    assert kkt.kind == "polished"
    assert kkt.residual <= problems._POLISH_TOL
    plain = dataclasses.replace(lasso, polish=None)
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", None)
    long_run = c.kkt_by_long_run(plain, 4000)
    assert long_run.kind == "long_run" and long_run.iterations == 4000
    assert np.max(np.abs(kkt.star.x - long_run.star.x)) <= 1e-12
    assert np.max(np.abs(kkt.star.y - long_run.star.y)) <= 1e-12


@pytest.mark.parametrize("iters, stop_tol", [(1300, None), (4000, 1e-13)])
def test_failed_polish_ends_at_the_long_run_point(monkeypatch, iters, stop_tol):
    # with every candidate refused, the oracle is the plain block loop
    calls = []

    def refuse(*args):
        calls.append(args)
        return None

    monkeypatch.setattr(problems, "_lasso_polish", refuse)
    lasso = c.random_lasso(90, 60, 0.2, seed=0)
    params = strict_params(lasso)
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", stop_tol)
    kkt = c.kkt_by_long_run(lasso, iters)
    z0 = c.PPoint(np.zeros(lasso.L.cols), np.zeros(lasso.L.rows))
    single = c.run(lasso, params, z0, max_iters=iters, stop_tol=stop_tol)
    assert calls  # the hook was tried after a block that did not stop
    assert kkt.kind == "long_run"
    assert np.array_equal(kkt.star.x, single.final.x)
    assert np.array_equal(kkt.star.y, single.final.y)
    assert kkt.iterations == single.n_iters
    assert single.stopped_at == (None if stop_tol is None else kkt.iterations)


def test_non_finite_polish_check_drops_the_candidate(monkeypatch):
    # the prox fails on the first step of each check; the check's
    # NonFiniteIterateError drops the candidate, and the run goes on: the
    # start point's, then after steps 512, 1024 and 1300
    tv, params, z0 = blocked_oracle_case()
    prox, tried, armed = tv.f.prox, [], [False]

    def f_prox(x, gamma):
        if armed[0]:
            armed[0] = False
            return np.full_like(x, np.nan)
        return prox(x, gamma)

    def polish(z):
        tried.append(z)
        armed[0] = True
        return z

    hooked = c.ProblemSpec(tv.name, c.ProxFn(tv.f.evaluate, f_prox), tv.gstar, tv.L,
                           polish=polish)
    unchecked_oracle(monkeypatch)
    kkt = c.kkt_by_long_run(hooked, 1300)
    final = c.run(tv, params, z0, max_iters=1300, stop_tol=None).final
    assert len(tried) == 4
    assert kkt.kind == "long_run" and kkt.iterations == 1300
    assert np.array_equal(kkt.star.x, final.x)
    assert np.array_equal(kkt.star.y, final.y)


def test_failed_refinement_ends_at_the_long_run_point(monkeypatch):
    # a candidate whose residual stays above _POLISH_TOL is dropped too
    lasso = c.random_lasso(90, 60, 0.2, seed=0)
    params = strict_params(lasso)
    monkeypatch.setattr(problems, "_POLISH_TOL", 0.0)
    monkeypatch.setattr(problems, "_ORACLE_STOP_TOL", None)
    kkt = c.kkt_by_long_run(lasso, 1300)
    z0 = c.PPoint(np.zeros(lasso.L.cols), np.zeros(lasso.L.rows))
    final = c.run(lasso, params, z0, max_iters=1300, stop_tol=None).final
    assert kkt.kind == "long_run" and kkt.iterations == 1300
    assert np.array_equal(kkt.star.x, final.x)
    assert np.array_equal(kkt.star.y, final.y)


def test_polish_refuses_a_support_larger_than_the_rows(monkeypatch):
    lasso = c.random_lasso(30, 60, 0.05, seed=3)
    dense = c.PPoint(np.linspace(0.1, 1.0, 60), np.zeros(30))
    assert lasso.polish(dense) is None
    seen = []
    polish = problems._lasso_polish

    def spy(A, b, lam, x):
        out = polish(A, b, lam, x)
        seen.append((int(np.count_nonzero(x)), out))
        return out

    monkeypatch.setattr(problems, "_lasso_polish", spy)
    unchecked_oracle(monkeypatch)
    kkt = c.kkt_by_long_run(lasso, 3000)
    wide = [out for size, out in seen if size > lasso.L.rows]
    assert wide and all(out is None for out in wide)
    if kkt.kind == "polished":
        assert np.count_nonzero(kkt.star.x) <= lasso.L.rows


def test_polish_candidate_satisfies_the_lasso_conditions():
    lasso = c.random_lasso(90, 60, 0.2, seed=1)
    params = strict_params(lasso)
    z0 = c.PPoint(np.zeros(60), np.zeros(90))
    z = c.run(lasso, params, z0, max_iters=600, stop_tol=None).final
    cand = lasso.polish(z)
    assert cand is not None
    support = cand.x != 0
    assert np.array_equal(support, z.x != 0)
    assert np.array_equal(np.sign(cand.x), np.sign(z.x))
    grad = lasso.L.apply_adjoint(cand.y)  # A^T (A x - b)
    assert np.allclose(grad[support], -0.2 * np.sign(cand.x[support]), rtol=0.0, atol=1e-12)
    assert np.max(np.abs(grad[~support])) <= 0.2
    assert kkt_residual(lasso, cand) <= 1e-11
