import numpy as np
import pytest

from cpcert.hilbert import (ForwardDifferenceOperator, MatrixOperator, PPoint,
                            as_vector, estimate_norm, load_matrix)
from cpcert.solver import SolverParams, Validity, suggest_steps, validate_params

from oracles import dot, jacobi_spectral_norm, p_inner, p_quadratic_form


def all_operators(rng):
    return [
        MatrixOperator(rng.standard_normal((7, 5))),
        MatrixOperator(rng.standard_normal((3, 9))),
        MatrixOperator(np.eye(6), norm_bound=1.0),
        MatrixOperator(np.zeros((4, 5))),
        ForwardDifferenceOperator(8),
    ]


def test_dot_examples():
    assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0
    assert dot([1.0, 0.0], [0.0, 1.0]) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(6)
        assert dot(x, x) >= 0.0


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot([1.0, 2.0], [1.0, 2.0, 3.0])


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        PPoint([np.inf], [0.0])


def test_apply_examples():
    ident = MatrixOperator(np.eye(2), norm_bound=1.0)
    assert np.array_equal(ident.apply(np.array([5.0, -3.0])), [5.0, -3.0])
    diag = MatrixOperator(np.diag([3.0, 1.0]))
    assert np.array_equal(diag.apply(np.array([1.0, 1.0])), [3.0, 1.0])
    with pytest.raises(ValueError):
        diag.apply(np.ones(3))


def test_apply_linearity():
    rng = np.random.default_rng(1)
    L = MatrixOperator(rng.standard_normal((6, 4)))
    for _ in range(20):
        a, b = rng.standard_normal(2)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        lhs = L.apply(a * x + b * y)
        rhs = a * L.apply(x) + b * L.apply(y)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_adjoint_identity_all_operators():
    rng = np.random.default_rng(2)
    for L in all_operators(rng):
        for _ in range(200):
            x = rng.standard_normal(L.cols)
            y = rng.standard_normal(L.rows)
            lhs = float(L.apply(x) @ y)
            rhs = float(x @ L.apply_adjoint(y))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(x) * np.linalg.norm(y))


def test_norm_bound_dominates_action():
    rng = np.random.default_rng(3)
    for L in all_operators(rng):
        for _ in range(100):
            x = rng.standard_normal(L.cols)
            assert np.linalg.norm(L.apply(x)) <= L.norm_bound * np.linalg.norm(x) * (1 + 1e-12)


def test_apply_stack_matches_apply():
    rng = np.random.default_rng(4)
    for L in all_operators(rng):
        xs = rng.standard_normal((5, L.cols))
        stacked = L.apply_stack(xs)
        for row, x in zip(stacked, xs):
            assert np.allclose(row, L.apply(x), atol=1e-14)


def test_estimate_norm_diagonal():
    L = MatrixOperator(np.diag([3.0, 1.0]), norm_bound=3.0)
    assert estimate_norm(L) == pytest.approx(3.0, rel=1e-9)


def test_estimate_norm_zero_operator():
    L = MatrixOperator(np.zeros((3, 4)))
    assert L.norm_bound == 0.0
    assert estimate_norm(L) == 0.0


def test_estimate_norm_against_jacobi_oracle():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 4))
    got = estimate_norm(MatrixOperator(a, norm_bound=10.0), tol=1e-12)
    want = jacobi_spectral_norm(a)
    assert got == pytest.approx(want, rel=1e-6)


def test_estimate_norm_deterministic():
    rng = np.random.default_rng(6)
    L = MatrixOperator(rng.standard_normal((6, 6)), norm_bound=10.0)
    assert estimate_norm(L) == estimate_norm(L)


def test_estimate_norm_warns_without_converging():
    rng = np.random.default_rng(7)
    L = MatrixOperator(rng.standard_normal((8, 8)), norm_bound=10.0)
    with pytest.warns(RuntimeWarning):
        estimate_norm(L, tol=1e-15, max_iters=2)


def test_estimate_norm_rejects_bad_tol():
    with pytest.raises(ValueError):
        estimate_norm(MatrixOperator(np.eye(2), norm_bound=1.0), tol=0.0)


@pytest.mark.xfail(strict=True, reason="MatrixOperator's bound is a power-iteration "
                   "estimate, which lies below ||A||_2 on a clustered spectrum")
def test_steps_asserted_on_a_clustered_spectrum_are_valid_for_the_true_norm():
    # 40x40 U diag(s) V^T with sigma_1 - sigma_2 = 1e-6: the bound lies
    # 9.8e-7 (relative) below ||A||_2
    rng = np.random.default_rng(3)
    u, v = (np.linalg.qr(rng.standard_normal((40, 40)))[0] for _ in range(2))
    s = np.linspace(0.1, 1.0 - 1e-6, 40)
    s[0] = 1.0
    a = u @ np.diag(s) @ v.T
    bound, norm = MatrixOperator(a).norm_bound, np.linalg.norm(a, 2)
    tau, sigma = suggest_steps(1.0, bound, safety=1.0)
    assert validate_params(SolverParams(tau, sigma, 1.0, bound)).kind is Validity.ERGODIC_ONLY
    assert validate_params(SolverParams(tau, sigma, 1.0, norm)).kind is not Validity.INVALID
    assert bound >= norm


def test_certified_bound_inflates_estimate():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 5))
    L = MatrixOperator(a)
    assert L.norm_bound >= jacobi_spectral_norm(a)


def test_forward_difference_norm_bound():
    L = ForwardDifferenceOperator(50)
    exact = 2.0 * np.sin(np.pi * 49 / 100)
    assert L.norm_bound == 2.0
    assert exact < 2.0
    # near-degenerate top of the spectrum: only a loose estimate is guaranteed
    assert estimate_norm(L) == pytest.approx(exact, rel=1e-3)
    assert estimate_norm(L) <= 2.0


def params_for(tau, sigma, theta, norm):
    return SolverParams(tau, sigma, theta, norm)


def test_p_quadratic_form_examples():
    L = MatrixOperator([[1.0]], norm_bound=1.0)
    params = params_for(1.0, 1.0, 1.0, 1.0)
    # reduces to (x - y)^2 here, the boundary case of the positivity corner
    for t in (-2.0, 0.3, 5.0):
        assert p_quadratic_form(PPoint([t], [t]), L, params) == pytest.approx(0.0, abs=1e-12)
    assert p_quadratic_form(PPoint([0.0], [0.0]), L, params) == 0.0
    assert p_quadratic_form(PPoint([1.0], [-1.0]), L, params) == pytest.approx(4.0)


def test_p_inner_matches_quadratic_form_and_is_symmetric():
    rng = np.random.default_rng(9)
    L = MatrixOperator(rng.standard_normal((4, 3)))
    params = params_for(0.7, 1.3, 0.6, L.norm_bound)
    for _ in range(30):
        z1 = PPoint(rng.standard_normal(3), rng.standard_normal(4))
        z2 = PPoint(rng.standard_normal(3), rng.standard_normal(4))
        assert p_inner(z1, z1, L, params) == pytest.approx(
            p_quadratic_form(z1, L, params), rel=1e-12, abs=1e-12)
        assert p_inner(z1, z2, L, params) == pytest.approx(
            p_inner(z2, z1, L, params), rel=1e-12, abs=1e-12)
        # polarization
        zsum = PPoint(z1.x + z2.x, z1.y + z2.y)
        pol = 0.5 * (p_quadratic_form(zsum, L, params)
                     - p_quadratic_form(z1, L, params)
                     - p_quadratic_form(z2, L, params))
        assert p_inner(z1, z2, L, params) == pytest.approx(pol, rel=1e-9, abs=1e-9)


def test_p_inner_canonical_when_uncoupled():
    L = MatrixOperator(np.zeros((3, 3)))
    params = params_for(1.0, 1.0, 0.0, 0.0)
    rng = np.random.default_rng(10)
    for _ in range(10):
        z1 = PPoint(rng.standard_normal(3), rng.standard_normal(3))
        z2 = PPoint(rng.standard_normal(3), rng.standard_normal(3))
        want = float(z1.x @ z2.x + z1.y @ z2.y)
        assert p_inner(z1, z2, L, params) == pytest.approx(want, rel=1e-12)


def test_p_form_dimension_mismatch():
    L = MatrixOperator([[1.0, 0.0]])
    params = params_for(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        p_quadratic_form(PPoint([1.0], [1.0]), L, params)


def sandwich_constants(params, norm):
    half = np.sqrt(params.tau * params.sigma) * (1.0 + params.theta) * norm / 2.0
    c_minus = (1.0 - half) * min(1.0 / params.tau, 1.0 / params.sigma)
    c_plus = (1.0 + half) * max(1.0 / params.tau, 1.0 / params.sigma)
    return c_minus, c_plus


def test_p_form_two_sided_sandwich():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 4))
    L = MatrixOperator(a)
    norm = L.norm_bound
    for theta in (0.25, 0.6, 1.0):
        tau, sigma = suggest_steps(theta, norm, safety=0.95, ratio=2.0)
        params = params_for(tau, sigma, theta, norm)
        c_minus, c_plus = sandwich_constants(params, norm)
        for _ in range(100):
            z = PPoint(rng.standard_normal(4), rng.standard_normal(5))
            canon = float(z.x @ z.x + z.y @ z.y)
            q = p_quadratic_form(z, L, params)
            assert q >= c_minus * canon - 1e-10 * (1 + canon)
            assert q <= c_plus * canon + 1e-10 * (1 + canon)


def test_p_form_positive_definite_under_strict_condition():
    rng = np.random.default_rng(12)
    L = MatrixOperator(rng.standard_normal((4, 4)))
    tau, sigma = suggest_steps(0.5, L.norm_bound, safety=0.9)
    params = params_for(tau, sigma, 0.5, L.norm_bound)
    c_minus, _ = sandwich_constants(params, L.norm_bound)
    assert c_minus > 0
    for _ in range(200):
        z = PPoint(rng.standard_normal(4), rng.standard_normal(4))
        assert p_quadratic_form(z, L, params) > 0


def test_p_form_seminorm_on_boundary():
    # exact corner: tau*sigma*(1+theta)^2*||L||^2 = 4 at theta = 1
    L = MatrixOperator([[1.0]], norm_bound=1.0)
    params = params_for(1.0, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(13)
    for _ in range(200):
        z = PPoint(rng.standard_normal(1), rng.standard_normal(1))
        canon = float(z.x @ z.x + z.y @ z.y)
        assert p_quadratic_form(z, L, params) >= -1e-12 * canon


def test_matrix_text_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 5))
    path = tmp_path / "m.txt"
    path.write_text("3 5\n" + "".join(" ".join(map(repr, row)) + "\n" for row in a.tolist()))
    assert np.array_equal(load_matrix(path), a)


def test_load_matrix_rejects_bad_counts(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError):
        load_matrix(path)
