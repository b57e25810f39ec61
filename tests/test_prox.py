import math

import numpy as np
import pytest

from cpcert.hilbert import MatrixOperator
from cpcert.problems import make_lasso, make_tv1d
from cpcert.prox import ProxFn, conjugate, l1, quadratic_distance

from oracles import check_prox_inclusion, l1_subgrad_test, quadratic_subgrad_test


def shipped_functions():
    """Every ProxFn the package ships, with a subgradient membership test."""
    rng = np.random.default_rng(100)
    a = rng.standard_normal(5)
    b = rng.standard_normal(5)
    cases = [
        ("l1", l1(0.7), l1_subgrad_test(0.7)),
        ("quadratic", quadratic_distance(a), quadratic_subgrad_test(a)),
        ("zero", l1(0.0), lambda p, u: np.linalg.norm(u) <= 1e-9 * (1 + np.linalg.norm(p))),
    ]
    # conjugates shipped through the problem generators
    box = conjugate(l1(0.7), evaluate=lambda y: 0.0 if np.max(np.abs(y)) <= 0.7 + 1e-12 else math.inf)

    def box_normal_cone(p, u, lam=0.7, tol=1e-9):
        if np.max(np.abs(p)) > lam + tol:
            return False
        inner = np.abs(p) < lam - tol
        if np.any(np.abs(u[inner]) > tol):
            return False
        boundary = ~inner
        return bool(np.all(u[boundary] * np.sign(p[boundary]) >= -tol))

    cases.append(("box(conj l1)", box, box_normal_cone))
    lasso_gstar = conjugate(quadratic_distance(b),
                            evaluate=lambda y: 0.5 * float(y @ y) + float(y @ b))

    def lasso_gstar_grad(p, u, tol=1e-9):
        return bool(np.linalg.norm(u - (p + b)) <= tol * (1 + np.linalg.norm(p)))

    cases.append(("shifted quad (conj)", lasso_gstar, lasso_gstar_grad))
    return cases


def moreau(g):
    """g*'s ProxFn, for tests of its prox alone (its value map is not used)."""
    return conjugate(g, evaluate=lambda y: math.nan)


def test_prox_l1_examples():
    out = l1(1.0).prox(np.array([3.0, -0.5, 0.0]), 1.0)
    assert np.allclose(out, [2.0, 0.0, 0.0])
    x = np.array([1.5, -2.0, 0.25])
    assert np.array_equal(l1(0.0).prox(x, 1.0), x)
    assert np.array_equal(l1(1.0).prox(np.zeros(3), 2.0), np.zeros(3))


def test_prox_l1_rejects_bad_args():
    with pytest.raises(ValueError):
        l1(1.0).prox(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        l1(-1.0)


def test_prox_quadratic_examples():
    a = np.array([0.4, -1.0])
    assert np.allclose(quadratic_distance(a).prox(a, 0.8), a)
    # minimize 0.5 z^2 + 0.5 (z - 2)^2 by hand: z = 1
    assert np.allclose(quadratic_distance(np.array([0.0])).prox(np.array([2.0]), 1.0), [1.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(4)
        gamma = float(rng.uniform(0.1, 5.0))
        p = quadratic_distance(np.zeros(4) + 0.3).prox(x, gamma)
        # inclusion (x - p)/gamma = p - a is a linear identity
        assert np.linalg.norm((x - p) / gamma - (p - 0.3)) <= 1e-12 * (1 + np.linalg.norm(x))


def test_prox_quadratic_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        quadratic_distance(np.ones(3)).prox(np.ones(2), 1.0)


def test_prox_conjugate_quadratic_closed_form():
    b = np.array([1.0, -2.0])
    g = quadratic_distance(b)
    rng = np.random.default_rng(2)
    for _ in range(20):
        y = rng.standard_normal(2)
        sigma = float(rng.uniform(0.05, 10.0))
        got = moreau(g).prox(y, sigma)
        # direct prox of g*(u) = 0.5||u||^2 + <u, b>
        want = (y - sigma * b) / (1.0 + sigma)
        assert np.allclose(got, want, atol=1e-12)


def test_prox_conjugate_of_zero_projects_to_origin():
    g = l1(0.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = rng.standard_normal(4)
        assert np.allclose(moreau(g).prox(y, float(rng.uniform(0.1, 3.0))), np.zeros(4))


def test_moreau_identity_for_shipped_g():
    rng = np.random.default_rng(4)
    for g in (quadratic_distance(rng.standard_normal(5)), l1(0.3), l1(0.0)):
        for _ in range(100):
            y = rng.standard_normal(5)
            sigma = float(10.0 ** rng.uniform(-3, 3))
            lhs = moreau(g).prox(y, sigma) + sigma * g.prox(y / sigma, 1.0 / sigma)
            assert np.linalg.norm(lhs - y) <= 1e-10 * (1.0 + np.linalg.norm(y))


def test_check_prox_inclusion_shipped():
    rng = np.random.default_rng(5)
    for name, fn, subgrad in shipped_functions():
        for _ in range(100):
            x = rng.standard_normal(5) * 3.0
            gamma = float(10.0 ** rng.uniform(-3, 3))
            assert check_prox_inclusion(fn, x, gamma, subgrad), name


def test_check_prox_inclusion_negative_control():
    base = quadratic_distance(np.zeros(3))
    corrupted = ProxFn(
        evaluate=base.evaluate,
        prox=lambda x, gamma: base.prox(x, gamma) + 0.1,
    )
    x = np.array([1.0, -2.0, 0.5])
    assert check_prox_inclusion(base, x, 1.0, quadratic_subgrad_test(np.zeros(3)))
    assert not check_prox_inclusion(corrupted, x, 1.0, quadratic_subgrad_test(np.zeros(3)))


def test_firm_nonexpansiveness_shipped():
    rng = np.random.default_rng(6)
    for name, fn, _ in shipped_functions():
        for _ in range(100):
            u = rng.standard_normal(5) * 2.0
            v = rng.standard_normal(5) * 2.0
            gamma = float(10.0 ** rng.uniform(-2, 2))
            pu = fn.prox(u, gamma)
            pv = fn.prox(v, gamma)
            lhs = float(np.sum((pu - pv) ** 2))
            rhs = float((pu - pv) @ (u - v))
            assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs)), name


def test_prox_outputs_have_finite_value():
    rng = np.random.default_rng(7)
    for name, fn, _ in shipped_functions():
        for _ in range(50):
            x = rng.standard_normal(5) * 10.0
            gamma = float(10.0 ** rng.uniform(-3, 3))
            assert math.isfinite(fn.evaluate(fn.prox(x, gamma))), name


def test_stacked_evaluate_matches_per_row():
    rng = np.random.default_rng(8)
    b = rng.standard_normal(5)
    tv_box = make_tv1d(rng.standard_normal(6), lam=0.7).gstar
    lasso_gstar = make_lasso(MatrixOperator(rng.standard_normal((5, 3))), b, 0.3).gstar
    # stacked values must equal the per-row loop bitwise
    families = [
        ("quadratic", quadratic_distance(rng.standard_normal(5))),
        ("l1", l1(0.7)),
        ("zero", l1(0.0)),
        ("tv box", tv_box),
        ("lasso conjugate", lasso_gstar),
    ]
    stack = rng.standard_normal((40, 5)) * 3.0
    stack[:5] = np.abs(stack[:5]) * 0.02  # inside the box
    for name, fn in families:
        got = fn.evaluate(stack)
        want = np.array([fn.evaluate(row) for row in stack])
        assert got.shape == (40,), name
        assert np.array_equal(got, want), name
        assert isinstance(fn.evaluate(stack[0]), float), name
        assert fn.evaluate(stack[:0]).shape == (0,), name
    values = tv_box.evaluate(stack)  # feasible and infeasible rows
    assert np.all(values[:5] == 0.0) and np.isinf(values[5:]).any()


def bound_families():
    """Each shipped family, with the arithmetic its prox had as a standalone
    function (prox_l1, prox_quadratic, prox_conjugate), step per call."""
    rng = np.random.default_rng(9)
    a = rng.standard_normal(5)

    def shrink(lam):
        return lambda x, gamma: np.sign(x) * np.maximum(np.abs(x) - gamma * lam, 0.0)

    def pull(x, gamma):
        return (x + gamma * a) / (1.0 + gamma)

    def dual(inner):
        return lambda y, sigma: y - sigma * inner(y / sigma, 1.0 / sigma)

    return [
        ("l1", l1(0.7), shrink(0.7)),
        ("zero", l1(0.0), shrink(0.0)),
        ("quadratic", quadratic_distance(a), pull),
        ("box(conj l1)", moreau(l1(0.7)), dual(shrink(0.7))),
        ("conj zero", moreau(l1(0.0)), dual(shrink(0.0))),
        ("shifted quad (conj)", moreau(quadratic_distance(a)), dual(pull)),
    ]


def test_bound_prox_is_the_standalone_arithmetic_bitwise():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(5) * 3.0
    stack = rng.standard_normal((15, 5)) * 3.0
    steps = 10.0 ** rng.uniform(-3, 3, (15, 1))  # a step column
    for name, fn, want in bound_families():
        for gamma in (0.37, 1.0, 2e-3, 400.0):
            assert np.array_equal(fn.at(gamma)(x), want(x, gamma)), (name, gamma)
            assert np.array_equal(fn.prox(x, gamma), want(x, gamma)), (name, gamma)
        got = fn.at(steps)(stack)
        assert np.array_equal(got, want(stack, steps)), name
        assert np.array_equal(fn.prox(stack, steps), got), name
        # each row has the bits of its own vector prox
        rows = [fn.at(float(steps[i, 0]))(stack[i]) for i in range(15)]
        assert np.array_equal(got, rows), name


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan,
                                 np.array([[0.5], [0.0]]), np.array([[0.5], [math.inf]]),
                                 np.array([[math.nan], [0.5]])])
def test_a_bad_step_raises_when_bound(bad):
    # the step is checked once, by at(), before any point is passed
    message = "prox step must be positive and finite"
    for name, fn, _ in bound_families():
        with pytest.raises(ValueError, match=message):
            fn.at(bad)
        with pytest.raises(ValueError, match=message):
            fn.prox(np.ones(5), bad)
    calls = []
    custom = ProxFn(evaluate=lambda x: 0.0, prox=lambda x, gamma: calls.append(gamma))
    with pytest.raises(ValueError, match=message):
        custom.at(bad)
    assert calls == []


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_an_infinite_step_or_a_non_finite_weight_is_rejected(lam):
    # an infinite step gave quadratic_distance(a).prox a NaN output; a NaN
    # weight passed the l1 and generator checks (NaN < 0 is False), and an
    # infinite one gave l1 a NaN value at 0 (inf * 0); the generators build
    # their l1 before any costly work and let it raise
    a = np.array([0.5, -1.0])
    with pytest.raises(ValueError, match="prox step must be positive and finite"):
        quadratic_distance(a).prox(np.ones(2), math.inf)
    with pytest.raises(ValueError, match="l1 weight must be finite and nonnegative"):
        l1(lam)
    rng = np.random.default_rng(11)
    A = MatrixOperator(rng.standard_normal((4, 3)))
    with pytest.raises(ValueError, match="l1 weight must be finite and nonnegative"):
        make_lasso(A, rng.standard_normal(4), lam)
    with pytest.raises(ValueError, match="l1 weight must be finite and nonnegative"):
        make_tv1d(rng.standard_normal(6), lam)
