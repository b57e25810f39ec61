"""Contract: a stack of cells' rows gets, bitwise, each row's own arithmetic.

A sweep advances its cells as the rows of one stack and promises each row
the bits of its own run. For a dense operator that rests on numpy's stacked
matmul making one BLAS matrix-vector product per row, and for the stop
test on it making one BLAS dot per row. A single matrix-matrix product over
the rows, or a summed square, rounds rows differently; each test below also
checks that its data can tell those apart, so it fails if numpy ever
batches the rows into one product.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import cpcert as c
from cpcert.solver import fixed_point_residual

ROOT = Path(__file__).resolve().parents[1]
# (rows, cols) of the dense operators in configs/ and bench/configs/, and
# the two degenerate shapes
SHAPES = [(12, 10), (90, 60), (900, 600), (1, 5), (5, 1)]
STACKS = (1, 2, 15)


def stacks(rng, width):
    """Stacks of 1, 2 and 15 rows, and one gathered by a mask as
    :func:`cpcert.solver.run` gathers its live rows after a cell leaves."""
    for k in STACKS:
        yield rng.standard_normal((k, width))
    x = rng.standard_normal((15, width))
    keep = np.ones(15, dtype=bool)
    keep[[0, 6, 7]] = False
    yield x[keep]


def reference_residual(dx, dy, tau, sigma):
    return max(math.sqrt(dx.dot(dx)) / tau, math.sqrt(dy.dot(dy)) / sigma)


def test_shapes_cover_the_dense_configs():
    for path in sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("bench/configs/*.json")):
        problem = json.loads(path.read_text())["problem"]
        if problem.get("generator") in ("quadratic", "lasso"):
            params = problem["params"]
            assert (params["rows"], params["cols"]) in SHAPES, path


@pytest.mark.parametrize("shape", SHAPES)
def test_stacked_apply_is_each_rows_own_gemv(shape):
    rng = np.random.default_rng(shape)
    a = rng.standard_normal(shape)
    L = c.MatrixOperator(a, norm_bound=1.0)
    for apply, m in ((L.apply, a), (L.apply_adjoint, a.T)):
        x = rng.standard_normal(m.shape[1])
        assert np.array_equal(apply(x), m @ x)
        for xs in stacks(rng, m.shape[1]):
            want = np.array([m @ row for row in xs])
            got = apply(xs)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (shape, xs.shape)


def test_one_gemm_would_round_rows_differently():
    # the comparison above can see a gemm: on the same data, one
    # matrix-matrix product over a stack differs from the per-row products
    differ = 0
    for shape in SHAPES:
        rng = np.random.default_rng(shape)
        a = rng.standard_normal(shape)
        for m in (a, a.T):
            xs = rng.standard_normal((15, m.shape[1]))
            differ += np.count_nonzero(xs @ m.T != np.array([m @ row for row in xs]))
    assert differ > 0


@pytest.mark.parametrize("shape", SHAPES)
def test_rowwise_residual_is_each_rows_own_dots(shape):
    m, n = shape
    rng = np.random.default_rng(shape)
    for dx in stacks(rng, n):
        dy = rng.standard_normal((dx.shape[0], m))
        tau, sigma = rng.uniform(0.01, 2.0, (2, dx.shape[0], 1))  # step columns
        want = [reference_residual(dx[i], dy[i], tau[i, 0], sigma[i, 0])
                for i in range(dx.shape[0])]
        got = fixed_point_residual(dx, dy, tau, sigma)
        assert got.shape == (dx.shape[0],)
        assert np.array_equal(got, want), (shape, dx.shape)
        # one step as a one-row stack, with float steps
        one = fixed_point_residual(dx[:1], dy[:1], tau.item(0), sigma.item(0))
        assert one.shape == (1,) and one[0] == want[0]
        # a history's increments, as a finished cell's last step is checked
        hx = np.cumsum(np.vstack((np.zeros(n), dx)), axis=0)
        hy = np.cumsum(np.vstack((np.zeros(m), dy)), axis=0)
        got = fixed_point_residual(np.diff(hx, axis=0), np.diff(hy, axis=0), 0.3, 0.7)
        assert np.array_equal(got, [reference_residual(hx[k] - hx[k - 1], hy[k] - hy[k - 1],
                                                       0.3, 0.7)
                                    for k in range(1, hx.shape[0])])


def test_summed_squares_would_round_rows_differently():
    # the comparison above can see a non-BLAS reduction: on rows as long as
    # the tested ones, a summed square differs from the dot in some row
    rng = np.random.default_rng(5)
    d = rng.standard_normal((50, 900))
    dots = np.array([row.dot(row) for row in d])
    assert np.array_equal((d[:, None, :] @ d[:, :, None])[:, 0, 0], dots)
    assert np.count_nonzero((d * d).sum(-1) != dots) > 0
    assert np.count_nonzero(np.einsum("ij,ij->i", d, d) != dots) > 0
