"""Proximal operators for the shipped objective families.

A :class:`ProxFn` bundles a function value map (extended-real, ``inf``
allowed) with its proximal map ``prox(x, gamma) = argmin_z f(z) +
||x - z||^2 / (2 gamma)``. Conjugate proxes are derived through the Moreau
identity so problems can be stated in terms of g rather than g*.

Value maps and prox maps are row-wise: a vector of shape (n,) gives a
float (a vector, for a prox) and a stack of shape (k, n) gives one value
(one row) per row. A prox of a stack takes a step column of shape (k, 1),
one step per row, and computes each row with the arithmetic of its own
single-vector prox. Prox maps check their step size and input shape but do
not scan entries for finiteness; the solver loop does that once per
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import as_operand, as_vector

__all__ = [
    "ProxFn",
    "prox_l1",
    "prox_quadratic",
    "prox_conjugate",
    "l1",
    "quadratic_distance",
    "conjugate",
]


@dataclass(frozen=True)
class ProxFn:
    """A proper convex lsc function with value map and proximal map.

    ``evaluate`` returns the extended-real function value (math.inf for
    points outside the domain) and is row-wise: a float for a vector of
    shape (n,), an array of shape (k,) for a stack of shape (k, n).
    ``prox`` must be pure and its output must always have finite value; it
    is called with a vector and a float step, or with a stack of rows and
    a column of steps. Pure means the same bits out for the same bits in:
    once a run repeats a state, its later steps are replayed from the
    cycle, not recomputed (see :func:`cpcert.solver.find_cycle`), so the
    prox is not called again for them.
    """

    evaluate: Callable[[np.ndarray], float | np.ndarray]
    prox: Callable[[np.ndarray, float], np.ndarray]


def rowwise(values):
    """A value map's result: a float for one point, the array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _check_step(gamma):
    """A step is a positive float, or a column of them for a stack."""
    ok = (gamma > 0).all() if isinstance(gamma, np.ndarray) else gamma > 0
    if not ok:
        raise ValueError(f"prox step must be positive, got {gamma}")


def prox_l1(x, gamma, lam: float) -> np.ndarray:
    """Soft-thresholding: componentwise shrink towards 0 by gamma*lam."""
    _check_step(gamma)
    if lam < 0:
        raise ValueError("l1 weight must be nonnegative")
    x = as_operand(x)
    return np.sign(x) * np.maximum(np.abs(x) - gamma * lam, 0.0)


def prox_quadratic(x, gamma, a) -> np.ndarray:
    """Prox of 0.5*||. - a||^2, i.e. (x + gamma*a) / (1 + gamma)."""
    _check_step(gamma)
    x = as_operand(x)
    a = as_operand(a)
    if x.shape[-1] != a.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {a.shape[-1]}")
    return (x + gamma * a) / (1.0 + gamma)


def prox_conjugate(g: ProxFn, y, sigma) -> np.ndarray:
    """Prox of the convex conjugate via the Moreau identity:

    prox_{sigma g*}(y) = y - sigma * prox_{g/sigma}(y / sigma).
    """
    _check_step(sigma)
    y = as_operand(y)
    return y - sigma * g.prox(y / sigma, 1.0 / sigma)


# --- shipped function families -------------------------------------------

def l1(lam: float) -> ProxFn:
    """lam * ||.||_1"""
    if lam < 0:
        raise ValueError("l1 weight must be nonnegative")
    return ProxFn(
        evaluate=lambda x: rowwise(lam * np.abs(x).sum(axis=-1)),
        prox=lambda x, gamma: prox_l1(x, gamma, lam),
    )


def quadratic_distance(a) -> ProxFn:
    """0.5 * ||. - a||^2"""
    a = as_vector(a)
    return ProxFn(
        evaluate=lambda x: rowwise(0.5 * np.sum((x - a) ** 2, axis=-1)),
        prox=lambda x, gamma: prox_quadratic(x, gamma, a),
    )


def conjugate(g: ProxFn, evaluate: Callable[[np.ndarray], float | np.ndarray]) -> ProxFn:
    """Build the ProxFn of g* with prox derived from g by Moreau.

    The conjugate's value map cannot be derived automatically and must be
    supplied, row-wise like every value map; shipped problem generators
    register it analytically.
    """
    return ProxFn(
        evaluate=evaluate,
        prox=lambda y, sigma: prox_conjugate(g, y, sigma),
    )
