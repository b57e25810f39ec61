"""Proximal operators for the shipped objective families.

A :class:`ProxFn` bundles a function value map (extended-real, ``inf``
allowed) with its proximal map ``prox(x, gamma) = argmin_z f(z) +
||x - z||^2 / (2 gamma)``. Conjugate proxes are derived through the Moreau
identity so problems can be stated in terms of g rather than g*.

Value maps are row-wise: a vector of shape (n,) gives a float and a stack
of shape (k, n) gives one value per row, shape (k,). Prox maps check their
step size and input shape but do not scan entries for finiteness; the
solver loop does that once per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import as_vector, as_vector_unchecked

__all__ = [
    "ProxFn",
    "prox_l1",
    "prox_quadratic",
    "prox_indicator_nonneg",
    "prox_conjugate",
    "l1",
    "quadratic_distance",
    "nonneg_indicator",
    "zero_fn",
    "conjugate",
]


@dataclass(frozen=True)
class ProxFn:
    """A proper convex lsc function with value map and proximal map.

    ``evaluate`` returns the extended-real function value (math.inf for
    points outside the domain) and is row-wise: a float for a vector of
    shape (n,), an array of shape (k,) for a stack of shape (k, n).
    ``prox`` must be pure and its output must always have finite value.
    """

    evaluate: Callable[[np.ndarray], float | np.ndarray]
    prox: Callable[[np.ndarray, float], np.ndarray]
    domain_description: str = "R^n"


def rowwise(values):
    """A value map's result: a float for one point, the array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _check_step(gamma: float):
    if not gamma > 0:
        raise ValueError(f"prox step must be positive, got {gamma}")


def prox_l1(x, gamma: float, lam: float) -> np.ndarray:
    """Soft-thresholding: componentwise shrink towards 0 by gamma*lam."""
    _check_step(gamma)
    if lam < 0:
        raise ValueError("l1 weight must be nonnegative")
    x = as_vector_unchecked(x)
    return np.sign(x) * np.maximum(np.abs(x) - gamma * lam, 0.0)


def prox_quadratic(x, gamma: float, a) -> np.ndarray:
    """Prox of 0.5*||. - a||^2, i.e. (x + gamma*a) / (1 + gamma)."""
    _check_step(gamma)
    x = as_vector_unchecked(x)
    a = as_vector_unchecked(a)
    if x.shape != a.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {a.shape[0]}")
    return (x + gamma * a) / (1.0 + gamma)


def prox_indicator_nonneg(x, gamma: float = 1.0) -> np.ndarray:
    """Projection onto the nonnegative orthant (step value unused)."""
    return np.maximum(as_vector_unchecked(x), 0.0)


def prox_conjugate(g: ProxFn, y, sigma: float) -> np.ndarray:
    """Prox of the convex conjugate via the Moreau identity:

    prox_{sigma g*}(y) = y - sigma * prox_{g/sigma}(y / sigma).
    """
    _check_step(sigma)
    y = as_vector_unchecked(y)
    return y - sigma * g.prox(y / sigma, 1.0 / sigma)


# --- shipped function families -------------------------------------------

def l1(lam: float) -> ProxFn:
    """lam * ||.||_1"""
    if lam < 0:
        raise ValueError("l1 weight must be nonnegative")
    return ProxFn(
        evaluate=lambda x: rowwise(lam * np.abs(x).sum(axis=-1)),
        prox=lambda x, gamma: prox_l1(x, gamma, lam),
        domain_description="R^n",
    )


def quadratic_distance(a) -> ProxFn:
    """0.5 * ||. - a||^2"""
    a = as_vector(a)
    return ProxFn(
        evaluate=lambda x: rowwise(0.5 * np.sum((x - a) ** 2, axis=-1)),
        prox=lambda x, gamma: prox_quadratic(x, gamma, a),
        domain_description="R^n",
    )


def nonneg_indicator() -> ProxFn:
    """Indicator of the nonnegative orthant."""
    def evaluate(x):
        inside = np.all(np.asarray(x) >= -1e-12, axis=-1)
        return rowwise(np.where(inside, 0.0, math.inf))

    return ProxFn(
        evaluate=evaluate,
        prox=prox_indicator_nonneg,
        domain_description="x >= 0",
    )


def zero_fn() -> ProxFn:
    """The identically-zero function; prox is the identity."""
    return ProxFn(
        evaluate=lambda x: rowwise(np.zeros(np.shape(x)[:-1])),
        prox=lambda x, gamma: as_vector_unchecked(x).copy(),
        domain_description="R^n",
    )


def conjugate(g: ProxFn, evaluate: Callable[[np.ndarray], float | np.ndarray],
              domain_description: str = "") -> ProxFn:
    """Build the ProxFn of g* with prox derived from g by Moreau.

    The conjugate's value map cannot be derived automatically and must be
    supplied, row-wise like every value map; shipped problem generators
    register it analytically.
    """
    return ProxFn(
        evaluate=evaluate,
        prox=lambda y, sigma: prox_conjugate(g, y, sigma),
        domain_description=domain_description or f"conjugate of {g.domain_description}",
    )
