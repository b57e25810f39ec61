"""Proximal operators for the shipped objective families.

A :class:`ProxFn` bundles a function value map (extended-real, ``inf``
allowed) with its proximal map ``prox(x, gamma) = argmin_z f(z) +
||x - z||^2 / (2 gamma)``. ``ProxFn.at(gamma)`` binds that map to one step,
checked once, as :func:`cpcert.solver.run` binds it once per run; a shipped
family's ``prox`` carries a binder that forms its step constants there, and
its ``prox(x, gamma)`` is the bound map applied to x. Conjugate proxes are derived through the Moreau identity
so problems can be stated in terms of g rather than g*.

Value maps and prox maps are row-wise: a vector of shape (n,) gives a
float (a vector, for a prox) and a stack of shape (k, n) gives one value
(one row) per row. A prox of a stack takes a step column of shape (k, 1),
one step per row, and computes each row with the arithmetic of its own
single-vector prox. Prox maps check their input shape but do not scan
entries for finiteness; the solver loop does that once per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import as_operand, as_vector

__all__ = ["ProxFn", "l1", "quadratic_distance", "conjugate"]


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

    ``prox`` may carry a binder as its attribute ``bind``, as a shipped
    family's does: ``prox.bind(gamma)`` returns the pure map x -> prox(x,
    gamma) on a float64 vector or stack, with the bits of ``prox``. The
    binder lives on the callable, so a ``ProxFn`` whose ``prox`` is
    replaced (``dataclasses.replace``) drops it and binds the new ``prox``.
    """

    evaluate: Callable[[np.ndarray], float | np.ndarray]
    prox: Callable[[np.ndarray, float], np.ndarray]

    def at(self, gamma) -> Callable[[np.ndarray], np.ndarray]:
        """The map x -> prox(x, gamma) for a float step or a step column,
        each step checked once, here, to be positive and finite."""
        _check_step(gamma)
        prox = self.prox
        bind = getattr(prox, "bind", None)
        return (lambda x: prox(x, gamma)) if bind is None else bind(gamma)


def rowwise(values):
    """A value map's result: a float for one point, the array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _check_step(gamma):
    """A step is a positive finite float, or a column of them for a stack."""
    if isinstance(gamma, np.ndarray):
        ok = ((gamma > 0) & (gamma < math.inf)).all()
    else:
        ok = 0 < gamma < math.inf
    if not ok:
        raise ValueError(f"prox step must be positive and finite, got {gamma}")


def _family(evaluate, bind) -> ProxFn:
    """A shipped family's ProxFn: prox(x, gamma) is bind(gamma)(x), the
    step checked first, and ``prox`` carries ``bind`` for :meth:`ProxFn.at`."""

    def prox(x, gamma):
        _check_step(gamma)
        return bind(gamma)(as_operand(x))

    prox.bind = bind
    return ProxFn(evaluate, prox)


# --- shipped function families -------------------------------------------

def l1(lam: float) -> ProxFn:
    """lam * ||.||_1; its prox shrinks each component towards 0 by gamma*lam."""
    if not 0 <= lam < math.inf:  # a NaN weight fails this too
        raise ValueError(f"l1 weight must be finite and nonnegative, got {lam}")

    def bind(gamma):
        shift = gamma * lam
        return lambda x: np.sign(x) * np.maximum(np.abs(x) - shift, 0.0)

    return _family(lambda x: rowwise(lam * np.abs(x).sum(axis=-1)), bind)


def quadratic_distance(a) -> ProxFn:
    """0.5 * ||. - a||^2, whose prox is (x + gamma*a) / (1 + gamma)."""
    a = as_vector(a)

    def bind(gamma):
        shift, scale = gamma * a, 1.0 + gamma

        def pull(x):
            if x.shape[-1] != a.shape[-1]:
                raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {a.shape[-1]}")
            return (x + shift) / scale
        return pull

    return _family(lambda x: rowwise(0.5 * np.sum((x - a) ** 2, axis=-1)), bind)


def conjugate(g: ProxFn, evaluate: Callable[[np.ndarray], float | np.ndarray]) -> ProxFn:
    """Build the ProxFn of g* with prox derived from g by Moreau:

    prox_{sigma g*}(y) = y - sigma * prox_{g/sigma}(y / sigma),

    with g bound to 1/sigma when g* is bound to sigma. The conjugate's
    value map cannot be derived automatically and must be supplied,
    row-wise like every value map; shipped problem generators register it
    analytically.
    """

    def bind(sigma):
        inner = g.at(1.0 / sigma)
        return lambda y: y - sigma * inner(y / sigma)

    return _family(evaluate, bind)
