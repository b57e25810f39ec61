"""Primal-dual (Chambolle-Pock) solver with numerical convergence certificates.

The package solves saddle-point problems min_x max_y f(x) + <Lx, y> - g*(y)
by the relaxed primal-dual iteration for 0 < theta <= 1, validates step
sizes against the admissible product bound, and verifies a per-iteration
Lyapunov descent inequality, a lower bound, and the ergodic O(1/k)
duality-gap chain along recorded trajectories.

The command-line front end and its helpers (``main``, ``ExperimentConfig``,
``fit_rate``, ``emit_plotdata``) live in :mod:`cpcert.harness`.

The names below are imported from their modules on first access, so that
importing the package (and the front end's ``rate`` and ``plotdata``,
which read a CSV with the standard library) does not import numpy.
"""

import importlib

_EXPORTS = {
    "hilbert": ("ForwardDifferenceOperator", "LinearOperator", "MatrixOperator",
                "PPoint", "estimate_norm", "load_matrix"),
    "prox": ("ProxFn", "conjugate", "l1", "prox_conjugate", "prox_l1",
             "prox_quadratic", "quadratic_distance"),
    "solver": ("NonFiniteIterateError", "SolverParams", "ParamStatus", "Trajectory",
               "Validity", "bound_rhs", "run", "step", "suggest_steps",
               "validate_params"),
    "certificates": ("CertificateTable", "KKTPoint", "certify_trajectory",
                     "eta_coefficients", "kkt_residual", "make_kkt"),
    "problems": ("OracleRejectedError", "ProblemSpec", "default_tv_signal",
                 "kkt_by_long_run", "make_lasso", "make_quadratic", "make_tv1d",
                 "problem_from_config", "random_lasso", "random_quadratic"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
