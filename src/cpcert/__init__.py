"""Primal-dual (Chambolle-Pock) solver with numerical convergence certificates.

The package solves saddle-point problems min_x max_y f(x) + <Lx, y> - g*(y)
by the relaxed primal-dual iteration for 0 < theta <= 1, validates step
sizes against the admissible product bound, and verifies a per-iteration
Lyapunov descent inequality, a lower bound, and the ergodic O(1/k)
duality-gap chain along recorded trajectories.

The command-line front end and its helpers (``main``, ``ExperimentConfig``,
``fit_rate``, ``emit_plotdata``) live in :mod:`cpcert.harness`.
"""

from .hilbert import (DEFAULT_NORM_SAFETY, ForwardDifferenceOperator,
                      IdentityOperator, LinearOperator, MatrixOperator,
                      PPoint, ZeroOperator, estimate_norm, load_matrix,
                      save_matrix)
from .prox import (ProxFn, conjugate, l1, nonneg_indicator, prox_conjugate,
                   prox_indicator_nonneg, prox_l1, prox_quadratic,
                   quadratic_distance, zero_fn)
from .solver import (NonFiniteIterateError, SolverParams, ParamStatus,
                     Trajectory, Validity, bound_rhs, run, step, suggest_steps,
                     validate_params)
from .certificates import (CertificateTable, KKTPoint, certify_trajectory,
                           eta_coefficients, kkt_residual, make_kkt)
from .problems import (OracleRejectedError, ProblemSpec, default_tv_signal,
                       kkt_by_long_run, make_lasso, make_quadratic, make_tv1d,
                       problem_from_config, random_lasso, random_quadratic)

__version__ = "0.1.0"
