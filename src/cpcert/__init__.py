"""Primal-dual (Chambolle-Pock) solver with numerical convergence certificates.

The package solves saddle-point problems min_x max_y f(x) + <Lx, y> - g*(y)
by the relaxed primal-dual iteration for 0 < theta <= 1, validates step
sizes against the admissible product bound, and verifies a per-iteration
Lyapunov descent inequality, a lower bound, and the ergodic O(1/k)
duality-gap chain along recorded trajectories.
"""

from .hilbert import (DEFAULT_NORM_SAFETY, ForwardDifferenceOperator,
                      IdentityOperator, LinearOperator, MatrixOperator,
                      PPoint, ZeroOperator, dot, estimate_norm, load_matrix,
                      p_inner, p_quadratic_form, save_matrix)
from .prox import (ProxFn, check_prox_inclusion, conjugate, l1,
                   nonneg_indicator, prox_conjugate, prox_indicator_nonneg,
                   prox_l1, prox_quadratic, quadratic_distance, zero_fn)
from .solver import (NonFiniteIterateError, SolverParams, ParamStatus,
                     Trajectory, Validity, bound_rhs,
                     denominator_identity_residual, run, step, suggest_steps,
                     validate_params)
from .certificates import (CertificateReport, CertificateTable, ErgodicReport,
                           KKTPoint, certify_trajectory, descent_residual,
                           duality_gap, ergodic_bound_check, eta_coefficients,
                           eta_from_proof_constants, kkt_residual,
                           lower_bound_residual, lyapunov, make_kkt)
from .problems import (OracleRejectedError, ProblemSpec, default_tv_signal,
                       kkt_by_long_run, make_lasso, make_quadratic, make_tv1d,
                       problem_from_config, random_lasso, random_quadratic)
from .harness import ExperimentConfig, RateFit, emit_plotdata, fit_rate, main

__version__ = "0.1.0"
