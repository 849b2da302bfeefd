"""Accelerated primal-dual solvers for linearly constrained convex optimization.

The package splits into problem oracles (:mod:`apd.oracles`, :mod:`apd.model`),
the scaling schedule (:mod:`apd.schedule`), the continuous flow
(:mod:`apd.flow`), the four discrete schemes (:mod:`apd.solvers`), inner
solvers (:mod:`apd.inner`), decentralized consensus optimization
(:mod:`apd.ddo`), and the experiment harness (:mod:`apd.harness`).
"""

from .model import (
    MatrixConstraint,
    NoReferenceError,
    ProblemInstance,
    SaddlePoint,
    kkt_residual,
    load_problem,
    operator_norm_estimate,
    save_problem,
    solve_reference_saddle,
)
from .oracles import (
    L1Prox,
    LogisticObjective,
    ProxFunction,
    QuadraticObjective,
    SmoothOracle,
    ZeroObjective,
    ZeroProx,
    soft_threshold,
)
from .schedule import ScalingState, StepRule, advance_scaling, step_size, theta_upper_bound
from .sets import Box
from .solvers import (
    IterateState,
    IterationRecord,
    RunContext,
    SolverConfig,
    discrete_lyapunov,
    ex_apdfb_step,
    implicit_apd_step,
    residual_metrics,
    run_solver,
    semi_apd_step,
    semi_apdfb_step,
)

__all__ = [
    "Box",
    "IterateState",
    "IterationRecord",
    "L1Prox",
    "LogisticObjective",
    "MatrixConstraint",
    "NoReferenceError",
    "ProblemInstance",
    "ProxFunction",
    "QuadraticObjective",
    "RunContext",
    "SaddlePoint",
    "ScalingState",
    "SmoothOracle",
    "SolverConfig",
    "StepRule",
    "ZeroObjective",
    "ZeroProx",
    "advance_scaling",
    "discrete_lyapunov",
    "ex_apdfb_step",
    "implicit_apd_step",
    "kkt_residual",
    "load_problem",
    "operator_norm_estimate",
    "residual_metrics",
    "run_solver",
    "save_problem",
    "semi_apd_step",
    "semi_apdfb_step",
    "soft_threshold",
    "solve_reference_saddle",
    "step_size",
    "theta_upper_bound",
]

__version__ = "0.1.0"
