"""The four discrete primal-dual schemes, their run loop, and diagnostics."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

# pcg_solve is unused here but stays bound: tracers wrap it by module attribute
from .inner import DualMapContext, InnerSolveError, pcg_solve, ssn_solve  # noqa: F401
from .model import (
    NoReferenceError,
    PointValues,
    RangeSpaceSystem,
    lyapunov_value,
    quadratic_term,
    solve_reference_saddle,
)
from .oracles import UnsupportedOracleError, ZeroProx
from .schedule import (
    SCHEME_TABLE,
    ScalingState,
    StepRule,
    advance_scaling,
    restart_scaling,
    step_size,
)

# c of the restart rule: an epoch ends at the first step that leaves theta
# below it, so 1/theta never exceeds (1 + alpha)/c in any update
_RESTART_THETA = 1e-2


class SaddleReferenceError(RuntimeError):
    """The supplied saddle point is inconsistent (negative Lagrangian gap)."""


@dataclass(frozen=True)
class IterateState:
    """Primal-dual iterate: ``x`` feasible, momentum ``v``, multiplier ``lam``.

    ``y`` holds the interpolation point of the forward-backward schemes and
    ``inner_iters`` the inner-solver work that produced this iterate.
    ``v_residual`` carries ``A v - b`` from a ``semi_apd`` or ``ex_apdfb``
    step, which computes it for the multiplier update; the next such step
    reuses it for ``lam_hat`` instead of applying ``A`` again.
    ``x_residual`` carries ``A x - b`` from an ``implicit`` step, which
    computes it for the multiplier; the run loop's record and the next
    step's shifted multiplier reuse it. A restarted state has ``v = x`` and
    carries the one residual as both. A state built without them
    (``None``) has them recomputed, so a state whose ``v`` or ``x`` is
    replaced must drop the matching one.
    """

    x: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    scaling: ScalingState
    y: np.ndarray = None
    inner_iters: int = 0
    v_residual: np.ndarray = None
    x_residual: np.ndarray = None


@dataclass
class SolverConfig:
    scheme: str
    gamma0: float = 1.0
    beta: float = 0.0
    max_iter: int = 1000
    stop_tol: float = 0.0
    alpha: float = 1.0  # free step size of the implicit scheme
    reference: object = None  # SaddlePoint, or None to auto-detect
    timing: bool = False


@dataclass
class IterationRecord:
    k: int
    epoch: int
    alpha: float
    theta: float
    gamma: float
    obj_gap: float
    feasibility: float
    lagrangian_gap: float
    lyapunov: float
    inner_iters: int
    wall_ns: int


@dataclass
class SolverRun:
    records: list
    status: str  # converged | max_iter | precision_floor
    state: IterateState
    reference: object


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _residual(carried, constraint, point):
    """``A point - b``: the one a state carries, else formed now."""
    return carried if carried is not None else constraint.residual(point)


def _newton_point(ctx, theta, lam, what):
    """The prox point and Newton steps of :func:`ssn_solve` on ``ctx`` from ``lam``.

    The target ``tol (1 + |r|)`` has ``tol`` shrink with the decay factor
    ``theta`` down to a floor, because doubles cannot certify relative
    residuals much below 1e-13. A solve that misses it raises
    :class:`InnerSolveError` with its residual.
    """
    tol = max(min(1e-10, theta * 1e-6), 1e-12) * (1.0 + float(np.linalg.norm(ctx.r)))
    result = ssn_solve(ctx, lam, tol)
    if not result.converged:
        raise InnerSolveError(f"{what} Newton solve failed", result.residual)
    return result.point, result.iterations


def _finite(rhs, what):
    """``rhs`` itself; an exact solve must not carry a NaN or inf into the run."""
    if not np.all(np.isfinite(rhs)):
        raise InnerSolveError(f"{what} right side is not finite",
                              float(np.linalg.norm(rhs)))
    return rhs


def _prox_full_objective(problem, eta, point, beta):
    """Prox of ``f_beta = h + g + (beta/2)|Ax-b|^2`` over the feasible set."""
    smooth, nonsmooth = problem.smooth, problem.nonsmooth
    if smooth.is_quadratic and isinstance(nonsmooth, ZeroProx):
        feas = nonsmooth.feasible_set
        diagonal = getattr(smooth, "diag", None)
        if feas.is_whole_space:
            if beta == 0 and diagonal is not None:
                return (point - eta * smooth.linear_term()) / (1.0 + eta * diagonal)
            amat = problem.constraint.matrix()
            n = amat.shape[1]
            h = smooth.hessian_matrix() + np.eye(n) / eta
            rhs = point / eta - smooth.linear_term()
            if beta > 0:
                h = h + beta * (amat.T @ amat)
                rhs = rhs + beta * (amat.T @ problem.constraint.rhs)
            return np.linalg.solve(h, rhs)
        if beta == 0 and diagonal is not None:
            free = (point - eta * smooth.linear_term()) / (1.0 + eta * diagonal)
            return feas.project(free)
        raise InnerSolveError(
            "no closed-form prox for a quadratic over this set with beta > 0; "
            "set beta=0", np.nan)
    if smooth.is_zero:
        if beta > 0:
            raise InnerSolveError(
                "prox of the augmented objective is unavailable; set beta=0", np.nan)
        return nonsmooth.prox(eta, point)
    raise InnerSolveError(
        "full-objective prox needs a quadratic smooth part or a pure prox part",
        np.nan)


# ---------------------------------------------------------------------------
# scheme steps
# ---------------------------------------------------------------------------

def implicit_apd_step(state, problem, alpha):
    """Fully implicit step; runs with ``mu_beta = 0`` and ``beta = 0``.

    Quadratic unconstrained objectives get an exact range-space solve
    (:class:`~apd.model.RangeSpaceSystem`): with ``D = Q + I/eta`` and
    ``g = y/eta - c - A' shifted``, the subproblem is
    ``[D A'; A -theta' I] (x', mu) = (g, b)``, one Cholesky of the m-by-m
    Schur complement ``A D^-1 A' + theta' I``. Pure prox objectives go
    through the dual nonlinear equation and semi-smooth Newton. The
    multiplier is ``shifted + (A x' - b)/theta'``; its residual ``A x' - b``
    is carried on the new state.
    """
    if alpha <= 0:
        raise ValueError("step size must be positive")
    sc = state.scaling
    theta_next = sc.theta / (1.0 + alpha)
    tau = sc.gamma * (1.0 + alpha)
    y = (state.x + alpha * state.v) / (1.0 + alpha)
    eta = alpha ** 2 / tau
    constraint = problem.constraint
    shifted = state.lam - _residual(state.x_residual, constraint, state.x) / sc.theta
    inner_iters = 0
    if problem.smooth.is_quadratic and problem.is_smooth_unconstrained:
        smooth = problem.smooth
        g = _finite(y / eta - smooth.linear_term() - constraint.apply_adjoint(shifted),
                    "implicit subproblem")
        system = RangeSpaceSystem(constraint, quadratic_term(smooth), 1.0 / eta, theta_next)
        x_next, _ = system.solve(g, constraint.rhs)
    elif problem.smooth.is_zero:
        r = theta_next * shifted - constraint.rhs
        ctx = DualMapContext(theta_next, 1.0, eta, y, constraint,
                             problem.nonsmooth, r=r)
        x_next, inner_iters = _newton_point(ctx, sc.theta, state.lam, "implicit subproblem")
    else:
        raise InnerSolveError(
            "implicit subproblem needs a quadratic objective or a pure prox part",
            np.nan)
    v_next = x_next + (x_next - state.x) / alpha
    x_residual = constraint.residual(x_next)
    lam_next = shifted + x_residual / theta_next
    return IterateState(x_next, v_next, lam_next, advance_scaling(sc, alpha, 0.0),
                        inner_iters=inner_iters, x_residual=x_residual)


def semi_apd_step(state, problem, alpha):
    """Semi-implicit step: explicit multiplier, full prox of the objective."""
    if alpha <= 0:
        raise ValueError("step size must be positive")
    sc = state.scaling
    beta = problem.effective_beta
    mu_beta = problem.mu_beta
    constraint = problem.constraint
    lam_hat = state.lam + (alpha / sc.theta) * _residual(state.v_residual, constraint, state.v)
    tau = sc.gamma + mu_beta * alpha + sc.gamma * alpha
    y = ((sc.gamma + mu_beta * alpha) * state.x + sc.gamma * alpha * state.v) / tau
    eta = alpha ** 2 / tau
    point = y - eta * constraint.apply_adjoint(lam_hat)
    x_next = _prox_full_objective(problem, eta, point, beta)
    v_next = x_next + (x_next - state.x) / alpha
    v_residual = constraint.residual(v_next)
    lam_next = state.lam + (alpha / sc.theta) * v_residual
    return IterateState(x_next, v_next, lam_next,
                        advance_scaling(sc, alpha, mu_beta), v_residual=v_residual)


def semi_apdfb_step(state, problem, alpha):
    """Corrected semi-implicit forward-backward step.

    When the nonsmooth part vanishes over the whole space, the coupled
    ``(lam, v)`` subproblem is solved exactly through the constraint's Gram
    factor. With ``r = theta lam_prev + alpha (A z - b)`` it is the dual
    system ``v = z - t A' (theta I + alpha t A A')^{-1} r`` or, when ``A``
    has more rows than columns, its push-through form
    ``v = z - t (theta I + alpha t A'A)^{-1} A' r``, whose solve sees only a
    right side in the range of ``A'``. Otherwise it reduces to the dual
    nonlinear equation (solved by semi-smooth Newton).
    """
    if alpha <= 0:
        raise ValueError("step size must be positive")
    sc = state.scaling
    beta = problem.effective_beta
    mu_beta = problem.mu_beta
    constraint = problem.constraint
    y = (state.x + alpha * state.v) / (1.0 + alpha)
    tau = sc.gamma + mu_beta * alpha
    w = (sc.gamma * state.v + mu_beta * alpha * y) / tau
    t = alpha / tau
    z = w - t * problem.smooth_beta_gradient(y, beta)
    inner_iters = 0
    if problem.is_smooth_unconstrained:
        rhs = _finite(sc.theta * state.lam + alpha * constraint.residual(z),
                      "saddle subproblem")
        if constraint.rows <= constraint.cols:
            lam = constraint.solve_shifted_gram(sc.theta, alpha * t, rhs)
            v_next = z - t * constraint.apply_adjoint(lam)
        else:
            v_next = z - t * constraint.solve_shifted_gram(
                sc.theta, alpha * t, constraint.apply_adjoint(rhs))
    else:
        ctx = DualMapContext.for_step(sc.theta, alpha, t, z, constraint,
                                      problem.nonsmooth, state.lam)
        v_next, inner_iters = _newton_point(ctx, sc.theta, state.lam, "dual")
    lam_next = state.lam + (alpha / sc.theta) * constraint.residual(v_next)
    x_next = (state.x + alpha * v_next) / (1.0 + alpha)
    return IterateState(x_next, v_next, lam_next,
                        advance_scaling(sc, alpha, mu_beta), y=y,
                        inner_iters=inner_iters)


def ex_apdfb_step(state, problem, alpha):
    """Corrected explicit forward-backward step: one prox, no inner loop."""
    if alpha <= 0:
        raise ValueError("step size must be positive")
    sc = state.scaling
    beta = problem.effective_beta
    mu_beta = problem.mu_beta
    constraint = problem.constraint
    y = (state.x + alpha * state.v) / (1.0 + alpha)
    tau = sc.gamma + mu_beta * alpha
    w = (sc.gamma * state.v + mu_beta * alpha * y) / tau
    eta = alpha / tau
    lam_hat = state.lam + (alpha / sc.theta) * _residual(state.v_residual, constraint, state.v)
    point = w - eta * (problem.smooth_beta_gradient(y, beta)
                       + constraint.apply_adjoint(lam_hat))
    v_next = problem.nonsmooth.prox(eta, point)
    x_next = (state.x + alpha * v_next) / (1.0 + alpha)
    v_residual = constraint.residual(v_next)
    lam_next = state.lam + (alpha / sc.theta) * v_residual
    return IterateState(x_next, v_next, lam_next,
                        advance_scaling(sc, alpha, mu_beta), y=y,
                        v_residual=v_residual)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def discrete_lyapunov(state, problem, saddle, at_x=None, at_star=None):
    """:func:`~apd.model.lyapunov_value` of an iterate and its scaling pair."""
    return lyapunov_value(problem, saddle, state.x, state.v, state.lam,
                          state.scaling.gamma, state.scaling.theta, at_x, at_star)


def residual_metrics(problem, x, lam, saddle=None, at_x=None, at_star=None):
    """``(|f - f*|, |Ax - b|, Lagrangian gap)``; gaps are nan without a saddle.

    ``at_x`` and ``at_star`` may pass the :class:`~apd.model.PointValues` of
    ``x`` and ``saddle.x_star`` when the caller already holds them.
    """
    at_x = PointValues(problem, x) if at_x is None else at_x
    feasibility = float(np.linalg.norm(at_x.residual))
    if saddle is None:
        return np.nan, feasibility, np.nan
    at_star = PointValues(problem, saddle.x_star) if at_star is None else at_star
    obj_gap = abs(at_x.fval - saddle.f_star)
    lagrangian_gap = (at_x.lagrangian(saddle.lambda_star, 0.0)
                      - at_star.lagrangian(lam, 0.0))
    if lagrangian_gap < -1e-10 * max(1.0, abs(saddle.f_star)):
        raise SaddleReferenceError(
            f"negative Lagrangian gap {lagrangian_gap:.3e}: reference saddle "
            "point is inconsistent")
    return obj_gap, feasibility, lagrangian_gap


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def make_step_rule(problem, config):
    """Step rule of ``config.scheme``; each rule reads only its own constants."""
    return StepRule(config.scheme, norm_a=problem.constraint.op_norm,
                    lip_beta=problem.lip_beta, alpha=config.alpha)


def initial_state(problem, config):
    x0 = problem.nonsmooth.prox(1.0, np.zeros(problem.constraint.cols))
    return IterateState(x0, x0.copy(), np.zeros(problem.constraint.rows),
                        ScalingState(1.0, config.gamma0, 0))


def run_solver(problem, config):
    """Run one scheme on one problem, recording per-iteration diagnostics.

    The run is a sequence of epochs, each a fresh run of the scheme: once a
    step leaves ``theta`` below ``_RESTART_THETA``, the next epoch starts
    from ``(x, x, lam)`` with the scaling pair of
    :func:`~apd.schedule.restart_scaling`. The stop measure is objective gap
    plus feasibility when a reference saddle point is available, otherwise
    the KKT residual (formed at epoch ends, and once feasibility is within
    ``stop_tol``). The run ends with status

    - ``converged`` when the measure is within ``stop_tol``;
    - ``precision_floor`` when an epoch ends without lowering the measure
      below every earlier epoch end: rounding, not the scheme, now sets the
      accuracy. The returned state is then the best iterate measured;
    - ``max_iter`` otherwise.

    Every step is recorded, with the epoch it belongs to. Deterministic for
    a fixed configuration; wall clocks are recorded only with ``timing``.

    Each iterate's residual ``A x - b`` is formed once (by the step, when it
    carries one) and feeds its record, the stop test and the restart; the
    values at ``x*`` are formed once per run.
    """
    from .model import kkt_residual

    if config.scheme == "implicit" and problem.beta != 0.0:
        problem = dataclasses.replace(problem, beta=0.0)
    rule = make_step_rule(problem, config)
    step_name = SCHEME_TABLE[config.scheme].step
    reference = config.reference
    if reference is None:
        try:
            reference = solve_reference_saddle(problem)
        except (NoReferenceError, UnsupportedOracleError):
            reference = None
    at_star = PointValues(problem, reference.x_star) if reference is not None else None
    state = initial_state(problem, config)
    records = [_record(0, 0, 0.0, state, problem, reference,
                       PointValues(problem, state.x), at_star)]
    status = "max_iter"
    epoch = 0
    best, best_state, best_end = np.inf, state, np.inf
    for k in range(config.max_iter):
        if state.scaling.theta < _RESTART_THETA:
            epoch += 1
            state = IterateState(state.x, state.x, state.lam,
                                 restart_scaling(config.scheme, problem.mu_beta,
                                                 state.scaling.gamma, config.gamma0),
                                 v_residual=at_x.residual, x_residual=at_x.residual)
        alpha = step_size(rule, state.scaling)
        started = time.perf_counter_ns() if config.timing else 0
        # looked up per step, so a step function replaced on the module is the one called
        state = globals()[step_name](state, problem, alpha)
        elapsed = time.perf_counter_ns() - started if config.timing else 0
        at_x = PointValues(problem, state.x, state.x_residual)
        rec = _record(k + 1, epoch, alpha, state, problem, reference, at_x, at_star, elapsed)
        records.append(rec)
        epoch_end = state.scaling.theta < _RESTART_THETA
        if reference is not None:
            measure = rec.obj_gap + rec.feasibility
        elif epoch_end or 0 < config.stop_tol and rec.feasibility <= config.stop_tol:
            # feas + stat <= stop_tol needs feas <= stop_tol, so stationarity
            # is formed only then and at epoch ends
            measure = sum(kkt_residual(problem, state.x, state.lam, residual=at_x.residual))
        else:
            measure = np.inf
        if measure < best:
            best, best_state = measure, state
        if config.stop_tol > 0 and measure <= config.stop_tol:
            status = "converged"
            break
        if epoch_end:
            if not measure < best_end:
                status, state = "precision_floor", best_state
                break
            best_end = measure
    return SolverRun(records, status, state, reference)


def _record(k, epoch, alpha, state, problem, reference, at_x, at_star, wall_ns=0):
    obj_gap, feasibility, lagrangian_gap = residual_metrics(
        problem, state.x, state.lam, reference, at_x=at_x, at_star=at_star)
    lyap = discrete_lyapunov(state, problem, reference, at_x=at_x, at_star=at_star) \
        if reference is not None else np.nan
    return IterationRecord(
        k=k, epoch=epoch, alpha=alpha, theta=state.scaling.theta, gamma=state.scaling.gamma,
        obj_gap=obj_gap, feasibility=feasibility, lagrangian_gap=lagrangian_gap,
        lyapunov=lyap, inner_iters=state.inner_iters, wall_ns=wall_ns)
