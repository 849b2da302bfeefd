"""The four discrete primal-dual schemes, their run loop, and diagnostics."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

# pcg_solve is unused here but stays bound: tracers wrap it by module attribute
from .inner import DualMapContext, InnerSolveError, pcg_solve, ssn_solve  # noqa: F401
from .model import (
    MatrixConstraint,
    NoReferenceError,
    PointValues,
    RangeSpaceSystem,
    kkt_system,
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
# below it, so 1/theta never exceeds (1 + alpha)/c in any update, 5000 at the
# implicit scheme's derived step on its exact route (:func:`make_step_rule`)
_RESTART_THETA = 1e-2
_FRESH_RESIDUAL = 1e3  # C of run_solver's residual refresh
# face solves per polish chain (:func:`polish_chain`): on the composite
# benchmark's seed-31 sets, 5 ends every case at the step 8 ends it, while 3
# leaves box.semi_apd at 23, 32 and 26 steps against 17, 19 and 22
_POLISH_SOLVES = 5


class SaddleReferenceError(RuntimeError):
    """The supplied saddle point is inconsistent (negative Lagrangian gap)."""


@dataclass(frozen=True)
class IterateState:
    """Primal-dual iterate of the paper's schemes: ``x`` feasible, momentum
    ``v``, multiplier ``lam``, the scaling pair ``(theta, gamma)`` and the
    residuals ``r_x = A x - b`` and ``r_v = A v - b``, which a step forms
    from what it holds, or ``None`` in a run that reads neither (``run_ddo``).
    A run's other state lives in its :class:`RunContext`."""

    x: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    scaling: ScalingState
    r_x: np.ndarray
    r_v: np.ndarray

    @classmethod
    def start(cls, x, lam, scaling, r_x):
        """``(x, x, lam)`` with ``A x - b = r_x``: a run's, an epoch's or a polish's start."""
        return cls(x, x, lam, scaling, r_x, r_x)


class RunContext:
    """What one run keeps besides its iterate: the problem, the factored
    ``implicit`` step systems and the inner iterations of the last step, which
    :func:`run_solver` zeroes before each step and only a Newton solve writes.
    :func:`run_solver` and :func:`~apd.ddo.run_ddo` build one per run, which
    lives only as long as the run; a step is ``step(state, ctx, alpha)``.
    """

    def __init__(self, problem):
        self.problem = problem
        self.systems = {}
        self.inner_iters = 0


@dataclass
class SolverConfig:
    scheme: str
    gamma0: float = 1.0
    max_iter: int = 1000
    stop_tol: float = 0.0
    # free step size of the implicit scheme; None derives it (make_step_rule)
    alpha: float = None
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

def _newton_point(dual, theta, lam, what):
    """The prox point and Newton steps of :func:`ssn_solve` on ``dual`` from ``lam``.

    The target ``tol (1 + |r|)`` has ``tol`` shrink with the decay factor
    ``theta`` down to a floor, because doubles cannot certify relative
    residuals much below 1e-13. A solve that misses it raises
    :class:`InnerSolveError` with its residual.
    """
    tol = max(min(1e-10, theta * 1e-6), 1e-12) * (1.0 + float(np.linalg.norm(dual.r)))
    result = ssn_solve(dual, lam, tol)
    if not result.converged:
        raise InnerSolveError(f"{what} Newton solve failed", result.residual)
    return result.point, result.iterations


def _finite(rhs, what):
    """``rhs`` itself; an exact solve must not carry a NaN or inf into the run."""
    if not np.all(np.isfinite(rhs)):
        raise InnerSolveError(f"{what} right side is not finite",
                              float(np.linalg.norm(rhs)))
    return rhs


def _prox_full_objective(problem, eta, point):
    """Prox of ``f = h + g`` over the feasible box: that of ``g`` when ``h = 0``;
    for ``g = 0``, a diagonal quadratic ``h``, or a dense one over the whole space."""
    smooth, nonsmooth = problem.smooth, problem.nonsmooth
    if smooth.is_zero:
        return nonsmooth.prox(eta, point)
    if smooth.is_quadratic and isinstance(nonsmooth, ZeroProx):
        box = nonsmooth.feasible_set
        if smooth.diag is not None:
            return box.project((point - eta * smooth.linear) / (1.0 + eta * smooth.diag))
        if box.is_whole_space:
            h = smooth.hessian_matrix() + np.eye(problem.dim) / eta
            return np.linalg.solve(h, point / eta - smooth.linear)
        raise InnerSolveError("no closed-form prox for a dense quadratic over a box that is "
                              "not the whole space", np.nan)
    raise InnerSolveError("full-objective prox needs a quadratic smooth part or a pure prox part",
                          np.nan)


def _range_space_route(problem):
    """Whether the implicit subproblem has the exact range-space solve: a
    quadratic ``h`` and ``g = 0`` over the whole space."""
    return problem.smooth.is_quadratic and problem.is_smooth_unconstrained


def _stepped(state, alpha, scaling, x_next, v_next, lam_next, r_v):
    """The next state: ``A x' - b`` combines ``r_x`` and ``r_v = A v' - b`` as ``x'`` does."""
    r_x = None if state.r_x is None else (state.r_x + alpha * r_v) / (1.0 + alpha)
    return IterateState(x_next, v_next, lam_next, scaling, r_x, r_v)


# ---------------------------------------------------------------------------
# scheme steps
# ---------------------------------------------------------------------------

def implicit_apd_step(state, ctx, alpha):
    """Fully implicit step on ``ctx.problem``; runs with ``mu_beta = 0``.

    It is implicit Euler, with step ``alpha``, of the flow of
    :func:`~apd.flow.integrate_flow` with ``mu`` set to 0: the scaling pair
    advances with ``mu_beta = 0`` and the step has no ``mu`` term, so
    ``theta_k = (1 + alpha)^-k`` and, when the problem's ``mu`` is 0 too, the
    iterate after ``k`` steps is within ``O(alpha)`` of the flow at
    ``t = k alpha``. For ``mu > 0`` it follows the ``mu = 0`` flow, not that one.

    Quadratic unconstrained objectives get an exact range-space solve
    (:class:`~apd.model.RangeSpaceSystem`): with ``D = Q + I/eta`` and
    ``g = y/eta - c - A' shifted``, the subproblem is
    ``[D A'; A -theta' I] (x', mu) = (g, b)``, one Cholesky of the m-by-m
    Schur complement ``A D^-1 A' + theta' I``. Pure prox objectives go
    through the dual nonlinear equation and semi-smooth Newton. The
    multiplier is ``shifted + (A x' - b)/theta'``, ``shifted = lam - r_x/theta``,
    and ``A x' - b`` is formed: ``theta' mu`` errs by the solve's error over ``theta'``.

    The system depends on the step only through ``(1/eta, theta')``. A
    restarted epoch starts from the same scaling pair with the same fixed
    ``alpha``, so it repeats the previous epoch's pairs bit for bit, and
    ``ctx.systems`` keeps the factored system of each pair the run has seen.
    It then holds at most one epoch's systems, ``ceil(ln(1/c)/ln(1 + alpha))``
    with ``c = _RESTART_THETA``, each ``m^2`` doubles plus ``n^2`` for a
    dense ``Q``: 2 at the range-space route's derived ``alpha = 49``
    (:func:`make_step_rule`).
    """
    problem, sc = ctx.problem, state.scaling
    scaling = advance_scaling(sc, alpha, 0.0)
    tau = sc.gamma * (1.0 + alpha)
    y = (state.x + alpha * state.v) / (1.0 + alpha)
    eta = alpha ** 2 / tau
    constraint = problem.constraint
    shifted = state.lam - state.r_x / sc.theta
    if _range_space_route(problem):
        smooth = problem.smooth
        g = _finite(y / eta - smooth.linear - constraint.apply_adjoint(shifted),
                    "implicit subproblem")
        key = (1.0 / eta, scaling.theta)
        system = ctx.systems.get(key)
        if system is None:
            system = ctx.systems[key] = RangeSpaceSystem(constraint, quadratic_term(smooth),
                                                         *key)
        x_next, _ = system.solve(g, constraint.rhs)
    elif problem.smooth.is_zero:
        dual = DualMapContext(scaling.theta, 1.0, eta, y, constraint, problem.nonsmooth, shifted)
        x_next, ctx.inner_iters = _newton_point(dual, sc.theta, state.lam,
                                                "implicit subproblem")
    else:
        raise InnerSolveError(
            "implicit subproblem needs a quadratic objective or a pure prox part",
            np.nan)
    v_next = x_next + (x_next - state.x) / alpha
    r_x = constraint.residual(x_next)
    lam_next = shifted + r_x / scaling.theta
    return IterateState(x_next, v_next, lam_next, scaling, r_x, r_x + (r_x - state.r_x) / alpha)


def semi_apd_step(state, ctx, alpha):
    """Semi-implicit step: explicit multiplier, full prox, one product with ``A``."""
    problem, sc = ctx.problem, state.scaling
    mu_beta = problem.smooth.mu
    scaling = advance_scaling(sc, alpha, mu_beta)
    lam_hat = state.lam + (alpha / sc.theta) * state.r_v
    tau = sc.gamma + mu_beta * alpha + sc.gamma * alpha
    y = ((sc.gamma + mu_beta * alpha) * state.x + sc.gamma * alpha * state.v) / tau
    eta = alpha ** 2 / tau
    point = y - eta * problem.constraint.apply_adjoint(lam_hat)
    x_next = _prox_full_objective(problem, eta, point)
    v_next = x_next + (x_next - state.x) / alpha
    r_v = problem.constraint.residual(v_next)
    return _stepped(state, alpha, scaling, x_next, v_next,
                    state.lam + (alpha / sc.theta) * r_v, r_v)


def semi_apdfb_step(state, ctx, alpha):
    """Corrected semi-implicit forward-backward step.

    When the nonsmooth part vanishes over the whole space, the coupled
    ``(lam, v)`` subproblem is linear and is solved exactly through the
    constraint's Gram factor, in its dual form: with ``r = theta lam_prev +
    alpha (A z - b)``, ``lam = (theta I + alpha t A A')^{-1} r`` and
    ``v = z - t A' lam`` (:meth:`~apd.model.LinearConstraint.gram_solve`), and
    ``A v - b = theta (lam - lam_prev)/alpha`` reads the update backwards. Otherwise
    it reduces to the dual nonlinear equation (solved by semi-smooth Newton),
    and ``lam = lam_prev + (alpha / theta) (A v - b)``.
    """
    problem, sc = ctx.problem, state.scaling
    mu_beta = problem.smooth.mu
    scaling = advance_scaling(sc, alpha, mu_beta)
    constraint = problem.constraint
    y = (state.x + alpha * state.v) / (1.0 + alpha)
    tau = sc.gamma + mu_beta * alpha
    w = (sc.gamma * state.v + mu_beta * alpha * y) / tau
    t = alpha / tau
    z = w - t * problem.smooth.gradient(y)
    if problem.is_smooth_unconstrained:
        rhs = _finite(sc.theta * state.lam + alpha * constraint.residual(z),
                      "saddle subproblem")
        lam_next, adjoint_lam = constraint.gram_solve(sc.theta, alpha * t, rhs)
        v_next = z - t * adjoint_lam
        r_v = None if state.r_x is None else (sc.theta / alpha) * (lam_next - state.lam)
    else:
        dual = DualMapContext(sc.theta, alpha, t, z, constraint, problem.nonsmooth, state.lam)
        v_next, ctx.inner_iters = _newton_point(dual, sc.theta, state.lam, "dual")
        r_v = constraint.residual(v_next)
        lam_next = state.lam + (alpha / sc.theta) * r_v
    return _stepped(state, alpha, scaling, (state.x + alpha * v_next) / (1.0 + alpha), v_next,
                    lam_next, r_v)


def ex_apdfb_step(state, ctx, alpha):
    """Corrected explicit forward-backward step: one prox, one product with ``A``."""
    problem, sc = ctx.problem, state.scaling
    mu_beta = problem.smooth.mu
    scaling = advance_scaling(sc, alpha, mu_beta)
    y = (state.x + alpha * state.v) / (1.0 + alpha)
    tau = sc.gamma + mu_beta * alpha
    w = (sc.gamma * state.v + mu_beta * alpha * y) / tau
    eta = alpha / tau
    lam_hat = state.lam + (alpha / sc.theta) * state.r_v
    point = w - eta * (problem.smooth.gradient(y) + problem.constraint.apply_adjoint(lam_hat))
    v_next = problem.nonsmooth.prox(eta, point)
    x_next = (state.x + alpha * v_next) / (1.0 + alpha)
    r_v = problem.constraint.residual(v_next)
    return _stepped(state, alpha, scaling, x_next, v_next,
                    state.lam + (alpha / sc.theta) * r_v, r_v)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def discrete_lyapunov(state, problem, saddle, gap=None):
    """:func:`~apd.model.lyapunov_value` of an iterate; ``gap`` may pass its Lagrangian gap."""
    return lyapunov_value(problem, saddle, state.x, state.v, state.lam,
                          state.scaling.gamma, state.scaling.theta, gap=gap)


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
    lagrangian_gap = at_x.lagrangian(saddle.lambda_star) - at_star.lagrangian(lam)
    if lagrangian_gap < -1e-10 * max(1.0, abs(saddle.f_star)):
        raise SaddleReferenceError(
            f"negative Lagrangian gap {lagrangian_gap:.3e}: reference saddle "
            "point is inconsistent")
    return obj_gap, feasibility, lagrangian_gap


# ---------------------------------------------------------------------------
# polish
# ---------------------------------------------------------------------------

def _same_face(face, other):
    return other is not None and all(np.array_equal(a, b) for a, b in zip(face, other))


def polish_face(problem, state, face):
    """The KKT point of ``h + g`` on ``face`` (``problem.nonsmooth.face``) as the
    state ``(x, x, state.lam + delta)``, with ``state``'s scaling pair and ``A x - b``
    formed once, or ``None`` when the face's system is singular or ``A`` has no
    dense form. It measures nothing: :func:`run_solver` measures it as a step.

    ``h`` must be quadratic. On the face the KKT conditions are linear,
    ``[Q_FF A_F'; A_F 0] (x_F, delta) = (-c_F - slope - Q_FB x_B - A_F' lam,
    b - A_B x_B)``, with ``delta`` of least norm, and the point keeps the
    fixed coordinates of ``face``. With fewer free coordinates than rows,
    ``A_F x_F = b - A_B x_B`` alone fixes ``x_F``, and ``delta`` is the
    least-norm solution of ``A_F' delta = -grad h(x)_F - slope - A_F' lam``:
    one Cholesky of ``A_F'A_F`` (a QR would first load LAPACK code no other
    solve uses, 0.6 MB of resident memory). Otherwise it is the
    :func:`~apd.model.kkt_system` of the face, with its ``m x m`` Schur
    complement. :func:`polish_chain` calls it on a face read from an
    iterate and then on the faces that its candidates give.
    """
    free, fixed, slope = face
    smooth, constraint, lam = problem.smooth, problem.constraint, state.lam
    try:
        a_free = constraint.matrix()[:, free]
        rows, size = a_free.shape
        r2 = -constraint.residual(fixed)
        x = fixed.copy()
        if size < rows:
            gram = sla.cho_factor(a_free.T @ a_free)
            x[free] = sla.cho_solve(gram, a_free.T @ r2)
            r1 = -smooth.gradient(x)[free] - slope - a_free.T @ lam
            delta = a_free @ sla.cho_solve(gram, r1)
        else:
            r1 = -smooth.gradient(fixed)[free] - slope - a_free.T @ lam
            system, r1 = kkt_system(problem, free, MatrixConstraint(a_free, r2), r1)
            x[free], delta = system.solve(r1, r2)
    except (np.linalg.LinAlgError, UnsupportedOracleError):
        return None
    return IterateState.start(x, lam + delta, state.scaling, constraint.residual(x))


def polish_chain(problem, state, face, stop_tol, measured):
    """``(candidate, record)`` of the first candidate of the polish chain
    from ``face`` whose stop measure is within ``stop_tol``, or ``None``.

    The first candidate is :func:`polish_face` of ``state`` on ``face``.
    ``measured(candidate)`` returns its record, its stop measure and the
    prox-gradient point ``prox_g(1, x - (grad h(x) + A' lam))`` when the
    measure formed it, else ``None`` (then the chain forms it with
    :func:`~apd.model.kkt_residual`, one more product with ``A'``). A
    candidate that misses gives the next face, the face of ``g`` at that
    point, and the next candidate is :func:`polish_face` of it on that face:
    one step of the primal-dual active-set method, which frees a bound
    coordinate whose gradient pulls it inside and fixes a free one that the
    solve took past its bound. The chain stops at the first certified
    candidate, at a face it has already tried, at a singular face and after
    ``_POLISH_SOLVES`` solves.
    """
    # looked up per call, so a kkt_residual replaced on apd.model is the one called
    from .model import kkt_residual

    tried = []
    for _ in range(_POLISH_SOLVES):
        candidate = polish_face(problem, state, face)
        if candidate is None:
            return None
        record, measure, point = measured(candidate)
        if measure <= stop_tol:
            return candidate, record
        tried.append(face)
        if point is None:
            point = kkt_residual(problem, candidate.x, candidate.lam, candidate.r_x,
                                 with_point=True)[2]
        state, face = candidate, problem.nonsmooth.face(point)
        if any(_same_face(face, seen) for seen in tried):
            break
    return None


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

class Epochs:
    """The restart rule that the run loops of :func:`run_solver` and
    :func:`~apd.ddo.run_ddo` share.

    An epoch ends at the first step that leaves ``theta`` below
    ``_RESTART_THETA`` (:meth:`ends`); :meth:`begin` then starts the next one
    from ``(x, x, lam)`` with the scaling pair of
    :func:`~apd.schedule.restart_scaling`. :meth:`at_floor` tracks the best
    iterate of the run's stop measure and says when an epoch end fails to
    lower the measure below every earlier epoch end.
    """

    def __init__(self, scheme, mu_beta, gamma0, state):
        self.scheme, self.mu_beta, self.gamma0 = scheme, mu_beta, gamma0
        self.epoch = 0
        self.best, self.best_state, self.best_end = np.inf, state, np.inf

    @staticmethod
    def ends(state):
        return state.scaling.theta < _RESTART_THETA

    def begin(self, state):
        """``state``, or :meth:`IterateState.start` of the next epoch when it ends one."""
        if not self.ends(state):
            return state
        self.epoch += 1
        scaling = restart_scaling(self.scheme, self.mu_beta, state.scaling.gamma, self.gamma0)
        return IterateState.start(state.x, state.lam, scaling, state.r_x)

    def at_floor(self, state, measure):
        """Whether ``state``, with stop measure ``measure``, ends an epoch
        without beating every earlier epoch end: rounding, not the scheme,
        then sets the accuracy, and :attr:`best_state` is the best iterate."""
        if measure < self.best:
            self.best, self.best_state = measure, state
        if not self.ends(state):
            return False
        if not measure < self.best_end:
            return True
        self.best_end = measure
        return False


def make_step_rule(problem, config):
    """Step rule of ``config.scheme``; each rule reads only its own constants.

    The implicit scheme's free step is ``config.alpha`` when set. Otherwise
    it is derived from the route its subproblem takes. On the exact
    range-space route the scheme contracts by ``1/(1 + alpha)`` per step for
    any ``alpha > 0``, so the step is the largest that still leaves two
    steps per epoch, ``1/(1 + alpha) = 2c`` with ``c = _RESTART_THETA``:
    ``alpha = 49``, theta going 1, 0.02, 4e-4, so every epoch keeps a
    contraction for the audit to check. On the semi-smooth Newton route the
    step stays 1: a larger one makes each Newton solve harder, and on
    composite basis pursuit it did not lower the total time.
    """
    alpha = config.alpha
    if alpha is None:
        alpha = 1.0 / (2.0 * _RESTART_THETA) - 1.0 if _range_space_route(problem) else 1.0
    return StepRule(config.scheme, norm_a=problem.constraint.op_norm,
                    lip_beta=problem.smooth.lip, alpha=alpha)


def initial_state(problem, config):
    """The run's first state :meth:`IterateState.start` ``(x0, x0, 0)`` with
    the scaling pair ``(1, config.gamma0)``: ``x0`` is the prox of ``g`` at 0."""
    x0 = problem.nonsmooth.prox(1.0, np.zeros(problem.dim))
    return IterateState.start(x0, np.zeros(problem.constraint.rows),
                              ScalingState(1.0, config.gamma0), problem.constraint.residual(x0))


def is_count(value, least=1):
    """Whether ``value`` is an integer, Python's or numpy's, of at least ``least``."""
    return isinstance(value, (int, np.integer)) and value >= least


def check_run_limits(max_iter, stop_tol):
    """Raise ``ValueError`` unless ``max_iter`` is an integer ``>= 0``
    (:func:`is_count`) and ``0 <= stop_tol < inf``."""
    if not (is_count(max_iter, least=0) and 0 <= stop_tol < np.inf):
        raise ValueError("need an integer max_iter >= 0 and 0 <= stop_tol < inf, "
                         f"got max_iter={max_iter} and stop_tol={stop_tol}")


def run_solver(problem, config):
    """Run one scheme on one problem, recording per-iteration diagnostics.

    The run is a sequence of epochs of :class:`Epochs`, each a fresh run of
    the scheme: once a step leaves ``theta`` below ``_RESTART_THETA``, the
    next epoch starts from ``(x, x, lam)`` with the scaling pair of
    :func:`~apd.schedule.restart_scaling`. The stop measure is objective gap
    plus feasibility when a reference saddle point is available, otherwise
    the KKT residual (formed at epoch ends, and once feasibility is within
    ``stop_tol``).

    With ``stop_tol > 0``, a quadratic ``h`` and a ``g`` that is not zero
    over the whole space, the run also polishes. After each step it reads
    the face of ``g`` (:meth:`~apd.oracles.ProxFunction.face`) at the point
    the step's prox landed on (the scheme's ``prox_point`` in
    :data:`~apd.schedule.SCHEME_TABLE`). When the face is that of the step
    before and not the face of the last failed attempt, it runs a polish
    chain (:func:`polish_chain`): it solves the KKT conditions on the face
    (:func:`polish_face`), and each candidate that misses gives the next
    face, that of ``g`` at the candidate's prox-gradient point, up to
    ``_POLISH_SOLVES`` solves and until a face repeats or is singular. Each
    candidate is recorded and measured as a step is; one whose measure is
    within ``stop_tol`` ends the run, and any other's record is dropped. The
    run ends with status

    - ``converged`` when the measure of a step, or of a polish, is within
      ``stop_tol``. A polish adds one closing record, at ``k`` one past the
      last step, with ``alpha = 0`` (no scheme step is zero) in an epoch of
      its own, and the state ``(x, x, lam)`` keeps the last step's scaling
      pair; its ``wall_ns`` is the chain's time up to that candidate's solve;
    - ``precision_floor`` when an epoch ends without lowering the measure
      below every earlier epoch end: rounding, not the scheme, now sets the
      accuracy. The returned state is then the best iterate measured;
    - ``max_iter`` otherwise.

    Every step is recorded, with the epoch it belongs to. Deterministic for
    a fixed configuration; wall clocks are recorded only with ``timing``.

    A step's record reads the residuals its state carries. Near rounding a
    carried ``A x - b`` under-reports, so after a step that ends an epoch or
    whose ``|A x - b|`` is within ``max(stop_tol, C eps (|A| |x| + |b|))``,
    ``C = _FRESH_RESIDUAL``, the run forms it afresh and carries that on:
    any record that can decide the stop, the floor or the best state holds
    a true residual. A scheme whose step forms it afresh itself
    (``fresh_residual`` in :data:`~apd.schedule.SCHEME_TABLE`) skips this.
    The run's :class:`RunContext`, which is not returned, builds each
    ``implicit`` step system once; ``x*``'s values are formed once.
    Raises ``ValueError`` unless ``max_iter`` is an integer ``>= 0`` and
    ``0 <= stop_tol < inf``.
    """
    # looked up per run, so a kkt_residual replaced on apd.model is the one called
    from .model import kkt_residual

    check_run_limits(config.max_iter, config.stop_tol)
    rule = make_step_rule(problem, config)
    scheme = SCHEME_TABLE[config.scheme]
    reference = config.reference
    if reference is None:
        try:
            reference = solve_reference_saddle(problem)
        except NoReferenceError:
            reference = None
    at_star = PointValues(problem, reference.x_star) if reference is not None else None
    fresh_x, fresh_b = (_FRESH_RESIDUAL * np.finfo(float).eps * scale for scale in
                        (problem.constraint.op_norm, np.linalg.norm(problem.constraint.rhs)))
    ctx = RunContext(problem)
    state = initial_state(problem, config)
    epochs = Epochs(config.scheme, problem.smooth.mu, config.gamma0, state)

    def measured(k, epoch, alpha, state, inner_iters=0, wall_ns=0):
        """The record of ``state``, its stop measure (objective gap plus feasibility
        against the reference, else the KKT sum where it can decide the run, else
        ``inf``) and the prox-gradient point that the KKT sum formed, else ``None``."""
        at_x = PointValues(problem, state.x, state.r_x)
        obj_gap, feasibility, lagrangian_gap = residual_metrics(
            problem, state.x, state.lam, reference, at_x, at_star)
        lyap, measure, point = np.nan, np.inf, None
        if reference is not None:
            lyap = discrete_lyapunov(state, problem, reference, lagrangian_gap)
            measure = obj_gap + feasibility
        elif epochs.ends(state) or 0 < config.stop_tol and feasibility <= config.stop_tol:
            # feas + stat <= stop_tol needs feas <= stop_tol, so stationarity
            # is formed only then and at epoch ends
            feas, stat, point = kkt_residual(problem, state.x, state.lam, residual=state.r_x,
                                             with_point=True)
            measure = feas + stat
        return IterationRecord(
            k=k, epoch=epoch, alpha=alpha, theta=state.scaling.theta,
            gamma=state.scaling.gamma, obj_gap=obj_gap, feasibility=feasibility,
            lagrangian_gap=lagrangian_gap, lyapunov=lyap, inner_iters=inner_iters,
            wall_ns=wall_ns), measure, point

    records = [measured(0, 0, 0.0, state)[0]]
    status = "max_iter"
    polishing = (config.stop_tol > 0 and problem.smooth.is_quadratic
                 and not problem.is_smooth_unconstrained)
    face = failed = None
    for k in range(config.max_iter):
        state = epochs.begin(state)
        alpha = step_size(rule, state.scaling)
        ctx.inner_iters = 0
        started = time.perf_counter_ns() if config.timing else 0
        # looked up per step, so a step function replaced on the module is the one called
        state = globals()[scheme.step](state, ctx, alpha)
        elapsed = time.perf_counter_ns() - started if config.timing else 0
        # sqrt(r @ r) is np.linalg.norm(r) bit for bit, at half the cost
        if not scheme.fresh_residual and (
                epochs.ends(state) or np.sqrt(state.r_x @ state.r_x) <= max(
                    config.stop_tol, fresh_x * np.sqrt(state.x @ state.x) + fresh_b)):
            state = IterateState(state.x, state.v, state.lam, state.scaling,
                                 problem.constraint.residual(state.x), state.r_v)
        rec, measure, _ = measured(k + 1, epochs.epoch, alpha, state, ctx.inner_iters, elapsed)
        records.append(rec)
        floor = epochs.at_floor(state, measure)
        if config.stop_tol > 0 and measure <= config.stop_tol:
            status = "converged"
            break
        if polishing:
            face, previous = problem.nonsmooth.face(getattr(state, scheme.prox_point)), face
            if _same_face(face, previous) and not _same_face(face, failed):
                started = time.perf_counter_ns() if config.timing else 0

                def closing_measured(candidate):
                    elapsed = time.perf_counter_ns() - started if config.timing else 0
                    return measured(k + 2, epochs.epoch + 1, 0.0, candidate, wall_ns=elapsed)

                # a nearly singular face overflows; its measure is then nan or inf
                # and misses
                with np.errstate(all="ignore"):
                    polished = polish_chain(problem, state, face, config.stop_tol,
                                            closing_measured)
                if polished is not None:
                    (state, closing), status = polished, "converged"
                    records.append(closing)
                    break
                failed = face
        if floor:
            status, state = "precision_floor", epochs.best_state
            break
    return SolverRun(records, status, state, reference)
