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


class SaddleReferenceError(RuntimeError):
    """The supplied saddle point is inconsistent (negative Lagrangian gap)."""


@dataclass(frozen=True)
class IterateState:
    """Primal-dual iterate of the paper's schemes: ``x`` feasible, momentum
    ``v``, multiplier ``lam`` and the scaling pair ``(theta, gamma)``.

    What a run keeps besides the iterate lives in its :class:`RunContext`.
    """

    x: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    scaling: ScalingState


class RunContext:
    """What one run keeps besides its iterate: the problem, the factored
    ``implicit`` step systems, the inner iterations of the last step and the
    residuals ``A p - b`` of the current ``x`` and ``v``, each found by its
    point (``p is held``). A state whose ``x`` or ``v`` was replaced thus
    misses and has it formed afresh; a restarted one (``v = x``) finds that
    of its ``x``. :func:`run_solver` and :func:`~apd.ddo.run_ddo` build one
    per run, which lives only as long as the run; a step is
    ``step(state, ctx, alpha)``.
    """

    def __init__(self, problem):
        self.problem = problem
        self.systems = {}
        self.inner_iters = 0
        self._held = ()

    def residual(self, point):
        """``A point - b``, held for the last two points asked for."""
        for held, residual in self._held:
            if held is point:
                return residual
        residual = self.problem.constraint.residual(point)
        self._held = ((point, residual),) + self._held[:1]
        return residual


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
    multiplier is ``shifted + (A x' - b)/theta'``; ``ctx`` holds the residual
    ``A x' - b`` for the record and the next step.

    The system depends on the step only through ``(1/eta, theta')``. A
    restarted epoch starts from the same scaling pair with the same fixed
    ``alpha``, so it repeats the previous epoch's pairs bit for bit, and
    ``ctx.systems`` keeps the factored system of each pair the run has seen.
    It then holds at most one epoch's systems, ``ceil(ln(1/c)/ln(1 + alpha))``
    with ``c = _RESTART_THETA``, each ``m^2`` doubles plus ``n^2`` for a
    dense ``Q``: 2 at the range-space route's derived ``alpha = 49``
    (:func:`make_step_rule`).
    """
    if alpha <= 0:
        raise ValueError("step size must be positive")
    problem = ctx.problem
    sc = state.scaling
    theta_next = sc.theta / (1.0 + alpha)
    tau = sc.gamma * (1.0 + alpha)
    y = (state.x + alpha * state.v) / (1.0 + alpha)
    eta = alpha ** 2 / tau
    constraint = problem.constraint
    shifted = state.lam - ctx.residual(state.x) / sc.theta
    ctx.inner_iters = 0
    if _range_space_route(problem):
        smooth = problem.smooth
        g = _finite(y / eta - smooth.linear - constraint.apply_adjoint(shifted),
                    "implicit subproblem")
        key = (1.0 / eta, theta_next)
        system = ctx.systems.get(key)
        if system is None:
            system = ctx.systems[key] = RangeSpaceSystem(constraint, quadratic_term(smooth),
                                                         *key)
        x_next, _ = system.solve(g, constraint.rhs)
    elif problem.smooth.is_zero:
        r = theta_next * shifted - constraint.rhs
        dual = DualMapContext(theta_next, 1.0, eta, y, constraint, problem.nonsmooth, r=r)
        x_next, ctx.inner_iters = _newton_point(dual, sc.theta, state.lam,
                                                "implicit subproblem")
    else:
        raise InnerSolveError(
            "implicit subproblem needs a quadratic objective or a pure prox part",
            np.nan)
    v_next = x_next + (x_next - state.x) / alpha
    lam_next = shifted + ctx.residual(x_next) / theta_next
    return IterateState(x_next, v_next, lam_next, advance_scaling(sc, alpha, 0.0))


def semi_apd_step(state, ctx, alpha):
    """Semi-implicit step: explicit multiplier, full prox of the objective."""
    if alpha <= 0:
        raise ValueError("step size must be positive")
    problem = ctx.problem
    sc = state.scaling
    mu_beta = problem.smooth.mu
    lam_hat = state.lam + (alpha / sc.theta) * ctx.residual(state.v)
    tau = sc.gamma + mu_beta * alpha + sc.gamma * alpha
    y = ((sc.gamma + mu_beta * alpha) * state.x + sc.gamma * alpha * state.v) / tau
    eta = alpha ** 2 / tau
    point = y - eta * problem.constraint.apply_adjoint(lam_hat)
    x_next = _prox_full_objective(problem, eta, point)
    v_next = x_next + (x_next - state.x) / alpha
    lam_next = state.lam + (alpha / sc.theta) * ctx.residual(v_next)
    ctx.inner_iters = 0
    return IterateState(x_next, v_next, lam_next, advance_scaling(sc, alpha, mu_beta))


def semi_apdfb_step(state, ctx, alpha):
    """Corrected semi-implicit forward-backward step.

    When the nonsmooth part vanishes over the whole space, the coupled
    ``(lam, v)`` subproblem is linear and is solved exactly through the
    constraint's Gram factor, in its dual form: with ``r = theta lam_prev +
    alpha (A z - b)``, ``lam = (theta I + alpha t A A')^{-1} r`` and
    ``v = z - t A' lam`` (:meth:`~apd.model.LinearConstraint.gram_solve`);
    ``A v - b`` is never formed on that route. Otherwise it reduces to the
    dual nonlinear equation (solved by semi-smooth Newton), and ``lam =
    lam_prev + (alpha / theta) (A v - b)``.
    """
    if alpha <= 0:
        raise ValueError("step size must be positive")
    problem = ctx.problem
    sc = state.scaling
    mu_beta = problem.smooth.mu
    constraint = problem.constraint
    y = (state.x + alpha * state.v) / (1.0 + alpha)
    tau = sc.gamma + mu_beta * alpha
    w = (sc.gamma * state.v + mu_beta * alpha * y) / tau
    t = alpha / tau
    z = w - t * problem.smooth.gradient(y)
    ctx.inner_iters = 0
    if problem.is_smooth_unconstrained:
        rhs = _finite(sc.theta * state.lam + alpha * constraint.residual(z),
                      "saddle subproblem")
        lam_next, adjoint_lam = constraint.gram_solve(sc.theta, alpha * t, rhs)
        v_next = z - t * adjoint_lam
    else:
        dual = DualMapContext.for_step(sc.theta, alpha, t, z, constraint,
                                       problem.nonsmooth, state.lam)
        v_next, ctx.inner_iters = _newton_point(dual, sc.theta, state.lam, "dual")
        lam_next = state.lam + (alpha / sc.theta) * constraint.residual(v_next)
    x_next = (state.x + alpha * v_next) / (1.0 + alpha)
    return IterateState(x_next, v_next, lam_next, advance_scaling(sc, alpha, mu_beta))


def ex_apdfb_step(state, ctx, alpha):
    """Corrected explicit forward-backward step: one prox, no inner loop."""
    if alpha <= 0:
        raise ValueError("step size must be positive")
    problem = ctx.problem
    sc = state.scaling
    mu_beta = problem.smooth.mu
    y = (state.x + alpha * state.v) / (1.0 + alpha)
    tau = sc.gamma + mu_beta * alpha
    w = (sc.gamma * state.v + mu_beta * alpha * y) / tau
    eta = alpha / tau
    lam_hat = state.lam + (alpha / sc.theta) * ctx.residual(state.v)
    point = w - eta * (problem.smooth.gradient(y) + problem.constraint.apply_adjoint(lam_hat))
    v_next = problem.nonsmooth.prox(eta, point)
    x_next = (state.x + alpha * v_next) / (1.0 + alpha)
    lam_next = state.lam + (alpha / sc.theta) * ctx.residual(v_next)
    ctx.inner_iters = 0
    return IterateState(x_next, v_next, lam_next, advance_scaling(sc, alpha, mu_beta))


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


def _face_solve(problem, face, lam):
    """``(x, delta)`` of the KKT system of a quadratic ``h`` on ``face``,
    ``[Q_FF A_F'; A_F 0] (x_F, delta) = (-c_F - slope - Q_FB x_B - A_F' lam,
    b - A_B x_B)``, with ``delta`` of least norm.

    With fewer free coordinates than rows, ``A_F x_F = b - A_B x_B`` alone
    fixes ``x_F``, and ``delta`` is the least-norm solution of ``A_F' delta =
    -grad h(x)_F - slope - A_F' lam``: one Cholesky of ``A_F'A_F`` (a QR
    would first load LAPACK code no other solve uses, 0.6 MB of resident
    memory). Otherwise it is one :class:`~apd.model.RangeSpaceSystem` on the
    face, with its ``m x m`` Schur complement; when ``mu = 0``,
    ``rho A_F'A_F`` is added to ``Q_FF`` and ``rho A_F'(b - A_B x_B)`` to its
    right side, as in :func:`~apd.model.solve_reference_saddle`. Raises
    ``LinAlgError`` when the face's system is singular.
    """
    free, fixed, slope = face
    smooth, constraint = problem.smooth, problem.constraint
    a_free = constraint.matrix()[:, free]
    rows, size = a_free.shape
    r2 = -constraint.residual(fixed)
    x = fixed.copy()
    if size < rows:
        gram = sla.cho_factor(a_free.T @ a_free)
        x[free] = sla.cho_solve(gram, a_free.T @ r2)
        r1 = -smooth.gradient(x)[free] - slope - a_free.T @ lam
        return x, a_free @ sla.cho_solve(gram, r1)
    r1 = -smooth.gradient(fixed)[free] - slope - a_free.T @ lam
    if smooth.mu > 0:
        quad = quadratic_term(smooth)
        quad = quad[free] if quad.ndim == 1 else quad[np.ix_(free, free)]
    else:
        rho = (smooth.lip or 1.0) / (constraint.op_norm ** 2 or 1.0)
        quad = smooth.hessian_matrix()[np.ix_(free, free)] + rho * (a_free.T @ a_free)
        r1 = r1 + rho * (a_free.T @ r2)
    system = RangeSpaceSystem(MatrixConstraint(a_free, r2), quad, 0.0, 0.0)
    x[free], delta = system.solve(r1, r2)
    return x, delta


def polish_face(problem, state, face, stop_tol, reference=None, at_star=None):
    """The exact solution on ``face`` of ``g`` (``problem.nonsmooth.face``),
    or ``None`` unless it meets the run's stop measure within ``stop_tol``.

    ``h`` must be quadratic. On the face the KKT conditions are linear
    (:func:`_face_solve`): the point keeps the fixed coordinates of
    ``face`` and takes the multiplier ``state.lam + delta``. The stop measure
    is that of :func:`run_solver`: objective gap plus feasibility against
    ``reference`` when there is one, else the sum of
    :func:`~apd.model.kkt_residual`; a wrong face misses it. The polished
    state is ``(x, x, lam)`` with ``state``'s scaling pair. ``at_star`` may
    pass the :class:`~apd.model.PointValues` of ``reference.x_star``.
    """
    from .model import kkt_residual

    # a nearly singular face overflows; its measure is then nan or inf and misses
    with np.errstate(all="ignore"):
        try:
            x, delta = _face_solve(problem, face, state.lam)
        except (np.linalg.LinAlgError, UnsupportedOracleError):
            return None
        lam = state.lam + delta
        at_x = PointValues(problem, x)
        if reference is not None:
            obj_gap, feasibility, _ = residual_metrics(problem, x, lam, reference, at_x,
                                                       at_star)
            measure = obj_gap + feasibility
        else:
            measure = sum(kkt_residual(problem, x, lam, residual=at_x.residual))
    if not measure <= stop_tol:
        return None
    return IterateState(x, x, lam, state.scaling)


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
        """``state``, or the first state of the next epoch when it ends one.

        The restarted state's ``v`` is its ``x`` itself, so a
        :class:`RunContext` finds the residual it holds for ``x``.
        """
        if not self.ends(state):
            return state
        self.epoch += 1
        scaling = restart_scaling(self.scheme, self.mu_beta, state.scaling.gamma, self.gamma0)
        return IterateState(state.x, state.x, state.lam, scaling)

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
    x0 = problem.nonsmooth.prox(1.0, np.zeros(problem.constraint.cols))
    return IterateState(x0, x0.copy(), np.zeros(problem.constraint.rows),
                        ScalingState(1.0, config.gamma0))


def check_run_limits(max_iter, stop_tol):
    """Raise ``ValueError`` unless ``max_iter >= 0`` and ``0 <= stop_tol < inf``."""
    if not (max_iter >= 0 and 0 <= stop_tol < np.inf):
        raise ValueError("need max_iter >= 0 and 0 <= stop_tol < inf, "
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
    before and not the face of the last failed attempt, it solves the KKT
    conditions on it (:func:`polish_face`); a solution that meets the stop
    measure within ``stop_tol`` ends the run. The run ends with status

    - ``converged`` when the measure of a step, or of a polish, is within
      ``stop_tol``. A polish adds one closing record, at ``k`` one past the
      last step, with ``alpha = 0`` (no scheme step is zero) in an epoch of
      its own, and the state ``(x, x, lam)`` keeps the last step's scaling pair;
    - ``precision_floor`` when an epoch ends without lowering the measure
      below every earlier epoch end: rounding, not the scheme, now sets the
      accuracy. The returned state is then the best iterate measured;
    - ``max_iter`` otherwise.

    Every step is recorded, with the epoch it belongs to. Deterministic for
    a fixed configuration; wall clocks are recorded only with ``timing``.

    The run's :class:`RunContext` forms each iterate's residual ``A x - b``
    once (in the step, when the step needs it) for its record, the stop
    test and the restart, and each distinct ``implicit`` step system once;
    the values at ``x*`` are formed once per run. The context is not
    returned, so no factored system outlives the run.
    Raises ``ValueError`` unless ``max_iter >= 0`` and ``0 <= stop_tol < inf``.
    """
    from .model import kkt_residual

    check_run_limits(config.max_iter, config.stop_tol)
    rule = make_step_rule(problem, config)
    step_name = SCHEME_TABLE[config.scheme].step
    reference = config.reference
    if reference is None:
        try:
            reference = solve_reference_saddle(problem)
        except NoReferenceError:
            reference = None
    at_star = PointValues(problem, reference.x_star) if reference is not None else None
    ctx = RunContext(problem)
    state = initial_state(problem, config)
    at_x = PointValues(problem, state.x, ctx.residual(state.x))
    records = [_record(0, 0, 0.0, state, ctx, reference, at_x, at_star)]
    status = "max_iter"
    epochs = Epochs(config.scheme, problem.smooth.mu, config.gamma0, state)
    polishing = (config.stop_tol > 0 and problem.smooth.is_quadratic
                 and not problem.is_smooth_unconstrained)
    prox_point = SCHEME_TABLE[config.scheme].prox_point
    face = failed = None
    for k in range(config.max_iter):
        state = epochs.begin(state)
        alpha = step_size(rule, state.scaling)
        started = time.perf_counter_ns() if config.timing else 0
        # looked up per step, so a step function replaced on the module is the one called
        state = globals()[step_name](state, ctx, alpha)
        elapsed = time.perf_counter_ns() - started if config.timing else 0
        at_x = PointValues(problem, state.x, ctx.residual(state.x))
        rec = _record(k + 1, epochs.epoch, alpha, state, ctx, reference, at_x, at_star,
                      elapsed)
        records.append(rec)
        if reference is not None:
            measure = rec.obj_gap + rec.feasibility
        elif epochs.ends(state) or 0 < config.stop_tol and rec.feasibility <= config.stop_tol:
            # feas + stat <= stop_tol needs feas <= stop_tol, so stationarity
            # is formed only then and at epoch ends
            measure = sum(kkt_residual(problem, state.x, state.lam, residual=at_x.residual))
        else:
            measure = np.inf
        floor = epochs.at_floor(state, measure)
        if config.stop_tol > 0 and measure <= config.stop_tol:
            status = "converged"
            break
        if polishing:
            face, previous = problem.nonsmooth.face(getattr(state, prox_point)), face
            if _same_face(face, previous) and not _same_face(face, failed):
                started = time.perf_counter_ns() if config.timing else 0
                polished = polish_face(problem, state, face, config.stop_tol, reference,
                                       at_star)
                elapsed = time.perf_counter_ns() - started if config.timing else 0
                if polished is not None:
                    state, status, ctx.inner_iters = polished, "converged", 0
                    at_x = PointValues(problem, state.x, ctx.residual(state.x))
                    records.append(_record(k + 2, epochs.epoch + 1, 0.0, state, ctx,
                                           reference, at_x, at_star, elapsed))
                    break
                failed = face
        if floor:
            status, state = "precision_floor", epochs.best_state
            break
    return SolverRun(records, status, state, reference)


def _record(k, epoch, alpha, state, ctx, reference, at_x, at_star, wall_ns=0):
    obj_gap, feasibility, lagrangian_gap = residual_metrics(
        ctx.problem, state.x, state.lam, reference, at_x=at_x, at_star=at_star)
    lyap = discrete_lyapunov(state, ctx.problem, reference, at_x=at_x, at_star=at_star) \
        if reference is not None else np.nan
    return IterationRecord(
        k=k, epoch=epoch, alpha=alpha, theta=state.scaling.theta, gamma=state.scaling.gamma,
        obj_gap=obj_gap, feasibility=feasibility, lagrangian_gap=lagrangian_gap,
        lyapunov=lyap, inner_iters=ctx.inner_iters, wall_ns=wall_ns)
