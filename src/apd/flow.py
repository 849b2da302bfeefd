"""Continuous primal-dual flow: right-hand side, RK4 integration, Lyapunov value."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PointValues, lyapunov_value


class FlowDivergenceError(RuntimeError):
    """The flow could not be carried to its horizon: a step's error ratio was
    not finite (the state or its slope overflowed), a step no longer moved
    the time, or the run spent :data:`TRIAL_BUDGET` trial steps. Carries the
    last accepted state as ``last_state``."""

    def __init__(self, message, last_state):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class FlowState:
    x: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    theta: float
    gamma: float
    t: float = 0.0


def flow_rhs(state, problem, out=None):
    """Time derivative ``(x', v', lam')`` at ``state``: the damped accelerated
    primal pair, and the multiplier along the residual of ``v`` over ``theta``.

    The three parts are written into consecutive slices of the flat buffer
    ``out`` of ``2 cols + rows`` entries (a new one when ``None``), and
    returned as views of it. One call makes one ``A``, one ``A'`` and one
    gradient evaluation.
    """
    n = state.x.size
    if out is None:
        out = np.empty(2 * n + state.lam.size)
    dx, dv, dlam = out[:n], out[n:2 * n], out[2 * n:]
    mu = problem.smooth.mu
    np.divide(problem.constraint.residual(state.v), state.theta, out=dlam)
    np.subtract(state.v, state.x, out=dx)
    force = problem.smooth.gradient(state.x) + problem.constraint.apply_adjoint(state.lam)
    np.subtract(state.x, state.v, out=dv)
    dv *= mu
    dv -= force
    dv /= state.gamma
    return dx, dv, dlam


class _Stage:
    """An RK4 stage: views ``x, v, lam`` of the flat vector ``z`` and the
    stage's exact scaling pair, all that :func:`flow_rhs` reads."""

    __slots__ = ("z", "x", "v", "lam", "theta", "gamma")

    def __init__(self, z, n):
        self.z = z
        self.x, self.v, self.lam = z[:n], z[n:2 * n], z[2 * n:]


def _rk4_step(state, z, problem, h, t_end, slopes, stage):
    """RK4 step of length ``h`` of the flat ``z = [x; v; lam]`` of ``state``,
    to the time ``t_end``.

    ``slopes`` holds five rows: on entry the first is the slope at ``state``;
    the step writes the other three stage slopes into the next three and
    the slope at the new state, the next step's first, into the fifth. Every
    stage goes into ``stage``; both are reused from step to step. Each stage
    takes the exact scaling pair. Returns the new flat vector and its
    :class:`FlowState`.
    """
    mu = problem.smooth.mu
    k1, k2, k3, k4, k5 = slopes

    def move(w, slope):  # stage.z = z + w slope, with the scaling pair at w
        decay = math.exp(-w)
        stage.theta, stage.gamma = state.theta * decay, mu + (state.gamma - mu) * decay
        np.multiply(slope, w, out=stage.z)
        np.add(z, stage.z, out=stage.z)

    move(h / 2, k1)
    flow_rhs(stage, problem, out=k2)
    move(h / 2, k2)
    flow_rhs(stage, problem, out=k3)
    move(h, k3)
    flow_rhs(stage, problem, out=k4)
    k2 += k3  # k2 becomes (k1 + 2 (k2 + k3) + k4) / 6
    k2 *= 2
    np.add(k1, k2, out=k2)
    k2 += k4
    k2 /= 6
    z_end = np.multiply(k2, h)
    np.add(z, z_end, out=z_end)
    n = state.x.size
    end = FlowState(z_end[:n], z_end[n:2 * n], z_end[2 * n:], stage.theta, stage.gamma, t_end)
    flow_rhs(end, problem, out=k5)
    return z_end, end


def _error_ratio(z_end, theta, slopes, h, tol, scale, lam_at):
    """RMS over ``i`` of ``err_i / (tol (1 + |z_end,i|))`` for the embedded
    third-order estimate ``err = h (k4 - k5) / 6``, the ``lam`` part (from
    index ``lam_at`` on) of both ``err`` and ``z_end`` weighted by ``theta``.
    The fourth slope row is overwritten; ``scale`` is a scratch buffer."""
    err = slopes[3]
    err -= slopes[4]
    err[lam_at:] *= theta
    np.abs(z_end, out=scale)
    scale[lam_at:] *= theta
    scale += 1
    err /= scale
    return h / (6 * tol) * math.sqrt(np.dot(err, err) / err.size)


def _check_start(state0, constraint):
    """Raise ``ValueError`` naming the first field of ``state0`` that is
    mis-sized or not finite, or a scaling pair outside ``(0, inf)``."""
    for name, size in (("x", constraint.cols), ("v", constraint.cols),
                       ("lam", constraint.rows)):
        part = np.asarray(getattr(state0, name))
        if part.shape != (size,):
            raise ValueError(f"{name} must have shape ({size},), not {part.shape}")
        if not np.isfinite(part).all():
            raise ValueError(f"{name} holds NaN or inf")
    for name in ("theta", "gamma"):
        value = getattr(state0, name)
        if not 0 < value < np.inf:
            raise ValueError(f"theta and gamma must be positive and finite; {name} is {value!r}")
    if not np.isfinite(state0.t):
        raise ValueError(f"start time t must be finite, not {state0.t!r}")


# trial steps of one integrate_flow run: over 10 times the 15 557 of a tol = 1e-10
# run on the benchmark's flow QP (n = 400), the longest the tests make
TRIAL_BUDGET = 200_000


def integrate_flow(state0, problem, tol, horizon):
    """Error-controlled RK4 trajectory of the flow over ``horizon`` from
    ``state0``, to the tolerance ``tol`` in ``(0, 1)``.

    The flow is that of :func:`flow_rhs` with the problem's ``mu``
    (``problem.smooth.mu``), which ``semi_apd``, ``semi_apdfb`` and
    ``ex_apdfb`` discretize; the ``implicit`` scheme follows it with ``mu``
    set to 0 (:func:`~apd.solvers.implicit_apd_step`).

    Classic RK4 integrates ``(x, v, lam)``; the scaling pair is exact,
    ``theta0 e^{-s}`` and ``mu + (gamma0 - mu) e^{-s}`` at the time ``s``
    elapsed since ``state0.t``. Each trial step of length ``h`` also forms
    the slope ``k5`` at its end state, which gives the third-order estimate
    ``err = h (k4 - k5) / 6`` (weights ``(1/6, 1/3, 1/3, 0, 1/6)``) and is
    the next step's first slope bit for bit (FSAL). A step is accepted when
    the RMS of ``err_i / (tol (1 + |z_i|))`` over the end state ``z`` is at
    most 1, the ``lam`` part of both weighted by the end state's ``theta``
    (the weights of the Lyapunov function), and the next trial is
    ``h min(5, max(0.2, 0.9 ratio^{-1/4}))``; the first is ``tol^{1/4}``.
    Every trial is capped at ``2 sqrt(theta gamma) / |A|``, which holds the
    ``(v, lam)`` coupling inside RK4's stability interval on the imaginary
    axis (``2 sqrt 2``); once it binds, the step count grows like
    ``e^{T/2}`` (``e^T`` if ``mu = 0``). The last step lands on the horizon.
    Steps are taken on ``s``, and each state's ``t`` is ``state0.t + s``, so
    a large start time changes no step.

    The triple is stepped as one flat vector ``z = [x; v; lam]``: the run
    makes one :func:`flow_rhs` call at ``state0`` and four per trial step,
    so as many ``A``, ``A'`` and gradient evaluations, into slope and stage
    buffers reused over the run; each state after ``state0`` holds views of
    its own step's ``z``. The flat step makes the operations of textbook
    RK4 on separate arrays in the same order, so its trajectory is that one
    bit for bit, given the same step sizes.

    :class:`FlowDivergenceError` ends a run on a non-finite error ratio (a
    state or slope overflowed), on a step too small to move ``s``, and
    after :data:`TRIAL_BUDGET` (200 000) trial steps, as when a stiff
    gradient holds the steps to a crawl. ``state0`` must have finite ``x``
    and ``v`` of ``cols`` entries and ``lam`` of ``rows``, a finite ``t``
    and ``theta, gamma`` in ``(0, inf)``; else ``ValueError``.
    """
    if not 0 < tol < 1:
        raise ValueError("tolerance must lie in (0, 1)")
    if not 0 <= horizon < np.inf:
        raise ValueError("horizon must be finite and nonnegative")
    _check_start(state0, problem.constraint)
    if not problem.is_smooth_unconstrained:
        raise ValueError("flow requires smooth objective")
    norm, n = problem.constraint.op_norm, problem.constraint.cols
    z = np.concatenate((state0.x, state0.v, state0.lam))
    slopes, scale = list(np.empty((5, z.size))), np.empty(z.size)
    stage = _Stage(np.empty(z.size), n)
    trajectory, state, elapsed, size, trials = [state0], state0, 0.0, tol ** 0.25, 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        flow_rhs(state0, problem, out=slopes[0])
        while elapsed < horizon:
            if trials == TRIAL_BUDGET:
                raise FlowDivergenceError(f"flow reached only t={state.t:.6g} in "
                                          f"{TRIAL_BUDGET} trial steps", state)
            trials += 1
            step = min(size, 2 * math.sqrt(state.theta * state.gamma) / norm)
            landing = horizon - elapsed <= step * (1 + 1e-6)  # no sliver step after rounding
            step_end = horizon if landing else elapsed + step
            if step_end == elapsed:
                raise FlowDivergenceError(f"flow step fell below the rounding of t "
                                          f"near t={state.t:.6g}", state)
            h = step_end - elapsed
            z_end, end = _rk4_step(state, z, problem, h, state0.t + step_end, slopes, stage)
            ratio = _error_ratio(z_end, end.theta, slopes, h, tol, scale, 2 * n)
            if not math.isfinite(ratio):
                raise FlowDivergenceError(f"flow diverged near t={state.t:.6g}", state)
            if ratio <= 1:
                z, state, elapsed = z_end, end, step_end
                trajectory.append(state)
                slopes[0], slopes[4] = slopes[4], slopes[0]
            size = h * (min(5.0, max(0.2, 0.9 * ratio ** -0.25)) if ratio else 5.0)
    return trajectory


def continuous_lyapunov(state, problem, saddle, at_x=None, at_star=None):
    """:func:`~apd.model.lyapunov_value` of a flow state."""
    return lyapunov_value(problem, saddle, state.x, state.v, state.lam, state.gamma,
                          state.theta, at_x=at_x, at_star=at_star)


@dataclass
class FlowRecord:
    t: float
    E: float
    feasibility: float
    theta: float
    gamma: float


RECORD_BLOCK = 16  # states per block of flow_records


def flow_records(trajectory, problem, saddle):
    """Per-state diagnostics rows for a computed trajectory.

    The states are taken in blocks of at most ``RECORD_BLOCK`` (16), each
    stacked as the rows of one :class:`FlowState` whose ``theta``, ``gamma``
    and ``t`` are vectors. Each block makes one product with ``A`` for its
    residuals ``A x - b``, which feed both the Lyapunov values and the
    feasibilities, and one :func:`continuous_lyapunov` call; the objective
    is taken row by row. The values at ``x*`` are formed once. Each row
    holds its state's one-point values, as the stacked residuals keep each
    state's bits (:class:`~apd.model.PointValues`), and a state whose values
    overflow leaves the other rows of its block finite.
    """
    at_star = PointValues(problem, saddle.x_star)
    rows = []
    for first in range(0, len(trajectory), RECORD_BLOCK):
        parts = zip(*((s.x, s.v, s.lam, s.theta, s.gamma, s.t)
                      for s in trajectory[first:first + RECORD_BLOCK]))
        block = FlowState(*map(np.array, parts))
        at_x = PointValues(problem, block.x)
        energy = continuous_lyapunov(block, problem, saddle, at_x=at_x, at_star=at_star)
        feasibility = np.sqrt(np.vecdot(at_x.residual, at_x.residual))
        rows += map(FlowRecord, block.t.tolist(), energy.tolist(), feasibility.tolist(),
                    block.theta.tolist(), block.gamma.tolist())
    return rows
