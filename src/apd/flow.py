"""Continuous primal-dual flow: right-hand side, RK4 integration, Lyapunov value."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PointValues, lyapunov_value


class FlowDivergenceError(RuntimeError):
    """Integration produced a non-finite state; carries the last finite one."""

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


def flow_rhs(state, problem):
    """Time derivative ``(x', v', lam')`` at ``state``: the damped accelerated
    primal pair, and the multiplier along the residual of ``v`` over ``theta``."""
    mu = problem.smooth.mu
    dlam = problem.constraint.residual(state.v) / state.theta
    dx = state.v - state.x
    force = problem.smooth.gradient(state.x) + problem.constraint.apply_adjoint(state.lam)
    dv = (mu * (state.x - state.v) - force) / state.gamma
    return dx, dv, dlam


def _rk4_step(state, problem, t_end):
    """RK4 step of ``(x, v, lam)`` to ``t_end``; each stage takes the exact scaling pair."""
    mu, h = problem.smooth.mu, t_end - state.t

    def stage(w, t, dx, dv, dlam):
        decay = math.exp(-w)
        return FlowState(state.x + w * dx, state.v + w * dv, state.lam + w * dlam,
                         state.theta * decay, mu + (state.gamma - mu) * decay, t)

    k1 = flow_rhs(state, problem)
    k2 = flow_rhs(stage(h / 2, state.t + h / 2, *k1), problem)
    k3 = flow_rhs(stage(h / 2, state.t + h / 2, *k2), problem)
    k4 = flow_rhs(stage(h, t_end, *k3), problem)
    return stage(h, t_end, *((a + 2 * (b + c) + d) / 6 for a, b, c, d in zip(k1, k2, k3, k4)))


def integrate_flow(state0, problem, h, horizon):
    """RK4 trajectory of the flow over ``horizon`` from ``state0``.

    RK4 integrates ``(x, v, lam)``; the scaling pair is exact, ``theta0 e^{-t}``
    and ``mu + (gamma0 - mu) e^{-t}``. Steps are ``min(h, 2 sqrt(theta gamma)
    / |A|)`` with ``h <= 0.01``, the last one landing on the horizon, which need
    not be a multiple of ``h``. The cap holds the ``(v, lam)`` coupling inside
    RK4's stability interval on the imaginary axis (``2 sqrt 2``); once it binds,
    the step count grows like ``e^{T/2}`` (``e^T`` if ``mu = 0``). A stiff gradient
    is left to ``h``; a non-finite state raises :class:`FlowDivergenceError`.
    """
    if not 0 < h <= 0.01:
        raise ValueError("step must lie in (0, 0.01]")
    if not 0 <= horizon < np.inf:
        raise ValueError("horizon must be finite and nonnegative")
    if not (state0.theta > 0 and state0.gamma > 0):
        raise ValueError("theta and gamma must be positive")
    if not problem.is_smooth_unconstrained:
        raise ValueError("flow requires smooth objective")
    norm, end = problem.constraint.op_norm, state0.t + horizon
    trajectory, state = [state0], state0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while state.t < end:
            step = h / max(1.0, 0.5 * h * norm / math.sqrt(state.theta * state.gamma))
            landing = end - state.t <= step * (1 + 1e-6)  # no sliver step after rounding
            state = _rk4_step(state, problem, end if landing else state.t + step)
            if not all(np.isfinite(p).all() for p in (state.x, state.v, state.lam)):
                raise FlowDivergenceError(f"flow diverged near t={state.t:.6g}",
                                          trajectory[-1])
            trajectory.append(state)
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


def flow_records(trajectory, problem, saddle):
    """Per-state diagnostics rows for a computed trajectory.

    Each state's residual ``A x - b`` is formed once and feeds both its
    Lyapunov value and its feasibility; the values at ``x*`` are formed once.
    """
    at_star = PointValues(problem, saddle.x_star)
    rows = []
    for state in trajectory:
        at_x = PointValues(problem, state.x)
        rows.append(FlowRecord(
            t=state.t,
            E=continuous_lyapunov(state, problem, saddle, at_x=at_x, at_star=at_star),
            feasibility=float(np.linalg.norm(at_x.residual)),
            theta=state.theta,
            gamma=state.gamma))
    return rows
