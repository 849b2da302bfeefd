"""Continuous primal-dual flow: right-hand side, RK4 integration, Lyapunov value."""

from __future__ import annotations

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
    """Time derivative of the flow at ``state``.

    Only smooth unconstrained objectives are admitted; the multiplier moves
    along the constraint residual of ``v`` scaled by ``1/theta``, the primal
    pair follows the damped accelerated dynamics, and the scaling factors
    decay exponentially toward ``(0, mu_beta)``.
    """
    if not problem.is_smooth_unconstrained:
        raise ValueError("flow requires smooth objective")
    mu_beta = problem.smooth.mu
    dlam = problem.constraint.residual(state.v) / state.theta
    dx = state.v - state.x
    force = problem.smooth.gradient(state.x) + problem.constraint.apply_adjoint(state.lam)
    dv = (mu_beta * (state.x - state.v) - force) / state.gamma
    return dx, dv, dlam, -state.theta, mu_beta - state.gamma


def _rk4_step(state, problem, h):
    def shifted(coeffs, w):
        dx, dv, dlam, dth, dga = coeffs
        return FlowState(state.x + w * dx, state.v + w * dv, state.lam + w * dlam,
                         state.theta + w * dth, state.gamma + w * dga, state.t + w)

    k1 = flow_rhs(state, problem)
    k2 = flow_rhs(shifted(k1, 0.5 * h), problem)
    k3 = flow_rhs(shifted(k2, 0.5 * h), problem)
    k4 = flow_rhs(shifted(k3, h), problem)
    combo = tuple((a + 2 * b + 2 * c + d) / 6.0 for a, b, c, d in zip(k1, k2, k3, k4))
    return FlowState(state.x + h * combo[0], state.v + h * combo[1],
                     state.lam + h * combo[2], state.theta + h * combo[3],
                     state.gamma + h * combo[4], state.t + h)


def integrate_flow(state0, problem, h, horizon):
    """Classical fixed-step RK4 trajectory of the flow.

    The step must satisfy ``h <= 0.01`` and divide the horizon; the returned
    trajectory holds ``ceil(T/h) + 1`` states and is bit-reproducible. A
    state that is not finite raises :class:`FlowDivergenceError` in place of
    numpy's overflow warnings.
    """
    if not 0 < h <= 0.01:
        raise ValueError("step must lie in (0, 0.01]")
    if not 0 <= horizon < np.inf:
        raise ValueError("horizon must be finite and nonnegative")
    steps = int(round(horizon / h)) if horizon > 0 else 0
    if abs(steps * h - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be a multiple of the step")
    trajectory = [state0]
    state = state0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(steps):
            state = _rk4_step(state, problem, h)
            parts = (state.x, state.v, state.lam, state.theta, state.gamma)
            if not all(np.all(np.isfinite(p)) for p in parts):
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
