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


def _rk4_step(state, z, problem, t_end, slopes, stage):
    """RK4 step of the flat ``z = [x; v; lam]`` of ``state`` to ``t_end``.

    The four slopes go into the rows ``slopes`` and every stage into
    ``stage``; both are reused from step to step. Each stage takes the exact
    scaling pair. Returns the new flat vector and its :class:`FlowState`.
    """
    mu, h = problem.smooth.mu, t_end - state.t
    k1, k2, k3, k4 = slopes

    def move(w, slope):  # stage.z = z + w slope, with the scaling pair at w
        decay = math.exp(-w)
        stage.theta, stage.gamma = state.theta * decay, mu + (state.gamma - mu) * decay
        np.multiply(slope, w, out=stage.z)
        np.add(z, stage.z, out=stage.z)

    flow_rhs(state, problem, out=k1)
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
    return z_end, FlowState(z_end[:n], z_end[n:2 * n], z_end[2 * n:],
                            stage.theta, stage.gamma, t_end)


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


def integrate_flow(state0, problem, h, horizon):
    """RK4 trajectory of the flow over ``horizon`` from ``state0``.

    RK4 integrates ``(x, v, lam)``; the scaling pair is exact, ``theta0 e^{-t}``
    and ``mu + (gamma0 - mu) e^{-t}``. Steps are ``min(h, 2 sqrt(theta gamma)
    / |A|)`` with ``h <= 0.01``, the last one landing on the horizon, which need
    not be a multiple of ``h``. The cap holds the ``(v, lam)`` coupling inside
    RK4's stability interval on the imaginary axis (``2 sqrt 2``); once it binds,
    the step count grows like ``e^{T/2}`` (``e^T`` if ``mu = 0``). A stiff gradient
    is left to ``h``; a non-finite state raises :class:`FlowDivergenceError`.

    The triple is stepped as one flat vector ``z = [x; v; lam]``: each step
    makes four :func:`flow_rhs` calls, so 4 ``A``, 4 ``A'`` and 4 gradient
    evaluations, into slope and stage buffers reused over the run, and each
    state after ``state0`` holds views of its own step's ``z``. The flat
    step makes the operations of textbook RK4 on separate arrays in the
    same order, so its trajectory is that one bit for bit. ``state0`` must
    have finite ``x`` and ``v`` of ``cols`` entries and ``lam`` of ``rows``,
    a finite ``t`` and ``theta, gamma`` in ``(0, inf)``; else ``ValueError``.
    """
    if not 0 < h <= 0.01:
        raise ValueError("step must lie in (0, 0.01]")
    if not 0 <= horizon < np.inf:
        raise ValueError("horizon must be finite and nonnegative")
    _check_start(state0, problem.constraint)
    if not problem.is_smooth_unconstrained:
        raise ValueError("flow requires smooth objective")
    norm, end = problem.constraint.op_norm, state0.t + horizon
    z = np.concatenate((state0.x, state0.v, state0.lam))
    slopes = tuple(np.empty((4, z.size)))
    stage = _Stage(np.empty(z.size), problem.constraint.cols)
    trajectory, state = [state0], state0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while state.t < end:
            step = h / max(1.0, 0.5 * h * norm / math.sqrt(state.theta * state.gamma))
            landing = end - state.t <= step * (1 + 1e-6)  # no sliver step after rounding
            z, state = _rk4_step(state, z, problem, end if landing else state.t + step,
                                 slopes, stage)
            if not np.isfinite(z).all():
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
