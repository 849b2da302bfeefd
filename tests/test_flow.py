import dataclasses
import math

import numpy as np
import pytest
from conftest import CountingConstraint, CountingQuadratic

import apd
from apd.flow import (
    FlowDivergenceError,
    FlowState,
    continuous_lyapunov,
    flow_records,
    flow_rhs,
    integrate_flow,
)


def zeros_state(gamma=1.0):
    return FlowState(np.zeros(2), np.zeros(2), np.zeros(1), 1.0, gamma, 0.0)


def test_flow_rhs_example(qp1):
    dx, dv, dlam = flow_rhs(zeros_state(), qp1)
    np.testing.assert_allclose(dlam, [-1.0])
    np.testing.assert_allclose(dx, 0.0)
    np.testing.assert_allclose(dv, 0.0)


def test_flow_rhs_writes_views_of_its_flat_buffer(qp1):
    state = FlowState(np.array([0.3, -1.2]), np.array([0.5, 0.1]), np.array([0.7]), 0.6, 1.4)
    out = np.full(5, np.nan)
    parts = flow_rhs(state, qp1, out=out)
    assert all(np.shares_memory(part, out) for part in parts)
    np.testing.assert_array_equal(out, np.concatenate(flow_rhs(state, qp1)))


def test_flow_rhs_equilibrium(qp1, qp1_saddle):
    state = FlowState(qp1_saddle.x_star, qp1_saddle.x_star,
                      qp1_saddle.lambda_star, 0.7, 1.3, 0.0)
    dx, dv, dlam = flow_rhs(state, qp1)
    np.testing.assert_allclose(dx, 0.0, atol=1e-15)
    np.testing.assert_allclose(dv, 0.0, atol=1e-15)
    np.testing.assert_allclose(dlam, 0.0, atol=1e-15)


def test_flow_rhs_x_prime_vanishes_when_x_equals_v(qp1):
    rng = np.random.default_rng(0)
    w = rng.standard_normal(2)
    state = FlowState(w, w.copy(), rng.standard_normal(1), 0.5, 0.8, 0.0)
    dx = flow_rhs(state, qp1)[0]
    np.testing.assert_allclose(dx, 0.0)


def test_flow_requires_smooth(qp1):
    nonsmooth = apd.ProblemInstance(qp1.smooth, apd.L1Prox(1.0), qp1.constraint)
    with pytest.raises(ValueError, match="smooth"):
        integrate_flow(zeros_state(), nonsmooth, 0.01, 1.0)


def test_integrate_zero_horizon(qp1):
    traj = integrate_flow(zeros_state(), qp1, 1e-3, 0.0)
    assert len(traj) == 1 and traj[0] is not traj or traj[0].t == 0.0


def test_integrate_step_validation(qp1):
    with pytest.raises(ValueError):
        integrate_flow(zeros_state(), qp1, 0.02, 1.0)
    with pytest.raises(ValueError, match="theta and gamma must be positive"):
        integrate_flow(zeros_state(gamma=0.0), qp1, 1e-3, 1.0)
    # a horizon off the grid of h: the last step is shortened to land on it
    traj = integrate_flow(zeros_state(), qp1, 1e-3, 0.0015)
    assert [s.t for s in traj] == [0.0, 1e-3, 0.0015]


@pytest.mark.parametrize("field, value, message", [
    ("theta", np.inf, "theta is inf"),
    ("gamma", np.inf, "gamma is inf"),
    ("t", np.nan, "t must be finite"),
    ("x", np.array([np.nan, 0.0]), "x holds NaN or inf"),
    ("v", np.array([0.0, -np.inf]), "v holds NaN or inf"),
    ("x", np.zeros(3), r"x must have shape \(2,\)"),
    ("lam", np.zeros(2), r"lam must have shape \(1,\)"),
], ids=["theta-inf", "gamma-inf", "t-nan", "x-nan", "v-inf", "x-size", "lam-size"])
def test_integrate_rejects_a_bad_start(qp1, field, value, message):
    # the flat (x, v, lam) layout would shift its slices on a mis-sized part,
    # and a start that is not finite is no trajectory to report
    start = dataclasses.replace(zeros_state(), **{field: value})
    with pytest.raises(ValueError, match=message):
        integrate_flow(start, qp1, 0.01, 0.05)


def test_theta_matches_exponential(qp1):
    h = 1e-2
    traj = integrate_flow(zeros_state(), qp1, h, 2.0)
    assert traj[-1].theta == pytest.approx(np.exp(-2.0), rel=1e-12, abs=0)
    assert abs(traj[-1].gamma - 1.0) <= 1e-14  # gamma pinned at mu_beta here


def test_scaling_closed_forms_order_h4(qp1):
    # gamma(t) = mu + (gamma0 - mu) e^{-t} with gamma0 != mu
    h = 1e-2
    traj = integrate_flow(zeros_state(gamma=3.0), qp1, h, 1.0)
    exact = 1.0 + 2.0 * np.exp(-1.0)
    assert traj[-1].gamma == pytest.approx(exact, rel=1e-12, abs=0)


def test_lyapunov_examples(qp1, qp1_saddle):
    at_saddle = FlowState(qp1_saddle.x_star, qp1_saddle.x_star,
                          qp1_saddle.lambda_star, 1.0, 1.0, 0.0)
    assert continuous_lyapunov(at_saddle, qp1, qp1_saddle) == pytest.approx(0.0)
    assert continuous_lyapunov(zeros_state(), qp1, qp1_saddle) == pytest.approx(0.625)
    bumped = FlowState(np.zeros(2), np.zeros(2), np.zeros(1), 1.0, 2.0, 0.0)
    delta = continuous_lyapunov(bumped, qp1, qp1_saddle) - 0.625
    assert delta == pytest.approx(0.5 * np.linalg.norm(qp1_saddle.x_star) ** 2)


def test_exponential_decay_and_feasibility(qp1, qp1_saddle):
    h = 1e-3
    traj = integrate_flow(zeros_state(), qp1, h, 2.0)
    energy = [continuous_lyapunov(s, qp1, qp1_saddle) for s in traj]
    factor = np.exp(-h) * (1 + 1e-8)
    assert all(b <= a * factor for a, b in zip(energy, energy[1:]))
    assert all(e >= 0 for e in energy)
    r0 = (np.sqrt(2 * 1.0 * energy[0])
          + 1.0 * np.linalg.norm(-qp1_saddle.lambda_star) + 1.0)
    for state in traj:
        feas = np.linalg.norm(qp1.constraint.residual(state.x))
        assert feas <= np.exp(-state.t) * r0 * (1 + 1e-8)


def capped_flow_qp():
    """The benchmark's flow QP in small, diagonal Q in [0.1, 2] and a
    unit-norm A, with the zero start."""
    rng = np.random.default_rng(801)
    n, m = 40, 10
    amat = rng.standard_normal((m, n))
    p = apd.ProblemInstance(apd.QuadraticObjective(rng.uniform(0.1, 2.0, n)), apd.ZeroProx(),
                            apd.MatrixConstraint(amat / np.linalg.norm(amat, 2),
                                                 rng.standard_normal(m)))
    return p, FlowState(np.zeros(n), np.zeros(n), np.zeros(m), 1.0, 1.0)


def test_capped_steps_keep_the_decay_certificate_past_rk4_stability():
    # Fixed steps of 0.01 leave RK4's stability interval on the imaginary axis
    # once theta gamma is small and diverged near t = 11.8; capped at
    # 2 sqrt(theta gamma) / |A| they keep E(t) <= e^{-t} E(0) at every state
    p, start = capped_flow_qp()
    rows = flow_records(integrate_flow(start, p, 0.01, 14.0), p, apd.solve_reference_saddle(p))
    assert len(rows) > 1401 and rows[-1].t == 14.0
    assert all(row.E <= np.exp(-row.t) * rows[0].E for row in rows)


def textbook_rk4(state0, p, h, horizon):
    """The flow's capped RK4 written out on separate ``x``, ``v``, ``lam``
    arrays, each stage and the slope combination formed afresh."""
    mu, norm, end = p.smooth.mu, p.constraint.op_norm, state0.t + horizon

    def rhs(x, v, lam, theta, gamma):
        force = p.smooth.gradient(x) + p.constraint.apply_adjoint(lam)
        return v - x, (mu * (x - v) - force) / gamma, p.constraint.residual(v) / theta

    trajectory, s = [state0], state0
    while s.t < end:
        step = h / max(1.0, 0.5 * h * norm / math.sqrt(s.theta * s.gamma))
        t_end = end if end - s.t <= step * (1 + 1e-6) else s.t + step
        dt = t_end - s.t

        def stage(w, dx, dv, dlam, s=s):
            decay = math.exp(-w)
            return (s.x + w * dx, s.v + w * dv, s.lam + w * dlam,
                    s.theta * decay, mu + (s.gamma - mu) * decay)

        k1 = rhs(s.x, s.v, s.lam, s.theta, s.gamma)
        k2 = rhs(*stage(dt / 2, *k1))
        k3 = rhs(*stage(dt / 2, *k2))
        k4 = rhs(*stage(dt, *k3))
        slope = [(a + 2 * (b + c) + d) / 6 for a, b, c, d in zip(k1, k2, k3, k4)]
        s = FlowState(*stage(dt, *slope), t_end)
        trajectory.append(s)
    return trajectory


def test_flat_rk4_matches_the_textbook_bit_for_bit():
    # to T = 14 the step cap binds and the last step is shortened to land on
    # T; the flat layout reorders no operation, so nothing may differ at all
    p, start = capped_flow_qp()
    flat, textbook = integrate_flow(start, p, 0.01, 14.0), textbook_rk4(start, p, 0.01, 14.0)
    assert len(flat) == len(textbook) > 1401 and flat[-1].t == 14.0
    for mine, reference in zip(flat, textbook):
        for field in ("x", "v", "lam"):
            assert np.array_equal(getattr(mine, field), getattr(reference, field))
        assert (mine.theta, mine.gamma, mine.t) == (reference.theta, reference.gamma, reference.t)


@pytest.mark.parametrize("steps", [1, 3])
def test_each_flow_step_makes_four_of_each_operation(qp1, steps):
    # one flow_rhs call per RK4 stage: A v, A' lam and the gradient at x
    smooth = CountingQuadratic(np.ones(2))
    counting = apd.ProblemInstance(smooth, qp1.nonsmooth, CountingConstraint(qp1.constraint))
    trajectory = integrate_flow(zeros_state(), counting, 0.01, 0.01 * steps)
    assert len(trajectory) - 1 == steps
    constraint = counting.constraint
    assert (constraint.applies, constraint.adjoints, smooth.grads) == (4 * steps,) * 3


def test_divergence_reports_last_finite_state():
    # stiff direction with tiny damping makes RK4 blow up at h = 0.01; the
    # error replaces numpy's overflow warnings, which the test run makes errors
    p = apd.ProblemInstance(apd.QuadraticObjective(np.array([1e9, 1e-3])),
                            apd.ZeroProx(),
                            apd.MatrixConstraint([[1.0, 1.0]], [1.0]))
    start = FlowState(np.array([1e3, 0.0]), np.zeros(2), np.zeros(1),
                      1.0, 1e-6, 0.0)
    with pytest.raises(FlowDivergenceError) as info:
        integrate_flow(start, p, 0.01, 10.0)
    assert np.all(np.isfinite(info.value.last_state.x))


def test_flow_records_apply_the_constraint_once_per_state(qp1, qp1_saddle):
    trajectory = integrate_flow(zeros_state(), qp1, 0.01, 0.1)
    counting = dataclasses.replace(qp1, constraint=CountingConstraint(qp1.constraint))
    rows = flow_records(trajectory, counting, qp1_saddle)
    assert len(rows) == len(trajectory) == 11
    # A x - b once per state for E and feasibility, A x* - b once per trajectory
    assert counting.constraint.applies == len(trajectory) + 1
    assert rows == flow_records(trajectory, qp1, qp1_saddle)
