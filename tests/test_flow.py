import dataclasses
import math

import numpy as np
import pytest
from conftest import CountingConstraint, CountingQuadratic, iterate, per_state_records

import apd
from apd import flow
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
    start = zeros_state()
    traj = integrate_flow(start, qp1, 1e-3, 0.0)
    assert len(traj) == 1
    assert traj[0] is start


def test_integrate_step_validation(qp1):
    for tol in (0.0, 1.0, np.nan):
        with pytest.raises(ValueError, match=r"tolerance must lie in \(0, 1\)"):
            integrate_flow(zeros_state(), qp1, tol, 1.0)
    with pytest.raises(ValueError, match="theta and gamma must be positive"):
        integrate_flow(zeros_state(gamma=0.0), qp1, 1e-3, 1.0)
    # the first trial is tol^(1/4) = 0.178, so a shorter horizon is one step
    # that lands on it, and a longer one ends on a step shortened to land
    traj = integrate_flow(zeros_state(), qp1, 1e-3, 0.0015)
    assert [s.t for s in traj] == [0.0, 0.0015]
    times = [s.t for s in integrate_flow(zeros_state(), qp1, 1e-3, 1.0)]
    assert times[-1] == 1.0 and times == sorted(set(times))


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
    traj = integrate_flow(zeros_state(), qp1, 1e-2, 2.0)
    assert traj[-1].theta == pytest.approx(np.exp(-2.0), rel=1e-12, abs=0)
    assert abs(traj[-1].gamma - 1.0) <= 1e-14  # gamma pinned at mu_beta here


def test_scaling_closed_forms_order_h4(qp1):
    # gamma(t) = mu + (gamma0 - mu) e^{-t} with gamma0 != mu
    traj = integrate_flow(zeros_state(gamma=3.0), qp1, 1e-2, 1.0)
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
    traj = integrate_flow(zeros_state(), qp1, 1e-3, 2.0)
    energy = [continuous_lyapunov(s, qp1, qp1_saddle) for s in traj]
    assert all(b <= a * np.exp(-(s.t - r.t)) * (1 + 1e-8)
               for a, b, r, s in zip(energy, energy[1:], traj, traj[1:]))
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
    # 2 sqrt(theta gamma) / |A| they keep E(t) <= e^{-t} E(0) at every state.
    # Here the cap binds from t = 2.3 on: every later step but the landing
    # one is the cap
    p, start = capped_flow_qp()
    trajectory = integrate_flow(start, p, 0.01, 14.0)
    rows = flow_records(trajectory, p, apd.solve_reference_saddle(p))
    assert rows[-1].t == 14.0
    assert all(row.E <= np.exp(-row.t) * rows[0].E for row in rows)
    caps = [2 * math.sqrt(s.theta * s.gamma) / p.constraint.op_norm for s in trajectory]
    ratios = [(b.t - a.t) / cap for a, b, cap in zip(trajectory, trajectory[1:], caps)]
    assert len(ratios) > 2000 and np.allclose(ratios[5:-1], 1.0, rtol=1e-9, atol=0)


def textbook_rk4(state0, p, step_end):
    """RK4 of the flow written out on separate ``x``, ``v``, ``lam`` arrays,
    each stage and the slope combination formed afresh: ``step_end(state)``
    is the time each step ends at, ``None`` to stop."""
    mu = p.smooth.mu

    def rhs(x, v, lam, theta, gamma):
        force = p.smooth.gradient(x) + p.constraint.apply_adjoint(lam)
        return v - x, (mu * (x - v) - force) / gamma, p.constraint.residual(v) / theta

    trajectory, s = [state0], state0
    while (t_end := step_end(s)) is not None:
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


def replayed(trajectory):
    """The ``step_end`` of :func:`textbook_rk4` that ends its steps at the
    times of ``trajectory``."""
    ends = iter([s.t for s in trajectory[1:]])
    return lambda state: next(ends, None)


def fixed_capped(p, h, horizon):
    """The ``step_end`` of :func:`textbook_rk4` for steps of ``h`` capped at
    ``2 sqrt(theta gamma) / |A|``, the last one landing on ``horizon``, from
    ``t = 0``: the flow's steps before error control."""
    norm = p.constraint.op_norm

    def step_end(s):
        if s.t >= horizon:
            return None
        step = h / max(1.0, 0.5 * h * norm / math.sqrt(s.theta * s.gamma))
        return horizon if horizon - s.t <= step * (1 + 1e-6) else s.t + step
    return step_end


def test_flat_rk4_matches_the_textbook_bit_for_bit():
    # to T = 14 the step cap binds, some trials are rejected and the last
    # step is shortened to land on T; replayed through the textbook, the
    # accepted steps give the same states, so the flat layout reorders no
    # operation and the FSAL slope is the next step's first slope bit for bit
    p, start = capped_flow_qp()
    flat = integrate_flow(start, p, 0.01, 14.0)
    textbook = textbook_rk4(start, p, replayed(flat))
    assert len(flat) == len(textbook) > 2000 and flat[-1].t == 14.0
    for mine, reference in zip(flat, textbook):
        for field in ("x", "v", "lam"):
            assert np.array_equal(getattr(mine, field), getattr(reference, field))
        assert (mine.theta, mine.gamma, mine.t) == (reference.theta, reference.gamma, reference.t)


def count_trials(monkeypatch):
    """Count the trial steps of ``integrate_flow``, one ``_rk4_step`` call each."""
    trials = []
    step = flow._rk4_step

    def counted(*args):
        trials.append(args[3])
        return step(*args)
    monkeypatch.setattr(flow, "_rk4_step", counted)
    return trials


@pytest.mark.parametrize("steps, trials, horizon", [(1, 1, 0.1), (3, 3, 1.5), (5, 7, 2.2)],
                         ids=["1", "3", "5"])
def test_each_flow_step_makes_four_of_each_operation(qp1, monkeypatch, steps, trials, horizon):
    # one flow_rhs call per RK4 stage after the first and one at the step's
    # end, the next step's first stage, so one at the start and four per
    # trial step, rejected or not: A v, A' lam and the gradient at x
    tried = count_trials(monkeypatch)
    smooth = CountingQuadratic(np.ones(2))
    counting = apd.ProblemInstance(smooth, qp1.nonsmooth, CountingConstraint(qp1.constraint))
    trajectory = integrate_flow(zeros_state(), counting, 0.01, horizon)
    assert (len(trajectory) - 1, len(tried)) == (steps, trials)
    constraint = counting.constraint
    assert (constraint.applies, constraint.adjoints, smooth.grads) == (4 * trials + 1,) * 3


def benchmark_flow_qp(rng):
    """The flow QP of ``perfbench.workloads.draw_composite(rng)`` (n = 400,
    m = 100, unit-norm A) with its zero start."""
    from perfbench import workloads

    d = workloads.draw_composite(rng)["flow"]
    m, n = d["amat"].shape
    p = apd.ProblemInstance(apd.QuadraticObjective(d["q"]), apd.ZeroProx(),
                            apd.MatrixConstraint(d["amat"], d["b"]))
    return p, FlowState(np.zeros(n), np.zeros(n), np.zeros(m), 1.0, 1.0)


@pytest.mark.parametrize("seed", ["31", "31-set-0"])
def test_error_control_ends_as_close_as_fixed_steps_in_fewer(seed):
    # defect 16's recipe (default_rng(31)) and the benchmark's first set at
    # seed 31: at T = 10 the (x, v, theta lam) error against a tol = 1e-10
    # run is set by the capped tail, so error control at tol = 0.01 ends
    # about as close as fixed steps of 0.01 (measured: 1.02 and 1.03 times
    # their error) in under half of their steps (446 and 455 against 1 091
    # and 1 096)
    rng = np.random.default_rng(31 if seed == "31" else np.random.SeedSequence(31).spawn(3)[0])
    p, start = benchmark_flow_qp(rng)
    reference = integrate_flow(start, p, 1e-10, 10.0)[-1]

    def error(state):
        return math.hypot(np.linalg.norm(state.x - reference.x),
                          np.linalg.norm(state.v - reference.v),
                          reference.theta * np.linalg.norm(state.lam - reference.lam))

    controlled = integrate_flow(start, p, 0.01, 10.0)
    fixed = textbook_rk4(start, p, fixed_capped(p, 0.01, 10.0))
    assert controlled[-1].t == fixed[-1].t == 10.0
    assert error(controlled[-1]) <= 1.1 * error(fixed[-1])
    assert 2 * len(controlled) < len(fixed)


def test_divergence_reports_last_finite_state(qp1):
    # a state near the overflow threshold: the first trial step overflows, so
    # its error ratio is not finite; the error replaces numpy's overflow
    # warnings, which the test run makes errors
    start = dataclasses.replace(zeros_state(), x=np.array([1e308, -1e308]))
    with pytest.raises(FlowDivergenceError, match="flow diverged near t=0") as info:
        integrate_flow(start, qp1, 0.01, 10.0)
    assert info.value.last_state is start


def test_a_stiff_gradient_ends_on_the_trial_budget(monkeypatch):
    # Q_11 = 1e9 with tiny damping: RK4 at fixed steps of 0.01 blows up, and
    # error control holds the steps near 1e-7, so the run would crawl; the
    # budget ends it on the last accepted state, which is finite
    monkeypatch.setattr(flow, "TRIAL_BUDGET", 300)
    tried = count_trials(monkeypatch)
    p = apd.ProblemInstance(apd.QuadraticObjective(np.array([1e9, 1e-3])),
                            apd.ZeroProx(),
                            apd.MatrixConstraint([[1.0, 1.0]], [1.0]))
    start = FlowState(np.array([1e3, 0.0]), np.zeros(2), np.zeros(1),
                      1.0, 1e-6, 0.0)
    with pytest.raises(FlowDivergenceError, match="in 300 trial steps") as info:
        integrate_flow(start, p, 0.01, 10.0)
    last = info.value.last_state
    assert len(tried) == 300 and max(tried[100:]) < 1e-6
    assert 0 < last.t < 1e-3 and np.all(np.isfinite(last.x))


def test_a_step_below_the_rounding_of_the_elapsed_time_ends_the_run(qp1):
    # theta gamma = 1e-400 underflows to 0, so the cap 2 sqrt(theta gamma) / |A|
    # is a step of 0, which does not move the time; the slope at the start is
    # finite, as x = v = 0 and A 0 - b = -1 over 1e-200
    start = dataclasses.replace(zeros_state(), theta=1e-200, gamma=1e-200)
    with pytest.raises(FlowDivergenceError, match="fell below the rounding of t near t=0") as info:
        integrate_flow(start, qp1, 0.01, 1.0)
    assert info.value.last_state is start


def test_flow_records_apply_the_constraint_once_per_block(qp1, qp1_saddle):
    # fixed steps of 0.01 to t = 0.1: 11 states
    trajectory = textbook_rk4(zeros_state(), qp1, fixed_capped(qp1, 0.01, 0.1))
    counting = dataclasses.replace(qp1, constraint=CountingConstraint(qp1.constraint))
    rows = flow_records(trajectory, counting, qp1_saddle)
    assert len(rows) == len(trajectory) == 11
    # A X - b once per block of states for E and feasibility, A x* - b once per trajectory
    assert counting.constraint.applies == math.ceil(len(trajectory) / 16) + 1 == 2
    assert rows == flow_records(trajectory, qp1, qp1_saddle)


@pytest.mark.parametrize("horizon, states", [(0.0, 1), (0.15, 16), (0.16, 17), (0.36, 37),
                                             (14.0, None)])
def test_block_records_match_the_one_point_formula(horizon, states):
    # fixed steps of 0.01: 16 states fill one block, 17 and 37 leave a block
    # of one state; to T = 14 the step cap binds and E falls by e^-14, so
    # |Delta E| is held to E(0)
    p, start = capped_flow_qp()
    saddle = apd.solve_reference_saddle(p)
    trajectory = textbook_rk4(start, p, fixed_capped(p, 0.01, horizon))
    assert states is None or len(trajectory) == states
    rows = flow_records(trajectory, p, saddle)
    assert len(rows) == len(trajectory)
    expected = per_state_records(trajectory, p, saddle)
    for row, state, (energy, feasibility) in zip(rows, trajectory, expected):
        assert (row.t, row.theta, row.gamma) == (state.t, state.theta, state.gamma)
        assert abs(row.E - energy) <= 1e-12 * expected[0][0]
        assert row.feasibility == pytest.approx(feasibility, rel=1e-11, abs=0)


@pytest.mark.parametrize("t0", [1e14, 1e16])
def test_a_large_start_time_takes_the_steps_of_a_zero_one(qp1, t0):
    # steps are taken on the elapsed time: on the absolute time 1e14 rounds a
    # step of 0.01 up to 0.0156, and 1e16 + 1 rounds back to 1e16
    zero = integrate_flow(zeros_state(), qp1, 1e-6, 1.0)
    late = integrate_flow(dataclasses.replace(zeros_state(), t=t0), qp1, 1e-6, 1.0)
    assert len(late) == len(zero) > 10
    for mine, reference in zip(late, zero):
        for field in ("x", "v", "lam"):
            assert np.array_equal(getattr(mine, field), getattr(reference, field))
        assert (mine.theta, mine.gamma, mine.t) == (reference.theta, reference.gamma,
                                                    t0 + reference.t)


def test_implicit_steps_track_the_flow_to_first_order_when_mu_is_zero():
    # implicit Euler of the flow: theta_k = (1 + alpha)^-k, and the iterate
    # after k steps of size alpha follows the flow at t = k alpha with an
    # error O(alpha); the implicit step follows the flow with mu = 0, so q_0 = 0
    rng = np.random.default_rng(3)
    n, m, horizon, tol = 12, 4, 3.0, 1e-10
    q = rng.uniform(0.1, 2.0, n)
    q[0] = 0.0
    amat = rng.standard_normal((m, n))
    amat /= np.linalg.norm(amat, 2)
    b, c = rng.standard_normal(m), rng.standard_normal(n)
    problem = apd.ProblemInstance(apd.QuadraticObjective(q, c), apd.ZeroProx(),
                                  apd.MatrixConstraint(amat, b))
    assert problem.smooth.mu == 0
    end = integrate_flow(FlowState(np.zeros(n), np.zeros(n), np.zeros(m), 1.0, 1.0),
                         problem, tol, horizon)[-1]
    assert end.t == horizon
    alphas = np.array([0.01, 0.003, 0.001])
    x_errors, lam_errors = [], []
    for alpha in alphas:
        state = iterate(problem, np.zeros(n), np.zeros(n), np.zeros(m),
                        apd.ScalingState(1.0, 1.0))
        ctx = apd.RunContext(problem)
        for _ in range(round(horizon / alpha)):
            state = apd.implicit_apd_step(state, ctx, alpha)
        assert state.scaling.theta == pytest.approx((1 + alpha) ** -round(horizon / alpha))
        x_errors.append(np.linalg.norm(state.x - end.x))
        lam_errors.append(np.linalg.norm(state.lam - end.lam))
    # measured: |x - x_flow| 0.118, 0.0369, 0.0125; |lam - lam_flow| 0.667, 0.241, 0.0856
    orders = np.log(np.array(x_errors[:-1]) / x_errors[1:]) / np.log(alphas[:-1] / alphas[1:])
    assert np.all((0.9 < orders) & (orders < 1.1))
    assert np.all(np.array(x_errors) < 13 * alphas)
    lam_orders = (np.log(np.array(lam_errors[:-1]) / lam_errors[1:])
                  / np.log(alphas[:-1] / alphas[1:]))
    assert np.all(lam_orders > 0.8) and lam_orders[1] > lam_orders[0]


def test_implicit_steps_ignore_mu_and_track_the_mu_zero_flow():
    # the recipe above with q_0 = 0.5, so mu = min q = 0.279: the implicit
    # step advances the scaling pair with mu_beta = 0 and has no mu term, so
    # it runs bit for bit as on the same problem with mu = 0, and follows the
    # flow of that problem, not of its own
    rng = np.random.default_rng(3)
    n, m, horizon, tol = 12, 4, 3.0, 1e-10
    q = rng.uniform(0.1, 2.0, n)
    q[0] = 0.5
    amat = rng.standard_normal((m, n))
    amat /= np.linalg.norm(amat, 2)
    b, c = rng.standard_normal(m), rng.standard_normal(n)
    constraint = apd.MatrixConstraint(amat, b)
    problem = apd.ProblemInstance(apd.QuadraticObjective(q, c), apd.ZeroProx(), constraint)
    flat = apd.ProblemInstance(apd.QuadraticObjective(q, c, mu=0.0), apd.ZeroProx(),
                               constraint)
    assert problem.smooth.mu == pytest.approx(0.279, abs=1e-3) and flat.smooth.mu == 0
    ref = apd.solve_reference_saddle(problem)
    config = apd.SolverConfig("implicit", alpha=0.01, max_iter=300, reference=ref)
    mine, zero = (apd.run_solver(p, config) for p in (problem, flat))
    assert mine.status == zero.status == "max_iter" and mine.records == zero.records
    # with its own reference each run records against another saddle (the
    # mu = 0 KKT system is regularized), and only the iterates agree
    own = [apd.run_solver(p, dataclasses.replace(config, reference=None)).state
           for p in (problem, flat)]
    for state in (zero.state, *own):
        for field in ("x", "v", "lam"):
            assert np.array_equal(getattr(state, field), getattr(mine.state, field))
        assert state.scaling == mine.state.scaling
    end = integrate_flow(FlowState(np.zeros(n), np.zeros(n), np.zeros(m), 1.0, 1.0),
                         flat, tol, horizon)[-1]
    alphas = np.array([0.01, 0.003, 0.001])
    x_errors = []
    for alpha in alphas:
        state = iterate(problem, np.zeros(n), np.zeros(n), np.zeros(m),
                        apd.ScalingState(1.0, 1.0))
        ctx = apd.RunContext(problem)
        for _ in range(round(horizon / alpha)):
            state = apd.implicit_apd_step(state, ctx, alpha)
        x_errors.append(np.linalg.norm(state.x - end.x))
    # measured: |x - x_flow| 0.0858, 0.0268, 0.00909, orders 0.965 and 0.986
    orders = np.log(np.array(x_errors[:-1]) / x_errors[1:]) / np.log(alphas[:-1] / alphas[1:])
    assert np.all((0.9 < orders) & (orders < 1.1))
    assert np.all(np.array(x_errors) < 10 * alphas)
