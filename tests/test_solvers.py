import dataclasses

import numpy as np
import pytest
from conftest import (
    CountingConstraint,
    CountingQuadratic,
    contraction_violations,
    planted_lasso,
    reachable,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import apd
from apd import ddo, model
from apd.harness import audit_records
from apd.inner import InnerSolveError
from apd.schedule import SCHEME_TABLE, SCHEMES, ScalingState, restart_scaling
from apd.solvers import (
    _RESTART_THETA,
    IterateState,
    IterationRecord,
    RunContext,
    SaddleReferenceError,
    SolverConfig,
    SolverRun,
    discrete_lyapunov,
    ex_apdfb_step,
    implicit_apd_step,
    initial_state,
    make_step_rule,
    residual_metrics,
    run_solver,
    semi_apd_step,
    semi_apdfb_step,
)


def zeros_state(n=2, m=1, gamma0=1.0):
    return IterateState(np.zeros(n), np.zeros(n), np.zeros(m),
                        ScalingState(1.0, gamma0))


def saddle_state(saddle, gamma0=1.0):
    return IterateState(saddle.x_star.copy(), saddle.x_star.copy(),
                        saddle.lambda_star.copy(), ScalingState(1.0, gamma0))


# ---------------------------------------------------------------------------
# implicit scheme
# ---------------------------------------------------------------------------

def test_implicit_step_example(qp1):
    out = implicit_apd_step(zeros_state(), RunContext(qp1), 1.0)
    np.testing.assert_allclose(out.x, np.full(2, 1 / 7), atol=1e-14)
    np.testing.assert_allclose(out.v, np.full(2, 2 / 7), atol=1e-14)
    np.testing.assert_allclose(out.lam, [-3 / 7], atol=1e-14)
    invariant = out.lam - qp1.constraint.residual(out.x) / out.scaling.theta
    np.testing.assert_allclose(invariant, [1.0], atol=1e-13)


def test_implicit_fixed_point(qp1, qp1_saddle):
    out = implicit_apd_step(saddle_state(qp1_saddle), RunContext(qp1), 1.0)
    np.testing.assert_allclose(out.x, qp1_saddle.x_star, atol=1e-12)
    np.testing.assert_allclose(out.v, qp1_saddle.x_star, atol=1e-12)
    np.testing.assert_allclose(out.lam, qp1_saddle.lambda_star, atol=1e-12)


def test_implicit_dual_route_matches_dense_on_projection_problem():
    # h = 0, g = indicator of a box: the subproblem goes through Newton
    box = apd.Box(np.full(3, -0.2), np.full(3, 2.0))
    constraint = apd.MatrixConstraint([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                                      [1.0, 1.2])
    p = apd.ProblemInstance(apd.ZeroObjective(3), apd.ZeroProx(box), constraint)
    state = zeros_state(3, 2)
    out = implicit_apd_step(state, RunContext(p), 0.7)
    assert box.contains(out.x)
    # subproblem oracle: box-constrained argmin of the penalized objective
    theta_next = 1.0 / 1.7
    eta = 0.7 ** 2 / (1.0 * 1.7)
    shifted = -constraint.residual(state.x)  # lam0 - (A x0 - b)/theta0 = +b
    w = state.x - eta * constraint.apply_adjoint(shifted)

    def objective(x):
        res = constraint.residual(x)
        return (res @ res / (2 * theta_next)
                + ((x - w) @ (x - w)) / (2 * eta))

    from scipy.optimize import minimize
    ref = minimize(objective, np.zeros(3),
                   bounds=[(-0.2, 2.0)] * 3, method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-12})
    np.testing.assert_allclose(out.x, ref.x, atol=1e-6)


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_implicit_quadratic_step_matches_full_space_solve(dense):
    rng = np.random.default_rng(21)
    n, m = 9, 4
    amat = rng.standard_normal((m, n))
    if dense:
        root = rng.standard_normal((n, n))
        quad = root @ root.T / n
    else:
        quad = rng.uniform(0.1, 2.0, n)
    c = rng.standard_normal(n)
    p = apd.ProblemInstance(apd.QuadraticObjective(quad, c), apd.ZeroProx(),
                            apd.MatrixConstraint(amat, rng.standard_normal(m)))
    theta, gamma, alpha = 0.3, 0.7, 0.8
    x, v, lam = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(m)
    out = implicit_apd_step(IterateState(x, v, lam, ScalingState(theta, gamma)),
                            RunContext(p), alpha)
    theta_next = theta / (1 + alpha)
    eta = alpha ** 2 / (gamma * (1 + alpha))
    y = (x + alpha * v) / (1 + alpha)
    shifted = lam - p.constraint.residual(x) / theta
    h = p.smooth.hessian_matrix() + amat.T @ amat / theta_next + np.eye(n) / eta
    rhs = -c + amat.T @ p.constraint.rhs / theta_next + y / eta - amat.T @ shifted
    x_ref = np.linalg.solve(h, rhs)
    np.testing.assert_allclose(out.x, x_ref, rtol=1e-10)
    np.testing.assert_allclose(
        out.lam, shifted + p.constraint.residual(x_ref) / theta_next, rtol=1e-10)


def defect2_qp():
    """Dense QP on which the full-space implicit solve lost accuracy as theta -> 0."""
    rng = np.random.default_rng(0)
    n, m = 400, 100
    amat = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    q = rng.uniform(0.1, 2.0, n)
    return apd.ProblemInstance(apd.QuadraticObjective(q), apd.ZeroProx(),
                               apd.MatrixConstraint(amat, b, op_norm=np.linalg.norm(amat, 2)))


def test_implicit_and_semi_apdfb_do_not_read_op_norm():
    # a benchmark-size QP: the default op_norm bound and the exact |A|_2
    # must give the same runs
    rng = np.random.default_rng(0)
    amat = rng.standard_normal((250, 1000))
    b = rng.standard_normal(250)
    objective = apd.QuadraticObjective(rng.uniform(0.1, 2.0, 1000))
    problems = [apd.ProblemInstance(objective, apd.ZeroProx(), constraint) for constraint in
                (apd.MatrixConstraint(amat, b),
                 apd.MatrixConstraint(amat, b, op_norm=np.linalg.norm(amat, 2)))]
    reference = apd.solve_reference_saddle(problems[0])
    for scheme in ("implicit", "semi_apdfb"):
        config = SolverConfig(scheme, max_iter=2000, stop_tol=1e-8, reference=reference)
        default, exact = (run_solver(problem, config) for problem in problems)
        assert default.status == "converged"
        assert default.records == exact.records


def test_implicit_converges_on_a_dense_qp_without_contraction_violations():
    run = run_solver(defect2_qp(), SolverConfig(scheme="implicit", stop_tol=1e-8))
    assert run.status == "converged"
    assert audit_records(run.records).contraction_violations == 0


def test_implicit_run_past_convergence_ends_near_its_best():
    run = run_solver(defect2_qp(), SolverConfig(scheme="implicit", stop_tol=0.0))
    errors = [rec.obj_gap + rec.feasibility for rec in run.records]
    assert errors[-1] <= 10 * min(errors)


def test_implicit_rejects_general_composite(qp1):
    p = apd.ProblemInstance(qp1.smooth, apd.L1Prox(0.5), qp1.constraint)
    with pytest.raises(InnerSolveError):
        implicit_apd_step(zeros_state(), RunContext(p), 1.0)


# ---------------------------------------------------------------------------
# semi-implicit scheme
# ---------------------------------------------------------------------------

def test_semi_apd_step_example(qp1):
    alpha = 1 / np.sqrt(2)
    out = semi_apd_step(zeros_state(), RunContext(qp1), alpha)
    np.testing.assert_allclose(out.x, np.full(2, 0.1213203), atol=1e-6)
    lam_hat = alpha * (qp1.constraint.apply(np.zeros(2)) - qp1.constraint.rhs)
    np.testing.assert_allclose(lam_hat, [-0.7071067], atol=1e-6)


def test_semi_apd_fixed_point(qp1, qp1_saddle):
    out = semi_apd_step(saddle_state(qp1_saddle), RunContext(qp1), 0.5)
    np.testing.assert_allclose(out.x, qp1_saddle.x_star, atol=1e-12)
    np.testing.assert_allclose(out.lam, qp1_saddle.lambda_star, atol=1e-12)


def test_semi_apd_rejects_zero_operator():
    p = apd.ProblemInstance(
        apd.QuadraticObjective(np.ones(2)), apd.ZeroProx(),
        apd.MatrixConstraint(np.zeros((1, 2)), np.zeros(1), op_norm=0.0))
    with pytest.raises(ValueError):
        apd.StepRule("semi_apd", norm_a=p.constraint.op_norm)


def _prox_case(name):
    """``(smooth, nonsmooth, argmin)`` of a ``semi_apd`` prox route, where
    ``argmin(point, eta)`` minimizes ``h + g + |x - point|^2/(2 eta)`` by hand
    (``None`` when the route has no closed form)."""
    rng = np.random.default_rng(5)
    q, c = rng.uniform(0.5, 2.0, 4), rng.standard_normal(4)
    root = rng.standard_normal((4, 4))
    dense = root @ root.T + 0.5 * np.eye(4)
    box = apd.Box(-0.3 * np.ones(4), 0.3 * np.ones(4))
    return {
        "diagonal": (apd.QuadraticObjective(q, c), apd.ZeroProx(),
                     lambda point, eta: (point / eta - c) / (q + 1.0 / eta)),
        "dense": (apd.QuadraticObjective(dense, c), apd.ZeroProx(),
                  lambda point, eta: np.linalg.solve(dense + np.eye(4) / eta, point / eta - c)),
        "diagonal-box": (apd.QuadraticObjective(q, c), apd.ZeroProx(box),
                         lambda point, eta: np.clip((point / eta - c) / (q + 1.0 / eta),
                                                    -0.3, 0.3)),
        "l1": (apd.ZeroObjective(4), apd.L1Prox(4.0),
               lambda point, eta: np.sign(point) * np.maximum(np.abs(point) - 4.0 * eta, 0.0)),
        "dense-box": (apd.QuadraticObjective(dense, c), apd.ZeroProx(box), None),
        "zero-box": (apd.ZeroObjective(4), apd.ZeroProx(box),
                     lambda point, eta: np.clip(point, -0.3, 0.3)),
        # the clipped diagonal minimizer is not the prox over a non-separable set
        "diagonal-halfspace": (apd.QuadraticObjective(q, c),
                               apd.ZeroProx(apd.HalfSpace(np.ones(4), -1.0)), None),
    }[name]


@pytest.mark.parametrize("name", ["diagonal", "dense", "diagonal-box", "l1", "dense-box",
                                  "zero-box", "diagonal-halfspace"])
def test_semi_apd_prox_matches_a_direct_minimizer(name):
    smooth, nonsmooth, argmin = _prox_case(name)
    rng = np.random.default_rng(6)
    amat, rhs = rng.standard_normal((2, 4)), rng.standard_normal(2)
    p = apd.ProblemInstance(smooth, nonsmooth, apd.MatrixConstraint(amat, rhs))
    x, v, lam = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(2)
    theta, gamma, alpha = 0.6, 0.8, 0.5
    state = IterateState(x, v, lam, ScalingState(theta, gamma))
    if argmin is None:
        with pytest.raises(InnerSolveError):
            semi_apd_step(state, RunContext(p), alpha)
        return
    out = semi_apd_step(state, RunContext(p), alpha)
    mu = p.smooth.mu
    lam_hat = lam + (alpha / theta) * (amat @ v - rhs)
    tau = gamma + mu * alpha + gamma * alpha
    y = ((gamma + mu * alpha) * x + gamma * alpha * v) / tau
    eta = alpha ** 2 / tau
    np.testing.assert_allclose(out.x, argmin(y - eta * amat.T @ lam_hat, eta),
                               rtol=1e-12, atol=1e-14)


def test_semi_apd_rejects_a_diagonal_qp_over_a_half_space():
    # the diagonal closed form over this set ended precision_floor after 910
    # steps, 2.3e-3 from the optimum with f 7e-6 too high
    rng = np.random.default_rng(0)
    amat, rhs, c = rng.standard_normal((2, 6)), rng.standard_normal(2), 3 * rng.standard_normal(6)
    p = apd.ProblemInstance(apd.QuadraticObjective([0.2, 0.5, 1, 2, 4, 8], c),
                            apd.ZeroProx(apd.HalfSpace(np.ones(6), -1.0)),
                            apd.MatrixConstraint(amat, rhs))
    with pytest.raises(InnerSolveError, match="not a box"):
        run_solver(p, SolverConfig("semi_apd", max_iter=5))


def test_semi_apd_solves_a_box_feasibility_problem():
    # a zero smooth part takes the box projection, not the quadratic route that raised
    rng = np.random.default_rng(0)
    amat = rng.standard_normal((2, 6))
    rhs = amat @ rng.uniform(-0.5, 0.5, 6)
    box = apd.Box(-np.ones(6), np.ones(6))
    p = apd.ProblemInstance(apd.ZeroObjective(6), apd.ZeroProx(box),
                            apd.MatrixConstraint(amat, rhs))
    run = run_solver(p, SolverConfig("semi_apd", max_iter=2000, stop_tol=1e-8))
    assert run.status == "converged"
    assert np.linalg.norm(amat @ run.state.x - rhs) <= 1e-8 and box.contains(run.state.x)


# ---------------------------------------------------------------------------
# forward-backward schemes
# ---------------------------------------------------------------------------

def test_semi_apdfb_matches_brute_force_joint_solve(qp1):
    out = semi_apdfb_step(zeros_state(), RunContext(qp1), 1.0)
    # joint system in (v, lam): v + t A' lam = z, -alpha A v + theta lam = theta lam0 - alpha b
    theta, gamma, mu, alpha = 1.0, 1.0, 1.0, 1.0
    amat = qp1.constraint.matrix()
    tau = gamma + mu * alpha
    t = alpha / tau
    z = np.zeros(2)  # w = 0, grad h(0) = 0
    joint = np.zeros((3, 3))
    joint[:2, :2] = np.eye(2)
    joint[:2, 2:] = t * amat.T
    joint[2:, :2] = -alpha * amat
    joint[2:, 2:] = theta * np.eye(1)
    rhs = np.concatenate([z, theta * np.zeros(1) - alpha * qp1.constraint.rhs])
    sol = np.linalg.solve(joint, rhs)
    np.testing.assert_allclose(out.v, sol[:2], atol=1e-10)
    np.testing.assert_allclose(out.lam, sol[2:], atol=1e-10)
    np.testing.assert_allclose(out.x, (np.zeros(2) + alpha * sol[:2]) / 2, atol=1e-10)


def test_semi_apdfb_dual_and_primal_routes_match_joint_solve():
    # 2x5 takes the dual Gram route, 5x2 the primal one
    for m, n in ((2, 5), (5, 2)):
        rng = np.random.default_rng(17)
        amat = rng.standard_normal((m, n))
        p = apd.ProblemInstance(apd.QuadraticObjective(rng.uniform(0.5, 2.0, n),
                                                       rng.standard_normal(n)),
                                apd.ZeroProx(),
                                apd.MatrixConstraint(amat, rng.standard_normal(m)))
        theta, gamma, alpha = 0.4, 0.9, 0.7
        x, v, lam = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(m)
        out = semi_apdfb_step(IterateState(x, v, lam, ScalingState(theta, gamma)),
                              RunContext(p), alpha)
        y = (x + alpha * v) / (1 + alpha)
        tau = gamma + p.smooth.mu * alpha
        t = alpha / tau
        z = (gamma * v + p.smooth.mu * alpha * y) / tau - t * p.smooth.gradient(y)
        joint = np.block([[np.eye(n), t * amat.T], [-alpha * amat, theta * np.eye(m)]])
        sol = np.linalg.solve(joint, np.concatenate(
            [z, theta * lam - alpha * p.constraint.rhs]))
        np.testing.assert_allclose(out.v, sol[:n], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out.lam, sol[n:], rtol=1e-10, atol=1e-12)


def test_semi_apdfb_fixed_point(qp1, qp1_saddle):
    out = semi_apdfb_step(saddle_state(qp1_saddle), RunContext(qp1), 1.0)
    np.testing.assert_allclose(out.x, qp1_saddle.x_star, atol=1e-11)
    np.testing.assert_allclose(out.v, qp1_saddle.x_star, atol=1e-11)
    np.testing.assert_allclose(out.lam, qp1_saddle.lambda_star, atol=1e-11)


def test_semi_apdfb_newton_route_matches_grid():
    # scalar l1 toy: n = m = 1, A = [1], b = 0
    constraint = apd.MatrixConstraint([[1.0]], [0.0])
    p = apd.ProblemInstance(apd.QuadraticObjective(np.ones(1)), apd.L1Prox(0.3),
                            constraint)
    state = IterateState(np.array([0.9]), np.array([0.9]), np.array([0.1]),
                         ScalingState(1.0, 1.0))
    alpha = apd.step_size(apd.StepRule("semi_apdfb", lip_beta=1.0), state.scaling)
    out = semi_apdfb_step(state, RunContext(p), alpha)
    # grid search over the scalar multiplier of the coupled subproblem
    theta, gamma, mu = 1.0, 1.0, 1.0
    y = (state.x + alpha * state.v) / (1 + alpha)
    tau = gamma + mu * alpha
    w = (gamma * state.v + mu * alpha * y) / tau
    t = alpha / tau
    z = w - t * p.smooth.gradient(y)
    lam_grid = np.linspace(-3, 3, 2000001)
    vgrid = np.sign(z - t * lam_grid) * np.maximum(np.abs(z - t * lam_grid) - t * 0.3, 0)
    resid = theta * lam_grid - alpha * vgrid - (theta * state.lam[0] - alpha * 0.0)
    lam_best = lam_grid[np.argmin(np.abs(resid))]
    v_best = np.sign(z - t * lam_best) * np.maximum(np.abs(z - t * lam_best) - t * 0.3, 0)
    np.testing.assert_allclose(out.v, v_best, atol=1e-5)
    np.testing.assert_allclose(out.lam, [lam_best], atol=1e-5)


def test_ex_apdfb_step_transcript(qp1):
    alpha = 1 / np.sqrt(3)  # theta = gamma = 1, L = 1, |A|^2 = 2
    out = ex_apdfb_step(zeros_state(), RunContext(qp1), alpha)
    theta, gamma, mu = 1.0, 1.0, 1.0
    amat = qp1.constraint.matrix()
    y = np.zeros(2)
    tau = gamma + mu * alpha
    w = np.zeros(2)
    lam_hat = np.zeros(1) + (alpha / theta) * (amat @ np.zeros(2) - qp1.constraint.rhs)
    eta = alpha / tau
    v1 = w - eta * (qp1.smooth.gradient(y) + amat.T @ lam_hat)
    x1 = (np.zeros(2) + alpha * v1) / (1 + alpha)
    lam1 = np.zeros(1) + (alpha / theta) * (amat @ v1 - qp1.constraint.rhs)
    np.testing.assert_allclose(out.v, v1, atol=1e-14)
    np.testing.assert_allclose(out.x, x1, atol=1e-14)
    np.testing.assert_allclose(out.lam, lam1, atol=1e-14)


def test_ex_apdfb_fixed_point(qp1, qp1_saddle):
    out = ex_apdfb_step(saddle_state(qp1_saddle), RunContext(qp1), 0.4)
    np.testing.assert_allclose(out.x, qp1_saddle.x_star, atol=1e-13)
    np.testing.assert_allclose(out.lam, qp1_saddle.lambda_star, atol=1e-13)


def test_ex_apdfb_reduces_to_accelerated_forward_backward():
    # zero constraint: the multiplier freezes and the step is plain FB
    constraint = apd.MatrixConstraint(np.zeros((1, 2)), np.zeros(1), op_norm=0.0)
    p = apd.ProblemInstance(apd.QuadraticObjective(np.array([1.0, 2.0])),
                            apd.L1Prox(0.2), constraint)
    state = IterateState(np.array([0.4, -0.7]), np.array([0.1, 0.2]),
                         np.zeros(1), ScalingState(1.0, 1.0))
    alpha = 0.5
    out = ex_apdfb_step(state, RunContext(p), alpha)
    np.testing.assert_array_equal(out.lam, state.lam)
    y = (state.x + alpha * state.v) / (1 + alpha)
    tau = 1.0 + 1.0 * alpha
    w = (state.v + alpha * y) / tau
    eta = alpha / tau
    expected_v = apd.soft_threshold(w - eta * p.smooth.gradient(y), eta * 0.2)
    np.testing.assert_allclose(out.v, expected_v, atol=1e-14)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_discrete_lyapunov_examples(qp1, qp1_saddle):
    assert discrete_lyapunov(saddle_state(qp1_saddle), qp1, qp1_saddle) \
        == pytest.approx(0.0)
    assert discrete_lyapunov(zeros_state(), qp1, qp1_saddle) == pytest.approx(0.625)
    stepped = implicit_apd_step(zeros_state(), RunContext(qp1), 1.0)
    assert discrete_lyapunov(stepped, qp1, qp1_saddle) <= 0.3125


def test_residual_metrics_examples(qp1, qp1_saddle):
    at_star = residual_metrics(qp1, qp1_saddle.x_star, qp1_saddle.lambda_star,
                               qp1_saddle)
    np.testing.assert_allclose(at_star, (0.0, 0.0, 0.0), atol=1e-14)
    gaps = residual_metrics(qp1, np.zeros(2), np.zeros(1), qp1_saddle)
    np.testing.assert_allclose(gaps, (0.25, 1.0, 0.25))
    no_ref = residual_metrics(qp1, np.zeros(2), np.zeros(1))
    assert np.isnan(no_ref[0]) and no_ref[1] == 1.0 and np.isnan(no_ref[2])


def test_residual_metrics_flags_bad_reference(qp1, qp1_saddle):
    # an infeasible "x*" lets the Lagrangian gap go negative
    fake = apd.SaddlePoint(np.zeros(2), qp1_saddle.lambda_star, 0.0)
    with pytest.raises(SaddleReferenceError):
        residual_metrics(qp1, qp1_saddle.x_star, np.array([-3.0]), fake)


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

# The paper's theorems concern the scheme run from a single start; ``run_solver``
# restarts it, so these run the plain loop (``loop_by_hand`` without restarts).

def plain_run(problem, config):
    records, state, status = loop_by_hand(problem, config, restarts=False)
    return SolverRun(records, status, state, None)


def test_run_implicit_feasibility_certificate(qp1):
    run = plain_run(qp1, SolverConfig(scheme="implicit", alpha=1.0, max_iter=30))
    r0 = np.sqrt(2 * 0.625) + 0.5 + 1.0
    assert run.records[-1].feasibility <= 2.0 ** -30 * r0
    assert not contraction_violations(run.records)
    assert run.status == "max_iter"


def test_run_certificates_all_schemes(qp1):
    e0 = 0.625
    r0 = np.sqrt(2 * e0) + 0.5 + 1.0
    lam_star_norm = 0.5
    for scheme in ("implicit", "semi_apd", "semi_apdfb", "ex_apdfb"):
        # implicit stops at k = 43, the last theta = 2^-k above 1e-13: past it
        # the certificate theta * r0 falls to the rounding error of |Ax - b|
        max_iter = 43 if scheme == "implicit" else 60
        run = plain_run(qp1, SolverConfig(scheme=scheme, alpha=1.0, max_iter=max_iter))
        assert not contraction_violations(run.records), scheme
        for rec in run.records:
            assert rec.feasibility <= rec.theta * r0 * (1 + 1e-9), scheme
            assert rec.obj_gap <= rec.theta * (e0 + r0 * lam_star_norm) + 1e-12, scheme
            assert rec.lagrangian_gap >= -1e-12, scheme


def test_run_lambda_invariant_held(qp1):
    for scheme in ("implicit", "semi_apd", "semi_apdfb", "ex_apdfb"):
        cfg = SolverConfig(scheme=scheme, alpha=0.8, max_iter=40)
        problem = qp1
        run = plain_run(problem, cfg)
        state = run.state
        inv = state.lam - problem.constraint.residual(state.x) / state.scaling.theta
        np.testing.assert_allclose(inv, [1.0], rtol=1e-9)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_solver_has_a_step_for_every_listed_scheme(scheme, qp1):
    run = run_solver(qp1, SolverConfig(scheme=scheme, max_iter=5))
    assert run.status == "max_iter"
    assert [rec.k for rec in run.records] == list(range(6))


def test_run_solver_names_an_unknown_scheme(qp1):
    with pytest.raises(ValueError, match="'newton'"):
        run_solver(qp1, SolverConfig(scheme="newton"))


@pytest.mark.parametrize("max_iter,stop_tol", [(-3, 0.0), (10, np.nan), (10, np.inf),
                                               (10, -1e-3)])
def test_run_solver_rejects_a_bad_step_cap_or_tolerance(qp1, max_iter, stop_tol):
    # a negative cap ran no step and reported max_iter; an infinite tolerance
    # reported converged after one step, whatever the accuracy
    with pytest.raises(ValueError, match=f"got max_iter={max_iter} and stop_tol={stop_tol}$"):
        run_solver(qp1, SolverConfig("semi_apd", max_iter=max_iter, stop_tol=stop_tol))


def test_run_zero_iterations(qp1):
    run = run_solver(qp1, SolverConfig(scheme="implicit", max_iter=0))
    assert len(run.records) == 1
    assert run.records[0].k == 0 and run.records[0].alpha == 0.0


def test_run_stop_tol_reports_converged(qp1):
    run = run_solver(qp1, SolverConfig(scheme="implicit", alpha=1.0,
                                       max_iter=500, stop_tol=1e-6))
    assert run.status == "converged"
    assert run.records[-1].obj_gap + run.records[-1].feasibility <= 1e-6


def test_run_deterministic(qp1):
    a = run_solver(qp1, SolverConfig(scheme="semi_apd", max_iter=50))
    b = run_solver(qp1, SolverConfig(scheme="semi_apd", max_iter=50))
    for ra, rb in zip(a.records, b.records):
        assert ra == rb


def test_membership_box_instances():
    # x stays feasible for every scheme; v and y additionally for the
    # forward-backward schemes
    box = apd.Box(np.full(3, -0.1), np.full(3, 0.8))
    constraint = apd.MatrixConstraint([[1.0, 1.0, 1.0]], [1.0])
    p = apd.ProblemInstance(apd.QuadraticObjective(np.array([1.0, 2.0, 3.0])),
                            apd.ZeroProx(box), constraint)
    for scheme in ("semi_apd", "semi_apdfb", "ex_apdfb"):
        run = run_solver(p, SolverConfig(scheme=scheme, max_iter=40))
        final = run.state
        assert box.contains(final.x, tol=1e-9), scheme
        if scheme in ("semi_apdfb", "ex_apdfb"):
            assert box.contains(final.v, tol=1e-9), scheme
            # the last step's y, from the state one step earlier in the same epoch
            earlier = run_solver(p, SolverConfig(scheme=scheme, max_iter=39)).state
            assert run.status == "max_iter" and run.records[-1].epoch == run.records[-2].epoch
            alpha = run.records[-1].alpha
            y = (earlier.x + alpha * earlier.v) / (1.0 + alpha)
            assert box.contains(y, tol=1e-9), scheme


def test_membership_implicit_prox_route():
    box = apd.Box(np.zeros(2), np.ones(2))
    p = apd.ProblemInstance(apd.ZeroObjective(2), apd.ZeroProx(box),
                            apd.MatrixConstraint([[1.0, 2.0]], [0.9]))
    run = run_solver(p, SolverConfig(scheme="implicit", alpha=1.0, max_iter=15))
    assert box.contains(run.state.x, tol=1e-8)
    assert run.records[-1].feasibility <= 1e-3


def test_composite_runs_contract(qp1):
    # horizons keep theta well above the floating-point floor: by then the
    # strongly convex run has contracted E by ~1e9 already
    for ridge, fb_iters in ((0.0, 120), (0.5, 40)):
        p, sp = planted_lasso(21, ridge=ridge)
        run = plain_run(p, SolverConfig(scheme="ex_apdfb", max_iter=300,
                                        reference=sp))
        assert not contraction_violations(run.records)
        run_fb = plain_run(p, SolverConfig(scheme="semi_apdfb",
                                           max_iter=fb_iters, reference=sp))
        assert not contraction_violations(run_fb.records)


def test_exact_subproblem_names_a_non_finite_right_side(qp1):
    # a NaN multiplier stops the step instead of running on through the solve
    tall = apd.ProblemInstance(apd.QuadraticObjective(np.ones(1)), apd.ZeroProx(),
                               apd.MatrixConstraint([[1.0], [2.0]], [1.0, 2.0]))
    for problem in (qp1, tall):
        state = IterateState(np.zeros(problem.dim), np.zeros(problem.dim),
                             np.full(problem.constraint.rows, np.nan),
                             ScalingState(1.0, 1.0))
        for step in (implicit_apd_step, semi_apdfb_step):
            with pytest.raises(InnerSolveError, match="not finite") as info:
                step(state, RunContext(problem), 1.0)
            assert np.isnan(info.value.residual)


# ---------------------------------------------------------------------------
# restarts and the precision floor
# ---------------------------------------------------------------------------

def random_qp(seed, n=40, m=10):
    """Diagonal QP over the whole space; its reference saddle is exact."""
    rng = np.random.default_rng(seed)
    amat = rng.standard_normal((m, n))
    return apd.ProblemInstance(
        apd.QuadraticObjective(rng.uniform(0.1, 2.0, n), rng.standard_normal(n)),
        apd.ZeroProx(), apd.MatrixConstraint(amat, rng.standard_normal(m)))


def gap_plus_feasibility(problem, state, reference):
    obj_gap, feas, _ = residual_metrics(problem, state.x, state.lam, reference)
    return obj_gap + feas


def test_precision_floor_status(qp1):
    # every step of this huge implicit step leaves theta below the restart
    # threshold, so every step ends an epoch; the error reaches rounding
    # level at once and the run stops as soon as an epoch end fails to improve
    run = run_solver(qp1, SolverConfig(scheme="implicit", alpha=1e6, max_iter=100))
    assert run.status == "precision_floor"
    assert len(run.records) < 100  # retired well before max_iter
    assert [rec.epoch for rec in run.records] == [0] + list(range(len(run.records) - 1))
    errors = [rec.obj_gap + rec.feasibility for rec in run.records[1:]]
    assert errors[-1] >= min(errors[:-1])
    assert gap_plus_feasibility(qp1, run.state, run.reference) == min(errors)


# derandomized: a rare draw converges slowly (planted_lasso(14655, 0.5) with
# ex_apdfb needs 21 003 iterations to 1e-8), which would make the suite's
# time and outcome depend on the run
@pytest.mark.parametrize("scheme, lasso", [(scheme, False) for scheme in SCHEMES]
                         + [("semi_apdfb", True), ("ex_apdfb", True)])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), ridge=st.sampled_from([0.0, 0.5]))
def test_every_scheme_far_past_convergence_ends_near_its_best(scheme, lasso, seed, ridge):
    # a random QP for every scheme; a planted lasso for the two schemes with
    # a route for a quadratic plus an l1 term
    if lasso:
        problem, reference = planted_lasso(seed, ridge=ridge)
    else:
        problem = random_qp(seed)
        reference = apd.solve_reference_saddle(problem)
    converged = run_solver(problem, SolverConfig(scheme, max_iter=20000, stop_tol=1e-8,
                                                 reference=reference))
    assert converged.status == "converged"
    run = run_solver(problem, SolverConfig(scheme, max_iter=5 * (len(converged.records) - 1),
                                           reference=reference))
    best = min(rec.obj_gap + rec.feasibility for rec in run.records)
    assert gap_plus_feasibility(problem, run.state, reference) <= 10 * best
    assert audit_records(run.records).contraction_violations == 0
    assert all(rec.theta >= _RESTART_THETA / (1.0 + rec.alpha) for rec in run.records)


@pytest.mark.parametrize("seed", [101, 102])
def test_basis_pursuit_implicit_converges(seed):
    # the composite benchmark's basis pursuit: through semi-smooth Newton,
    # the unrestarted scheme's subproblem failed near theta = 4e-6
    rng = np.random.default_rng(seed)
    n, m = 400, 100
    amat = rng.standard_normal((m, n))
    amat /= np.linalg.norm(amat, 2)
    planted = np.zeros(n)
    planted[rng.choice(n, size=10, replace=False)] = rng.standard_normal(10)
    problem = apd.ProblemInstance(apd.ZeroObjective(n), apd.L1Prox(1.0),
                                  apd.MatrixConstraint(amat, amat @ planted))
    run = run_solver(problem, SolverConfig("implicit", max_iter=30000, stop_tol=1e-5))
    assert run.status == "converged"
    assert sum(apd.kkt_residual(problem, run.state.x, run.state.lam)) <= 1e-5


@pytest.mark.parametrize("seed", range(5))
def test_boxed_basis_pursuit_implicit_converges(seed):
    # an l1 prox over a box: the line search of semi-smooth Newton needs a
    # merit built from g's prox and value alone, as the l1 conjugate over a
    # box has no closed form
    rng = np.random.default_rng(seed)
    n, m = 120, 30
    amat = rng.standard_normal((m, n))
    amat /= np.linalg.norm(amat, 2)
    planted = np.zeros(n)
    planted[rng.choice(n, size=5, replace=False)] = rng.standard_normal(5)
    box = apd.Box(-5 * np.ones(n), 5 * np.ones(n))
    problem = apd.ProblemInstance(apd.ZeroObjective(n), apd.L1Prox(1.0, box),
                                  apd.MatrixConstraint(amat, amat @ planted))
    run = run_solver(problem, SolverConfig("implicit", max_iter=5000, stop_tol=1e-6))
    assert run.status == "converged"
    assert sum(apd.kkt_residual(problem, run.state.x, run.state.lam)) <= 1e-6


@pytest.mark.parametrize("scheme", ["semi_apdfb", "implicit"])
def test_multiplier_stays_accurate_far_past_convergence(scheme):
    # without restarts the multiplier update amplifies rounding by 1/theta:
    # |lam - lam*| reached 3.5e119 (semi_apdfb) and inf (implicit) on this QP
    problem = defect2_qp()
    reference = apd.solve_reference_saddle(problem)
    run = run_solver(problem, SolverConfig(scheme, max_iter=400, stop_tol=0.0))
    assert run.status == "precision_floor"
    assert np.linalg.norm(run.state.lam - reference.lambda_star) <= 1e-10


@pytest.mark.parametrize("scheme", ["ex_apdfb", "semi_apdfb"])
@pytest.mark.parametrize("seed", [3, 21, 44])
def test_ridge_free_lasso_reaches_a_tight_tolerance(seed, scheme):
    # mu_beta = 0: gamma decays with theta, so a restart resets it to gamma0;
    # keeping the decayed gamma would shrink every later step
    problem, reference = planted_lasso(seed, ridge=0.0)
    assert problem.smooth.mu == 0
    run = run_solver(problem, SolverConfig(scheme, max_iter=5000, stop_tol=1e-8,
                                           reference=reference))
    assert run.status == "converged"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_table_names_the_mu_beta_of_each_step(scheme):
    p, _ = planted_lasso(3, ridge=0.5)
    problem = p if scheme in ("semi_apdfb", "ex_apdfb") else random_qp(3)
    assert problem.smooth.mu > 0
    entry = SCHEME_TABLE[scheme]
    out = getattr(apd, entry.step)(zeros_state(problem.dim, problem.constraint.rows),
                                   RunContext(problem), 0.5)
    mu_beta = problem.smooth.mu if entry.uses_mu_beta else 0.0
    assert out.scaling == apd.advance_scaling(ScalingState(1.0, 1.0), 0.5, mu_beta)


def test_audit_skips_only_the_pair_across_a_restart():
    def rec(k, epoch, alpha, theta, gamma, lyapunov):
        return IterationRecord(k, epoch, alpha, theta, gamma, 0.0, 0.0, 0.0, lyapunov, 0, 0)

    rule = apd.StepRule("implicit", alpha=1.0)
    # a restart raises E (theta jumps back to 1); inside an epoch E halves
    records = [rec(0, 0, 0.0, 1.0, 1.0, 8.0), rec(1, 0, 1.0, 0.5, 0.5, 4.0),
               rec(2, 1, 1.0, 0.5, 0.5, 6.0), rec(3, 1, 1.0, 0.25, 0.25, 3.0)]
    report = audit_records(records, rule)
    assert (report.checked, report.total) == (2, 0)
    records[3] = rec(3, 1, 1.0, 0.25, 0.25, 3.5)  # inside the epoch: counted
    assert audit_records(records, rule).contraction_violations == 1
    records[2] = rec(2, 1, 1.0, 0.75, 0.5, 6.0)  # theta above 2^-1 at k = 1 of its epoch
    assert audit_records(records, rule).theta_bound_violations == 1


# ---------------------------------------------------------------------------
# one residual per iterate: operation counts and bit-identity of the run loop
# ---------------------------------------------------------------------------

def counting_lasso():
    p, _ = planted_lasso(3, ridge=0.5)
    smooth = CountingQuadratic(p.smooth.dense, p.smooth.linear, mu=p.smooth.mu,
                               lip=p.smooth.lip)
    return apd.ProblemInstance(smooth, p.nonsmooth, CountingConstraint(p.constraint))


def box_qp(counting=False, bounded=True):
    """Diagonal QP with 4 rows and 12 columns, over a box or the whole space."""
    rng = np.random.default_rng(4)
    n, m = 12, 4
    amat = rng.standard_normal((m, n))
    constraint = apd.MatrixConstraint(amat, amat @ rng.uniform(-0.5, 0.5, n))
    smooth_type = CountingQuadratic if counting else apd.QuadraticObjective
    feasible_set = apd.Box(-np.ones(n), np.ones(n)) if bounded else apd.RealSpace()
    return apd.ProblemInstance(smooth_type(rng.uniform(0.5, 2.0, n), rng.standard_normal(n)),
                               apd.ZeroProx(feasible_set),
                               CountingConstraint(constraint) if counting else constraint)


@pytest.mark.parametrize("scheme, make, per_iter", [
    ("ex_apdfb", counting_lasso, (2, 1, 1)),
    ("semi_apd", lambda: box_qp(counting=True), (2, 1, 0)),
    ("implicit", lambda: box_qp(counting=True, bounded=False), (2, 2, 0)),
    ("semi_apdfb", lambda: box_qp(counting=True, bounded=False), (2, 1, 1)),
], ids=["ex_apdfb", "semi_apd", "implicit", "semi_apdfb"])
def test_run_loop_operation_counts(scheme, make, per_iter):
    # below the tolerance only the stop test's stationarity would add work;
    # the whole-space QP has a reference, whose solve and values at x* are
    # formed once per run and cancel in the difference of the two runs, and
    # its restarts (implicit's after steps 7 and 14 at alpha = 1, semi_apdfb's
    # after step 10; at its derived 49 implicit converges before step 15)
    # reuse the residual the context holds
    tol = 1e-12
    counts = []
    for iters in (5, 15):
        problem = make()
        run = run_solver(problem, SolverConfig(scheme=scheme, max_iter=iters, stop_tol=tol,
                                               alpha=1.0))
        assert (run.reference is None) == (not problem.is_smooth_unconstrained)
        assert run.status == "max_iter"
        assert min(rec.feasibility for rec in run.records) > tol
        constraint = problem.constraint
        counts.append(np.array([constraint.applies, constraint.adjoints,
                                problem.smooth.grads]))
    np.testing.assert_array_equal((counts[1] - counts[0]) / 10, per_iter)


def _fields(rec):
    return tuple(None if value != value else value for value in dataclasses.astuple(rec))


def loop_by_hand(problem, config, restarts=True):
    """``run_solver`` written out with the public pieces: every step runs in
    a fresh :class:`RunContext`, which holds no residual or system, and the
    diagnostics and the KKT residual are formed from scratch on every
    iteration. Without ``restarts`` it is the paper's scheme run from a
    single start: one epoch and no precision floor."""
    step = getattr(apd, SCHEME_TABLE[config.scheme].step)
    reference = config.reference
    if reference is None:
        try:
            reference = apd.solve_reference_saddle(problem)
        except apd.NoReferenceError:
            reference = None
    rule = make_step_rule(problem, config)
    state = initial_state(problem, config)
    records = []
    epoch = 0
    best, best_state, best_end = np.inf, state, np.inf
    for k in range(config.max_iter + 1):
        alpha = 0.0
        ctx = RunContext(problem)
        if k > 0:
            if restarts and state.scaling.theta < _RESTART_THETA:
                epoch += 1
                state = IterateState(state.x, state.x, state.lam, restart_scaling(
                    config.scheme, problem.smooth.mu, state.scaling.gamma, config.gamma0))
            alpha = apd.step_size(rule, state.scaling)
            state = step(state, ctx, alpha)
        obj_gap, feas, lgap = residual_metrics(problem, state.x, state.lam, reference)
        lyap = (discrete_lyapunov(state, problem, reference)
                if reference is not None else np.nan)
        records.append(IterationRecord(k, epoch, alpha, state.scaling.theta,
                                       state.scaling.gamma, obj_gap, feas, lgap,
                                       lyap, ctx.inner_iters, 0))
        if k > 0:
            epoch_end = restarts and state.scaling.theta < _RESTART_THETA
            total = (obj_gap + feas if reference is not None
                     else sum(apd.kkt_residual(problem, state.x, state.lam)))
            # without a reference the run measures only where it must
            measured = (reference is not None or epoch_end
                        or 0 < config.stop_tol and feas <= config.stop_tol)
            if measured and total < best:
                best, best_state = total, state
            if config.stop_tol > 0 and total <= config.stop_tol:
                return records, state, "converged"
            if epoch_end:
                if not total < best_end:
                    return records, best_state, "precision_floor"
                best_end = total
    return records, state, "max_iter"


@pytest.mark.parametrize("alpha, per_epoch, dense", [(1.0, 7, False), (0.5, 12, False),
                                                   (1.0, 7, True)],
                         ids=["alpha1", "alpha0.5", "alpha1-dense"])
def test_implicit_run_builds_each_step_system_once(monkeypatch, alpha, per_epoch, dense):
    # every epoch restarts from the same scaling pair with the same alpha, so
    # it repeats the (1/eta, theta') pairs of the first: the run factors one
    # system per step of an epoch, ceil(ln(1/c)/ln(1 + alpha)) of them
    builds = []

    class CountingSystem(apd.solvers.RangeSpaceSystem):
        def __init__(self, constraint, quad, shift, theta):
            builds.append((shift, theta))
            super().__init__(constraint, quad, shift, theta)

    monkeypatch.setattr(apd.solvers, "RangeSpaceSystem", CountingSystem)
    problem = random_qp(1)
    if dense:
        problem = apd.ProblemInstance(
            apd.QuadraticObjective(np.diag(problem.smooth.diag), problem.smooth.linear),
            problem.nonsmooth, problem.constraint)
    config = SolverConfig(scheme="implicit", alpha=alpha, max_iter=40)
    run = run_solver(problem, config)
    assert run.status == "max_iter" and run.records[-1].epoch >= 3
    assert per_epoch == np.ceil(np.log(1 / _RESTART_THETA) / np.log(1 + alpha))
    assert len(builds) == len(set(builds)) == per_epoch
    # a fresh context per step holds no system: every step builds its own
    records, state, status = loop_by_hand(problem, config)
    assert len(builds) == per_epoch + config.max_iter
    assert status == run.status
    assert [_fields(r) for r in run.records] == [_fields(r) for r in records]
    for got, want in ((run.state.x, state.x), (run.state.v, state.v),
                      (run.state.lam, state.lam)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("scheme", ["implicit", "semi_apd", "ex_apdfb"])
def test_a_reused_context_recomputes_the_residual_of_a_replaced_point(scheme):
    # the context finds a residual by its point: the state it stepped to
    # reuses the held one, and a state whose v (x for the implicit step) was
    # replaced has it formed afresh, bit for bit as in a fresh context
    problem = box_qp(counting=True, bounded=scheme != "implicit")
    constraint = problem.constraint
    step = getattr(apd, SCHEME_TABLE[scheme].step)
    ctx = RunContext(problem)
    state = step(initial_state(problem, SolverConfig(scheme)), ctx, 0.5)

    def applies_of(state, ctx):
        before = constraint.applies
        out = step(state, ctx, 0.5)
        return constraint.applies - before, out

    per_step, _ = applies_of(state, RunContext(problem))
    assert applies_of(state, ctx)[0] == per_step - 1
    name = "x" if scheme == "implicit" else "v"
    replaced = dataclasses.replace(state, **{name: getattr(state, name) + 0.25})
    (reused_applies, reused), (_, fresh) = (applies_of(replaced, ctx),
                                            applies_of(replaced, RunContext(problem)))
    assert reused_applies == per_step
    for got, want in ((reused.x, fresh.x), (reused.v, fresh.v), (reused.lam, fresh.lam)):
        assert np.array_equal(got, want)


def test_returned_runs_reach_no_factored_system(qp1):
    # the run context, with the implicit step systems and the constraint that
    # holds the Gram factor, lives only for the run, also when the run
    # returns its best iterate at the precision floor
    graph = ddo.random_geometric_graph(12, 0.5, 3)
    runs = [run_solver(random_qp(1), SolverConfig("implicit", max_iter=10)),
            run_solver(qp1, SolverConfig(scheme="implicit", alpha=1e6, max_iter=100)),
            ddo.run_ddo(ddo.build_ddo_problem(graph, 2, "logistic", seed=0), "apd", 5000)]
    assert [run.status for run in runs] == ["max_iter", "precision_floor", "precision_floor"]
    for run in runs:
        held = [obj for obj in reachable(run) if isinstance(
            obj, (RunContext, model.RangeSpaceSystem, model.LinearConstraint))]
        assert held == []


def l1_basis_pursuit(seed, n=30, m=8):
    """Basis pursuit with an l1 prox: the implicit subproblem takes semi-smooth Newton."""
    rng = np.random.default_rng(seed)
    amat = rng.standard_normal((m, n))
    amat /= np.linalg.norm(amat, 2)
    planted = np.zeros(n)
    planted[rng.choice(n, size=3, replace=False)] = rng.standard_normal(3)
    return apd.ProblemInstance(apd.ZeroObjective(n), apd.L1Prox(1.0),
                               apd.MatrixConstraint(amat, amat @ planted))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_implicit_range_space_step_leaves_two_step_epochs(seed):
    # 1/(1 + alpha) = 2c: theta goes 1, 0.02, 4e-4, so each epoch is two
    # steps and the audit keeps one contraction per epoch to check
    problem = random_qp(seed)
    config = SolverConfig("implicit", max_iter=200, stop_tol=1e-10)
    rule = make_step_rule(problem, config)
    assert rule.alpha == 1 / (2 * _RESTART_THETA) - 1 == 49
    run = run_solver(problem, config)
    assert run.status == "converged"
    steps = run.records[1:]
    assert all(rec.alpha == 49 for rec in steps)
    lengths = np.bincount([rec.epoch for rec in steps])
    assert np.all(lengths[:-1] == 2) and lengths[-1] in (1, 2)
    assert [rec.theta for rec in steps[:2]] == [1 / 50, 1 / 50 / 50]
    report = audit_records(run.records, rule, problem.smooth.mu)
    assert report.total == 0
    assert report.checked > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_implicit_newton_route_keeps_the_unit_step(seed):
    problem = l1_basis_pursuit(seed)
    derived = run_solver(problem, SolverConfig("implicit", max_iter=3000, stop_tol=1e-6))
    unit = run_solver(problem, SolverConfig("implicit", max_iter=3000, stop_tol=1e-6,
                                            alpha=1.0))
    assert derived.status == unit.status == "converged"
    assert all(rec.alpha == 1.0 for rec in derived.records[1:])
    assert [_fields(r) for r in derived.records] == [_fields(r) for r in unit.records]
    for got, want in ((derived.state.x, unit.state.x), (derived.state.v, unit.state.v),
                      (derived.state.lam, unit.state.lam)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("route", ["range_space", "newton"])
def test_explicit_alpha_overrides_the_derived_step(route):
    problem = random_qp(1) if route == "range_space" else l1_basis_pursuit(0)
    derived = make_step_rule(problem, SolverConfig("implicit")).alpha
    assert derived == (49.0 if route == "range_space" else 1.0)
    config = SolverConfig("implicit", alpha=3.0, max_iter=5)
    assert make_step_rule(problem, config).alpha == 3.0
    assert [rec.alpha for rec in run_solver(problem, config).records[1:]] == [3.0] * 5


@pytest.mark.parametrize("case", ["qp1-implicit", "qp1-semi_apd", "qp1-semi_apdfb",
                                  "qp1-ex_apdfb", "lasso-semi_apdfb", "lasso-ex_apdfb",
                                  "box-semi_apd", "box-semi_apdfb", "diag-implicit",
                                  "bp-implicit"])
def test_run_loop_matches_loop_by_hand(case, qp1):
    name, scheme = case.split("-")
    if name == "qp1":
        problem = qp1
    elif name == "lasso":
        problem = planted_lasso(3, ridge=0.5)[0]
    elif name == "box":
        problem = box_qp()
    elif name == "diag":
        problem = box_qp(bounded=False)
    else:
        amat = np.random.default_rng(5).standard_normal((3, 8))
        problem = apd.ProblemInstance(
            apd.ZeroObjective(8), apd.L1Prox(1.0),
            apd.MatrixConstraint(amat, amat @ np.eye(8)[2]))
    config = SolverConfig(scheme=scheme, max_iter=3000, stop_tol=1e-4)
    run = run_solver(problem, config)
    records, state, status = loop_by_hand(problem, config)
    assert run.status == status == "converged"
    assert [_fields(r) for r in run.records] == [_fields(r) for r in records]
    for got, want in ((run.state.x, state.x), (run.state.v, state.v),
                      (run.state.lam, state.lam)):
        assert np.array_equal(got, want)
