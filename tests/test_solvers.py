import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from conftest import (
    CountingConstraint,
    CountingQuadratic,
    contraction_violations,
    iterate,
    planted_lasso,
    reachable,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import apd
from apd import ddo, model, solvers
from apd.harness import audit_records
from apd.inner import InnerSolveError
from apd.schedule import SCHEME_TABLE, SCHEMES, ScalingState, restart_scaling
from apd.solvers import (
    _POLISH_SOLVES,
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
    polish_face,
    residual_metrics,
    run_solver,
    semi_apd_step,
    semi_apdfb_step,
)


def zeros_state(problem, gamma0=1.0):
    return iterate(problem, np.zeros(problem.dim), np.zeros(problem.dim),
                   np.zeros(problem.constraint.rows), ScalingState(1.0, gamma0))


def saddle_state(problem, saddle, gamma0=1.0):
    return iterate(problem, saddle.x_star.copy(), saddle.x_star.copy(),
                   saddle.lambda_star.copy(), ScalingState(1.0, gamma0))


@contextlib.contextmanager
def unpolished():
    """Runs inside take the scheme's own iterates to the end: no polish ends them."""
    with mock.patch.object(solvers, "polish_face", lambda *args, **kwargs: None):
        yield


# ---------------------------------------------------------------------------
# implicit scheme
# ---------------------------------------------------------------------------

def test_implicit_step_example(qp1):
    out = implicit_apd_step(zeros_state(qp1), RunContext(qp1), 1.0)
    np.testing.assert_allclose(out.x, np.full(2, 1 / 7), atol=1e-14)
    np.testing.assert_allclose(out.v, np.full(2, 2 / 7), atol=1e-14)
    np.testing.assert_allclose(out.lam, [-3 / 7], atol=1e-14)
    invariant = out.lam - qp1.constraint.residual(out.x) / out.scaling.theta
    np.testing.assert_allclose(invariant, [1.0], atol=1e-13)


def test_implicit_fixed_point(qp1, qp1_saddle):
    out = implicit_apd_step(saddle_state(qp1, qp1_saddle), RunContext(qp1), 1.0)
    np.testing.assert_allclose(out.x, qp1_saddle.x_star, atol=1e-12)
    np.testing.assert_allclose(out.v, qp1_saddle.x_star, atol=1e-12)
    np.testing.assert_allclose(out.lam, qp1_saddle.lambda_star, atol=1e-12)


def test_implicit_dual_route_matches_dense_on_projection_problem():
    # h = 0, g = indicator of a box: the subproblem goes through Newton
    box = apd.Box(np.full(3, -0.2), np.full(3, 2.0))
    constraint = apd.MatrixConstraint([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                                      [1.0, 1.2])
    p = apd.ProblemInstance(apd.ZeroObjective(3), apd.ZeroProx(box), constraint)
    state = zeros_state(p)
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
    out = implicit_apd_step(iterate(p, x, v, lam, ScalingState(theta, gamma)),
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
        implicit_apd_step(zeros_state(p), RunContext(p), 1.0)


# ---------------------------------------------------------------------------
# semi-implicit scheme
# ---------------------------------------------------------------------------

def test_semi_apd_step_example(qp1):
    alpha = 1 / np.sqrt(2)
    out = semi_apd_step(zeros_state(qp1), RunContext(qp1), alpha)
    np.testing.assert_allclose(out.x, np.full(2, 0.1213203), atol=1e-6)
    lam_hat = alpha * (qp1.constraint.apply(np.zeros(2)) - qp1.constraint.rhs)
    np.testing.assert_allclose(lam_hat, [-0.7071067], atol=1e-6)


def test_semi_apd_fixed_point(qp1, qp1_saddle):
    out = semi_apd_step(saddle_state(qp1, qp1_saddle), RunContext(qp1), 0.5)
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
    }[name]


@pytest.mark.parametrize("name", ["diagonal", "dense", "diagonal-box", "l1", "dense-box",
                                  "zero-box"])
def test_semi_apd_prox_matches_a_direct_minimizer(name):
    smooth, nonsmooth, argmin = _prox_case(name)
    rng = np.random.default_rng(6)
    amat, rhs = rng.standard_normal((2, 4)), rng.standard_normal(2)
    p = apd.ProblemInstance(smooth, nonsmooth, apd.MatrixConstraint(amat, rhs))
    x, v, lam = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(2)
    theta, gamma, alpha = 0.6, 0.8, 0.5
    state = iterate(p, x, v, lam, ScalingState(theta, gamma))
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
    out = semi_apdfb_step(zeros_state(qp1), RunContext(qp1), 1.0)
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
        out = semi_apdfb_step(iterate(p, x, v, lam, ScalingState(theta, gamma)),
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
    out = semi_apdfb_step(saddle_state(qp1, qp1_saddle), RunContext(qp1), 1.0)
    np.testing.assert_allclose(out.x, qp1_saddle.x_star, atol=1e-11)
    np.testing.assert_allclose(out.v, qp1_saddle.x_star, atol=1e-11)
    np.testing.assert_allclose(out.lam, qp1_saddle.lambda_star, atol=1e-11)


def test_semi_apdfb_newton_route_matches_grid():
    # scalar l1 toy: n = m = 1, A = [1], b = 0
    constraint = apd.MatrixConstraint([[1.0]], [0.0])
    p = apd.ProblemInstance(apd.QuadraticObjective(np.ones(1)), apd.L1Prox(0.3),
                            constraint)
    state = iterate(p, np.array([0.9]), np.array([0.9]), np.array([0.1]),
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
    out = ex_apdfb_step(zeros_state(qp1), RunContext(qp1), alpha)
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
    out = ex_apdfb_step(saddle_state(qp1, qp1_saddle), RunContext(qp1), 0.4)
    np.testing.assert_allclose(out.x, qp1_saddle.x_star, atol=1e-13)
    np.testing.assert_allclose(out.lam, qp1_saddle.lambda_star, atol=1e-13)


def test_ex_apdfb_reduces_to_accelerated_forward_backward():
    # zero constraint: the multiplier freezes and the step is plain FB
    constraint = apd.MatrixConstraint(np.zeros((1, 2)), np.zeros(1), op_norm=0.0)
    p = apd.ProblemInstance(apd.QuadraticObjective(np.array([1.0, 2.0])),
                            apd.L1Prox(0.2), constraint)
    state = iterate(p, np.array([0.4, -0.7]), np.array([0.1, 0.2]),
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
    assert discrete_lyapunov(saddle_state(qp1, qp1_saddle), qp1, qp1_saddle) \
        == pytest.approx(0.0)
    assert discrete_lyapunov(zeros_state(qp1), qp1, qp1_saddle) == pytest.approx(0.625)
    stepped = implicit_apd_step(zeros_state(qp1), RunContext(qp1), 1.0)
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


def unit_qp(bounded, seed=7, n=40, m=10):
    """Diagonal QP with a unit-norm ``A``, over ``Box(-1, 1)`` or the whole space."""
    rng = np.random.default_rng(seed)
    amat = rng.standard_normal((m, n))
    amat /= np.linalg.norm(amat, 2)
    return apd.ProblemInstance(
        apd.QuadraticObjective(rng.uniform(0.1, 2.0, n), rng.standard_normal(n)),
        apd.ZeroProx(apd.Box(-np.ones(n), np.ones(n)) if bounded else apd.Box()),
        apd.MatrixConstraint(amat, amat @ rng.uniform(-0.5, 0.5, n)))


EPOCH_INVARIANT_CASES = {
    "implicit-range-space": ("implicit", lambda: unit_qp(False)),
    "implicit-newton": ("implicit", lambda: l1_basis_pursuit(7, n=40, m=10)),
    "semi_apdfb-gram": ("semi_apdfb", lambda: unit_qp(False)),
    "semi_apdfb-lasso": ("semi_apdfb", lambda: planted_lasso(101, ridge=0.5)[0]),
    "semi_apdfb-box": ("semi_apdfb", lambda: unit_qp(True)),
    "semi_apd-box": ("semi_apd", lambda: unit_qp(True)),
    "semi_apd-whole-space": ("semi_apd", lambda: unit_qp(False)),
    "ex_apdfb-lasso": ("ex_apdfb", lambda: planted_lasso(101, ridge=0.5)[0]),
    "ex_apdfb-qp": ("ex_apdfb", lambda: unit_qp(False)),
}


@pytest.mark.parametrize("scheme, make", EPOCH_INVARIANT_CASES.values(),
                         ids=EPOCH_INVARIANT_CASES.keys())
def test_every_step_keeps_the_epoch_invariant(scheme, make):
    # c = lam - (A x - b)/theta is constant within an epoch: implicit keeps it
    # by construction, the others because x' = (x + alpha v')/(1 + alpha),
    # theta' = theta/(1 + alpha) and lam' = lam + (alpha/theta)(A v' - b);
    # a restart starts a new c. Runs the epochs of run_solver with no polish,
    # 300 steps; the worst drift measured was 1.3e-13 (Gram route)
    problem = make()
    config = SolverConfig(scheme)
    rule, ctx = make_step_rule(problem, config), RunContext(problem)
    state = initial_state(problem, config)
    epochs = solvers.Epochs(scheme, problem.smooth.mu, config.gamma0, state)
    step = getattr(apd, SCHEME_TABLE[scheme].step)

    def invariant(state):
        return state.lam - problem.constraint.residual(state.x) / state.scaling.theta

    for _ in range(300):
        state = epochs.begin(state)
        before = invariant(state)
        state = step(state, ctx, apd.step_size(rule, state.scaling))
        drift = np.linalg.norm(invariant(state) - before)
        assert drift <= 1e-11 * max(1.0, np.linalg.norm(before))
    assert epochs.epoch >= 2


def run_with_points(problem, config):
    """``run_solver`` without a polish, and the ``x`` of each of its records."""
    name = SCHEME_TABLE[config.scheme].step
    step, points = getattr(solvers, name), [initial_state(problem, config).x]

    def stepped(state, ctx, alpha):
        out = step(state, ctx, alpha)
        points.append(out.x)
        return out

    with unpolished(), mock.patch.object(solvers, name, stepped):
        return run_solver(problem, config), points


# (scheme, () -> (problem, reference or None)): the nine step routes of the
# epoch invariant, and the far-past QP on which a recurrence once recorded a
# feasibility of 8.3e-18, below anything a fresh A x - b shows
TRUE_RESIDUAL_CASES = {
    **{name: (scheme, lambda make=make: (make(), None))
       for name, (scheme, make) in EPOCH_INVARIANT_CASES.items()},
    **{f"far-{scheme}-qp": (scheme, lambda: (random_qp(1), None)) for scheme in SCHEMES},
    **{f"far-{scheme}-lasso": (scheme, lambda: planted_lasso(3, ridge=0.5))
       for scheme in ("semi_apdfb", "ex_apdfb")},
}


@pytest.mark.parametrize("stop_tol", [0.0, 1e-8])
@pytest.mark.parametrize("scheme, make", TRUE_RESIDUAL_CASES.values(),
                         ids=TRUE_RESIDUAL_CASES.keys())
def test_every_record_holds_a_true_residual(scheme, make, stop_tol):
    # a step carries A x - b as a combination of residuals it has formed;
    # the record's |A x - b| is within rounding of a fresh one, and equal to
    # it bit for bit wherever it can decide the stop, the precision floor or
    # the best state: at an epoch end and at or below stop_tol
    problem, reference = make()
    if reference is None and problem.is_smooth_unconstrained and problem.smooth.is_quadratic:
        reference = apd.solve_reference_saddle(problem)
    config = SolverConfig(scheme, max_iter=300, stop_tol=stop_tol, reference=reference)
    if stop_tol == 0 and reference is not None:
        # far past convergence, as test_every_scheme_far_past_convergence_ends_near_its_best
        converged, _ = run_with_points(problem, dataclasses.replace(
            config, max_iter=20000, stop_tol=1e-8))
        config.max_iter = 5 * (len(converged.records) - 1)
    run, points = run_with_points(problem, config)
    constraint, eps = problem.constraint, np.finfo(float).eps
    assert len(points) == len(run.records)
    for rec, x in zip(run.records, points):
        fresh = np.linalg.norm(constraint.residual(x))
        rounding = 1e3 * eps * (constraint.op_norm * np.linalg.norm(x)
                                + np.linalg.norm(constraint.rhs))
        assert abs(rec.feasibility - fresh) <= rounding, rec.k
        if rec.theta < _RESTART_THETA or rec.feasibility <= stop_tol:
            assert rec.feasibility == fresh, rec.k


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


def test_run_solver_takes_a_numpy_integer_step_cap(qp1):
    run = run_solver(qp1, SolverConfig("semi_apd", max_iter=np.int32(4)))
    assert [rec.k for rec in run.records] == list(range(5))


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
        state = iterate(problem, np.zeros(problem.dim), np.zeros(problem.dim),
                        np.full(problem.constraint.rows, np.nan), ScalingState(1.0, 1.0))
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
    with unpolished():  # the horizon is the scheme's own
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
    out = getattr(apd, entry.step)(zeros_state(problem), RunContext(problem), 0.5)
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
    feasible_set = apd.Box(-np.ones(n), np.ones(n)) if bounded else apd.Box()
    return apd.ProblemInstance(smooth_type(rng.uniform(0.5, 2.0, n), rng.standard_normal(n)),
                               apd.ZeroProx(feasible_set),
                               CountingConstraint(constraint) if counting else constraint)


@pytest.mark.parametrize("scheme, make, per_iter", [
    ("ex_apdfb", counting_lasso, (1, 1, 1)),
    ("semi_apd", lambda: box_qp(counting=True), (1, 1, 0)),
    ("implicit", lambda: box_qp(counting=True, bounded=False), (2, 2, 0)),
    ("semi_apdfb", lambda: box_qp(counting=True, bounded=False), (1, 1, 1)),
], ids=["ex_apdfb", "semi_apd", "implicit", "semi_apdfb"])
def test_run_loop_operation_counts(scheme, make, per_iter):
    # below the tolerance only the stop test's stationarity would add work;
    # the whole-space QP has a reference, whose solve and values at x* are
    # formed once per run and cancel in the difference of the two runs; a
    # step's residuals travel with the iterate, and the run forms A x - b
    # afresh only after a step that ends an epoch (step 10 of semi_apdfb),
    # as no carried |A x - b| nears the tolerance; implicit, whose epochs end
    # at steps 7 and 14 at alpha = 1 (at its derived 49 it converges before
    # step 15), forms A x - b in its own step and is never refreshed
    # (the lasso and the box QP would end on a polish, which is no step: the
    # runs take the scheme's own iterates)
    tol = 1e-12
    counts = []
    for iters in (5, 15):
        problem = make()
        with unpolished():
            run = run_solver(problem, SolverConfig(scheme=scheme, max_iter=iters,
                                                   stop_tol=tol, alpha=1.0))
        assert (run.reference is None) == (not problem.is_smooth_unconstrained)
        assert run.status == "max_iter"
        assert min(rec.feasibility for rec in run.records) > tol
        constraint = problem.constraint
        counts.append(np.array([constraint.applies, constraint.adjoints,
                                problem.smooth.grads]))
    ends = sum(rec.theta < _RESTART_THETA for rec in run.records[6:])
    assert ends == {"implicit": 2, "semi_apdfb": 1}.get(scheme, 0)
    # implicit forms A x - b itself, so the run forms it again after no step
    refreshes = 0 if SCHEME_TABLE[scheme].fresh_residual else ends
    np.testing.assert_array_equal((counts[1] - counts[0] - (refreshes, 0, 0)) / 10, per_iter)


def _fields(rec):
    return tuple(None if value != value else value for value in dataclasses.astuple(rec))


def loop_by_hand(problem, config, restarts=True):
    """``run_solver`` written out with the public pieces: every step runs in
    a fresh :class:`RunContext`, which holds no system, and the diagnostics
    and the KKT residual are formed from scratch on every iteration, from
    the residual ``A x - b`` the state carries. That residual is formed
    afresh after a step that ends an epoch or whose carried ``|A x - b|`` is
    within ``max(stop_tol, 1e3 eps (|A| |x| + |b|))``. It reads the face of
    ``g`` at every step and, when ``run_solver`` polishes, runs the chain of
    :func:`~apd.solvers.polish_chain`: :func:`~apd.solvers.polish_face` on
    the face, then on the face of ``g`` at each missing candidate's
    prox-gradient point, until a face repeats, a face is singular or
    ``_POLISH_SOLVES`` solves have run. It ends on the first candidate
    whose :func:`stop_measure` is within ``stop_tol``. Without
    ``restarts`` it is the paper's scheme run from a single start: one
    epoch, no precision floor and no polish."""
    step = getattr(apd, SCHEME_TABLE[config.scheme].step)
    prox_point = SCHEME_TABLE[config.scheme].prox_point
    polishing = (restarts and config.stop_tol > 0 and problem.smooth.is_quadratic
                 and not problem.is_smooth_unconstrained)
    face = failed = None

    def same(face, other):
        return other is not None and all(np.array_equal(a, b) for a, b in zip(face, other))

    reference = config.reference
    if reference is None:
        try:
            reference = apd.solve_reference_saddle(problem)
        except apd.NoReferenceError:
            reference = None
    rule = make_step_rule(problem, config)
    constraint = problem.constraint
    eps = np.finfo(float).eps
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
                    config.scheme, problem.smooth.mu, state.scaling.gamma, config.gamma0),
                    state.r_x, state.r_x)
            alpha = apd.step_size(rule, state.scaling)
            state = step(state, ctx, alpha)
            epoch_end = restarts and state.scaling.theta < _RESTART_THETA
            rounding = (1e3 * eps * constraint.op_norm * np.linalg.norm(state.x)
                        + 1e3 * eps * np.linalg.norm(constraint.rhs))
            if epoch_end or np.linalg.norm(state.r_x) <= max(config.stop_tol, rounding):
                state = dataclasses.replace(state, r_x=constraint.residual(state.x))
        at_x = model.PointValues(problem, state.x, state.r_x)
        obj_gap, feas, lgap = residual_metrics(problem, state.x, state.lam, reference, at_x)
        lyap = (discrete_lyapunov(state, problem, reference, lgap)
                if reference is not None else np.nan)
        records.append(IterationRecord(k, epoch, alpha, state.scaling.theta,
                                       state.scaling.gamma, obj_gap, feas, lgap,
                                       lyap, ctx.inner_iters, 0))
        if k > 0:
            total = (obj_gap + feas if reference is not None
                     else sum(apd.kkt_residual(problem, state.x, state.lam, state.r_x)))
            # without a reference the run measures only where it must
            measured = (reference is not None or epoch_end
                        or 0 < config.stop_tol and feas <= config.stop_tol)
            if measured and total < best:
                best, best_state = total, state
            if config.stop_tol > 0 and total <= config.stop_tol:
                return records, state, "converged"
            if polishing:
                face, previous = problem.nonsmooth.face(getattr(state, prox_point)), face
                if same(face, previous) and not same(face, failed):
                    tried, start, chained = [], state, face
                    for _ in range(_POLISH_SOLVES):
                        polished = polish_face(problem, start, chained)
                        if polished is None:
                            break
                        if stop_measure(problem, polished, reference) <= config.stop_tol:
                            obj_gap, feas, lgap = residual_metrics(problem, polished.x,
                                                                   polished.lam, reference)
                            lyap = (discrete_lyapunov(polished, problem, reference)
                                    if reference is not None else np.nan)
                            records.append(IterationRecord(
                                k + 1, epoch + 1, 0.0, state.scaling.theta,
                                state.scaling.gamma, obj_gap, feas, lgap, lyap, 0, 0))
                            return records, polished, "converged"
                        tried.append(chained)
                        grad = (problem.smooth.gradient(polished.x)
                                + constraint.apply_adjoint(polished.lam))
                        start = polished
                        chained = problem.nonsmooth.face(
                            problem.nonsmooth.prox(1.0, polished.x - grad))
                        if any(same(chained, seen) for seen in tried):
                            break
                    failed = face
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


@pytest.mark.parametrize("prox", ["zero", "l1"])
@pytest.mark.parametrize("scheme", ["implicit", "semi_apd", "ex_apdfb"])
def test_zero_objective_runs_as_the_zero_quadratic(scheme, prox):
    # h = 0 written either way takes the same routes; semi_apdfb is left
    # out because its step needs a positive smoothness constant
    base = l1_basis_pursuit(4)
    nonsmooth = apd.L1Prox(1.0) if prox == "l1" else apd.ZeroProx()
    config = SolverConfig(scheme, max_iter=300, stop_tol=1e-6)
    zero, quadratic = (
        run_solver(apd.ProblemInstance(smooth, nonsmooth, base.constraint), config)
        for smooth in (apd.ZeroObjective(base.dim), apd.QuadraticObjective(np.zeros(base.dim))))
    assert zero.status == quadratic.status
    assert [_fields(r) for r in zero.records] == [_fields(r) for r in quadratic.records]
    for got, want in ((zero.state.x, quadratic.state.x), (zero.state.v, quadratic.state.v),
                      (zero.state.lam, quadratic.state.lam)):
        assert np.array_equal(got, want)


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
    # the last record may close a polish, with alpha = 0
    assert all(rec.alpha == 1.0 for rec in derived.records[1:-1])
    assert derived.records[-1].alpha in (0.0, 1.0)
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
    assert (run.records[-1].alpha == 0) == (name in ("lasso", "box", "bp"))  # a polish
    assert [_fields(r) for r in run.records] == [_fields(r) for r in records]
    for got, want in ((run.state.x, state.x), (run.state.v, state.v),
                      (run.state.lam, state.lam)):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the polish on the face of g
# ---------------------------------------------------------------------------

def stop_measure(problem, state, reference):
    if reference is not None:
        return gap_plus_feasibility(problem, state, reference)
    return sum(apd.kkt_residual(problem, state.x, state.lam))


def boxed_qp(seed, l1=False, n=40, m=10):
    """A diagonal QP over a box with some bounds active; with ``l1``, plus an l1 term."""
    rng = np.random.default_rng(seed)
    amat = rng.standard_normal((m, n))
    box = apd.Box(-np.ones(n), np.ones(n))
    return apd.ProblemInstance(
        apd.QuadraticObjective(rng.uniform(0.1, 2.0, n), 3 * rng.standard_normal(n)),
        apd.L1Prox(0.3, box) if l1 else apd.ZeroProx(box),
        apd.MatrixConstraint(amat, amat @ rng.uniform(-0.5, 0.5, n)))


def stiff_lasso(seed, n=12, m=4):
    """``h = 10 |x|^2 + c'x`` plus an l1 term: ``mu = 20`` above ``gamma0 = 1``,
    so ``gamma`` grows through the first epoch."""
    rng = np.random.default_rng(seed)
    amat = rng.standard_normal((m, n))
    amat /= np.linalg.norm(amat, 2)
    return apd.ProblemInstance(apd.QuadraticObjective(20 * np.ones(n), rng.standard_normal(n)),
                               apd.L1Prox(0.3), apd.MatrixConstraint(amat, rng.standard_normal(m)))


# (problem, reference) by seed. The face solves: a dense Q_FF (lasso; with
# fewer free coordinates than rows in sparse-lasso), Q_FF plus rho A_F'A_F
# (ridge-free), a diagonal (box) and Q = 0 with fewer free coordinates than
# rows (bp)
POLISHED = {
    "lasso": lambda seed: (planted_lasso(seed, ridge=0.5)[0], None),
    "sparse-lasso": lambda seed: (planted_lasso(seed, ridge=0.5, m=20)[0], None),
    "lasso-ref": lambda seed: planted_lasso(seed, ridge=0.5),
    "ridge-free-lasso": lambda seed: (planted_lasso(seed)[0], None),
    "box": lambda seed: (boxed_qp(seed), None),
    "boxed-lasso": lambda seed: (boxed_qp(seed, l1=True), None),
    "bp": lambda seed: (l1_basis_pursuit(seed), None),
}


@pytest.mark.parametrize("kind, scheme", [
    ("lasso", "semi_apdfb"), ("lasso", "ex_apdfb"), ("sparse-lasso", "ex_apdfb"),
    ("lasso-ref", "semi_apdfb"), ("ridge-free-lasso", "ex_apdfb"), ("box", "semi_apd"),
    ("box", "semi_apdfb"), ("boxed-lasso", "semi_apdfb"), ("bp", "implicit"), ("bp", "semi_apd")])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_polished_run_ends_on_a_point_that_meets_its_stop_measure(kind, scheme, seed):
    problem, reference = POLISHED[kind](seed)
    tol = 1e-8
    config = SolverConfig(scheme, max_iter=20000, stop_tol=tol, reference=reference)
    run = run_solver(problem, config)
    with unpolished():
        plain = run_solver(problem, config)
    assert run.status == plain.status == "converged"
    last, before = run.records[-1], run.records[-2]
    assert (last.k, last.epoch, last.alpha) == (before.k + 1, before.epoch + 1, 0.0)
    assert (last.theta, last.gamma) == (before.theta, before.gamma)
    assert run.state.v is run.state.x
    assert stop_measure(problem, run.state, reference) <= tol
    assert last.k <= len(plain.records) - 1
    assert audit_records(run.records, make_step_rule(problem, config),
                         problem.smooth.mu).total == 0


# (A products, A' products, steps, polish candidates) of polished runs on
# boxed_qp(seed), seeds 0 to 5, at stop_tol 1e-8. A candidate takes one A
# product in its face solve (b - A_B x_B) and forms its A x - b once; the
# certified one's record is the closing record. Every candidate's
# feasibility is within the tolerance, so its measure is the KKT sum, whose
# one A' product also forms the prox-gradient point that gives the chain's
# next face. A step takes one A product, and its record none: no step of
# these runs ends an epoch or carries an |A x - b| within the tolerance. The
# first step's A v - b is the start's A x - b. semi_apdfb's counts include
# its Newton solves, which take one A' product per trial point and one A
# product at each full step and each step taken
POLISH_PRODUCTS = {
    "semi_apd": [(54, 35, 17, 18), (48, 33, 19, 14), (84, 59, 35, 24), (83, 52, 22, 30),
                 (48, 35, 23, 12), (46, 32, 19, 13)],
    "semi_apdfb": [(24, 17, 4, 2), (23, 16, 4, 2), (34, 26, 4, 4), (23, 17, 4, 1),
                   (26, 20, 4, 2), (29, 21, 4, 3)],
}


@pytest.mark.parametrize("scheme", sorted(POLISH_PRODUCTS))
def test_a_polish_costs_one_product_with_a_per_candidate(scheme):
    counts = []
    for seed in range(6):
        problem = boxed_qp(seed)
        constraint = CountingConstraint(problem.constraint)
        problem = apd.ProblemInstance(problem.smooth, problem.nonsmooth, constraint)
        tries = []
        with mock.patch.object(solvers, "polish_face",
                               lambda *args: tries.append(args) or polish_face(*args)):
            run = run_solver(problem, SolverConfig(scheme, max_iter=20000, stop_tol=1e-8))
        assert run.status == "converged" and run.records[-1].alpha == 0
        counts.append((constraint.applies, constraint.adjoints, len(run.records) - 2,
                       len(tries)))
    assert counts == POLISH_PRODUCTS[scheme]
    if scheme == "semi_apd":  # one A and one A' product per step, no inner solve
        for applies, adjoints, steps, candidates in counts:
            assert (applies, adjoints) == (1 + steps + 2 * candidates, steps + candidates)


@pytest.mark.parametrize("seed", range(6))
def test_a_face_one_bound_off_certifies_within_one_chain(seed):
    # the saddle face of a boxed QP with its free coordinate nearest to a
    # bound pinned to that bound, a face one bound off as the face read from
    # an iterate drifts, misses; the prox-gradient point of its candidate
    # frees that coordinate again, and a later candidate of the chain certifies
    problem, tol = boxed_qp(seed), 1e-8
    run = run_solver(problem, SolverConfig("semi_apdfb", max_iter=20000, stop_tol=1e-10))
    free, fixed, slope = problem.nonsmooth.face(run.state.x)
    assert np.any(~free) and np.count_nonzero(free) > problem.constraint.rows
    pinned = np.flatnonzero(free)[np.argmax(np.abs(run.state.x[free]))]
    free, fixed = free.copy(), fixed.copy()
    free[pinned], fixed[pinned] = False, np.sign(run.state.x[pinned])
    start = iterate(problem, run.state.x, run.state.x, run.state.lam, ScalingState(0.5, 1.0))

    def measured(candidate):
        feas, stat, point = apd.kkt_residual(problem, candidate.x, candidate.lam,
                                             with_point=True)
        return None, feas + stat, point

    tries = []
    with mock.patch.object(solvers, "polish_face",
                           lambda *args: tries.append(args) or polish_face(*args)):
        polished = solvers.polish_chain(problem, start, (free, fixed, slope[1:]), tol, measured)
    assert polished is not None and 2 <= len(tries) <= _POLISH_SOLVES
    assert not stop_measure(problem, polish_face(problem, start, tries[0][2]), None) <= tol
    assert tries[1][2][0][pinned]  # the second face frees the pinned coordinate
    candidate, _ = polished
    assert stop_measure(problem, candidate, None) <= tol
    assert np.array_equal(problem.nonsmooth.face(candidate.x)[0],
                          problem.nonsmooth.face(run.state.x)[0])


def test_audit_checks_no_certificate_on_the_closing_record_of_a_polish():
    # the closing record keeps the last step's theta; as the first record of
    # a restarted epoch it would be held to the bound of one step from the
    # gamma it ends with, and with gamma growing towards mu that bound can be
    # the lower one (seeds 3, 7, 8 and 10 here)
    for seed in range(12):
        problem = stiff_lasso(seed)
        config = SolverConfig("semi_apdfb", max_iter=20000, stop_tol=1e-8)
        run = run_solver(problem, config)
        assert run.status == "converged" and run.records[-1].alpha == 0
        assert audit_records(run.records, make_step_rule(problem, config),
                             problem.smooth.mu).total == 0


def dropped_support_face(problem, saddle):
    """The face of the planted ``x*`` with its first support index fixed at 0."""
    free, fixed, slope = problem.nonsmooth.face(saddle.x_star)
    free = free.copy()
    free[np.flatnonzero(free)[0]] = False
    return free, fixed, slope[1:]


@pytest.mark.parametrize("with_reference", [False, True])
def test_a_wrong_face_never_ends_a_run_on_an_uncertified_point(with_reference):
    problem, saddle = planted_lasso(3, ridge=0.5)
    reference = saddle if with_reference else None
    start = iterate(problem, saddle.x_star, saddle.x_star, saddle.lambda_star,
                    ScalingState(0.5, 1.0))
    right = polish_face(problem, start, problem.nonsmooth.face(saddle.x_star))
    assert np.allclose(right.x, saddle.x_star, atol=1e-10)
    assert stop_measure(problem, right, reference) <= 1e-10
    wrong = dropped_support_face(problem, saddle)
    assert not stop_measure(problem, polish_face(problem, start, wrong), reference) <= 1e-6
    # a g that reports only the wrong face: the run tries it once, then ends
    # on the scheme's own iterate
    tries = []
    nonsmooth = apd.L1Prox(problem.nonsmooth.weight)
    nonsmooth.face = lambda point: wrong
    wrapped = apd.ProblemInstance(problem.smooth, nonsmooth, problem.constraint)
    with mock.patch.object(solvers, "polish_face",
                           lambda *args: tries.append(args) or polish_face(*args)):
        run = run_solver(wrapped, SolverConfig("semi_apdfb", max_iter=5000, stop_tol=1e-8,
                                               reference=reference))
    assert run.status == "converged" and len(tries) == 1
    assert run.records[-1].alpha > 0
    assert stop_measure(problem, run.state, reference) <= 1e-8


def test_no_polish_is_tried_where_g_is_zero_over_the_whole_space_or_h_is_not_quadratic():
    # whole-space QPs (qp_dense), the consensus runs (ddo), a logistic h over
    # a box and a run with no tolerance read no face and try no polish
    rng = np.random.default_rng(0)
    amat = rng.standard_normal((4, 12))
    logistic = apd.ProblemInstance(
        apd.LogisticObjective(rng.standard_normal((20, 12)), rng.choice([-1.0, 1.0], 20)),
        apd.ZeroProx(apd.Box(-np.ones(12), np.ones(12))),
        apd.MatrixConstraint(amat, amat @ rng.uniform(-0.5, 0.5, 12)))
    lasso, _ = planted_lasso(3, ridge=0.5)

    def refuse(*args, **kwargs):
        raise AssertionError("polish or face called")

    with mock.patch.object(solvers, "polish_face", refuse), \
            mock.patch.object(apd.ZeroProx, "face", refuse), \
            mock.patch.object(apd.L1Prox, "face", refuse):
        for scheme in SCHEMES:
            assert run_solver(random_qp(1), SolverConfig(
                scheme, max_iter=5000, stop_tol=1e-8)).status == "converged"
        for scheme in ("semi_apdfb", "ex_apdfb"):
            assert run_solver(logistic, SolverConfig(
                scheme, max_iter=5000, stop_tol=1e-6)).status == "converged"
            assert run_solver(lasso, SolverConfig(scheme, max_iter=50)).status == "max_iter"
        graph = ddo.random_geometric_graph(12, 0.5, 3)
        for kind in ("logistic", "least_squares"):
            problem = ddo.build_ddo_problem(graph, 2, kind, seed=0)
            assert ddo.run_ddo(problem, "apd", 5000, stop_tol=1e-6).status == "converged"
