import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apd
from apd import model
from apd.ddo import random_geometric_graph
from apd.model import NoReferenceError, RangeSpaceSystem
from conftest import planted_lasso


def test_augmented_lagrangian_examples(qp1, qp1_saddle):
    val = model.PointValues(qp1, np.zeros(2)).lagrangian(np.array([1.0]))
    assert val == pytest.approx(-1.0)
    star = model.PointValues(qp1, qp1_saddle.x_star).lagrangian(np.array([3.7]))
    assert star == pytest.approx(0.25)


def test_augmented_lagrangian_constant_in_lambda_at_solution(qp1, qp1_saddle):
    rng = np.random.default_rng(0)
    at_star = model.PointValues(qp1, qp1_saddle.x_star)
    vals = [at_star.lagrangian(rng.standard_normal(1)) for _ in range(50)]
    np.testing.assert_allclose(vals, qp1_saddle.f_star, atol=1e-12)


def test_augmented_lagrangian_indicator(qp1):
    boxed = apd.ProblemInstance(qp1.smooth,
                                apd.ZeroProx(apd.Box(np.zeros(2), np.ones(2))),
                                qp1.constraint)
    assert model.PointValues(boxed, np.array([2.0, 0.0])).lagrangian(np.zeros(1)) == np.inf


def test_kkt_residual_examples(qp1, qp1_saddle):
    assert apd.kkt_residual(qp1, qp1_saddle.x_star, qp1_saddle.lambda_star) == (0.0, 0.0)
    feas, stat = apd.kkt_residual(qp1, np.zeros(2), np.zeros(1))
    assert (feas, stat) == (1.0, 0.0)
    feas, stat = apd.kkt_residual(qp1, qp1_saddle.x_star, np.zeros(1))
    assert feas == pytest.approx(0.0, abs=1e-15)
    assert stat == pytest.approx(np.sqrt(0.5))


def test_kkt_residual_composite_uses_prox_residual():
    p, sp = planted_lasso(5)
    feas, stat = apd.kkt_residual(p, sp.x_star, sp.lambda_star)
    assert feas < 1e-12 and stat < 1e-12
    _, stat_off = apd.kkt_residual(p, sp.x_star, sp.lambda_star + 0.1)
    assert stat_off > 1e-3
    # with_point hands over the prox-gradient point that stationarity measures
    # from, and leaves both residuals as they were
    feas_p, stat_p, point = apd.kkt_residual(p, sp.x_star, sp.lambda_star + 0.1,
                                             with_point=True)
    assert stat_p == stat_off == float(np.linalg.norm(sp.x_star - point))
    grad = p.smooth.gradient(sp.x_star) + p.constraint.apply_adjoint(sp.lambda_star + 0.1)
    assert np.array_equal(point, p.nonsmooth.prox(1.0, sp.x_star - grad))
    assert feas_p == apd.kkt_residual(p, sp.x_star, sp.lambda_star + 0.1)[0]


def test_operator_norm_examples():
    assert apd.operator_norm_estimate(np.array([[1.0, 1.0]])) == pytest.approx(np.sqrt(2))
    assert apd.operator_norm_estimate(np.eye(3)) == pytest.approx(1.0)
    assert apd.operator_norm_estimate(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-8)


def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


@st.composite
def norm_inputs(draw):
    """Dense Gaussian, rank-deficient, ill-conditioned, single-row or -column
    and zero matrices, and sparse incidence matrices of geometric graphs."""
    kind = draw(st.sampled_from(
        ["gaussian", "rank_deficient", "ill_conditioned", "row", "column", "zero", "incidence"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if kind == "row":
        rows = 1
    elif kind == "column":
        cols = 1
    elif kind == "zero":
        return np.zeros((rows, cols))
    elif kind == "incidence":
        nodes = draw(st.integers(2, 60))
        radius = draw(st.floats(0.5, 1.5))
        return random_geometric_graph(nodes, radius, draw(st.integers(0, 999))).incidence
    scale = 10.0 ** draw(st.integers(-8, 8))
    if kind in ("rank_deficient", "ill_conditioned"):
        k = min(rows, cols)
        if kind == "rank_deficient":
            k = draw(st.integers(1, k))
            s = rng.uniform(0.5, 2.0, k)
        else:
            s = np.logspace(0, -12, k)
        return scale * (_orthonormal(rng, rows, k) * s) @ _orthonormal(rng, cols, k).T
    return scale * rng.standard_normal((rows, cols))


@settings(max_examples=300, deadline=None)
@given(norm_inputs())
def test_operator_norm_is_a_tight_upper_bound(matrix):
    exact = np.linalg.norm(matrix.toarray() if hasattr(matrix, "toarray") else matrix, 2)
    bounds = [apd.operator_norm_estimate(matrix)]
    if isinstance(matrix, np.ndarray):
        bounds.append(apd.MatrixConstraint(matrix, np.zeros(matrix.shape[0])).op_norm)
    for bound in bounds:
        if exact == 0.0:
            assert bound == 0.0
        assert exact <= bound <= (1 + 1e-9) * exact


def test_default_op_norm_bounds_gaussian_matrices():
    # ROADMAP defect 4: every 250 x 1000 N(0, 1) draw builds with an upper bound
    for seed in range(10):
        amat = np.random.default_rng(seed).standard_normal((250, 1000))
        assert apd.MatrixConstraint(amat, np.zeros(250)).op_norm >= np.linalg.norm(amat, 2)


def test_matrix_constraint_forms_its_gram_matrix_once(monkeypatch):
    # construction does no Gram work; op_norm and the factor share one product
    # and one eigensolve
    calls, solves = [], []
    smaller_gram, eigh = model._smaller_gram, model.sla.eigh
    monkeypatch.setattr(model, "_smaller_gram",
                        lambda matrix: calls.append(matrix.shape) or smaller_gram(matrix))
    monkeypatch.setattr(model.sla, "eigh",
                        lambda *args, **kwargs: solves.append(1) or eigh(*args, **kwargs))
    amat = np.random.default_rng(2).standard_normal((3, 5))
    for op_norm in (None, 10.0):
        calls.clear()
        solves.clear()
        constraint = apd.MatrixConstraint(amat, np.zeros(3), op_norm=op_norm)
        assert calls == [] and solves == []
        if op_norm is None:
            assert constraint.op_norm >= np.linalg.norm(amat, 2)
        else:
            assert constraint.op_norm == op_norm
        s, u = constraint.gram_factor
        assert calls == [(3, 5)] and solves == [1]
        np.testing.assert_allclose((u * s) @ u.T, amat @ amat.T, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_constraint_rejects_non_finite_entries(bad):
    amat = np.eye(3)
    amat[1, 2] = bad
    with pytest.raises(ValueError, match="constraint matrix A holds NaN or inf"):
        apd.MatrixConstraint(amat, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_constraint_rejects_a_non_finite_rhs(bad):
    with pytest.raises(ValueError, match="constraint right side b holds NaN or inf"):
        apd.MatrixConstraint([[1.0, 1.0]], [bad])


def test_reference_saddle_examples(qp1):
    sp = apd.solve_reference_saddle(qp1)
    np.testing.assert_allclose(sp.x_star, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(sp.lambda_star, [-0.5], atol=1e-12)

    p2 = apd.ProblemInstance(apd.QuadraticObjective(np.ones(2)), apd.ZeroProx(),
                             apd.MatrixConstraint(np.eye(2), [1.0, 2.0]))
    sp2 = apd.solve_reference_saddle(p2)
    np.testing.assert_allclose(sp2.x_star, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(sp2.lambda_star, [-1.0, -2.0], atol=1e-12)

    p3 = apd.ProblemInstance(apd.QuadraticObjective(np.array([1.0, 4.0])),
                             apd.ZeroProx(), apd.MatrixConstraint([[1.0, 1.0]], [1.0]))
    sp3 = apd.solve_reference_saddle(p3)
    np.testing.assert_allclose(sp3.x_star, [0.8, 0.2], atol=1e-12)
    np.testing.assert_allclose(sp3.lambda_star, [-0.8], atol=1e-12)


def kkt_solve(amat, quad, g, b, shift=0.0, theta=0.0):
    """The dense solve of ``[Q + shift I, A'; A, -theta I] (x, mu) = (g, b)``
    that the range-space method replaced."""
    m, n = amat.shape
    dmat = (np.diag(quad) if quad.ndim == 1 else quad) + shift * np.eye(n)
    sol = np.linalg.solve(np.block([[dmat, amat.T], [amat, -theta * np.eye(m)]]),
                          np.concatenate([g, b]))
    return sol[:n], sol[n:]


def assert_close_in_norm(got, want, rtol):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_range_space_system_matches_the_kkt_solve(dense, theta):
    rng = np.random.default_rng(11)
    n, m = 30, 10
    amat = rng.standard_normal((m, n))
    if dense:
        root = rng.standard_normal((n, n))
        quad = root @ root.T / n
    else:
        quad = rng.uniform(0.1, 2.0, n)
    g, b = rng.standard_normal(n), rng.standard_normal(m)
    system = RangeSpaceSystem(apd.MatrixConstraint(amat, b), quad, 0.7, theta)
    x, mu = system.solve(g, b)
    x_ref, mu_ref = kkt_solve(amat, quad, g, b, 0.7, theta)
    assert_close_in_norm(x, x_ref, 1e-10)
    assert_close_in_norm(mu, mu_ref, 1e-10)


@pytest.mark.parametrize("samples, ridge", [(20, 0.1), (30, 0.1), (45, 0.1), (25, 0.0)],
                         ids=["fewer-samples", "square", "more-samples", "ridge-free"])
def test_newton_direction_matches_the_dense_kkt_solve(samples, ridge):
    # the Newton endgame's step [H A'; A 0] (dx, dlam) = -(grad h + A' lam, A x - b)
    # for a logistic h: Woodbury with fewer samples than columns and a ridge,
    # the dense Hessian (plus rho A'A without a ridge) otherwise; H is formed
    # here from its formula, not from the oracle
    rng = np.random.default_rng(samples)
    n, m = 30, 8
    amat = rng.standard_normal((m, n))
    features = rng.standard_normal((samples, n)) / np.sqrt(n)
    labels = rng.choice([-1.0, 1.0], samples)
    problem = apd.ProblemInstance(apd.LogisticObjective(features, labels, ridge=ridge),
                                  apd.ZeroProx(),
                                  apd.MatrixConstraint(amat, rng.standard_normal(m)))
    x, lam = rng.standard_normal(n), rng.standard_normal(m)
    s = 1.0 / (1.0 + np.exp(labels * (features @ x)))
    hessian = ridge * np.eye(n) + features.T @ ((s * (1.0 - s))[:, None] * features)
    grad = problem.smooth.gradient(x) + amat.T @ lam
    residual = problem.constraint.residual(x)
    want = np.linalg.solve(np.block([[hessian, amat.T], [amat, np.zeros((m, m))]]),
                           -np.concatenate([grad, residual]))
    state = apd.IterateState.start(x, lam, apd.ScalingState(0.005, 1.0), residual)
    candidate = apd.solvers.newton_polish(problem, state)
    assert_close_in_norm(candidate.x - x, want[:n], 1e-10)
    assert_close_in_norm(candidate.lam - lam, want[n:], 1e-10)
    assert candidate.v is candidate.x and candidate.scaling == state.scaling
    assert np.array_equal(candidate.r_x, problem.constraint.residual(candidate.x))
    system, _ = model.kkt_system(problem, slice(None), apd.MatrixConstraint(amat, -residual),
                                 -grad, x)
    assert isinstance(system, model.WoodburySystem) == (ridge > 0 and samples < n)


def test_reference_saddle_on_a_benchmark_size_qp():
    rng = np.random.default_rng(3)
    amat = rng.standard_normal((250, 1000))
    b = rng.standard_normal(250)
    q = rng.uniform(0.1, 2.0, 1000)
    p = apd.ProblemInstance(apd.QuadraticObjective(q), apd.ZeroProx(),
                            apd.MatrixConstraint(amat, b))
    sp = apd.solve_reference_saddle(p)
    feas, stat = apd.kkt_residual(p, sp.x_star, sp.lambda_star)
    assert feas <= 1e-12 and stat <= 1e-12
    x_ref, lam_ref = kkt_solve(amat, q, np.zeros(1000), b)
    assert_close_in_norm(sp.x_star, x_ref, 1e-10)
    assert_close_in_norm(sp.lambda_star, lam_ref, 1e-10)


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_reference_saddle_of_a_semidefinite_quadratic(dense):
    # Q is singular but positive definite on null(A), so the KKT matrix is not
    rng = np.random.default_rng(12)
    n, m = 8, 3
    amat = rng.standard_normal((m, n))
    if dense:
        root = rng.standard_normal((n, n - 1))
        quad = root @ root.T
    else:
        quad = rng.uniform(0.1, 2.0, n)
        quad[0] = 0.0  # the zero direction e_0 is not in null(A)
    c, b = rng.standard_normal(n), rng.standard_normal(m)
    p = apd.ProblemInstance(apd.QuadraticObjective(quad, c), apd.ZeroProx(),
                            apd.MatrixConstraint(amat, b))
    sp = apd.solve_reference_saddle(p)
    x_ref, lam_ref = kkt_solve(amat, quad, -c, b)
    assert_close_in_norm(sp.x_star, x_ref, 1e-10)
    assert_close_in_norm(sp.lambda_star, lam_ref, 1e-10)


def test_reference_saddle_rejects_a_tall_constraint():
    # three consistent rows in R^2: x is fixed, the multiplier is not unique
    amat = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    p = apd.ProblemInstance(apd.QuadraticObjective(np.ones(2)), apd.ZeroProx(),
                            apd.MatrixConstraint(amat, amat @ [1.0, 2.0]))
    with pytest.raises(NoReferenceError):
        apd.solve_reference_saddle(p)


def test_reference_saddle_rejects_nonquadratic():
    p, _ = planted_lasso(2)
    with pytest.raises(NoReferenceError):
        apd.solve_reference_saddle(p)


def test_problem_file_round_trip(tmp_path):
    path = tmp_path / "instance.txt"
    rng = np.random.default_rng(4)
    amat = rng.standard_normal((2, 3))
    rhs = rng.standard_normal(2)
    p = apd.ProblemInstance(apd.QuadraticObjective(np.array([1.0, 2.0, 3.0])),
                            apd.ZeroProx(), apd.MatrixConstraint(amat, rhs))
    apd.save_problem(p, path)
    q = apd.load_problem(path)
    np.testing.assert_array_equal(q.constraint.matrix(), amat)
    np.testing.assert_array_equal(q.constraint.rhs, rhs)
    np.testing.assert_array_equal(q.smooth.diag, [1.0, 2.0, 3.0])

    # the header keeps its beta token, which must be 0
    tokens = path.read_text(encoding="utf-8").split()
    assert tokens[2] == "0"
    path.write_text(" ".join(tokens[:2] + ["0.25"] + tokens[3:]), encoding="utf-8")
    with pytest.raises(ValueError, match="beta"):
        apd.load_problem(path)

    lasso = apd.ProblemInstance(apd.QuadraticObjective(np.ones(3)),
                                apd.L1Prox(0.7), apd.MatrixConstraint(amat, rhs))
    apd.save_problem(lasso, path)
    q2 = apd.load_problem(path)
    assert isinstance(q2.nonsmooth, apd.L1Prox)
    assert q2.nonsmooth.weight == 0.7

    logistic = apd.ProblemInstance(
        apd.LogisticObjective(rng.standard_normal((4, 3)),
                              np.array([1.0, -1.0, 1.0, -1.0]), ridge=0.5),
        apd.ZeroProx(), apd.MatrixConstraint(amat, rhs))
    apd.save_problem(logistic, path)
    q3 = apd.load_problem(path)
    x = rng.standard_normal(3)
    assert q3.smooth.value(x) == pytest.approx(logistic.smooth.value(x))
    np.testing.assert_allclose(q3.smooth.gradient(x), logistic.smooth.gradient(x))


def _file_problem(kind, smooth=None, nonsmooth=None):
    rng = np.random.default_rng(9)
    amat, rhs = rng.standard_normal((2, 3)), rng.standard_normal(2)
    if kind == "quadratic":
        smooth, nonsmooth = apd.QuadraticObjective(np.array([3.0, 1.0, 2.0])), apd.ZeroProx()
    elif kind == "lasso":
        smooth, nonsmooth = apd.QuadraticObjective(np.ones(3)), apd.L1Prox(0.7)
    elif kind == "logistic":
        smooth = apd.LogisticObjective(rng.standard_normal((4, 3)),
                                       np.array([1.0, -1.0, 1.0, -1.0]), ridge=0.5)
        nonsmooth = apd.ZeroProx()
    return apd.ProblemInstance(smooth, nonsmooth, apd.MatrixConstraint(amat, rhs))


@pytest.mark.parametrize("kind", ["quadratic", "lasso", "logistic"])
def test_problem_file_round_trip_keeps_the_problem(tmp_path, kind):
    path = tmp_path / "instance.txt"
    problem = _file_problem(kind)
    apd.save_problem(problem, path)
    assert path.read_text(encoding="utf-8").split()[3 + 2 * 3 + 2] == kind  # after header, A, b
    loaded = apd.load_problem(path)
    assert type(loaded.smooth) is type(problem.smooth)
    assert type(loaded.nonsmooth) is type(problem.nonsmooth)
    assert loaded.is_smooth_unconstrained == problem.is_smooth_unconstrained
    np.testing.assert_array_equal(loaded.constraint.matrix(), problem.constraint.matrix())
    np.testing.assert_array_equal(loaded.constraint.rhs, problem.constraint.rhs)
    # the same numbers, but a reloaded array may take another BLAS path
    for x in np.random.default_rng(3).standard_normal((5, 3)) * 4:
        assert loaded.objective(x) == pytest.approx(problem.objective(x), rel=1e-14)
        np.testing.assert_allclose(loaded.smooth.gradient(x), problem.smooth.gradient(x),
                                   rtol=1e-14)
        np.testing.assert_array_equal(loaded.nonsmooth.prox(0.3, x),
                                      problem.nonsmooth.prox(0.3, x))


@pytest.mark.parametrize("smooth, nonsmooth", [
    (apd.ZeroObjective(3), apd.L1Prox(0.7)),
    (apd.QuadraticObjective(np.array([3.0, 1.0, 2.0])), apd.L1Prox(0.7)),
    (apd.QuadraticObjective(np.ones(3)), apd.ZeroProx(apd.Box(-np.ones(3), np.ones(3)))),
    (apd.QuadraticObjective(np.ones(3), np.array([1.0, 0.0, 0.0])), apd.ZeroProx()),
], ids=["zero-l1", "diagonal-l1", "box", "linear-term"])
def test_save_problem_refuses_what_the_file_cannot_hold(tmp_path, smooth, nonsmooth):
    # each of these was once written as a file that loaded as another problem
    path = tmp_path / "instance.txt"
    with pytest.raises(ValueError, match="no file representation"):
        apd.save_problem(_file_problem(None, smooth, nonsmooth), path)
    assert not path.exists()


def test_save_problem_refuses_a_constraint_with_no_dense_form(tmp_path):
    class MatrixFree(model.LinearConstraint):
        rows, cols = 2, 3

    path = tmp_path / "instance.txt"
    matrix_free = apd.ProblemInstance(apd.QuadraticObjective(np.ones(3)), apd.ZeroProx(),
                                      MatrixFree())
    with pytest.raises(ValueError, match="no file representation: .* no dense form"):
        apd.save_problem(matrix_free, path)
    assert not path.exists()


def test_problem_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 0.0 1 1 1 mystery 1 2\n")
    with pytest.raises(ValueError):
        apd.load_problem(path)
