import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import apd
from apd import inner
from apd.ddo import graph_laplacian, grid_graph, path_graph, random_geometric_graph
from apd.inner import (
    AUGMENTED_METHODS,
    DualMapContext,
    InnerSolveError,
    _bordered_matrix,
    _dual_map,
    _merit,
    _newton_direction,
    _prox_point,
    _triangle_factors,
    augmented_consensus_solve,
    pcg_solve,
    ssn_solve,
)
from apd.model import LinearConstraint
from apd.oracles import L1Prox, UnsupportedOracleError, ZeroProx


# ---------------------------------------------------------------------------
# PCG
# ---------------------------------------------------------------------------

def test_pcg_identity_one_iteration():
    res = pcg_solve(lambda d: d, np.array([3.0, 4.0]), 1e-8, 100)
    np.testing.assert_allclose(res.solution, [3.0, 4.0])
    assert res.iterations == 1 and res.converged


def test_pcg_eigenvector_rhs_one_iteration():
    h = np.array([[5.0, 2.0], [2.0, 5.0]])
    res = pcg_solve(lambda d: h @ d, np.ones(2), 1e-10, 100)
    np.testing.assert_allclose(res.solution, np.full(2, 1 / 7))
    assert res.iterations == 1 and res.converged


def test_pcg_jacobi_preconditioned_diag():
    d = np.array([1.0, 4.0])
    res = pcg_solve(lambda x: d * x, np.array([1.0, 4.0]), 1e-10, 100,
                    minv=lambda r: r / d)
    np.testing.assert_allclose(res.solution, [1.0, 1.0])
    assert res.iterations <= 2 and res.converged


def test_pcg_nonconverged_status_carries_iterate():
    h = np.diag(np.linspace(1.0, 100.0, 30))
    rhs = np.ones(30)
    res = pcg_solve(lambda x: h @ x, rhs, 1e-12, 3)
    assert not res.converged
    assert res.iterations == 3
    assert np.linalg.norm(res.solution) > 0
    # the iterate is the third CG iterate: it beats the zero start
    assert np.linalg.norm(h @ res.solution - rhs) < np.linalg.norm(rhs)


def test_pcg_residual_bound_random_systems():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.integers(3, 12)
        g = rng.standard_normal((n, n))
        h = g @ g.T + n * np.eye(n)
        e = rng.standard_normal(n)
        tol = 10 ** rng.uniform(-8, -2)
        res = pcg_solve(lambda x, h=h: h @ x, e, tol, 500,
                        minv=lambda r, h=h: r / np.diag(h))
        assert res.converged
        # the stop test passes only on a fresh residual, so it bounds the true one
        assert np.linalg.norm(h @ res.solution - e) <= tol * np.linalg.norm(e)


def test_pcg_tolerance_domain():
    for tol in (-1e-8, np.nan):
        with pytest.raises(ValueError):
            pcg_solve(lambda d: d, np.ones(2), tol, 10)


def test_pcg_at_zero_tolerance_runs_to_i_max():
    rng = np.random.default_rng(16)
    n = 8
    g = rng.standard_normal((n, n))
    h = g @ g.T + n * np.eye(n)
    inv = 1.0 / np.diag(h)
    minv = lambda r: inv * r
    for rhs in rng.standard_normal((2, n)):
        for i_max in (1, 2, 5, 60):
            res = pcg_solve(lambda x: h @ x, rhs, 0.0, i_max, minv)
            assert res.iterations == i_max
        np.testing.assert_allclose(h @ res.solution, rhs, atol=1e-12)
    # a zero right side passes the test on its first, fresh residual
    res = pcg_solve(lambda x: h @ x, np.zeros(n), 0.0, 60, minv)
    assert res.iterations == 0 and res.converged
    np.testing.assert_array_equal(res.solution, np.zeros(n))


def test_pcg_negative_curvature_raises():
    with pytest.raises(InnerSolveError):
        pcg_solve(lambda d: -d, np.ones(3), 1e-8, 10)


@pytest.mark.parametrize("method", ["pcg_jacobi", "pcg_sgs"])
def test_preconditioned_consensus_runs_on_pcg_solve(method, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return pcg_solve(*args, **kwargs)

    monkeypatch.setattr(inner, "pcg_solve", counting)
    lap = graph_laplacian(path_graph(5))
    v, iters, ok = augmented_consensus_solve(lap, 1e-6, np.arange(5.0) - 1.0,
                                             method=method, tol=1e-9)
    assert ok and iters > 0 and len(calls) == 1
    assert calls[0].shape == (6,)  # the right side of the bordered system


# ---------------------------------------------------------------------------
# saddle subproblem reductions
# ---------------------------------------------------------------------------

def _context(theta=1.0, alpha=1.0, t=1.0, z=(1.0, 1.0), lam=(0.0,)):
    constraint = apd.MatrixConstraint([[1.0, 1.0]], [1.0])
    return DualMapContext(theta, alpha, t, np.array(z), constraint, ZeroProx(), np.array(lam))


def test_shifted_gram_solve_example():
    constraint = apd.MatrixConstraint([[1.0, 1.0]], [1.0])
    s, u = constraint.gram_factor
    np.testing.assert_allclose(s, [2.0])  # AA' = 2: the dual side is the smaller
    assert u.shape == (1, 1)
    # (theta + alpha t AA') lam = alpha (A z - b) at theta = alpha = t = 1, z = (1, 1),
    # so lam = 1/3 and A' lam = (1/3, 1/3)
    lam, adjoint_lam = constraint.gram_solve(1.0, 1.0, [1.0])
    np.testing.assert_allclose(lam, [1 / 3])
    np.testing.assert_allclose(adjoint_lam, [1 / 3, 1 / 3])


def test_dual_primal_reductions_consistent():
    # the 3x6 constraint factors AA' (dual side), the 6x3 one A'A (primal side);
    # each factored solve is checked against dense solves of both reductions
    theta, alpha, t = 0.42, 0.8, 0.31
    for m, n in ((3, 6), (6, 3)):
        rng = np.random.default_rng(5)
        amat = rng.standard_normal((m, n))
        constraint = apd.MatrixConstraint(amat, rng.standard_normal(m))
        lam_prev, z = rng.standard_normal(m), rng.standard_normal(n)
        dual_rhs = theta * lam_prev + alpha * constraint.residual(z)
        primal_rhs = theta * z - t * amat.T @ (theta * lam_prev - alpha * constraint.rhs)
        lam = np.linalg.solve(theta * np.eye(m) + alpha * t * amat @ amat.T, dual_rhs)
        y, adjoint_y = constraint.gram_solve(theta, alpha * t, dual_rhs)
        np.testing.assert_allclose(y, lam, atol=1e-9)
        np.testing.assert_allclose(adjoint_y, amat.T @ y, atol=1e-9)
        v = z - t * adjoint_y
        np.testing.assert_allclose(
            np.linalg.solve(theta * np.eye(n) + alpha * t * amat.T @ amat, primal_rhs),
            v, atol=1e-9)
        np.testing.assert_allclose(z - t * amat.T @ lam, v, atol=1e-9)
        np.testing.assert_allclose(
            lam, lam_prev + (alpha / theta) * constraint.residual(v), atol=1e-9)


def test_shifted_gram_solve_zero_operator_decouples():
    for shape in ((2, 3), (3, 2)):
        constraint = apd.MatrixConstraint(np.zeros(shape), np.zeros(shape[0]), op_norm=0.0)
        side = min(shape)
        np.testing.assert_allclose(constraint.gram_factor[0], np.zeros(side))
        # (0.6 I + 0 G)^{-1} r = r / 0.6, and A' = 0 maps it to zero
        y, adjoint_y = constraint.gram_solve(0.6, 1.0, np.ones(shape[0]))
        np.testing.assert_allclose(y, np.full(shape[0], 1 / 0.6))
        np.testing.assert_allclose(adjoint_y, np.zeros(shape[1]))


def test_gram_factor_of_a_matrix_free_constraint_raises():
    class MatrixFree(LinearConstraint):
        rows, cols = 1, 2

    with pytest.raises(UnsupportedOracleError, match="no dense form"):
        MatrixFree().gram_factor


# ---------------------------------------------------------------------------
# dual map, merit, Jacobians
# ---------------------------------------------------------------------------

def dual_map(ctx, lam):
    return _dual_map(ctx, lam, _prox_point(ctx, lam)[1])


def merit(ctx, lam):
    return _merit(ctx, lam, *_prox_point(ctx, lam))


def test_dual_map_affine_when_unconstrained():
    ctx = _context(theta=0.7, alpha=0.9, t=0.4)
    rng = np.random.default_rng(1)
    amat = ctx.constraint.matrix()
    h = ctx.theta * np.eye(1) + ctx.alpha * ctx.t * amat @ amat.T
    for _ in range(10):
        lam = rng.standard_normal(1)
        lhs = dual_map(ctx, lam) - dual_map(ctx, np.zeros(1))
        np.testing.assert_allclose(lhs, h @ lam, atol=1e-12)


def test_dual_map_monotone_lipschitz_sandwich():
    rng = np.random.default_rng(3)
    amat = rng.standard_normal((3, 5))
    constraint = apd.MatrixConstraint(amat, rng.standard_normal(3))
    for g in (ZeroProx(), L1Prox(0.5),
              ZeroProx(apd.Box(-np.ones(5), np.ones(5)))):
        ctx = DualMapContext(0.6, 0.9, 0.5, rng.standard_normal(5), constraint, g,
                             rng.standard_normal(3))
        rho = ctx.theta + ctx.alpha * ctx.t * constraint.op_norm ** 2  # Lipschitz constant
        for _ in range(1000):
            lam, xi = rng.standard_normal(3), rng.standard_normal(3)
            gap = float((dual_map(ctx, lam) - dual_map(ctx, xi)) @ (lam - xi))
            dist = float((lam - xi) @ (lam - xi))
            assert gap >= ctx.theta * dist - 1e-9
            assert gap <= rho * dist + 1e-9


def test_merit_gradient_matches_map():
    rng = np.random.default_rng(4)
    amat = rng.standard_normal((3, 4))
    constraint = apd.MatrixConstraint(amat, rng.standard_normal(3))
    box = apd.Box(-2 * np.ones(4), np.ones(4))
    half = apd.Box(np.array([0.0, -np.inf, -1.0, -np.inf]), np.array([np.inf, 0.5, np.inf, 2.0]))
    for g in (ZeroProx(), L1Prox(0.3), ZeroProx(box), L1Prox(0.3, box), ZeroProx(half),
              L1Prox(0.3, half)):
        ctx = DualMapContext(0.8, 0.7, 0.6, rng.standard_normal(4), constraint, g,
                             rng.standard_normal(3))
        for _ in range(25):
            lam = rng.standard_normal(3)
            grad = dual_map(ctx, lam)
            for i in range(3):
                shift = np.zeros(3)
                shift[i] = 1e-6
                fd = (merit(ctx, lam + shift) - merit(ctx, lam - shift)) / 2e-6
                assert abs(fd - grad[i]) <= 1e-5 * (1 + abs(grad[i]))


def test_merit_quadratic_case_matches_expansion():
    # g = 0 over the whole space: the merit is an explicit quadratic
    ctx = _context(theta=0.9, alpha=0.7, t=0.5, z=(0.3, -1.2), lam=(0.4,))
    amat = ctx.constraint.matrix()
    rng = np.random.default_rng(6)
    for _ in range(20):
        lam = rng.standard_normal(1)
        point = ctx.z - ctx.t * (amat.T @ lam)
        direct = (0.5 * ctx.theta * float(lam @ lam) - float(ctx.r @ lam)
                  + ctx.alpha * float(point @ point) / (2 * ctx.t))
        assert merit(ctx, lam) == pytest.approx(direct, rel=1e-12)


def test_merit_l1_case_matches_expansion():
    # g = w |.|_1 over the whole space: p is the soft threshold of u at t w,
    # and (<u, p> - |p|^2 / 2) / t - w |p|_1 = |p|^2 / (2 t)
    weight = 0.4
    constraint = apd.MatrixConstraint([[1.0, -2.0, 0.5], [0.3, 1.0, -1.0]], [0.2, -0.1])
    ctx = DualMapContext(0.9, 0.7, 0.5, np.array([0.3, -1.2, 0.05]), constraint,
                         L1Prox(weight), np.array([0.4, -0.2]))
    amat = constraint.matrix()
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = rng.standard_normal(2)
        u = ctx.z - ctx.t * (amat.T @ lam)
        p = np.sign(u) * np.maximum(np.abs(u) - ctx.t * weight, 0.0)
        direct = (0.5 * ctx.theta * float(lam @ lam) - float(ctx.r @ lam)
                  + ctx.alpha * float(p @ p) / (2 * ctx.t))
        assert merit(ctx, lam) == pytest.approx(direct, rel=1e-12)


def test_merit_strong_convexity_at_solution():
    ctx = _context(theta=0.5, alpha=0.8, t=0.7, z=(1.0, -0.4))
    res = ssn_solve(ctx, np.zeros(1), tol=1e-12)
    base = merit(ctx, res.lam)
    rng = np.random.default_rng(8)
    for _ in range(200):
        lam = res.lam + rng.standard_normal(1) * 2
        gap = merit(ctx, lam) - base
        assert gap >= 0.5 * ctx.theta * float((lam - res.lam) @ (lam - res.lam)) - 1e-9


def test_gen_jacobian_examples():
    np.testing.assert_allclose(
        L1Prox(1.0).prox_jacobian(1.0, np.array([2.0, 0.5, -3.0])),
        [1.0, 0.0, 1.0])
    np.testing.assert_allclose(ZeroProx().prox_jacobian(1.0, np.zeros(3)),
                               np.ones(3))
    np.testing.assert_allclose(
        L1Prox(1.0).prox_jacobian(1.0, np.array([1.0])), [0.0])


# ---------------------------------------------------------------------------
# semi-smooth Newton
# ---------------------------------------------------------------------------

def test_ssn_affine_single_newton_step():
    ctx = _context(theta=0.8, alpha=0.9, t=0.6, z=(2.0, -1.0), lam=(0.3,))
    res = ssn_solve(ctx, np.array([5.0]), tol=1e-11)
    assert res.converged and res.iterations == 1


def test_ssn_zero_iterations_at_solution():
    ctx = _context()
    first = ssn_solve(ctx, np.zeros(1), tol=1e-12)
    again = ssn_solve(ctx, first.lam, tol=1e-10)
    assert again.iterations == 0 and again.converged


def test_ssn_forms_each_trial_point_once():
    # a small theta makes the full Newton step overshoot: this solve rejects
    # some trial steps, yet it takes one A' product and one prox per point
    class Recording(apd.MatrixConstraint):
        def apply_adjoint(self, lam):
            points.append(lam.tobytes())
            return super().apply_adjoint(lam)

    class CountingL1(L1Prox):
        def prox(self, t, u):
            proxes.append(t)
            return super().prox(t, u)

    points, proxes = [], []
    rng = np.random.default_rng(2)
    constraint = Recording(rng.standard_normal((3, 6)), rng.standard_normal(3))
    ctx = DualMapContext(0.05, 1.0, 1.0, 3 * rng.standard_normal(6), constraint,
                         CountingL1(1.0), 3 * rng.standard_normal(3))
    res = ssn_solve(ctx, np.zeros(3), tol=1e-10)
    assert res.converged
    assert len(set(points)) > res.iterations + 1  # some trial was rejected
    assert len(points) == len(proxes) == len(set(points))


def test_ssn_matches_vectorized_grid_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        constraint = apd.MatrixConstraint([[rng.uniform(0.5, 2.0)]],
                                          [rng.standard_normal() * 0.4])
        weight = rng.uniform(0.05, 0.6)
        ctx = DualMapContext(
            rng.uniform(0.05, 1.0), rng.uniform(0.2, 1.5), rng.uniform(0.1, 1.0),
            rng.standard_normal(1) * 2, constraint, L1Prox(weight),
            rng.standard_normal(1) * 0.5)
        res = ssn_solve(ctx, np.zeros(1), tol=1e-12)
        oracle = _merit_grid_min_1d(ctx, constraint.matrix()[0, 0], weight)
        assert abs(res.lam[0] - oracle) <= 1e-5
        assert res.converged


def _merit_grid_min_1d(ctx, a, weight, lo=-25.0, hi=25.0):
    # independent closed-form merit on a refined grid (soft-threshold algebra)
    for _ in range(4):
        lam = np.linspace(lo, hi, 20001)
        point = ctx.z[0] / ctx.t - a * lam
        shrunk = np.sign(ctx.t * point) * np.maximum(
            np.abs(ctx.t * point) - ctx.t * weight, 0.0)
        merit = (0.5 * ctx.theta * lam ** 2 - ctx.r[0] * lam
                 + ctx.alpha * shrunk ** 2 / (2 * ctx.t))
        i = int(np.argmin(merit))
        lo, hi = lam[max(i - 1, 0)], lam[min(i + 1, len(lam) - 1)]
    return 0.5 * (lo + hi)


def enumeration_oracle(ctx, amat, weight):
    """Exact subproblem solution by sign-pattern enumeration (small n only)."""
    m, n = amat.shape
    tw = ctx.t * weight
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=n):
        sgn = np.array(pattern)
        active = sgn != 0
        a_act = amat[:, active]
        h = ctx.theta * np.eye(m) + ctx.alpha * ctx.t * (a_act @ a_act.T)
        rhs = ctx.r + ctx.alpha * (a_act @ (ctx.z[active] - tw * sgn[active]))
        lam = np.linalg.solve(h, rhs)
        u = ctx.z - ctx.t * (amat.T @ lam)
        ok = True
        for i in range(n):
            if pattern[i] == 0.0 and abs(u[i]) > tw + 1e-11:
                ok = False
                break
            if pattern[i] != 0.0 and pattern[i] * u[i] < tw - 1e-11:
                ok = False
                break
        if ok:
            return lam
    return None


def test_ssn_matches_enumeration_oracle_5d():
    rng = np.random.default_rng(10)
    for _ in range(5):
        amat = rng.standard_normal((5, 5))
        constraint = apd.MatrixConstraint(amat, rng.standard_normal(5) * 0.3)
        weight = rng.uniform(0.1, 0.8)
        ctx = DualMapContext(
            rng.uniform(0.05, 1.0), rng.uniform(0.2, 1.5), rng.uniform(0.1, 1.0),
            rng.standard_normal(5), constraint, L1Prox(weight),
            rng.standard_normal(5) * 0.5)
        res = ssn_solve(ctx, np.zeros(5), tol=1e-12)
        oracle = enumeration_oracle(ctx, amat, weight)
        assert oracle is not None
        np.testing.assert_allclose(res.lam, oracle, atol=1e-8)


def _slope_pattern(g, t, active, n):
    """A prox argument ``u`` whose Jacobian ``g.prox_jacobian(t, u)`` is
    positive exactly on the first ``active`` coordinates: an l1 prox over
    ``[-1, 1]``, or the projection onto a box with one finite bound per
    coordinate, ``-1 <=`` on even ones and ``<= 1`` on odd ones."""
    u = np.empty(n)
    if isinstance(g, L1Prox):  # active: t w < |u| < 1 + t w
        u[:active] = 0.5 + t * g.weight
        inactive = np.tile([0.0, 5.0], n)[:n - active]  # below threshold, clipped
    else:  # projection: |u| < 1
        u[:active] = 0.3
        inactive = np.full(n - active, -10.0)  # past the finite bound
    u[active:] = inactive
    return u * np.where(np.arange(n) % 2, -1.0, 1.0)


@pytest.mark.parametrize("active", [0, 3, 6, 10])
def test_newton_direction_matches_dense_solve(active):
    # m = 6: |J| < m (Woodbury on the |J| x |J| side, |J| = 0 included) and
    # |J| >= m (Cholesky of the m x m side)
    rng = np.random.default_rng(15 + active)
    m, n = 6, 12
    amat = rng.standard_normal((m, n))
    constraint = apd.MatrixConstraint(amat, np.zeros(m))
    box = apd.Box(-np.ones(n), np.ones(n))
    odd = np.arange(n) % 2 == 1
    half = apd.Box(np.where(odd, -np.inf, -1.0), np.where(odd, 1.0, np.inf))
    for g in (L1Prox(0.5, box), ZeroProx(half)):
        ctx = DualMapContext(0.3, 0.9, 0.4, rng.standard_normal(n), constraint, g, np.zeros(m))
        slope = g.prox_jacobian(ctx.t, _slope_pattern(g, ctx.t, active, n))
        assert np.count_nonzero(slope) == active
        residual = rng.standard_normal(m)
        h = ctx.theta * np.eye(m) + ctx.alpha * ctx.t * (amat * slope) @ amat.T
        expected = np.linalg.solve(h, -residual)
        got = _newton_direction(ctx, amat, slope, residual)
        assert (np.linalg.norm(got - expected)
                <= 1e-12 * np.linalg.cond(h) * np.linalg.norm(expected))


def test_ssn_on_a_matrix_free_constraint_raises():
    class MatrixFree(LinearConstraint):
        rows, cols = 1, 2
        rhs = np.zeros(1)

        def apply(self, x):
            return np.array([x[0] + x[1]])

        def apply_adjoint(self, lam):
            return np.array([lam[0], lam[0]])

    ctx = DualMapContext(1.0, 1.0, 1.0, np.ones(2), MatrixFree(), L1Prox(0.1), np.zeros(1))
    with pytest.raises(UnsupportedOracleError, match="no dense form"):
        ssn_solve(ctx, np.zeros(1), tol=1e-10)


# ---------------------------------------------------------------------------
# augmented consensus systems
# ---------------------------------------------------------------------------

def test_augmented_constant_rhs_gives_ones():
    lap = graph_laplacian(path_graph(4))
    eps = 1e-5
    v, _, ok = augmented_consensus_solve(lap, eps, eps * np.ones(4), tol=1e-10)
    assert ok
    np.testing.assert_allclose(v, np.ones(4), atol=1e-8)


def test_augmented_zero_rhs():
    lap = graph_laplacian(path_graph(4))
    v, iters, ok = augmented_consensus_solve(lap, 1e-8, np.zeros(4))
    assert ok and iters == 0
    np.testing.assert_array_equal(v, np.zeros(4))


@pytest.mark.parametrize("method", AUGMENTED_METHODS)
def test_augmented_matches_dense_oracle(method):
    lap = graph_laplacian(path_graph(3))
    rng = np.random.default_rng(11)
    eps = 1e-8
    s = rng.standard_normal(3)
    v, _, ok = augmented_consensus_solve(lap, eps, s, method=method, tol=1e-9, i_max=500000)
    assert ok
    dense = np.linalg.solve(eps * np.eye(3) + lap.toarray(), s)
    assert np.linalg.norm(v - dense) / np.linalg.norm(dense) <= 1e-6


# the solver parameter keeps the test ids of the checks stable
@pytest.mark.parametrize("solve", [augmented_consensus_solve])
def test_consensus_solvers_reject_several_columns(solve):
    lap = graph_laplacian(path_graph(3))
    with pytest.raises(ValueError, match="one vector"):
        solve(lap, 1e-2, np.ones((3, 2)))


SOLVES_AND_METHODS = [(augmented_consensus_solve, method) for method in AUGMENTED_METHODS]


@pytest.mark.parametrize("solve,method", SOLVES_AND_METHODS)
def test_consensus_solvers_reject_a_negative_cap(solve, method):
    # -1 is no cap: the sweeps would report -1 sweeps and PCG would run uncapped
    lap = graph_laplacian(path_graph(6))
    s = np.random.default_rng(3).standard_normal(6)
    for rhs in (s, np.zeros(6)):
        with pytest.raises(ValueError, match="i_max must be nonnegative, got -1"):
            solve(lap, 1e-3, rhs, method=method, i_max=-1)
    v, iters, ok = solve(lap, 1e-3, s, method=method, i_max=0)
    assert (iters, ok) == (0, False)
    np.testing.assert_array_equal(v, np.zeros(6))


@pytest.mark.parametrize("eps", [-0.5, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("solve", [augmented_consensus_solve])
def test_consensus_solvers_reject_an_eps_outside_zero_to_inf(solve, eps):
    # eps I + L is indefinite below 0, singular at 0 and not finite at nan or inf
    lap = graph_laplacian(path_graph(6))
    for rhs in (np.random.default_rng(3).standard_normal(6), np.zeros(6)):
        with pytest.raises(ValueError, match="eps must be positive and finite, got"):
            solve(lap, eps, rhs, method="sgs")


@pytest.mark.parametrize("solve,method", SOLVES_AND_METHODS)
def test_consensus_solvers_reject_a_bad_tol_or_a_non_finite_rhs(solve, method):
    # the sweeps ran all i_max steps on a negative or nan tol and on a nan in s
    lap = graph_laplacian(path_graph(6))
    s = np.random.default_rng(3).standard_normal(6)
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"tol must be nonnegative and finite, got {tol}"):
            solve(lap, 1e-3, s, method=method, tol=tol, i_max=50)
    for entry in (np.nan, np.inf, -np.inf):
        rhs = s.copy()
        rhs[2] = entry
        with pytest.raises(ValueError, match=f"the right side must be finite, got {entry}"):
            solve(lap, 1e-3, rhs, method=method, i_max=50)


@pytest.mark.parametrize("solve,method", SOLVES_AND_METHODS)
def test_consensus_solvers_reject_a_bad_operator_or_a_mis_sized_rhs(solve, method):
    # a nan off the diagonal once ran a method to i_max on a nan v or ended sgs
    # in SuperLU's "Factor is exactly singular"; a short s hit a broadcast error
    lap = graph_laplacian(path_graph(6))
    s = np.random.default_rng(3).standard_normal(6)
    for entry in (np.nan, np.inf):
        bad = lap.copy()
        bad[0, 1] = entry
        with pytest.raises(ValueError, match=f"the operator must be finite, got {entry}"):
            solve(bad, 1e-3, s, method=method, i_max=50)
    with pytest.raises(ValueError, match="the right side has 5 entries, the operator 6 rows"):
        solve(lap, 1e-3, s[:5], method=method, i_max=50)
    for operator in (lap.toarray(), lap[:, :5]):
        with pytest.raises(ValueError, match=f"square scipy sparse matrix, got "
                                             f"{type(operator).__name__} of shape"):
            solve(operator, 1e-3, s, method=method, i_max=50)


def test_pcg_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="i_max must be nonnegative, got -1"):
        pcg_solve(lambda d: d, np.ones(2), 1e-8, -1)
    assert pcg_solve(lambda d: d, np.ones(2), 1e-8, 0).iterations == 0


def dense_bordered(lap, eps):
    q = lap.shape[0]
    bordered = np.zeros((q + 1, q + 1))
    bordered[0, 0] = eps * q
    bordered[0, 1:] = eps
    bordered[1:, 0] = eps
    bordered[1:, 1:] = eps * np.eye(q) + lap.toarray()
    return bordered


@pytest.mark.parametrize("eps", [0.05, 1e-6])
def test_bordered_matrix_matches_dense(eps):
    for lap in (graph_laplacian(path_graph(4)),
                graph_laplacian(random_geometric_graph(20, 0.4, 3))):
        bordered = _bordered_matrix(lap, eps)
        assert bordered.format == "csr"
        np.testing.assert_array_equal(bordered.toarray(), dense_bordered(lap, eps))


def test_triangle_factors_keep_the_triangles_without_fill():
    # the benchmark's consensus graph: 400 nodes, radius 0.11, eps 1e-6
    lap = graph_laplacian(random_geometric_graph(400, 0.11, 5))
    bordered = _bordered_matrix(lap, 1e-6)
    size = bordered.shape[0]
    lower, upper = _triangle_factors(bordered)
    for factor in (lower, upper):
        np.testing.assert_array_equal(factor.perm_r, np.arange(size))
        np.testing.assert_array_equal(factor.perm_c, np.arange(size))
    # unit-lower L times diagonal U, and identity L times upper U
    assert (lower.L.nnz, lower.U.nnz) == (sp.tril(bordered).nnz, size)
    assert (upper.L.nnz, upper.U.nnz) == (size, sp.triu(bordered).nnz)


@pytest.mark.parametrize("method", AUGMENTED_METHODS)
def test_zero_diagonal_triangle_raises_linalg_error(method):
    # eps must be positive, so the zero diagonal comes from A = -eps I: the
    # bordered matrix is [[1, 1], [1, 0]]
    with pytest.raises(np.linalg.LinAlgError):
        augmented_consensus_solve(-sp.identity(1), 1.0, np.ones(1), method)


def dense_sweeps(matrix, b, sweeps):
    """``sweeps`` dense symmetric Gauss-Seidel sweeps from zero."""
    x = np.zeros_like(b)
    for _ in range(sweeps):
        # forward sweep (row 0 first), then the backward one (row 0 last)
        x = scipy.linalg.solve_triangular(np.tril(matrix), b - np.triu(matrix, 1) @ x,
                                          lower=True)
        x = scipy.linalg.solve_triangular(np.triu(matrix), b - np.tril(matrix, -1) @ x,
                                          lower=False)
    return x


@pytest.mark.parametrize("sweeps", [1, 2])
def test_sgs_iterations_match_dense_gauss_seidel(sweeps):
    lap = graph_laplacian(random_geometric_graph(20, 0.4, 3))
    eps = 1e-3
    rng = np.random.default_rng(14)
    s = rng.standard_normal(20)
    v, iters, _ = augmented_consensus_solve(lap, eps, s, method="sgs",
                                            tol=1e-15, i_max=sweeps)
    assert iters == sweeps
    x = dense_sweeps(dense_bordered(lap, eps), np.concatenate([[s.sum()], s]), sweeps)
    np.testing.assert_allclose(v, x[1:] + x[0], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("sweeps", [1, 2])
@pytest.mark.parametrize("method", ["sgs"])  # the parameter keeps the test ids stable
def test_stationary_sweeps_match_dense_splitting(method, sweeps):
    # on the bordered matrix, whose coarse coefficient is row 0
    lap = graph_laplacian(path_graph(5))
    eps = 0.05
    s = np.random.default_rng(12).standard_normal(5)
    v, iters, _ = augmented_consensus_solve(lap, eps, s, method=method,
                                            tol=1e-15, i_max=sweeps)
    assert iters == sweeps
    x = dense_sweeps(dense_bordered(lap, eps), np.concatenate([[s.sum()], s]), sweeps)
    np.testing.assert_allclose(v, x[1:] + x[0], rtol=1e-12, atol=1e-12)


# (iterations, converged) of each method at tol 1e-6 on the right side
# default_rng(7).standard_normal(n); a rewrite of a method must keep them
@pytest.mark.parametrize("graph,eps,i_max,counts", [
    (path_graph(30), 1e-2, 20000,
     {"sgs": (302, True), "pcg_jacobi": (30, True), "pcg_sgs": (16, True)}),
    (grid_graph(6, 7), 1e-6, 1000,
     {"sgs": (58, True), "pcg_jacobi": (25, True), "pcg_sgs": (11, True)}),
    (random_geometric_graph(120, 0.2, 4), 1e-2, 6000,
     {"sgs": (139, True), "pcg_jacobi": (25, True), "pcg_sgs": (13, True)}),
], ids=["path30", "grid6x7", "geometric120"])
def test_consensus_iteration_counts_are_pinned(graph, eps, i_max, counts):
    lap = graph_laplacian(graph)
    s = np.random.default_rng(7).standard_normal(graph.n)
    for name, expected in counts.items():
        _, iters, ok = augmented_consensus_solve(lap, eps, s, name, 1e-6, i_max)
        assert (iters, ok) == expected, name
