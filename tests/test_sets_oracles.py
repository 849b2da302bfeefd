import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from apd import (
    Box,
    L1Prox,
    LogisticObjective,
    MatrixConstraint,
    ProblemInstance,
    QuadraticObjective,
    ZeroObjective,
    ZeroProx,
    oracles,
)
from apd.model import operator_norm_estimate


def test_soft_threshold_examples():
    g = L1Prox(1.0)
    assert g.prox(1.0, np.array([2.0])) == pytest.approx(1.0)
    assert g.prox(1.0, np.array([0.5])) == pytest.approx(0.0)


def test_box_projection_example():
    g = ZeroProx(Box(np.zeros(3), np.ones(3)))
    out = g.prox(0.3, np.array([-1.0, 0.4, 7.0]))
    np.testing.assert_allclose(out, [0.0, 0.4, 1.0])
    x = np.array([-1e300, 0.0, 3.5])
    assert Box().project(x) is x  # the whole space projects without a copy


def test_values_include_indicator():
    g = ZeroProx(Box(np.zeros(2), np.ones(2)))
    assert g.value(np.array([0.5, 0.5])) == 0.0
    assert g.value(np.array([2.0, 0.5])) == np.inf
    l1 = L1Prox(0.5, Box(-np.ones(2), np.ones(2)))
    assert l1.value(np.array([0.5, -0.5])) == pytest.approx(0.5)
    assert l1.value(np.array([3.0, 0.0])) == np.inf


def test_l1_jacobian_examples():
    g = L1Prox(1.0)
    np.testing.assert_allclose(g.prox_jacobian(1.0, np.array([2.0, 0.5, -3.0])),
                               [1.0, 0.0, 1.0])
    # tie at the kink resolves to inactive
    np.testing.assert_allclose(g.prox_jacobian(1.0, np.array([1.0, -1.0])),
                               [0.0, 0.0])
    assert np.all(ZeroProx().prox_jacobian(1.0, np.zeros(4)) == 1.0)


def test_box_jacobian_interior_only():
    g = ZeroProx(Box(np.zeros(3), np.ones(3)))
    np.testing.assert_allclose(g.prox_jacobian(1.0, np.array([-0.5, 0.5, 1.0])),
                               [0.0, 1.0, 0.0])


@pytest.mark.parametrize("prox, free, fixed, slope", [
    (ZeroProx(), [True] * 5, [0.0] * 5, [0.0] * 5),
    (ZeroProx(Box(-1.0, [1.0, 1.0, 3.0, 2.0, 1.0])),
     [False, True, True, False, True], [1.0, 0.0, 0.0, -1.0, 0.0], [0.0] * 3),
    (L1Prox(0.5), [True, True, False, True, True], [0.0] * 5, [0.5, -0.5, -0.5, 0.5]),
    (L1Prox(0.5, Box(-1.0, [1.0, 1.0, 3.0, 2.0, 1.0])),
     [False, True, False, False, True], [1.0, 0.0, 0.0, -1.0, 0.0], [-0.5, 0.5]),
], ids=["zero", "zero-box", "l1", "l1-box"])
def test_face_reads_the_free_coordinates_the_fixed_values_and_the_slope(prox, free, fixed,
                                                                        slope):
    # the point: at an upper bound, inside, at 0, at a lower bound, inside
    point = np.array([1.0, -0.5, 0.0, -1.0, 0.25])
    got_free, got_fixed, got_slope = prox.face(point)
    np.testing.assert_array_equal(got_free, free)
    np.testing.assert_array_equal(got_fixed, fixed)
    np.testing.assert_array_equal(got_slope, slope)
    # the slope is the derivative of g along the free coordinates, and g is
    # finite there: the face is the set where g is affine
    step = np.where(got_free, 0.01 * np.arange(1.0, 6.0), 0.0)
    assert prox.value(point + step) - prox.value(point) == pytest.approx(
        float(got_slope @ step[got_free]))


def test_firm_nonexpansiveness_sampled():
    rng = np.random.default_rng(0)
    proxes = [
        ZeroProx(),
        ZeroProx(Box(-np.ones(6), np.ones(6))),
        ZeroProx(Box(0.0, np.inf)),
        L1Prox(0.7),
        L1Prox(0.3, Box(-2 * np.ones(6), 2 * np.ones(6))),
        L1Prox(0.5, Box(np.full(6, -np.inf), np.arange(6.0))),
    ]
    for g in proxes:
        for _ in range(1000):
            eta = rng.uniform(0.1, 2.0)
            x, y = rng.standard_normal(6) * 3, rng.standard_normal(6) * 3
            px, py = g.prox(eta, x), g.prox(eta, y)
            lhs = float((px - py) @ (x - y))
            rhs = float((px - py) @ (px - py))
            assert lhs >= rhs - 1e-10


def test_moreau_decomposition_independent_conjugate_prox():
    # the conjugate proxes are independent closed forms, not derived from the
    # primal side, so the identity is a real check: g = 0 has the indicator of
    # {0} as conjugate, g = w|x|_1 the indicator of [-w, w]^n
    rng = np.random.default_rng(1)
    for g, conjugate_prox in ((ZeroProx(), lambda y: np.zeros_like(y)),
                              (L1Prox(0.8), lambda y: np.clip(y, -0.8, 0.8))):
        for _ in range(1000):
            eta = rng.uniform(0.05, 3.0)
            u = rng.standard_normal(5) * 2
            lhs = g.prox(eta, u) + eta * conjugate_prox(u / eta)
            np.testing.assert_allclose(lhs, u, atol=1e-12)


def test_is_zero_is_read_from_the_data():
    assert ZeroObjective(3).is_zero and QuadraticObjective(np.zeros(3)).is_zero
    assert QuadraticObjective(np.zeros((3, 3))).is_zero
    # the symmetric part of an antisymmetric Q is zero, and so is h
    assert QuadraticObjective(np.array([[0.0, 1.0], [-1.0, 0.0]])).is_zero
    assert not QuadraticObjective(np.zeros(3), np.array([0.0, 1e-300, 0.0])).is_zero
    assert not QuadraticObjective(np.array([0.0, 2.0, 0.0])).is_zero
    assert not LogisticObjective(np.zeros((1, 3)), np.ones(1)).is_zero


def _slightly_indefinite(n=400):
    # lambda_min = -1.2e-10 is below the tolerance -1e-10 of a positive
    # semidefinite Q, yet within its slack 4 n eps trace(Q) = 1.4e-10 of zero
    basis = np.linalg.qr(np.random.default_rng(9).standard_normal((n, n)))[0]
    return (basis * np.r_[-1.2e-10, np.ones(n - 1)]) @ basis.T


def _problem_over(box):
    return ProblemInstance(ZeroObjective(4), ZeroProx(box), MatrixConstraint(np.ones((1, 4)), 1.0))


@pytest.mark.parametrize("build, message", [
    (lambda: QuadraticObjective(np.array([1.0, np.nan])), "quadratic term Q holds NaN"),
    (lambda: QuadraticObjective(np.diag([1.0, np.inf])), "quadratic term Q holds NaN"),
    (lambda: QuadraticObjective(np.ones(2), np.array([0.0, -np.inf])), "linear term c holds"),
    (lambda: LogisticObjective(np.array([[np.nan, 1.0]]), np.ones(1)), "features hold NaN"),
    (lambda: LogisticObjective(np.ones((1, 2)), np.ones(1), ridge=-2.0),
     "ridge must be finite and nonnegative, got -2.0"),
    (lambda: LogisticObjective(np.ones((1, 2)), np.ones(1), ridge=np.inf), "ridge must be"),
    (lambda: LogisticObjective(np.ones((1, 2)), np.ones(1), ridge=np.nan), "ridge must be"),
    (lambda: LogisticObjective(np.ones((3, 2)), np.ones(2)),
     r"labels have shape \(2,\); the features have 3 rows"),
    (lambda: LogisticObjective(np.ones((3, 2)), np.ones((3, 1))), r"labels have shape \(3, 1\)"),
    (lambda: LogisticObjective(np.ones(3), np.ones(3)),
     r"features must be a 2-d array, got shape \(3,\)"),
    (lambda: QuadraticObjective(np.ones(3), np.ones(4)),
     r"linear term c has shape \(4,\), Q has dimension 3"),
    (lambda: QuadraticObjective(np.eye(3), np.ones((3, 1))), "linear term c has shape"),
    (lambda: QuadraticObjective(np.ones(3), mu=np.nan), "mu must be finite and nonnegative"),
    (lambda: QuadraticObjective(np.ones(3), lip=-1.0),
     "lip must be finite and nonnegative, got -1.0"),
    (lambda: QuadraticObjective(np.ones(3), lip=np.inf), "lip must be finite"),
    (lambda: QuadraticObjective(np.array([1.0, 4.0]), lip=3.0),
     "lip 3.0 is below the largest eigenvalue 4.0 of Q"),
    (lambda: QuadraticObjective(np.diag([1.0, 4.0]), mu=1.5),
     "mu 1.5 is above the smallest eigenvalue 1.0 of Q"),
    # both overrides on a dense Q: a failed certificate falls back to eigvalsh
    (lambda: QuadraticObjective(np.diag([1.0, 4.0]), mu=1.0, lip=3.0),
     "lip 3.0 is below the largest eigenvalue 4.0 of Q"),
    (lambda: QuadraticObjective(np.diag([1.0, 4.0]), mu=1.5, lip=4.0),
     "mu 1.5 is above the smallest eigenvalue 1.0 of Q"),
    (lambda: QuadraticObjective(np.diag([-1.0, 2.0]), mu=0.0, lip=2.0),
     "quadratic term must be positive semidefinite"),
    (lambda: QuadraticObjective(np.diag([-1.0, 2.0]), mu=np.nan, lip=2.0),
     "quadratic term must be positive semidefinite"),
    (lambda: QuadraticObjective(_slightly_indefinite(), mu=0.0, lip=1.0),
     "quadratic term must be positive semidefinite"),
    (lambda: QuadraticObjective(np.eye(2), mu=0.5, lip=np.inf), "lip must be finite"),
    (lambda: QuadraticObjective(np.ones((2, 3))), r"square matrix, got shape \(2, 3\)"),
    (lambda: QuadraticObjective(np.ones((2, 2, 2))), "a vector or a square matrix"),
    (lambda: QuadraticObjective(np.zeros(0)), "dimension 0"),
    (lambda: ZeroObjective(0), "dimension 0"),
    (lambda: Box([np.nan, 0.0], [1.0, 1.0]), "box bounds hold NaN"),
    (lambda: Box(0.0, np.nan), "box bounds hold NaN"),
    (lambda: _problem_over(Box(np.zeros(3), np.ones(3))),
     r"box bounds of shape \(3,\) do not broadcast to the 4 columns"),
    (lambda: _problem_over(Box(np.zeros((4, 1)), 1.0)), "do not broadcast to the 4 columns"),
    (lambda: L1Prox(np.nan), "l1 weight must be finite and nonnegative, got nan"),
    (lambda: L1Prox(np.inf), "l1 weight must be finite"),
    (lambda: L1Prox(-0.5), "l1 weight must be finite and nonnegative, got -0.5"),
], ids=["diag-nan", "dense-inf", "linear-inf", "features-nan", "ridge-negative",
        "ridge-inf", "ridge-nan", "labels-length", "labels-column", "features-vector",
        "linear-length", "linear-column", "mu-nan", "lip-negative", "lip-inf",
        "lip-below-spectrum", "mu-above-spectrum", "dense-lip-below-spectrum",
        "dense-mu-above-spectrum", "dense-overrides-not-psd", "dense-mu-nan-not-psd",
        "dense-overrides-slightly-indefinite",
        "dense-lip-inf", "not-square", "stacked",
        "quadratic-empty", "zero-objective-empty", "box-nan-lower", "box-nan-upper",
        "box-short", "box-column", "l1-nan", "l1-inf", "l1-negative"])
def test_smooth_oracles_reject_bad_data(build, message):
    with pytest.raises(ValueError, match=message):
        build()



def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


@st.composite
def logistic_features(draw):
    """Gaussian features of orders 0, 1, 2 and more, rank-one and zero ones,
    and ones whose two top singular values are equal or nearly so."""
    kind = draw(st.sampled_from(["gaussian", "rank_one", "zero", "near_equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = st.one_of(st.integers(0, 2), st.integers(3, 40))
    rows, cols = draw(size), draw(size)
    scale = 10.0 ** draw(st.integers(-4, 4))
    order = min(rows, cols)
    if kind == "zero" or order == 0:
        return np.zeros((rows, cols))
    if kind == "rank_one":
        return scale * np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    if kind == "near_equal" and order >= 2:
        gap = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]))
        s = np.concatenate([[1.0, 1.0 - gap], rng.uniform(0.0, 0.9, order - 2)])
        return scale * (_orthonormal(rng, rows, order) * s) @ _orthonormal(rng, cols, order).T
    return scale * rng.standard_normal((rows, cols))


@settings(max_examples=300, deadline=None)
@given(logistic_features(), st.sampled_from([0.0, 0.1, 1.0]))
def test_logistic_lip_is_a_tight_upper_bound(features, ridge):
    lip = LogisticObjective(features, np.ones(features.shape[0]), ridge=ridge).lip
    truth = ridge + 0.25 * np.linalg.eigvalsh(features.T @ features).max(initial=0.0)
    assert truth <= lip <= (1.0 + 1e-8) * truth


def test_gram_lambda_max_falls_back_to_the_dense_estimate(monkeypatch):
    features = np.random.default_rng(5).standard_normal((30, 50))
    gram = features @ features.T
    values, vectors = np.linalg.eigh(gram)
    truth = np.linalg.eigvalsh(features.T @ features).max()

    def second_largest(matrix, **kwargs):
        # an exact eigenpair, but not the largest: the certificate must fail
        return values[-2:-1], vectors[:, -2:-1]

    def no_convergence(matrix, **kwargs):
        raise ArpackNoConvergence("no convergence on purpose", np.zeros(0), np.zeros((30, 0)))

    for estimate in (second_largest, no_convergence):
        monkeypatch.setattr(oracles, "eigsh", estimate)
        bound = oracles.gram_lambda_max(features)
        # the square of operator_norm_estimate: eigvalsh plus its rounding slack
        assert np.sqrt(bound) == operator_norm_estimate(features)
        assert bound >= truth
        assert LogisticObjective(features, np.ones(30), ridge=0.1).lip == 0.1 + 0.25 * bound


def _refuse(*args, **kwargs):
    raise AssertionError("an SVD or a dense eigensolve ran")


def test_logistic_objective_takes_no_svd_or_dense_eigensolve(monkeypatch):
    for module, name in ((np.linalg, "svd"), (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                         (scipy.linalg, "svd"), (scipy.linalg, "svdvals"),
                         (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, _refuse)
    norm = np.linalg.norm

    def vector_norm(x, ord=None, *args, **kwargs):
        if np.ndim(x) == 2 and ord in (2, -2, "nuc"):
            _refuse()  # a matrix norm that takes an SVD
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", vector_norm)
    rng = np.random.default_rng(6)
    for shape in ((300, 400), (400, 300), (2, 5), (5, 2), (1, 4), (0, 3)):
        assert LogisticObjective(rng.standard_normal(shape), np.ones(shape[0])).lip >= 0.0


def test_logistic_hessian_is_the_derivative_of_its_gradient():
    rng = np.random.default_rng(9)
    smooth = LogisticObjective(rng.standard_normal((12, 5)), rng.choice([-1.0, 1.0], 12),
                               ridge=0.3)
    x, step = rng.standard_normal(5), 1e-6
    differences = np.array([(smooth.gradient(x + step * e) - smooth.gradient(x - step * e))
                            / (2 * step) for e in np.eye(5)])
    np.testing.assert_allclose(smooth.hessian_matrix(x), differences, rtol=1e-7, atol=1e-8)
    # margins far past exp's range give a zero weight, not an overflow
    with np.errstate(over="raise", invalid="raise"):
        root = smooth.hessian_root(1e4 * x)
    assert np.all(np.isfinite(root)) and np.all(root >= 0) and root.min() == 0


def test_dense_quadratic_defaults_carry_the_rounding_slack():
    rng = np.random.default_rng(7)
    basis = _orthonormal(rng, 30, 30)
    for spectrum in (rng.uniform(0.1, 2.0, 30), np.r_[np.zeros(10), rng.uniform(0.5, 1.0, 20)]):
        quad = (basis * spectrum) @ basis.T
        smooth = QuadraticObjective(quad)
        eig = np.linalg.eigvalsh(smooth.dense)
        slack = oracles._rounding_slack(quad.shape, np.trace(smooth.dense))
        assert smooth.lip == eig[-1] + slack > eig[-1]
        assert smooth.mu == max(eig[0] - slack, 0.0) <= max(eig[0], 0.0)
    # a diagonal's extremes are exact
    smooth = QuadraticObjective(np.array([0.5, 2.0, 1.0]))
    assert (smooth.mu, smooth.lip) == (0.5, 2.0)


def test_passed_constants_of_a_dense_quadratic_are_certified_without_eigvalsh(monkeypatch):
    rng = np.random.default_rng(8)
    design = rng.standard_normal((20, 40))
    design /= np.linalg.norm(design, 2)
    quad = design.T @ design + 0.1 * np.eye(40)  # spectrum [0.1, 1.1], singular design
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda q: solved.append(1) or eigvalsh(q))
    for mu, lip in ((0.1, 1.1), (0.0, 1.1), (0.05, 3.0)):
        smooth = QuadraticObjective(quad, mu=mu, lip=lip)
        assert (smooth.mu, smooth.lip) == (mu, lip) and solved == []
    # one override, or one that fails its certificate, takes eigvalsh
    QuadraticObjective(quad, mu=0.1)
    assert solved == [1]
    with pytest.raises(ValueError, match="lip 1.0 is below the largest eigenvalue"):
        QuadraticObjective(quad, mu=0.1, lip=1.0)
    assert solved == [1, 1]
