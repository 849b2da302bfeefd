import numpy as np
import pytest

from apd import (
    Box,
    L1Prox,
    LogisticObjective,
    MatrixConstraint,
    ProblemInstance,
    QuadraticObjective,
    ZeroObjective,
    ZeroProx,
)


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
        "lip-below-spectrum", "mu-above-spectrum", "not-square", "stacked",
        "quadratic-empty", "zero-objective-empty", "box-nan-lower", "box-nan-upper",
        "box-short", "box-column", "l1-nan", "l1-inf", "l1-negative"])
def test_smooth_oracles_reject_bad_data(build, message):
    with pytest.raises(ValueError, match=message):
        build()

