import numpy as np
import pytest

from apd import (
    Box,
    HalfSpace,
    L1Prox,
    LogisticObjective,
    QuadraticObjective,
    QuadraticProx,
    RealSpace,
    ZeroObjective,
    ZeroProx,
)
from apd.oracles import UnsupportedOracleError


def test_soft_threshold_examples():
    g = L1Prox(1.0)
    assert g.prox(1.0, np.array([2.0])) == pytest.approx(1.0)
    assert g.prox(1.0, np.array([0.5])) == pytest.approx(0.0)


def test_box_projection_example():
    g = ZeroProx(Box(np.zeros(3), np.ones(3)))
    out = g.prox(0.3, np.array([-1.0, 0.4, 7.0]))
    np.testing.assert_allclose(out, [0.0, 0.4, 1.0])


def test_halfspace_projection():
    hs = HalfSpace(np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(hs.project(np.array([3.0, 2.0])), [1.0, 2.0])
    np.testing.assert_allclose(hs.project(np.array([0.5, -1.0])), [0.5, -1.0])
    assert hs.contains(np.array([0.5, -1.0]))
    assert not hs.contains(np.array([2.0, 0.0]))


def test_values_include_indicator():
    g = ZeroProx(Box(np.zeros(2), np.ones(2)))
    assert g.value(np.array([0.5, 0.5])) == 0.0
    assert g.value(np.array([2.0, 0.5])) == np.inf
    l1 = L1Prox(0.5, Box(-np.ones(2), np.ones(2)))
    assert l1.value(np.array([0.5, -0.5])) == pytest.approx(0.5)
    assert l1.value(np.array([3.0, 0.0])) == np.inf


def test_quadratic_prox_closed_form():
    g = QuadraticProx(np.array([1.0, 4.0]))
    np.testing.assert_allclose(g.prox(0.5, np.array([3.0, 3.0])),
                               [3.0 / 1.5, 3.0 / 3.0])
    boxed = QuadraticProx(np.array([1.0, 1.0]), Box(np.zeros(2), 0.5 * np.ones(2)))
    np.testing.assert_allclose(boxed.prox(1.0, np.array([2.0, -2.0])), [0.5, 0.0])


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


def test_halfspace_jacobian_not_separable():
    g = ZeroProx(HalfSpace(np.ones(2), 1.0))
    with pytest.raises(UnsupportedOracleError):
        g.prox_jacobian(1.0, np.zeros(2))


def test_firm_nonexpansiveness_sampled():
    rng = np.random.default_rng(0)
    proxes = [
        ZeroProx(),
        ZeroProx(Box(-np.ones(6), np.ones(6))),
        ZeroProx(HalfSpace(np.arange(1.0, 7.0), 2.0)),
        L1Prox(0.7),
        L1Prox(0.3, Box(-2 * np.ones(6), 2 * np.ones(6))),
        QuadraticProx(np.linspace(0.1, 2.0, 6)),
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
    # conjugate proxes below are independent closed forms, not derived from
    # the primal side, so the identity is a real check
    rng = np.random.default_rng(1)
    for g in (ZeroProx(), L1Prox(0.8)):
        for _ in range(1000):
            eta = rng.uniform(0.05, 3.0)
            u = rng.standard_normal(5) * 2
            lhs = g.prox(eta, u) + eta * g.conjugate_prox(eta, u / eta)
            np.testing.assert_allclose(lhs, u, atol=1e-12)


def test_is_zero_is_read_from_the_data():
    assert ZeroObjective(3).is_zero and QuadraticObjective(np.zeros(3)).is_zero
    assert QuadraticObjective(np.zeros((3, 3))).is_zero
    # the symmetric part of an antisymmetric Q is zero, and so is h
    assert QuadraticObjective(np.array([[0.0, 1.0], [-1.0, 0.0]])).is_zero
    assert not QuadraticObjective(np.zeros(3), np.array([0.0, 1e-300, 0.0])).is_zero
    assert not QuadraticObjective(np.array([0.0, 2.0, 0.0])).is_zero
    assert not LogisticObjective(np.zeros((1, 3)), np.ones(1)).is_zero


@pytest.mark.parametrize("build, message", [
    (lambda: QuadraticObjective(np.array([1.0, np.nan])), "quadratic term Q holds NaN"),
    (lambda: QuadraticObjective(np.diag([1.0, np.inf])), "quadratic term Q holds NaN"),
    (lambda: QuadraticObjective(np.ones(2), np.array([0.0, -np.inf])), "linear term c holds"),
    (lambda: LogisticObjective(np.array([[np.nan, 1.0]]), np.ones(1)), "features hold NaN"),
    (lambda: LogisticObjective(np.ones((1, 2)), np.ones(1), ridge=-2.0),
     "ridge must be finite and nonnegative, got -2.0"),
    (lambda: LogisticObjective(np.ones((1, 2)), np.ones(1), ridge=np.inf), "ridge must be"),
    (lambda: LogisticObjective(np.ones((1, 2)), np.ones(1), ridge=np.nan), "ridge must be"),
], ids=["diag-nan", "dense-inf", "linear-inf", "features-nan", "ridge-negative",
        "ridge-inf", "ridge-nan"])
def test_smooth_oracles_reject_bad_data(build, message):
    with pytest.raises(ValueError, match=message):
        build()
