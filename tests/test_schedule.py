import numpy as np
import pytest

from apd import ScalingState, StepRule, advance_scaling, step_size, theta_upper_bound
from apd.schedule import SCHEMES, repeats_pairs, restart_scaling


def test_advance_scaling_examples():
    s = advance_scaling(ScalingState(1.0, 1.0), 1.0, 0.0)
    assert (s.theta, s.gamma) == (0.5, 0.5)
    s = advance_scaling(ScalingState(1.0, 2.0), 1.0, 2.0)
    assert (s.theta, s.gamma) == (0.5, 2.0)  # gamma = mu is a fixed point
    s = advance_scaling(ScalingState(0.5, 1.0), 0.5, 0.25)
    assert s.theta == pytest.approx(1.0 / 3.0)
    assert s.gamma == pytest.approx(0.75)


def test_advance_scaling_rejects_bad_step():
    with pytest.raises(ValueError):
        advance_scaling(ScalingState(), -1.0, 0.0)


def test_scaling_state_validation():
    with pytest.raises(ValueError):
        ScalingState(theta=1.5)
    with pytest.raises(ValueError):
        ScalingState(gamma=0.0)


def test_step_size_examples():
    s = ScalingState(1.0, 1.0)
    assert step_size(StepRule("semi_apd", norm_a=np.sqrt(2)), s) == pytest.approx(1 / np.sqrt(2))
    assert step_size(StepRule("semi_apdfb", lip_beta=1.0), s) == pytest.approx(1.0)
    assert step_size(StepRule("ex_apdfb", lip_beta=1.0, norm_a=np.sqrt(2)), s) \
        == pytest.approx(1 / np.sqrt(3))
    assert step_size(StepRule("implicit", alpha=0.7), s) == 0.7


def test_step_size_guards():
    s = ScalingState(1.0, 1.0)
    with pytest.raises(ValueError):
        step_size(StepRule("semi_apd", norm_a=0.0), s)
    with pytest.raises(ValueError):
        step_size(StepRule("semi_apdfb", lip_beta=0.0), s)


def test_theta_upper_bound_examples():
    for rule in (StepRule("semi_apd", norm_a=1.0),
                 StepRule("semi_apdfb", lip_beta=1.0),
                 StepRule("ex_apdfb", norm_a=1.0, lip_beta=1.0),
                 StepRule("implicit", alpha=1.0)):
        assert theta_upper_bound(rule, 0, 1.0, 0.0, 1.0) == 1.0
    fb = StepRule("semi_apdfb", lip_beta=1.0)
    # sublinear branch (2.5/3.5)^2 vs linear branch 1/2: min is the linear one,
    # which the realized sequence theta_k = 2^-k attains exactly
    assert theta_upper_bound(fb, 1, 1.0, 1.0, 1.0) == pytest.approx(0.5)
    assert theta_upper_bound(fb, 1, 1.0, 0.0, 1.0) == pytest.approx((2.5 / 3.5) ** 2)
    apd_rule = StepRule("semi_apd", norm_a=1.0)
    assert theta_upper_bound(apd_rule, 3, 1.0, 0.0, 1.0) == pytest.approx(4.0 / 7.0)


def test_realized_theta_below_bound():
    rng = np.random.default_rng(0)
    for variant, kwargs in [("semi_apd", {"norm_a": 1.3}),
                            ("semi_apdfb", {"lip_beta": 2.0}),
                            ("ex_apdfb", {"norm_a": 1.3, "lip_beta": 2.0})]:
        for mu_beta in (0.0, 0.4):
            gamma0 = rng.uniform(0.5, 2.0)
            rule = StepRule(variant, **kwargs)
            state = ScalingState(1.0, gamma0)
            gmin, gmax = min(gamma0, mu_beta), max(gamma0, mu_beta)
            for k in range(1, 301):
                state = advance_scaling(state, step_size(rule, state), mu_beta)
                bound = theta_upper_bound(rule, k, gamma0, gmin, gmax)
                assert state.theta <= bound * (1 + 1e-12)


def test_gamma_theta_coupling():
    # gamma_k >= gamma0 * theta_k always; equality when mu_beta = 0
    rule = StepRule("semi_apd", norm_a=1.0)
    state = ScalingState(1.0, 2.0)
    for _ in range(200):
        state = advance_scaling(state, step_size(rule, state), 0.3)
        assert state.gamma >= 2.0 * state.theta * (1 - 1e-12)
        assert min(2.0, 0.3) <= state.gamma <= max(2.0, 0.3) + 1e-12

    flat = ScalingState(1.0, 2.0)
    for _ in range(200):
        flat = advance_scaling(flat, 0.37, 0.0)
        assert flat.gamma == pytest.approx(2.0 * flat.theta, rel=1e-12)


def test_theta_monotone_decreasing():
    state = ScalingState()
    prev = state.theta
    for _ in range(50):
        state = advance_scaling(state, 0.5, 1.0)
        assert state.theta < prev
        prev = state.theta


def test_restarted_epochs_repeat_their_pairs_unless_gamma_is_kept():
    # only a scheme that advances gamma with mu_beta > 0 keeps it across restarts
    for variant in SCHEMES:
        for mu_beta in (0.0, 0.5):
            repeats = repeats_pairs(variant, mu_beta)
            assert repeats == (mu_beta == 0 or variant == "implicit")
            assert restart_scaling(variant, mu_beta, 0.7, 2.0) \
                == ScalingState(1.0, 2.0 if repeats else 0.7)
