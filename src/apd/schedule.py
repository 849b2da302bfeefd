"""Scaling-factor recursion, per-scheme step-size rules, and decay certificates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Runs stop once the decay factor can no longer be represented meaningfully.
SCALE_FLOOR = 1e-300

SCHEMES = ("implicit", "semi_apd", "semi_apdfb", "ex_apdfb")


@dataclass(frozen=True)
class ScalingState:
    """The pair driving every scheme's step size and rate certificate."""

    theta: float = 1.0
    gamma: float = 1.0
    k: int = 0

    def __post_init__(self):
        if not (0 < self.theta <= 1):
            raise ValueError("theta must lie in (0, 1]")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    @property
    def exhausted(self):
        return self.theta < SCALE_FLOOR


def advance_scaling(state, alpha, mu_beta):
    """One implicit-Euler update of the scaling pair."""
    if alpha <= 0:
        raise ValueError("step size must be positive")
    return ScalingState(
        theta=state.theta / (1.0 + alpha),
        gamma=(state.gamma + mu_beta * alpha) / (1.0 + alpha),
        k=state.k + 1,
    )


@dataclass(frozen=True)
class StepRule:
    """Step-size rule of one scheme with the constants it consumes.

    ``implicit`` uses a free constant step ``alpha``; the other three use
    their proven relations between the step and the scaling pair.
    """

    variant: str
    norm_a: float = 0.0
    lip_beta: float = 0.0
    alpha: float = 1.0  # free step for the implicit scheme

    def __post_init__(self):
        if self.variant not in SCHEMES:
            raise ValueError(f"unknown scheme {self.variant!r}")

    @property
    def s_beta(self):
        return self.lip_beta + self.norm_a ** 2


def step_size(rule, state):
    """Step size prescribed by ``rule`` at the current scaling."""
    if rule.variant == "implicit":
        if rule.alpha <= 0:
            raise ValueError("free step size must be positive")
        return rule.alpha
    if rule.variant == "semi_apd":
        if rule.norm_a <= 0:
            raise ValueError("semi_apd step needs a nonzero constraint operator")
        return np.sqrt(state.theta * state.gamma) / rule.norm_a
    if rule.variant == "semi_apdfb":
        if rule.lip_beta <= 0:
            raise ValueError("semi_apdfb step needs a positive smoothness constant")
        return np.sqrt(state.gamma / rule.lip_beta)
    # ex_apdfb
    if rule.s_beta <= 0:
        raise ValueError("ex_apdfb step needs lip_beta + |A|^2 > 0")
    return np.sqrt(state.theta * state.gamma / rule.s_beta)


def theta_upper_bound(rule, k, gamma0, gamma_min, gamma_max):
    """Closed-form certificate ``theta_k <= bound(k)`` for each scheme."""
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    if k == 0:
        return 1.0
    if rule.variant == "implicit":
        return (1.0 + rule.alpha) ** (-k)
    if rule.variant == "semi_apdfb":
        lip = rule.lip_beta
        # telescoping 1/sqrt(theta): each increment is at least
        # sqrt(gamma0) / q with q = 2 sqrt(lip) + sqrt(gamma_max)/2, since
        # 1 + sqrt(1+a) <= 2 + a/2 and a_k <= sqrt(gamma_max/lip)
        q = 2.0 * np.sqrt(lip) + 0.5 * np.sqrt(gamma_max)
        sublinear = (q / (np.sqrt(gamma0) * k + q)) ** 2
        linear = (1.0 + np.sqrt(gamma_min / lip)) ** (-k)
        return min(sublinear, linear)
    if rule.variant == "semi_apd":
        q = 3.0 * rule.norm_a + np.sqrt(gamma_max)
    else:  # ex_apdfb
        q = 3.0 * np.sqrt(rule.s_beta) + np.sqrt(gamma_max)
    sublinear = q / (np.sqrt(gamma0) * k + q)
    accelerated = q ** 2 / (np.sqrt(gamma_min) * k + q) ** 2
    return min(sublinear, accelerated)
