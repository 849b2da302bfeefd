"""Scaling-factor recursion, per-scheme step-size rules, and decay certificates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalingState:
    """The pair driving every scheme's step size and rate certificate.

    It holds no step count: a record's ``k`` is its step's index in the run.
    """

    theta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (0 < self.theta <= 1):
            raise ValueError("theta must lie in (0, 1]")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


def advance_scaling(state, alpha, mu_beta):
    """One implicit-Euler update of the scaling pair.

    Every scheme step calls it first, so it is the step's one check that
    ``alpha > 0``: it raises ``ValueError`` otherwise.
    """
    if alpha <= 0:
        raise ValueError("step size must be positive")
    return ScalingState(
        theta=state.theta / (1.0 + alpha),
        gamma=(state.gamma + mu_beta * alpha) / (1.0 + alpha),
    )


@dataclass(frozen=True)
class StepRule:
    """Step-size rule of one scheme with the constants it consumes.

    ``implicit`` uses a free constant step ``alpha``; the other three use
    their proven relations between the step and the scaling pair. A rule
    whose scheme cannot step with its constants raises ``ValueError`` here,
    once, so no step size or theta bound divides by zero, and no implicit
    step overflows ``alpha^2``.
    """

    variant: str
    norm_a: float = 0.0
    lip_beta: float = 0.0
    alpha: float = 1.0  # free step for the implicit scheme

    def __post_init__(self):
        if self.variant not in SCHEME_TABLE:
            raise ValueError(f"unknown scheme {self.variant!r}")
        scheme = SCHEME_TABLE[self.variant]
        if not getattr(self, scheme.constant) > 0:
            raise ValueError(scheme.unusable)
        # the implicit step forms alpha ** 2, which raises OverflowError past
        # the square root of the largest float; the product is inf there
        if scheme.step_size is _free_step and not float(self.alpha) * float(self.alpha) < np.inf:
            raise ValueError(f"free step size alpha={self.alpha} is too large: "
                             "alpha^2 overflows")

    @property
    def s_beta(self):
        return self.lip_beta + self.norm_a ** 2


# ---------------------------------------------------------------------------
# step sizes and decay certificates, one pair per scheme
# ---------------------------------------------------------------------------

def _free_step(rule, state):
    return rule.alpha


def _semi_apd_step(rule, state):
    return np.sqrt(state.theta * state.gamma) / rule.norm_a


def _semi_apdfb_step(rule, state):
    return np.sqrt(state.gamma / rule.lip_beta)


def _ex_apdfb_step(rule, state):
    return np.sqrt(state.theta * state.gamma / rule.s_beta)


def _implicit_bound(rule, k, gamma0, gamma_min, gamma_max):
    return (1.0 + rule.alpha) ** (-k)


def _semi_apdfb_bound(rule, k, gamma0, gamma_min, gamma_max):
    lip = rule.lip_beta
    # telescoping 1/sqrt(theta): each increment is at least
    # sqrt(gamma0) / q with q = 2 sqrt(lip) + sqrt(gamma_max)/2, since
    # 1 + sqrt(1+a) <= 2 + a/2 and a_k <= sqrt(gamma_max/lip)
    q = 2.0 * np.sqrt(lip) + 0.5 * np.sqrt(gamma_max)
    sublinear = (q / (np.sqrt(gamma0) * k + q)) ** 2
    linear = (1.0 + np.sqrt(gamma_min / lip)) ** (-k)
    return min(sublinear, linear)


def _accelerated_bound(q, k, gamma0, gamma_min):
    sublinear = q / (np.sqrt(gamma0) * k + q)
    accelerated = q ** 2 / (np.sqrt(gamma_min) * k + q) ** 2
    return min(sublinear, accelerated)


def _semi_apd_bound(rule, k, gamma0, gamma_min, gamma_max):
    return _accelerated_bound(3.0 * rule.norm_a + np.sqrt(gamma_max), k, gamma0, gamma_min)


def _ex_apdfb_bound(rule, k, gamma0, gamma_min, gamma_max):
    return _accelerated_bound(3.0 * np.sqrt(rule.s_beta) + np.sqrt(gamma_max), k, gamma0,
                              gamma_min)


@dataclass(frozen=True)
class Scheme:
    """One row of :data:`SCHEME_TABLE`.

    ``step`` names the scheme's step function in :mod:`apd.solvers`, which
    looks it up there at call time. ``step_size(rule, scaling)`` is the step
    rule and ``theta_bound(rule, k, gamma0, gamma_min, gamma_max)`` the
    closed-form certificate ``theta_k <= bound`` for ``k >= 1``.
    ``uses_mu_beta`` says whether the step advances the scaling pair with
    the problem's ``mu_beta``; when it does not, it advances with 0 and
    ``gamma`` decays with ``theta``. ``constant`` names the
    :class:`StepRule` value that the step size divides by or is, which must
    be positive; ``unusable`` is the message of a rule where it is not.
    ``prox_point`` names the iterate field that the step's prox lands on,
    where the run's polish reads the face of ``g``. ``fresh_residual`` says
    whether the step forms ``r_x = A x - b`` from its ``x``, so that
    :func:`~apd.solvers.run_solver` never forms it again; otherwise ``r_x``
    is carried by a recurrence.
    """

    step: str
    step_size: object
    theta_bound: object
    uses_mu_beta: bool
    constant: str
    unusable: str
    prox_point: str
    fresh_residual: bool


SCHEME_TABLE = {
    "implicit": Scheme("implicit_apd_step", _free_step, _implicit_bound, False, "alpha",
                       "free step size must be positive", "x", True),
    "semi_apd": Scheme("semi_apd_step", _semi_apd_step, _semi_apd_bound, True, "norm_a",
                       "semi_apd step needs a nonzero constraint operator", "x", False),
    "semi_apdfb": Scheme("semi_apdfb_step", _semi_apdfb_step, _semi_apdfb_bound, True,
                         "lip_beta", "semi_apdfb step needs a positive smoothness constant",
                         "v", False),
    "ex_apdfb": Scheme("ex_apdfb_step", _ex_apdfb_step, _ex_apdfb_bound, True, "s_beta",
                       "ex_apdfb step needs lip_beta + |A|^2 > 0", "v", False),
}
SCHEMES = tuple(SCHEME_TABLE)


def step_size(rule, state):
    """Step size prescribed by ``rule`` at the current scaling."""
    return SCHEME_TABLE[rule.variant].step_size(rule, state)


def theta_upper_bound(rule, k, gamma0, gamma_min, gamma_max):
    """Closed-form certificate ``theta_k <= bound(k)`` for each scheme."""
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    if k == 0:
        return 1.0
    return SCHEME_TABLE[rule.variant].theta_bound(rule, k, gamma0, gamma_min, gamma_max)


def restart_scaling(variant, mu_beta, gamma, gamma0):
    """Scaling pair that starts a new epoch of ``variant`` after one that
    ended at ``gamma``: ``theta = 1``.

    ``gamma`` is kept when the scheme advances it with ``mu_beta > 0`` (it
    then tends to ``mu_beta`` and never decays); otherwise it decays with
    ``theta`` and restarts at ``gamma0``.
    """
    keep = SCHEME_TABLE[variant].uses_mu_beta and mu_beta > 0
    return ScalingState(1.0, gamma if keep else gamma0)
