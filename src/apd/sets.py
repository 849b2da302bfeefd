"""Simple closed convex sets with exact projections."""

from __future__ import annotations

import numpy as np


class ConvexSet:
    """A simple closed convex set, described by its Euclidean projection."""

    def project(self, x):
        raise NotImplementedError

    def contains(self, x, tol=1e-10):
        x = np.asarray(x, dtype=float)
        return bool(np.linalg.norm(self.project(x) - x) <= tol * (1.0 + np.linalg.norm(x)))

    @property
    def is_whole_space(self):
        return False


class RealSpace(ConvexSet):
    """The whole space (no feasible-set restriction)."""

    def project(self, x):
        return np.asarray(x, dtype=float)

    def contains(self, x, tol=1e-10):
        return True

    @property
    def is_whole_space(self):
        return True


class Box(ConvexSet):
    """Coordinate box ``{x : lower <= x <= upper}``; bounds may be +-inf."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if np.any(self.lower > self.upper):
            raise ValueError("box has empty coordinate range")

    def project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def interior_mask(self, x):
        x = np.asarray(x, dtype=float)
        return (x > self.lower) & (x < self.upper)


class HalfSpace(ConvexSet):
    """Half space ``{x : <a, x> <= c}`` with a nonzero normal ``a``."""

    def __init__(self, normal, offset):
        self.normal = np.asarray(normal, dtype=float)
        self.offset = float(offset)
        self._nn = float(self.normal @ self.normal)
        if self._nn == 0.0:
            raise ValueError("half-space normal must be nonzero")

    def project(self, x):
        x = np.asarray(x, dtype=float)
        excess = self.normal @ x - self.offset
        if excess <= 0.0:
            return x
        return x - (excess / self._nn) * self.normal
