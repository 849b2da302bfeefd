"""The one feasible-set type: a coordinate box whose bounds may be +-inf, so
that ``Box()``, with no finite bound, is the whole space."""

from __future__ import annotations

import numpy as np


class Box:
    """``{x : lower <= x <= upper}``. On the whole space (``is_whole_space``: no
    bound finite) ``project`` returns a float array as it is and ``contains`` is true."""

    def __init__(self, lower=-np.inf, upper=np.inf):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("box bounds hold NaN")
        if np.any(self.lower > self.upper):
            raise ValueError("box has empty coordinate range")
        self.is_whole_space = not (np.isfinite(self.lower).any()
                                   or np.isfinite(self.upper).any())

    def project(self, x):
        if self.is_whole_space:
            return np.asarray(x, dtype=float)
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def contains(self, x, tol=1e-10):
        if self.is_whole_space:
            return True
        x = np.asarray(x, dtype=float)
        return bool(np.linalg.norm(self.project(x) - x) <= tol * (1.0 + np.linalg.norm(x)))

    def interior_mask(self, x):
        x = np.asarray(x, dtype=float)
        return (x > self.lower) & (x < self.upper)
