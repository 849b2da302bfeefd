"""Objective oracles: smooth parts with gradients, nonsmooth parts with proxes.

A problem objective is split as ``f = h + g`` where ``h`` is smooth (value and
gradient, with strong-convexity modulus ``mu`` and gradient Lipschitz constant
``lip``) and ``g`` is a prox-friendly function carrying the feasible set, so
that ``g.prox`` is the proximal operator of ``g`` restricted to the set.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, eigsh

from .sets import Box


class UnsupportedOracleError(RuntimeError):
    """An oracle was asked for an operation it does not provide."""


# ---------------------------------------------------------------------------
# smooth oracles
# ---------------------------------------------------------------------------

class SmoothOracle:
    """Convex smooth function with ``mu``-strong convexity and ``lip`` gradient.

    Only a :class:`QuadraticObjective` is ``is_quadratic``, and only one with
    ``Q = 0`` and ``c = 0`` is ``is_zero``: the schemes pick their solves by these.
    """

    mu = 0.0
    lip = 0.0
    dim = 0
    is_quadratic = False
    is_zero = False

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def hessian_matrix(self, x):
        """The dense Hessian of ``h`` at ``x``: the curvature of the Newton
        endgame of :func:`~apd.solvers.run_solver`."""
        raise UnsupportedOracleError(f"{type(self).__name__} has no Hessian")


def _snap_nonnegative(value, scale):
    # eigenvalue noise below ~1e-12*scale means "zero" for rate purposes
    return 0.0 if value <= 1e-12 * max(scale, 1.0) else float(value)


def _finite_nonnegative(name, value):
    value = float(value)
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def _rounding_slack(shape, trace):
    """The slack of :func:`~apd.model.operator_norm_estimate` on the eigenvalues
    of a positive semidefinite matrix with ``trace``, formed from one of ``shape``."""
    return 2.0 * sum(shape) * np.finfo(float).eps * trace


def _eigvalsh_bound(gram, shape):
    """``lambda_max(G)`` by ``eigvalsh`` plus :func:`_rounding_slack`, for the
    smaller Gram matrix ``G`` of a matrix of ``shape``: the square of
    :func:`~apd.model.operator_norm_estimate`."""
    slack = _rounding_slack(shape, np.trace(gram))
    return np.linalg.eigvalsh(gram).max(initial=0.0) + slack


def _smaller_gram(matrix):
    """The smaller Gram matrix of a dense or sparse ``M`` as a dense array:
    ``M M'`` when ``M`` has no more rows than columns, else ``M'M``."""
    rows, cols = matrix.shape
    gram = matrix @ matrix.T if rows <= cols else matrix.T @ matrix
    return gram.toarray() if sp.issparse(gram) else gram


def _banded_cholesky(band, shift, scale):
    """The lower banded Cholesky factor of ``shift I + scale G`` from the
    lower band of ``G`` (:func:`~apd.ddo._banded`), in ``G``'s order; raises
    ``numpy.linalg.LinAlgError`` unless the matrix is positive definite."""
    shifted = scale * band
    shifted[0] += shift
    return sla.cholesky_banded(shifted, lower=True, overwrite_ab=True, check_finite=False)


def _dense_cholesky(gram, shift, scale):
    """The lower Cholesky factor of ``shift I + scale G`` for a dense symmetric
    ``G``; raises ``numpy.linalg.LinAlgError`` unless the matrix is positive
    definite."""
    shifted = scale * gram
    shifted.flat[::gram.shape[0] + 1] += shift
    # its transpose, equal to it and in Fortran order, is factored in place;
    # scipy copies a C-ordered array first, which doubles the time
    return sla.cholesky(shifted.T, lower=True, overwrite_a=True, check_finite=False)


def top_eigenvalue_bound(gram, fallback, band=None, error=0.0):
    """An upper bound ``s >= lambda_max(S)`` for every symmetric ``S`` within
    ``error`` of the positive semidefinite ``G = gram`` in the 2-norm, within
    about ``1e-10 s`` of it, with no dense eigensolve.

    Lanczos (``eigsh``, ``tol=1e-10``, from the fixed start ``cos(0..d-1)``,
    so a run repeats bit for bit) estimates the largest eigenpair ``(lam, v)``
    of ``G``, of order ``d``. The trial ``t = lam + r + c``, with the residual
    ``r = |G v - lam v|``, is then certified by the Cholesky factor of
    ``t I - G``: banded, from the lower ``band`` of ``G`` with ``k + 1`` rows
    (:func:`~apd.ddo._banded`, in any symmetric order of ``G``), when it is
    given; dense, a band of ``k + 1 = d`` rows, otherwise. The factor exists
    only when ``t I - G + E`` is positive definite, where Cholesky's backward
    error has ``|E|_2 <= (2k + 1) gamma_{k+1} max_i (t - g_ii)`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 10.1); the slack
    ``c = 2 (k + 1)(k + 2) eps (|lam| + r)`` covers that and the rounding of
    ``t - g_ii``, so ``s = t + c + error``. When Lanczos does not converge or
    the factor fails, because ``lam`` is not the largest eigenvalue, ``s`` is
    ``fallback()``. Orders 0 and 1, and a zero ``G``, take no Lanczos step:
    ``s`` is the trace of ``G`` plus ``error``.
    """
    size = gram.shape[0]
    trace = float(np.sum(gram.diagonal()))
    if size < 2 or trace == 0.0:  # the one eigenvalue, or G = 0 (positive semidefinite)
        return trace + error
    try:
        (lam,), vec = eigsh(gram, k=1, which="LA", tol=1e-10, v0=np.cos(np.arange(size)))
    except ArpackError:  # ArpackNoConvergence among them
        return fallback()
    residual = float(np.linalg.norm(gram @ vec[:, 0] - lam * vec[:, 0]))
    rows = size if band is None else band.shape[0]
    slack = 2.0 * rows * (rows + 1) * np.finfo(float).eps * (abs(lam) + residual)
    trial = float(lam) + residual + slack
    try:
        if band is None:
            _dense_cholesky(gram, trial, -1.0)
        else:
            _banded_cholesky(band, trial, -1.0)
    except np.linalg.LinAlgError:
        return fallback()
    return trial + slack + error


def gram_lambda_max(matrix):
    """An upper bound on ``|M|_2^2``, the largest eigenvalue of ``M'M``, for a
    dense ``M`` with no SVD: :func:`top_eigenvalue_bound` of the smaller Gram
    matrix ``G`` (``M M'`` or ``M'M``), whose forming with inner dimension
    ``k`` errs by at most ``k eps trace(G)`` in the 2-norm. Its fallback,
    :func:`_eigvalsh_bound`, is the square of
    :func:`~apd.model.operator_norm_estimate`."""
    gram = _smaller_gram(matrix)
    return top_eigenvalue_bound(gram, lambda: _eigvalsh_bound(gram, matrix.shape),
                                error=max(matrix.shape) * np.finfo(float).eps * np.trace(gram))


def _bounds_hold(quad, mu, lip, slack):
    """True when Cholesky factors certify ``mu - s <= lambda_min(Q)`` and
    ``lambda_max(Q) <= lip + slack`` for a dense symmetric ``Q``, finite
    nonnegative ``mu`` and ``lip`` and ``slack > 0``, with
    ``s = min(slack, mu + 1e-10)``: ``Q`` is then positive semidefinite, and
    the eigenvalue checks of :class:`QuadraticObjective` would pass, up to
    Cholesky's rounding at their edges. False when an input is missing or of
    another kind, or a factor fails: the caller then takes ``eigvalsh`` and
    raises as it would without the factors."""
    try:
        mu, lip = float(mu), float(lip)
    except (TypeError, ValueError):  # None among them
        return False
    if not (slack > 0.0 and 0.0 <= mu < np.inf and 0.0 <= lip < np.inf):
        return False
    try:
        _dense_cholesky(quad, min(slack, mu + 1e-10) - mu, 1.0)
        _dense_cholesky(quad, lip + slack, -1.0)
    except np.linalg.LinAlgError:
        return False
    return True


class QuadraticObjective(SmoothOracle):
    """``h(x) = x'Qx/2 + c'x``: ``Q`` kept as its diagonal ``diag`` (``dense``
    is then ``None``) or as the symmetric ``dense``, ``c`` as ``linear``.
    ``is_zero`` is read from them: true when ``Q`` and ``c`` are all zero.

    ``mu`` and ``lip`` default to the extreme eigenvalues of ``Q``: exact for
    a diagonal, and for a dense ``Q`` those of ``eigvalsh`` moved outward by
    the slack of ``operator_norm_estimate`` (:func:`_rounding_slack`), so
    ``lip`` bounds ``lambda_max(Q)`` from above and ``mu`` ``lambda_min(Q)``
    from below. An override may cross its eigenvalue by that slack, no more;
    a dense ``Q`` with both overrides is checked by two Cholesky factors
    (:func:`_bounds_hold`), and by ``eigvalsh`` only when one fails."""

    is_quadratic = True

    def __init__(self, quad, linear=None, mu=None, lip=None):
        quad = np.asarray(quad, dtype=float)
        if not np.isfinite(quad).all():
            raise ValueError("quadratic term Q holds NaN or inf")
        if quad.ndim not in (1, 2) or quad.shape != quad.shape[:1] * quad.ndim:
            raise ValueError(f"quadratic term must be a vector or a square matrix, "
                             f"got shape {quad.shape}")
        self.dim = quad.shape[0]
        if self.dim == 0:
            raise ValueError("quadratic term has dimension 0: h needs at least one variable")
        if quad.ndim == 1:
            self.diag, self.dense = quad, None
            trace = float(quad.sum())
        else:
            self.diag = None
            quad = self.dense = 0.5 * (quad + quad.T)
            trace = float(np.trace(quad))
        slack = _rounding_slack((self.dim, self.dim), trace)
        if self.dense is None:  # a diagonal's extremes are exact
            lo, hi, spread = float(quad.min()), float(quad.max()), 0.0
        elif _bounds_hold(quad, mu, lip, slack):  # certified: they pass the checks below
            lo, hi, spread = float(mu), float(lip), 0.0
        else:
            eig = np.linalg.eigvalsh(quad)
            lo, hi, spread = float(eig[0]), float(eig[-1]), slack
        if lo < -1e-10 * max(abs(hi), 1.0):
            raise ValueError("quadratic term must be positive semidefinite")
        self.linear = np.zeros(self.dim) if linear is None else np.asarray(linear, dtype=float)
        if self.linear.shape != (self.dim,):
            raise ValueError(f"linear term c has shape {self.linear.shape}, "
                             f"Q has dimension {self.dim}")
        if not np.isfinite(self.linear).all():
            raise ValueError("linear term c holds NaN or inf")
        self.is_zero = not (quad.any() or self.linear.any())
        self.mu = _snap_nonnegative(lo - spread, hi) if mu is None \
            else _finite_nonnegative("mu", mu)
        self.lip = max(hi + spread, 0.0) if lip is None else _finite_nonnegative("lip", lip)
        if lip is not None and self.lip < hi - slack:
            raise ValueError(f"lip {self.lip} is below the largest eigenvalue {hi} of Q")
        if mu is not None and self.mu > lo + slack:
            raise ValueError(f"mu {self.mu} is above the smallest eigenvalue {lo} of Q")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.diag is not None:
            return 0.5 * float(x @ (self.diag * x)) + float(self.linear @ x)
        return 0.5 * float(x @ (self.dense @ x)) + float(self.linear @ x)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self.diag is not None:
            return self.diag * x + self.linear
        return self.dense @ x + self.linear

    def hessian_matrix(self, x=None):
        """``Q``, the Hessian at every point ``x``, as a dense matrix."""
        return np.diag(self.diag) if self.diag is not None else self.dense


class ZeroObjective(QuadraticObjective):
    """``h = 0`` on ``R^dim``: the :class:`QuadraticObjective` with ``Q = 0``
    and ``c = 0``, so ``is_zero``. Its gradient is a new zero vector."""

    def __init__(self, dim):
        super().__init__(np.zeros(int(dim)))

    def gradient(self, x):
        return np.zeros(self.dim)


class LogisticObjective(SmoothOracle):
    """Binary logistic loss ``sum_j ln(1 + exp(-b_j <t_j, x>)) + ridge |x|^2 / 2``
    of the ``p`` rows ``t_j`` of ``features`` ``F`` and their ``labels`` ``b_j``.

    The curvature of ``h`` at ``x``, which the Newton endgame of
    :func:`~apd.solvers.run_solver` reads, is its Hessian
    ``ridge I + F' W F`` with ``W = diag(s (1 - s))`` and
    ``s_j = 1/(1 + exp(b_j <t_j, x>))``: :meth:`hessian_root` gives
    ``D = W^1/2``, through which :class:`~apd.model.WoodburySystem` solves
    with it, and :meth:`hessian_matrix` forms it densely. The Gram matrix
    ``F F'`` that certifies ``lip`` is not kept: the endgame forms what it
    needs once per run (:func:`~apd.model.woodbury_blocks`), so a
    constructed objective holds no ``p^2`` doubles (keeping them raised the
    composite benchmark's peak RSS by 2.6 MB).
    """

    def __init__(self, features, labels, ridge=0.0):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        if self.features.ndim != 2:
            raise ValueError(f"logistic features must be a 2-d array, got shape "
                             f"{self.features.shape}")
        if self.labels.shape != self.features.shape[:1]:
            raise ValueError(f"labels have shape {self.labels.shape}; the features have "
                             f"{self.features.shape[0]} rows")
        if not np.isfinite(self.features).all():
            raise ValueError("logistic features hold NaN or inf")
        if set(np.unique(self.labels)) - {-1.0, 1.0}:
            raise ValueError("labels must be +-1")
        self.ridge = _finite_nonnegative("ridge", ridge)
        self.dim = self.features.shape[1]
        self.mu = self.ridge
        # hessian <= ridge I + F' diag(1/4) F
        self.lip = self.ridge + 0.25 * gram_lambda_max(self.features)

    def value(self, x):
        margins = self.labels * (self.features @ np.asarray(x, dtype=float))
        return float(np.sum(np.logaddexp(0.0, -margins))) + 0.5 * self.ridge * float(x @ x)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        margins = self.labels * (self.features @ x)
        weights = -self.labels / (1.0 + np.exp(margins))
        return self.features.T @ weights + self.ridge * x

    def hessian_root(self, x):
        """``D = W^1/2`` of the Hessian at ``x``: ``sqrt(s (1 - s))`` per row,
        with ``s (1 - s) = e / (1 + e)^2`` and ``e = exp(-|m_j|)`` for the
        margins ``m_j = b_j <t_j, x>``, which neither overflows nor cancels."""
        margins = self.labels * (self.features @ np.asarray(x, dtype=float))
        tail = np.exp(-np.abs(margins))
        return np.sqrt(tail) / (1.0 + tail)

    def hessian_matrix(self, x):
        """The Hessian ``ridge I + E'E`` at ``x``, ``E = D F``, as a dense matrix."""
        scaled = self.hessian_root(x)[:, None] * self.features
        hessian = scaled.T @ scaled
        hessian.flat[::self.dim + 1] += self.ridge
        return hessian


# ---------------------------------------------------------------------------
# prox library
# ---------------------------------------------------------------------------

def soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


class ProxFunction:
    """Nonsmooth part ``g`` plus the indicator of its feasible set, a
    :class:`~apd.sets.Box` (the whole space when no bound is finite).

    ``prox(eta, x)`` returns ``argmin_{y in set} g(y) + |y - x|^2 / (2 eta)``
    in closed form. ``value`` includes the set indicator (``inf`` outside).

    The oracle contract:

    - ``value`` and ``prox``: every scheme, and the merit of semi-smooth
      Newton;
    - ``prox_jacobian``: semi-smooth Newton (``implicit`` with a zero smooth
      part, ``semi_apdfb`` unless ``g`` is zero over the whole space);
    - ``face``: the polish of :func:`~apd.solvers.run_solver` (a quadratic
      smooth part and ``g`` not zero over the whole space).
    """

    feasible_set = Box()

    def value(self, x):
        raise NotImplementedError

    def prox(self, eta, x):
        raise NotImplementedError

    def prox_jacobian(self, eta, u):
        """Diagonal of one Clarke generalized Jacobian of ``prox(eta, .)`` at u."""
        raise UnsupportedOracleError(
            f"{type(self).__name__} has no separable prox Jacobian")

    def face(self, point):
        """The face of ``g`` that ``point``, an output of :meth:`prox`, lies
        on, as ``(free, fixed, slope)``: ``free`` masks the coordinates that
        move on the face, ``fixed`` holds ``point`` on the others and 0 on the
        free ones, and ``slope``, the gradient of ``g`` on the face, holds its
        value on each free coordinate."""
        raise UnsupportedOracleError(f"{type(self).__name__} has no face oracle")

    @property
    def is_zero_over_whole_space(self):
        return False


class ZeroProx(ProxFunction):
    """``g = 0`` over a box: the prox is the box projection."""

    def __init__(self, feasible_set=None):
        self.feasible_set = Box() if feasible_set is None else feasible_set

    def value(self, x):
        return 0.0 if self.feasible_set.contains(x) else np.inf

    def prox(self, eta, x):
        return self.feasible_set.project(np.asarray(x, dtype=float))

    def prox_jacobian(self, eta, u):
        # boundary points take 0: a valid Clarke element, fixed for determinism
        return self.feasible_set.interior_mask(u).astype(float)

    def face(self, point):
        free = self.feasible_set.interior_mask(point)  # off the bounds
        return free, np.where(free, 0.0, point), np.zeros(np.count_nonzero(free))

    @property
    def is_zero_over_whole_space(self):
        return self.feasible_set.is_whole_space


class L1Prox(ProxFunction):
    """``g(x) = weight * |x|_1`` over a box."""

    def __init__(self, weight=1.0, feasible_set=None):
        self.weight = _finite_nonnegative("l1 weight", weight)
        self.feasible_set = Box() if feasible_set is None else feasible_set

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if not self.feasible_set.contains(x):
            return np.inf
        return self.weight * float(np.sum(np.abs(x)))

    def prox(self, eta, x):
        shrunk = soft_threshold(np.asarray(x, dtype=float), eta * self.weight)
        return self.feasible_set.project(shrunk)

    def prox_jacobian(self, eta, u):
        u = np.asarray(u, dtype=float)
        active = np.abs(u) > eta * self.weight  # ties resolve to 0
        if not self.feasible_set.is_whole_space:
            shrunk = soft_threshold(u, eta * self.weight)
            active &= self.feasible_set.interior_mask(shrunk)
        return active.astype(float)

    def face(self, point):
        point = np.asarray(point, dtype=float)
        free = (point != 0) & self.feasible_set.interior_mask(point)  # off 0 and the bounds
        return free, np.where(free, 0.0, point), self.weight * np.sign(point[free])
