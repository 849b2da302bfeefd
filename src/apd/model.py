"""Problem definitions: linear constraints, instances, and KKT diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .oracles import (
    L1Prox,
    LogisticObjective,
    ProxFunction,
    QuadraticObjective,
    SmoothOracle,
    UnsupportedOracleError,
    ZeroProx,
    _eigvalsh_bound,
    _rounding_slack,
    _smaller_gram,
)


class NoReferenceError(RuntimeError):
    """The problem has no closed-form reference saddle point."""


class LinearConstraint:
    """Abstract linear map ``A`` with right-hand side ``b`` for ``Ax = b``.

    Implementations provide ``apply``/``apply_adjoint``. ``op_norm``, an
    upper bound on ``|A|_2`` as the step rules and the theta certificates
    assume, comes from :attr:`gram_factor` unless an instance sets its own.
    That default, the implicit range-space route, the semi-smooth Newton
    routes and ``semi_apdfb``'s Gram solve need :meth:`matrix`, unless a
    subclass sets ``op_norm`` and its own :meth:`shifted_gram_solve`, as
    :class:`~apd.ddo.IncidenceConstraint` does on its graph's band of ``L``,
    with :attr:`gram_side` set to ``"A'A"``: a constraint with neither runs
    only ``semi_apd`` and ``ex_apdfb``, and only with ``op_norm`` set.
    """

    rows = 0
    cols = 0

    @property
    def rhs(self):
        raise NotImplementedError

    def apply(self, x):
        raise NotImplementedError

    def apply_adjoint(self, lam):
        raise NotImplementedError

    def residual(self, x):
        return self.apply(x) - self.rhs

    def matrix(self):
        """Dense matrix when available; raises otherwise."""
        raise UnsupportedOracleError(f"{type(self).__name__} has no dense form")

    @cached_property
    def gram_factor(self):
        """Eigenpairs ``(s, U)`` of the smaller Gram matrix ``G = U diag(s) U'``
        of :meth:`matrix`: ``A A'`` when ``rows <= cols``, else ``A'A``.
        ``A`` never changes, so this is one eigensolve on first use, in place
        on ``G``, LAPACK's divide and conquer (``evd``); matrix-free
        constraints raise as :meth:`matrix` does."""
        amat = self.matrix()
        gram = _smaller_gram(amat)
        self._norm_slack = _rounding_slack(amat.shape, np.trace(gram))  # before eigh overwrites it
        s, u = sla.eigh(gram, driver="evd", overwrite_a=True)
        return np.maximum(s, 0.0), u  # a Gram matrix has no negative eigenvalue

    @cached_property
    def op_norm(self):
        """The square root of the largest eigenvalue of :attr:`gram_factor`
        plus :func:`~apd.oracles._rounding_slack`, the slack of
        :func:`operator_norm_estimate`; it agrees with that function, whose
        ``eigvalsh`` rounds otherwise, to a few ulps, not bit for bit."""
        s, _ = self.gram_factor
        return float(np.sqrt(s.max(initial=0.0) + self._norm_slack))

    @property
    def gram_side(self):
        """The Gram matrix that :meth:`shifted_gram_solve` inverts: ``"AA'"``
        when ``rows <= cols``, else ``"A'A"``, the smaller one, as
        :attr:`gram_factor` forms it. A subclass with its own
        :meth:`shifted_gram_solve` may set it to the side that solve takes."""
        return "AA'" if self.rows <= self.cols else "A'A"

    def gram_solve(self, shift, scale, rhs):
        """``(y, A'y)`` for ``y = (shift I + scale A A')^{-1} rhs``, ``shift > 0``,
        by :meth:`shifted_gram_solve` on the side of :attr:`gram_side`. On the
        ``A A'`` side that solve gives ``y`` and ``A'y`` takes one adjoint
        product. On the ``A'A`` side ``A'y = (shift I + scale A'A)^{-1} A' rhs``,
        whose solve sees only a right side in the range of ``A'``, and
        ``y = (rhs - scale A A'y) / shift`` takes one product with ``A``.
        ``rhs`` may stack columns."""
        if self.gram_side == "AA'":
            y = self.shifted_gram_solve(shift, scale, rhs)
            return y, self.apply_adjoint(y)
        adjoint_y = self.shifted_gram_solve(shift, scale, self.apply_adjoint(rhs))
        return (rhs - scale * self.apply(adjoint_y)) / shift, adjoint_y

    def shifted_gram_solve(self, shift, scale, rhs):
        """``(shift I + scale G)^{-1} rhs`` for the smaller Gram matrix ``G``,
        ``A A'`` or ``A'A``, by :attr:`gram_factor`:
        ``U (U' rhs) / (shift + scale s)``, one eigensolve for every ``(shift, scale)``."""
        s, u = self.gram_factor
        scaled = (shift + scale * s).reshape((-1,) + (1,) * (np.ndim(rhs) - 1))
        return u @ ((u.T @ rhs) / scaled)


class MatrixConstraint(LinearConstraint):
    def __init__(self, matrix, rhs, op_norm=None):
        self._matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self._rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        self.rows, self.cols = self._matrix.shape
        if self._rhs.shape != (self.rows,):
            raise ValueError("rhs length does not match the number of rows")
        if not np.isfinite(self._matrix).all():
            raise ValueError("constraint matrix A holds NaN or inf")
        if not np.isfinite(self._rhs).all():
            raise ValueError("constraint right side b holds NaN or inf")
        if op_norm is not None:
            self.op_norm = float(op_norm)

    @property
    def rhs(self):
        return self._rhs

    def apply(self, x):
        return self._matrix @ x

    def apply_adjoint(self, lam):
        return self._matrix.T @ lam

    def matrix(self):
        return self._matrix


@dataclass(frozen=True)
class SaddlePoint:
    x_star: np.ndarray
    lambda_star: np.ndarray
    f_star: float


@dataclass(frozen=True)
class ProblemInstance:
    """Composite instance ``min h(x) + g(x) s.t. Ax = b, x in X``.

    The paper's schemes run on the augmented objective
    ``f_beta = f + (beta/2)|Ax - b|^2``, whose convexity modulus is
    ``mu_beta = mu + beta s^2`` with ``s`` the smallest singular value of
    ``A``. That raises ``mu_beta`` above ``mu`` only when ``A`` has full
    column rank, and then ``Ax = b`` has at most one solution and nothing is
    left to optimize. So ``beta`` is 0 here: ``f_beta`` is ``f``, and the
    paper's ``mu_beta`` and ``L_beta`` are ``smooth.mu`` and ``smooth.lip``.
    """

    smooth: SmoothOracle
    nonsmooth: ProxFunction
    constraint: LinearConstraint

    def __post_init__(self):
        if self.smooth.dim != self.constraint.cols:
            raise ValueError("objective and constraint dimensions disagree")
        box = self.nonsmooth.feasible_set
        bounds = np.broadcast(box.lower, box.upper).shape
        if bounds not in ((), (1,), (self.dim,)):
            raise ValueError(f"box bounds of shape {bounds} do not broadcast to the "
                             f"{self.dim} columns of the constraint")

    @property
    def dim(self):
        return self.constraint.cols

    def objective(self, x):
        return self.smooth.value(x) + self.nonsmooth.value(x)

    @property
    def is_smooth_unconstrained(self):
        return self.nonsmooth.is_zero_over_whole_space


class PointValues:
    """Objective value ``f(x)`` and constraint residual ``A x - b`` of one point.

    Each is computed on first use and then kept, so the diagnostics of an
    iterate pay for them once however many of them read them. ``x`` must not
    change while the object is in use. ``residual`` may pass ``A x - b``
    when the caller already holds it.

    ``x`` may also stack points as rows. Then ``fval`` holds one objective
    value per row, each from ``problem.objective``, and ``residual`` one row
    per point from one ``constraint.apply`` on the stack of columns
    ``x[..., None]``, which needs an ``apply`` that broadcasts as numpy's
    matmul does (``MatrixConstraint``; a scipy sparse product does not).
    matmul takes such a stack one matrix-vector product at a time, so each
    row keeps the bits of its one-point residual. One matrix-matrix product
    rounds otherwise: on a flow near its saddle point, where ``|A x - b|`` is
    3e-6 of ``|b|``, it moved the norm of the residual by up to 5e-11 of
    itself.
    """

    def __init__(self, problem, x, residual=None):
        self.problem = problem
        self.x = x
        if residual is not None:
            self.residual = residual  # set on the instance, so never recomputed

    @cached_property
    def fval(self):
        if np.ndim(self.x) == 1:
            return self.problem.objective(self.x)
        return np.array([self.problem.objective(row) for row in self.x])

    @cached_property
    def residual(self):
        constraint = self.problem.constraint
        if np.ndim(self.x) == 1:
            return constraint.residual(self.x)
        return constraint.apply(self.x[..., None])[..., 0] - constraint.rhs

    def lagrangian(self, lam):
        """Lagrangian ``f(x) + <lam, A x - b>``; ``inf`` outside the feasible set.

        With stacked points, or with multipliers ``lam`` stacked as rows, it
        is one value per row. On one point it is a float.
        """
        fval, product = self.fval, np.vecdot(lam, self.residual)
        if product.ndim:
            return np.where(np.isfinite(fval), fval + product, np.inf)
        return fval + float(product) if np.isfinite(fval) else np.inf


def lyapunov_value(problem, saddle, x, v, lam, gamma, theta, at_x=None, at_star=None, gap=None):
    """Lyapunov function of the flow and of every scheme, nonnegative at any
    true saddle point: the gap ``L(x, lam*) - L(x*, lam)`` of the Lagrangian
    plus ``gamma/2 |v - x*|^2 + theta/2 |lam - lam*|^2``.

    ``at_x`` and ``at_star`` may pass the :class:`PointValues` of ``x`` and
    ``saddle.x_star``, and ``gap`` the gap, when the caller holds them. ``x``,
    ``v`` and ``lam`` may stack points as rows, with ``gamma`` and ``theta``
    holding one value per row; then the value is one per row, each with the
    bits of its row's one-point value when ``at_x`` holds the same residuals.
    """
    if gap is None:
        at_x = PointValues(problem, x) if at_x is None else at_x
        at_star = PointValues(problem, saddle.x_star) if at_star is None else at_star
        gap = at_x.lagrangian(saddle.lambda_star) - at_star.lagrangian(lam)
    dv = v - saddle.x_star
    dlam = lam - saddle.lambda_star
    value = gap + 0.5 * gamma * np.vecdot(dv, dv) + 0.5 * theta * np.vecdot(dlam, dlam)
    return value if value.ndim else float(value)


def kkt_residual(problem, x, lam, residual=None, with_point=False):
    """Feasibility and stationarity residuals at ``(x, lam)``.

    Stationarity is the plain gradient norm for smooth unconstrained
    objectives and otherwise the prox-gradient residual at unit step:
    ``|x - prox_g(1, x - (grad h(x) + A' lam))|``. ``residual`` may pass
    ``A x - b`` when the caller already holds it. With ``with_point`` it
    also returns the prox-gradient point ``prox_g(1, x - (grad h(x) + A' lam))``
    it formed, ``None`` for a smooth unconstrained objective.
    """
    x = np.asarray(x, dtype=float)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if x.shape != (problem.constraint.cols,) or lam.shape != (problem.constraint.rows,):
        raise ValueError("dimension mismatch")
    if residual is None:
        residual = problem.constraint.residual(x)
    feas = float(np.linalg.norm(residual))
    grad = problem.smooth.gradient(x) + problem.constraint.apply_adjoint(lam)
    if problem.is_smooth_unconstrained:
        stat, point = float(np.linalg.norm(grad)), None
    else:
        point = problem.nonsmooth.prox(1.0, x - grad)
        stat = float(np.linalg.norm(x - point))
    return (feas, stat, point) if with_point else (feas, stat)


def operator_norm_estimate(matrix):
    """Upper bound on the spectral norm ``|M|_2`` of a dense or sparse matrix.

    ``|M|_2^2`` is the largest eigenvalue of the smaller Gram matrix ``G``
    (``M M'`` or ``M'M``), taken with ``eigvalsh``. Forming ``G`` with inner
    dimension ``k`` perturbs it by at most ``k eps trace(G)`` in 2-norm, and
    ``eigvalsh`` of the order-``d`` result errs by a small multiple of
    ``d eps |G|_2``; the value is raised by ``2 (k + d) eps trace(G)`` to
    cover both, where ``k + d`` is the number of rows plus columns of ``M``.
    A zero matrix gives ``0.0``.
    """
    return float(np.sqrt(_eigvalsh_bound(_smaller_gram(matrix), matrix.shape)))


def quadratic_term(smooth):
    """``Q`` of a :class:`~apd.oracles.QuadraticObjective`: the vector of its
    diagonal when it keeps one, else its dense symmetric matrix."""
    return smooth.diag if smooth.diag is not None else smooth.dense


class RangeSpaceSystem:
    """The saddle system ``[D A'; A -theta I] (x, mu) = (g, b)`` with
    ``D = Q + shift I`` positive definite and ``theta >= 0``, solved by the
    range-space method (Nocedal & Wright, *Numerical Optimization*, 16.2).

    With ``D = R'R`` and ``B = A R^-1`` (``R = D^1/2`` for a diagonal ``Q``,
    the Cholesky factor for a dense one), the Schur complement
    ``S = A D^-1 A' + theta I`` is the symmetric rank-k product ``B B'`` plus
    ``theta`` on its diagonal, factored once by Cholesky. Then
    ``mu = S^-1 (A D^-1 g - b)`` and ``x = D^-1 (g - A' mu)``. ``quad`` is
    ``Q`` as in :func:`quadratic_term`; ``A`` must have a dense form.
    Raises ``LinAlgError`` when ``D`` or ``S`` is not positive definite.

    A built system holds ``S``'s factor (``m^2`` doubles) and, for a dense
    ``Q``, ``D``'s (``n^2``), and solving does not change them, so one
    system serves every right side of its ``(shift, theta)``. The
    ``implicit`` run loop reuses each across restarted epochs, which repeat
    the same ``(shift, theta)`` pairs (:func:`~apd.solvers.implicit_apd_step`).
    """

    def __init__(self, constraint, quad, shift, theta):
        self.constraint = constraint
        amat = constraint.matrix()
        if quad.ndim == 1:
            self._diag, self._factor = quad + shift, None
            if not np.all(self._diag > 0):
                raise np.linalg.LinAlgError("D is not positive definite")
            root = amat / np.sqrt(self._diag)
        else:
            dmat = np.array(quad, dtype=float)
            dmat.flat[::dmat.shape[0] + 1] += shift
            self._diag, self._factor = None, sla.cholesky(dmat, overwrite_a=True)
            root = sla.solve_triangular(self._factor, amat.T, trans="T").T
        schur = root @ root.T  # BLAS syrk: half the flops of a general product
        schur.flat[::schur.shape[0] + 1] += theta
        self._schur = sla.cho_factor(schur, overwrite_a=True)

    def _solve_d(self, v):
        if self._factor is None:
            return v / self._diag
        return sla.cho_solve((self._factor, False), v)

    def multiplier(self, rhs):
        """``S^-1 rhs``."""
        return sla.cho_solve(self._schur, rhs)

    def primal(self, g, mu):
        """``D^-1 (g - A' mu)``."""
        return self._solve_d(g - self.constraint.apply_adjoint(mu))

    def solve(self, g, b):
        """``(x, mu)`` of the saddle system."""
        mu = self.multiplier(self.constraint.apply(self._solve_d(g)) - b)
        return self.primal(g, mu), mu


def kkt_system(problem, free, face, g):
    """``(system, g)``: the :class:`RangeSpaceSystem` (no shift, ``theta = 0``)
    of ``[Q_FF A_F'; A_F 0]`` for a quadratic ``h`` on the coordinates
    ``free`` (a mask, or ``slice(None)``), with ``face`` the constraint
    ``A_F x_F = b_F``, and its first right side ``g``. When ``mu = 0``,
    ``rho A_F'A_F`` with ``rho`` at ``L/|A|^2`` is added to ``Q_FF`` and
    ``rho A_F' b_F`` to ``g``: on ``A_F x_F = b_F`` this changes neither the
    solution nor its multiplier, and the matrix is then positive definite
    when ``Q_FF`` is on ``null(A_F)``. Raises ``LinAlgError`` when singular.
    """
    smooth = problem.smooth
    quad = quadratic_term(smooth) if smooth.mu > 0 else smooth.hessian_matrix()
    quad = quad[free] if quad.ndim == 1 else quad[free][:, free]
    if smooth.mu == 0:
        rho = (smooth.lip or 1.0) / (problem.constraint.op_norm ** 2 or 1.0)
        amat = face.matrix()
        quad = quad + rho * (amat.T @ amat)
        g = g + rho * face.apply_adjoint(face.rhs)
    return RangeSpaceSystem(face, quad, 0.0, 0.0), g


def solve_reference_saddle(problem):
    """Reference saddle point for quadratic unconstrained-set instances.

    Solves ``[Q A'; A 0] (x, lam) = (-c, b)`` with :class:`RangeSpaceSystem`
    (no shift, ``theta = 0``), takes one refinement step
    ``lam += S^-1 (A x - b)`` with ``x`` recovered from the new ``lam``, and
    checks the KKT residual to 1e-10. The system is that of
    :func:`kkt_system` on every coordinate, so when ``mu = 0`` every
    instance with a nonsingular KKT matrix has a reference. Only quadratic
    ``h`` with ``g = 0`` over the whole space and a dense ``A`` of full row
    rank are supported.
    """
    if not (problem.smooth.is_quadratic and problem.is_smooth_unconstrained):
        raise NoReferenceError("no closed-form reference for this problem")
    constraint = problem.constraint
    if constraint.rows > constraint.cols:
        raise NoReferenceError("A has more rows than columns, so no full row rank")
    try:
        system, g = kkt_system(problem, slice(None), constraint, -problem.smooth.linear)
    except UnsupportedOracleError as exc:
        raise NoReferenceError("reference solve needs a dense constraint") from exc
    except np.linalg.LinAlgError as exc:
        raise NoReferenceError(f"singular KKT system: {exc}") from exc
    x_star, lam_star = system.solve(g, constraint.rhs)
    lam_star = lam_star + system.multiplier(constraint.residual(x_star))
    x_star = system.primal(g, lam_star)
    feas, stat = kkt_residual(problem, x_star, lam_star)
    if feas > 1e-10 or stat > 1e-10:
        raise NoReferenceError(
            f"reference KKT residual too large: feas={feas:.2e} stat={stat:.2e}")
    return SaddlePoint(x_star, lam_star, problem.objective(x_star))


# ---------------------------------------------------------------------------
# problem files
#
# Whitespace-separated text (line breaks are not significant):
#   n m beta                     beta must be 0 (see ProblemInstance)
#   m*n entries of A, row major
#   m entries of b
#   one objective descriptor:
#     quadratic d_1 ... d_n          h = x' diag(d) x / 2,      g = 0
#     lasso t                        h = |x|^2 / 2,             g = t |x|_1
#     logistic delta p  then p rows of (t_1 ... t_n label)      g = 0
# ---------------------------------------------------------------------------

def load_problem(path):
    """Parse a problem file into a :class:`ProblemInstance`.

    Sizes (``n``, ``m``, the logistic row count) must be integers of at least
    1 and every number finite; a message on a rejected file names it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise ValueError(f"{path}: truncated header")
    pos = 0

    def take(count):
        nonlocal pos
        if pos + count > len(tokens):
            raise ValueError(f"{path}: unexpected end of file")
        out = tokens[pos:pos + count]
        pos += count
        return out

    def size(name):
        token = take(1)[0]
        if not token.isdecimal() or int(token) < 1:
            raise ValueError(f"{path}: {name} must be a positive integer, got {token!r}")
        return int(token)

    def numbers(count):
        try:
            values = np.array(take(count), dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: numbers must be finite, got NaN or inf")
        return values

    def build(oracle, *args, **kwargs):
        try:
            return oracle(*args, **kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    n, m = size("n"), size("m")
    if numbers(1)[0] != 0.0:
        raise ValueError(f"{path}: header beta must be 0 (no augmentation term)")
    amat = numbers(m * n).reshape(m, n)
    rhs = numbers(m)
    kind = take(1)[0]
    if kind == "quadratic":
        smooth, nonsmooth = build(QuadraticObjective, numbers(n)), ZeroProx()
    elif kind == "lasso":
        weight = numbers(1)[0]
        smooth = QuadraticObjective(np.ones(n))
        nonsmooth = build(L1Prox, weight)
    elif kind == "logistic":
        delta = numbers(1)[0]
        data = numbers(size("rows") * (n + 1)).reshape(-1, n + 1)
        smooth = build(LogisticObjective, data[:, :n], data[:, n], ridge=delta)
        nonsmooth = ZeroProx()
    else:
        raise ValueError(f"{path}: unknown objective descriptor {kind!r}")
    if pos != len(tokens):
        raise ValueError(f"{path}: {len(tokens) - pos} trailing tokens")
    return ProblemInstance(smooth, nonsmooth, MatrixConstraint(amat, rhs))


def save_problem(problem, path):
    """Write a :class:`ProblemInstance` in the problem-file format.

    The format holds a constraint with a dense form and one of three
    objectives: a diagonal quadratic ``h`` with ``c = 0``, or a logistic
    ``h``, each with ``g = 0`` over the whole space; or ``h = |x|^2 / 2``
    with ``g`` an l1 norm over the whole space. Any other problem would load
    back as a different one, so it raises ``ValueError`` and writes nothing.
    """
    try:
        amat = problem.constraint.matrix()
    except UnsupportedOracleError as exc:
        raise ValueError(f"problem has no file representation: {exc}") from None
    m, n = amat.shape
    parts = [f"{n} {m} 0"]
    parts.extend(" ".join(f"{v:.17g}" for v in row) for row in amat)
    parts.append(" ".join(f"{v:.17g}" for v in problem.constraint.rhs))
    smooth, nonsmooth = problem.smooth, problem.nonsmooth
    diag = smooth.diag if smooth.is_quadratic and not smooth.linear.any() else None
    if (isinstance(nonsmooth, L1Prox) and nonsmooth.feasible_set.is_whole_space
            and diag is not None and (diag == 1.0).all()):
        parts.append(f"lasso {nonsmooth.weight:.17g}")
    elif problem.is_smooth_unconstrained and isinstance(smooth, LogisticObjective):
        parts.append(f"logistic {smooth.ridge:.17g} {smooth.features.shape[0]}")
        for row, label in zip(smooth.features, smooth.labels):
            parts.append(" ".join(f"{v:.17g}" for v in row) + f" {label:.17g}")
    elif problem.is_smooth_unconstrained and diag is not None:
        parts.append("quadratic " + " ".join(f"{v:.17g}" for v in diag))
    else:
        raise ValueError("problem has no file representation: the file holds a diagonal "
                         "quadratic or logistic h with g = 0, or |x|^2/2 with an l1 g")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
