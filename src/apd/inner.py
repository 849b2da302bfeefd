"""Inner solvers: practical PCG, dual subproblems, semi-smooth Newton, and
the robust augmented solver for nearly singular consensus systems.

Semi-smooth Newton solves each Newton system directly: one Cholesky of
``theta I + alpha t C C'`` or, when ``C`` (the columns of ``A`` that the
prox Jacobian keeps) has fewer columns than rows, of the smaller
``theta I + alpha t C'C`` through Woodbury.

The consensus solver takes a square scipy sparse operator and one
right-side vector, checked once by :func:`_checked`, and works on the
bordered matrix. Its methods are symmetric Gauss-Seidel sweeps, and the one
PCG loop, :func:`pcg_solve`, preconditioned by the Jacobi or the symmetric
Gauss-Seidel splitting (:func:`_preconditioner`).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu

from .oracles import _smaller_gram


class InnerSolveError(RuntimeError):
    """An inner solve failed; carries the last residual measure."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# practical PCG
# ---------------------------------------------------------------------------

@dataclass
class PcgResult:
    solution: np.ndarray
    iterations: int
    converged: bool


def pcg_solve(apply, rhs, tol, i_max, minv=None, rows=slice(None)):
    """Preconditioned conjugate gradients on ``H d = e`` for one right side, from zero.

    ``apply`` applies ``H``, ``rhs`` is ``e`` and ``minv`` the inverse
    preconditioner (identity when omitted). Stops at ``i_max`` iterations or
    when ``|(e - H d)[rows]|`` falls to ``tol |e[rows]|``. The test passes only
    on a freshly computed residual: the recursed one is refreshed whenever the
    iteration index is divisible by 50, and when it passes the test, in which
    case the directions restart from the fresh residual unless that passes
    too. A direction with zero curvature takes step 0, and negative curvature
    raises :class:`InnerSolveError`.
    """
    if not tol >= 0:
        raise ValueError("pcg tolerance must be nonnegative")
    if i_max < 0:
        raise ValueError(f"i_max must be nonnegative, got {i_max}")
    rhs = np.asarray(rhs, dtype=float)
    if minv is None:
        minv = lambda r: r
    target = tol * float(np.linalg.norm(rhs[rows]))
    d = np.zeros_like(rhs)
    r = rhs
    p = minv(r)
    delta = float(r @ p)
    fresh = True
    i = 0
    while True:
        size = float(np.linalg.norm(r[rows]))
        if size <= target and not fresh:
            # the recursed residual may drift; confirm on a fresh one
            r = rhs - apply(d)
            fresh = True
            size = float(np.linalg.norm(r[rows]))
            if size > target:
                p = minv(r)
                delta = float(r @ p)
        if size <= target or i == i_max:
            return PcgResult(d, i, size <= target)
        q = apply(p)
        curvature = float(q @ p)
        if curvature < 0:
            raise InnerSolveError("operator is not positive definite on the Krylov space",
                                  size)
        step = delta / curvature if curvature > 0 else 0.0
        d = d + step * p
        if i % 50 == 0:
            r = rhs - apply(d)
            fresh = True
        else:
            r = r - step * q
            fresh = False
        w = minv(r)
        delta_new = float(r @ w)
        p = w + (delta_new / delta if delta > 0 else 0.0) * p
        delta = delta_new
        i += 1


# ---------------------------------------------------------------------------
# dual subproblem of the forward-backward schemes
# ---------------------------------------------------------------------------

@dataclass
class DualMapContext:
    """Data of the dual nonlinear equation ``F(lam) = 0`` for one outer step.

    ``F(lam) = theta lam - alpha A prox_{t g}(z - t A' lam) - r``; F is
    monotone and Lipschitz with constant ``theta + alpha t |A|^2``. It is
    built from the step's previous multiplier ``lam_prev``, which it does not
    keep: ``r = theta lam_prev - alpha b``.
    """

    theta: float
    alpha: float
    t: float
    z: np.ndarray
    constraint: object
    g: object
    lam_prev: InitVar[np.ndarray]
    r: np.ndarray = field(init=False)

    def __post_init__(self, lam_prev):
        if min(self.theta, self.alpha, self.t) <= 0:
            raise ValueError("context scalars must be positive")
        self.z = np.asarray(self.z, dtype=float)
        self.r = self.theta * np.asarray(lam_prev, dtype=float) - self.alpha * self.constraint.rhs


def _prox_point(ctx, lam):
    """The prox argument ``u = z - t A' lam`` and ``p = prox_{t g}(u)`` of ``lam``."""
    u = ctx.z - ctx.t * ctx.constraint.apply_adjoint(lam)
    return u, ctx.g.prox(ctx.t, u)


def _dual_map(ctx, lam, p):
    """``F(lam) = theta lam - alpha A p - r`` from the prox point ``p`` of ``lam``."""
    return ctx.theta * lam - ctx.alpha * ctx.constraint.apply(p) - ctx.r


def _merit(ctx, lam, u, p):
    """Smooth merit whose gradient is the dual map ``F``, at ``lam`` from its
    prox argument ``u`` and prox point ``p`` (:func:`_prox_point`).

    It is ``theta |lam|^2 / 2 - <r, lam> + alpha ((<u, p> - |p|^2 / 2) / t - g(p))``,
    ``alpha`` times the Moreau envelope of ``g*`` at ``u / t``, written with
    ``g`` itself (Li, Sun and Toh, SSNAL). It needs only ``g.prox`` and
    ``g.value``, so it is finite for every prox function.
    """
    envelope = (float(u @ p) - 0.5 * float(p @ p)) / ctx.t - ctx.g.value(p)
    return (0.5 * ctx.theta * float(lam @ lam) - float(ctx.r @ lam)
            + ctx.alpha * envelope)


@dataclass
class SsnResult:
    """The last iterate ``lam``; ``point`` is its prox point ``prox_{t g}(z - t A' lam)``."""

    lam: np.ndarray
    iterations: int
    converged: bool
    residual: float
    point: np.ndarray


# semi-smooth Newton: Armijo fraction and backtracking factor of the line
# search, and Newton steps per solve
_NU = 0.25
_DELTA = 0.5
_MAX_NEWTON = 100


def ssn_solve(ctx, lam0, tol):
    """Globalized semi-smooth Newton on the dual map ``F``.

    Each iteration solves ``(theta I + alpha t A S A') d = -F(lam)`` exactly,
    with a diagonal Clarke element ``S`` of the prox (see
    :func:`_newton_direction`), and tries the steps ``lam + 2^-i d``,
    ``i = 0..60``, in one loop. The full step is taken as it is when it
    halves ``|F|``; a step is taken when it passes the Armijo test on the
    :func:`_merit`, whose gradient is ``F``. Each trial forms its prox point
    once, and ``F`` only at the full step and at the step taken.
    The constraint must have a dense form: on a matrix-free one,
    ``constraint.matrix()`` raises ``UnsupportedOracleError``.
    """
    amat = ctx.constraint.matrix()
    lam = np.asarray(lam0, dtype=float).copy()
    u, p = _prox_point(ctx, lam)
    residual = _dual_map(ctx, lam, p)
    rnorm = float(np.linalg.norm(residual))
    for j in range(_MAX_NEWTON):
        if rnorm <= tol:
            return SsnResult(lam, j, True, rnorm, p)
        direction = _newton_direction(ctx, amat, ctx.g.prox_jacobian(ctx.t, u), residual)
        step = 1.0
        for _ in range(61):
            trial = lam + step * direction
            trial_u, trial_p = _prox_point(ctx, trial)
            if step == 1.0:
                # full steps contract the residual once the active set settles;
                # taking them directly avoids merit-noise stalls near the solution
                trial_res = _dual_map(ctx, trial, trial_p)
                if float(np.linalg.norm(trial_res)) <= 0.5 * rnorm:
                    break
                merit, slope = _merit(ctx, lam, u, p), float(residual @ direction)
            if _merit(ctx, trial, trial_u, trial_p) <= merit + _NU * step * slope:
                break
            step *= _DELTA
        else:
            raise InnerSolveError("Newton line search exceeded 60 halvings", rnorm)
        lam, u, p = trial, trial_u, trial_p
        residual = trial_res if step == 1.0 else _dual_map(ctx, lam, p)
        rnorm = float(np.linalg.norm(residual))
    return SsnResult(lam, _MAX_NEWTON, rnorm <= tol, rnorm, p)


def _newton_direction(ctx, amat, slope, residual):
    """``d`` with ``(theta I + c C C') d = -F`` by one Cholesky, ``c = alpha t``.

    ``C = A_J`` holds the active columns ``J = {j: S_jj > 0}`` of ``A``, as
    every prox Jacobian ``S`` is 0/1 (the second-order sparsity of Li, Sun
    and Toh's SSNAL). The factored matrix is the smaller side, as in
    :func:`~apd.oracles._smaller_gram`: ``theta I + c C C'`` (m×m) when
    ``|J| >= m``, else ``theta I + c C'C`` (|J|×|J|) through Woodbury,
    ``d = -(F - c C (theta I + c C'C)^{-1} C'F) / theta``. No active column
    gives ``d = -F / theta``.
    """
    active = slope > 0
    if not active.any():
        return -residual / ctx.theta
    cols = amat[:, active]
    coeff = ctx.alpha * ctx.t
    kernel = _smaller_gram(cols)
    kernel *= coeff
    kernel.flat[::kernel.shape[0] + 1] += ctx.theta
    factor = cho_factor(kernel, check_finite=False)
    if kernel.shape[0] == residual.size:
        return -cho_solve(factor, residual, check_finite=False)
    y = cho_solve(factor, cols.T @ residual, check_finite=False)
    return -(residual - coeff * (cols @ y)) / ctx.theta


# ---------------------------------------------------------------------------
# nearly singular consensus systems
# ---------------------------------------------------------------------------

AUGMENTED_METHODS = ("sgs", "pcg_jacobi", "pcg_sgs")


def _checked(operator, s, eps, tol, method, i_max):
    """``(A, s)``: the operator as CSR and the right side as one float vector,
    after the checks of :func:`augmented_consensus_solve`: ``method`` is one
    of ``AUGMENTED_METHODS``, ``i_max >= 0``, ``0 < eps < inf``,
    ``0 <= tol < inf``, ``operator`` is a square scipy sparse matrix with
    finite entries, and ``s`` is one finite vector of its size."""
    if method not in AUGMENTED_METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {AUGMENTED_METHODS}")
    if i_max < 0:
        raise ValueError(f"i_max must be nonnegative, got {i_max}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    if not sp.issparse(operator) or operator.shape != operator.shape[:1] * 2:
        raise ValueError(f"the operator must be a square scipy sparse matrix, got "
                         f"{type(operator).__name__} of shape {np.shape(operator)}")
    matrix = operator.tocsr()
    if not np.isfinite(matrix.data).all():
        raise ValueError(f"the operator must be finite, got "
                         f"{matrix.data[~np.isfinite(matrix.data)][0]}")
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"the right side must be one vector, not an array of shape {s.shape}")
    if s.size != matrix.shape[0]:
        raise ValueError(f"the right side has {s.size} entries, the operator "
                         f"{matrix.shape[0]} rows")
    if not np.isfinite(s).all():
        raise ValueError(f"the right side must be finite, got {s[~np.isfinite(s)][0]}")
    return matrix, s


def _bordered_matrix(operator, eps):
    """The CSR matrix ``[[eps q, eps 1'], [eps 1, eps I + A]]`` of a ``q x q`` CSR ``A``.

    It acts on a coarse coefficient ``v1`` (row 0) stacked on the fine
    vector ``v2``; for null space span{1} of ``A``, any solution of the
    bordered system with right side ``(sum(s), s)`` recovers the solution
    ``v = v1 * 1 + v2`` of ``(eps I + A) v = s``. One assembly: the fine
    diagonal's ``eps`` and the diagonal of ``A`` are summed into one slot.
    """
    q = operator.shape[0]
    coo = operator.tocoo()
    fine = np.arange(1, q + 1)
    coarse = np.zeros(q, dtype=fine.dtype)
    # slots: corner, top border, left border, A, fine diagonal
    rows = np.concatenate([[0], coarse, fine, coo.row + 1, fine])
    cols = np.concatenate([[0], fine, coarse, coo.col + 1, fine])
    vals = np.concatenate([[eps * q], np.full(2 * q, eps), coo.data, np.full(q, eps)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(q + 1, q + 1))


def _triangle_factors(matrix):
    """SuperLU factors of the lower and the upper triangle of ``matrix``.

    With the natural ordering and diagonal pivots SuperLU keeps each
    triangle as it is: both permutations are the identity and the factors
    add no fill, so a ``solve`` is one sparse triangular solve. The diagonal
    must have no zero, on which SuperLU would raise a bare ``RuntimeError``.
    """
    triangles = (sp.tril(matrix, 0, format="csc"), sp.triu(matrix, 0, format="csc"))
    return tuple(splu(tri, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True}) for tri in triangles)


def _preconditioner(matrix, method):
    """``r -> M^-1 r`` for the Jacobi or the symmetric Gauss-Seidel splitting of ``matrix``.

    For a CSR ``matrix = D + L + U``, Jacobi is ``M = D`` and SGS
    ``M = (D + L) D^-1 (D + U)`` (Saad, *Iterative Methods for Sparse Linear
    Systems*, sec. 4.1), two triangular solves. A zero or negative diagonal
    entry raises ``numpy.linalg.LinAlgError``.
    """
    diag = matrix.diagonal()
    if not np.all(diag > 0):
        raise np.linalg.LinAlgError("the splitting needs a positive diagonal")
    if method == "jacobi":
        inv = 1.0 / diag
        return lambda r: inv * r
    lower, upper = _triangle_factors(matrix)
    return lambda r: upper.solve(diag * lower.solve(r))


def _sgs_sweeps(matrix, b, rows, target, i_max):
    """Symmetric Gauss-Seidel sweeps ``x += M^-1 (b - matrix x)`` from zero;
    ``(x, sweeps, converged)``.

    ``M`` is :func:`_preconditioner`'s SGS splitting. Each sweep forms the
    residual once and stops when ``|r[rows]| <= target`` or after ``i_max``
    sweeps.
    """
    minv = _preconditioner(matrix, "sgs")
    x = np.zeros_like(b)
    for sweeps in range(i_max + 1):
        r = b - matrix @ x
        converged = float(np.linalg.norm(r[rows])) <= target
        if converged or sweeps == i_max:
            return x, sweeps, converged
        x += minv(r)


def augmented_consensus_solve(operator, eps, s, method="pcg_jacobi",
                              tol=1e-6, i_max=100000):
    """Solve ``(eps I + A) v = s`` through the bordered system of :func:`_bordered_matrix`.

    ``A`` must be symmetric positive semidefinite with null space span{1},
    and ``s`` is one vector; ``operator`` is ``A``, a square scipy sparse
    matrix. ``method`` is one of ``AUGMENTED_METHODS``: ``sgs`` runs
    :func:`_sgs_sweeps` on the bordered matrix, and ``pcg_jacobi`` and
    ``pcg_sgs`` run :func:`pcg_solve` preconditioned by that splitting
    (:func:`_preconditioner`). Every method stops on the relative residual of
    the *original* system, the one outer solvers consume, or at ``i_max``,
    and returns ``(v, iterations, converged)``.
    """
    matrix, s = _checked(operator, s, eps, tol, method, i_max)
    bordered = _bordered_matrix(matrix, eps)
    shat = np.concatenate([[s.sum()], s])
    rows = slice(1, None)  # the original residual, free of v1 + v2's eps-scale cancellation
    if method.startswith("pcg_"):
        minv = _preconditioner(bordered, method.removeprefix("pcg_"))
        result = pcg_solve(lambda y: bordered @ y, shat, tol, i_max, minv, rows)
        x, iters, converged = result.solution, result.iterations, result.converged
    else:
        x, iters, converged = _sgs_sweeps(bordered, shat, rows,
                                          tol * float(np.linalg.norm(s)), i_max)
    return x[0] + x[1:], iters, converged
