"""Inner solvers: practical PCG, dual subproblems, semi-smooth Newton, and
the robust augmented solver for nearly singular consensus systems.

Semi-smooth Newton solves each Newton system directly: one Cholesky of
``theta I + alpha t C C'`` or, when ``C`` (the columns of ``A`` that the
prox Jacobian keeps) has fewer columns than rows, of the smaller
``theta I + alpha t C'C`` through Woodbury.

The consensus solvers take one right-side vector. Their stationary methods
(damped Jacobi, symmetric Gauss-Seidel) are one sweep builder,
:func:`_sweep`, run by one loop on the bordered matrix or on
``eps I + A``; the preconditioned ones run the one PCG loop,
:func:`pcg_solve`, on the bordered matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu

from .model import _smaller_gram


class InnerSolveError(RuntimeError):
    """An inner solve failed; carries the last residual measure."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# practical PCG
# ---------------------------------------------------------------------------

@dataclass
class SpdSystem:
    """SPD system ``H d = e`` with an apply-only operator and preconditioner.

    ``rhs`` is one vector. ``apply_minv`` applies the inverse
    preconditioner; identity when omitted. ``rows`` selects the residual
    rows that the stop test measures; all of them when omitted.
    """

    apply: callable
    rhs: np.ndarray
    apply_minv: callable = None
    rows: slice = None

    def __post_init__(self):
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rows is None:
            self.rows = slice(None)
        if self.apply_minv is None:
            self.apply_minv = lambda r: r


@dataclass
class PcgResult:
    solution: np.ndarray
    iterations: int
    converged: bool


def pcg_solve(system, tol, i_max):
    """Preconditioned conjugate gradients on one right side, from a zero start.

    Stops at ``i_max`` iterations or when ``|(e - H d)[rows]|`` falls to
    ``tol |e[rows]|``. The test passes only on a freshly computed residual:
    the recursed one is refreshed whenever the iteration index is divisible
    by 50, and when it passes the test, in which case the directions restart
    from the fresh residual unless that passes too. A direction with zero
    curvature takes step 0, and negative curvature raises
    :class:`InnerSolveError`.
    """
    if not tol >= 0:
        raise ValueError("pcg tolerance must be nonnegative")
    if i_max < 0:
        raise ValueError(f"i_max must be nonnegative, got {i_max}")
    rhs, rows, minv = system.rhs, system.rows, system.apply_minv
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
            r = rhs - system.apply(d)
            fresh = True
            size = float(np.linalg.norm(r[rows]))
            if size > target:
                p = minv(r)
                delta = float(r @ p)
        if size <= target or i == i_max:
            return PcgResult(d, i, size <= target)
        q = system.apply(p)
        curvature = float(q @ p)
        if curvature < 0:
            raise InnerSolveError("operator is not positive definite on the Krylov space",
                                  size)
        step = delta / curvature if curvature > 0 else 0.0
        d = d + step * p
        if i % 50 == 0:
            r = rhs - system.apply(d)
            fresh = True
        else:
            r = r - step * q
            fresh = False
        w = minv(r)
        delta_new = float(r @ w)
        p = w + (delta_new / delta if delta > 0 else 0.0) * p
        delta = delta_new
        i += 1


def jacobi_preconditioner(diagonal):
    diagonal = np.asarray(diagonal, dtype=float)
    if np.any(diagonal <= 0):
        raise ValueError("Jacobi preconditioner needs a positive diagonal")
    inv = 1.0 / diagonal
    return lambda r: inv * r


# ---------------------------------------------------------------------------
# dual subproblem of the forward-backward schemes
# ---------------------------------------------------------------------------

@dataclass
class DualMapContext:
    """Data of the dual nonlinear equation ``F(lam) = 0`` for one outer step.

    ``F(lam) = theta lam - alpha A prox_{t g}(z - t A' lam) - r`` with
    ``r = theta lam_prev - alpha b``; F is monotone and Lipschitz with
    constant ``theta + alpha t |A|^2``.
    """

    theta: float
    alpha: float
    t: float
    z: np.ndarray
    constraint: object
    g: object
    r: np.ndarray = None

    def __post_init__(self):
        if min(self.theta, self.alpha, self.t) <= 0:
            raise ValueError("context scalars must be positive")
        self.z = np.asarray(self.z, dtype=float)
        if self.r is None:
            self.r = np.zeros(self.constraint.rows)

    @classmethod
    def for_step(cls, theta, alpha, t, z, constraint, g, lam_prev):
        r = theta * np.asarray(lam_prev, dtype=float) - alpha * constraint.rhs
        return cls(theta, alpha, t, z, constraint, g, r=r)


def _dual_map(ctx, lam):
    """``F(lam)``, the prox argument ``u = z - t A' lam`` and ``p = prox_{t g}(u)``."""
    u = ctx.z - ctx.t * ctx.constraint.apply_adjoint(lam)
    p = ctx.g.prox(ctx.t, u)
    return ctx.theta * lam - ctx.alpha * ctx.constraint.apply(p) - ctx.r, u, p


def eval_dual_merit(ctx, lam):
    """Smooth merit whose gradient is the dual map ``F``.

    With ``u = z - t A' lam`` and ``p = prox_{t g}(u)`` it is
    ``theta |lam|^2 / 2 - <r, lam> + alpha ((<u, p> - |p|^2 / 2) / t - g(p))``,
    ``alpha`` times the Moreau envelope of ``g*`` at ``u / t``, written with
    ``g`` itself (Li, Sun and Toh, SSNAL). It needs only ``g.prox`` and
    ``g.value``, so it is finite for every prox function.
    """
    lam = np.asarray(lam, dtype=float)
    u = ctx.z - ctx.t * ctx.constraint.apply_adjoint(lam)
    return _merit(ctx, lam, u, ctx.g.prox(ctx.t, u))


def _merit(ctx, lam, u, p):
    """The merit at ``lam`` from its prox argument ``u`` and prox point ``p``."""
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
    :func:`_newton_direction`). A full step that halves ``|F|`` is taken as
    it is; otherwise the step backtracks with an Armijo test on the merit of
    :func:`eval_dual_merit`,
    ``theta |lam|^2 / 2 - <r, lam> + alpha ((<u, p> - |p|^2 / 2) / t - g(p))``
    with ``u = z - t A' lam`` and ``p = prox_{t g}(u)``, whose gradient is ``F``.
    The constraint must have a dense form: on a matrix-free one,
    ``constraint.matrix()`` raises ``UnsupportedOracleError``.
    """
    amat = ctx.constraint.matrix()
    lam = np.asarray(lam0, dtype=float).copy()
    residual, u, p = _dual_map(ctx, lam)
    rnorm = float(np.linalg.norm(residual))
    for j in range(_MAX_NEWTON):
        if rnorm <= tol:
            return SsnResult(lam, j, True, rnorm, p)
        direction = _newton_direction(ctx, amat, ctx.g.prox_jacobian(ctx.t, u), residual)
        # full steps contract the residual once the active set settles;
        # accepting them directly avoids merit-noise stalls near the solution
        full = lam + direction
        full_res, full_u, full_p = _dual_map(ctx, full)
        full_norm = float(np.linalg.norm(full_res))
        if full_norm <= 0.5 * rnorm:
            lam, residual, u, p, rnorm = full, full_res, full_u, full_p, full_norm
            continue
        merit = _merit(ctx, lam, u, p)
        slope = float(residual @ direction)
        step = 1.0
        for _ in range(61):
            trial = lam + step * direction
            if eval_dual_merit(ctx, trial) <= merit + _NU * step * slope:
                break
            step *= _DELTA
        else:
            raise InnerSolveError("Newton line search exceeded 60 halvings", rnorm)
        lam = lam + step * direction
        residual, u, p = _dual_map(ctx, lam)
        rnorm = float(np.linalg.norm(residual))
    return SsnResult(lam, _MAX_NEWTON, rnorm <= tol, rnorm, p)


def _newton_direction(ctx, amat, slope, residual):
    """``d`` with ``(theta I + c C C') d = -F`` by one Cholesky, ``c = alpha t``.

    ``C = A_J`` holds the active columns ``J = {j: S_jj > 0}`` of ``A``, as
    every prox Jacobian ``S`` is 0/1 (the second-order sparsity of Li, Sun
    and Toh's SSNAL). The factored matrix is the smaller side, as in
    :func:`~apd.model._smaller_gram`: ``theta I + c C C'`` (m×m) when
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

AUGMENTED_METHODS = ("jacobi", "sgs", "pcg_jacobi", "pcg_sgs")
PLAIN_METHODS = ("jacobi", "sgs")


def _as_sparse(operator):
    if sp.issparse(operator):
        return operator.tocsr()
    return sp.csr_matrix(np.asarray(operator, dtype=float))


def _checked_rhs(s, eps, method, methods, i_max):
    """The right side ``s`` as one float vector, after the checks both
    consensus solvers make: ``method`` is one of ``methods``, ``i_max >= 0``
    and ``0 < eps < inf``."""
    if method not in methods:
        raise ValueError(f"unknown method {method!r}; pick one of {methods}")
    if i_max < 0:
        raise ValueError(f"i_max must be nonnegative, got {i_max}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"the right side must be one vector, not an array of shape {s.shape}")
    return s


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


_JACOBI_DAMPING = 2.0 / 3.0


def _sweep(matrix, method):
    """One Jacobi or symmetric Gauss-Seidel sweep ``(x, b) -> x'``.

    ``matrix`` is a CSR matrix ``D + L + U``, split into its diagonal and
    strict triangles once, here. Jacobi is damped by ``2/3``,
    ``x + (2/3) ((b - (L + U) x) / D - x)``: on a bipartite graph (a path, an
    even cycle, a grid) ``D^-1 (D + L + U)`` of the Laplacian systems, plain
    or bordered, has an eigenvalue near 2, so the undamped sweep has one
    near -1 and stalls; the damped sweep's eigenvalues lie in
    ``[-1/3, 1]`` for these diagonally dominant matrices. The symmetric
    sweep is a forward sweep, one sparse product and one triangular solve
    with ``D + L`` that updates row 0 (on a bordered matrix, the coarse
    coefficient) first, then the backward sweep, a solve with ``D + U``
    that updates row 0 last. A zero on the diagonal raises
    ``numpy.linalg.LinAlgError``.
    """
    diag = matrix.diagonal()
    if np.any(diag == 0):
        raise np.linalg.LinAlgError("A is singular: zero entry on diagonal.")
    strict_lower = sp.tril(matrix, -1, format="csr")
    strict_upper = sp.triu(matrix, 1, format="csr")
    if method == "jacobi":
        off = strict_lower + strict_upper
        return lambda x, b: x + _JACOBI_DAMPING * ((b - off @ x) / diag - x)
    lower, upper = _triangle_factors(matrix)

    def symmetric(x, b):
        forward = lower.solve(b - strict_upper @ x)
        return upper.solve(b - strict_lower @ forward)

    return symmetric


def _sgs_preconditioner(bordered):
    # one symmetric sweep (D+L) D^{-1} (D+U), applied in factored form
    diag = bordered.diagonal()
    lower, upper = _triangle_factors(bordered)
    return lambda r: upper.solve(diag * lower.solve(r))


def _stationary(sweep, b, residual_norm, target, i_max):
    """Sweeps from a zero start until ``residual_norm(x) <= target`` or ``i_max`` sweeps.

    Returns ``(x, sweeps, converged)``.
    """
    x = np.zeros_like(b)
    for it in range(i_max):
        if residual_norm(x) <= target:
            return x, it, True
        x = sweep(x, b)
    return x, i_max, residual_norm(x) <= target


def augmented_consensus_solve(operator, eps, s, method="pcg_jacobi",
                              tol=1e-6, i_max=100000):
    """Solve ``(eps I + A) v = s`` through the bordered system of :func:`_bordered_matrix`.

    ``A`` must be symmetric positive semidefinite with null space span{1},
    and ``s`` is one vector. The stationary methods run :func:`_sweep` on
    the bordered matrix, the ``pcg_*`` methods :func:`pcg_solve` with a
    Jacobi or one-sweep symmetric Gauss-Seidel preconditioner. Every method
    terminates on the relative residual of the *original* system, which is
    the quantity outer solvers consume, or at ``i_max``.

    ``operator`` is ``A`` as a dense or sparse matrix; each call assembles
    its bordered CSR matrix once, in one pass.

    Returns ``(v, iterations, converged)``.
    """
    s = _checked_rhs(s, eps, method, AUGMENTED_METHODS, i_max)
    s_norm = float(np.linalg.norm(s))
    if s_norm == 0.0:
        return np.zeros_like(s), 0, True
    a = _as_sparse(operator)
    bordered = _bordered_matrix(a, eps)
    shat = np.concatenate([[s.sum()], s])

    def residual_norm(x):
        # evaluated blockwise: recombining v1 + v2 first would reintroduce
        # the eps-scale cancellation the bordering exists to avoid
        v1, v2 = x[0], x[1:]
        return float(np.linalg.norm(s - eps * v1 - eps * v2 - a @ v2))

    if method.startswith("pcg_"):
        if method == "pcg_jacobi":
            minv = jacobi_preconditioner(bordered.diagonal())
        else:
            minv = _sgs_preconditioner(bordered)
        # rows 1.. of the bordered residual equal the original-system residual
        result = pcg_solve(SpdSystem(lambda y: bordered @ y, shat, minv, rows=slice(1, None)),
                           tol, i_max)
        x, iters = result.solution, result.iterations
        converged = residual_norm(x) <= tol * s_norm
    else:
        x, iters, converged = _stationary(_sweep(bordered, method), shat, residual_norm,
                                          tol * s_norm, i_max)
    return x[0] + x[1:], iters, converged


def plain_iteration_solve(operator, eps, s, method="jacobi", tol=1e-6, i_max=100000):
    """Classical damped Jacobi or SGS directly on ``(eps I + A) v = s`` for one vector ``s``.

    Kept for the robustness benchmark: these stall as ``eps`` shrinks, which
    is exactly the behavior the augmented solver removes.
    """
    s = _checked_rhs(s, eps, method, PLAIN_METHODS, i_max)
    operator = _as_sparse(operator)
    s_norm = float(np.linalg.norm(s))
    if s_norm == 0.0:
        return np.zeros_like(s), 0, True
    matrix = (operator + eps * sp.identity(operator.shape[0])).tocsr()
    return _stationary(_sweep(matrix, method), s,
                       lambda v: float(np.linalg.norm(s - (eps * v + operator @ v))),
                       tol * s_norm, i_max)
