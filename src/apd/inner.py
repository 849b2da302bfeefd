"""Inner solvers: practical PCG, dual subproblems, semi-smooth Newton, and
the robust augmented solver for nearly singular consensus systems.

Semi-smooth Newton solves each Newton system directly: one Cholesky of
``theta I + alpha t C C'`` or, when ``C`` (the columns of ``A`` that the
prox Jacobian keeps) has fewer columns than rows, of the smaller
``theta I + alpha t C'C`` through Woodbury. PCG is one loop, used by the
preconditioned consensus methods on the bordered system.
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

    ``rhs`` holds one right-hand side, or several as columns that share
    ``H``. ``apply_minv`` applies the inverse preconditioner; identity when
    omitted. ``rows`` selects the residual rows that the stop test measures;
    all of them when omitted.
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
    """Preconditioned conjugate gradients from a zero start.

    Stops at ``i_max`` iterations or when ``|(e - H d)[rows]|`` falls to
    ``tol |e[rows]|``, norms taken over every column at once. The test
    passes only on a freshly computed residual: the recursed one is
    refreshed whenever the iteration index is divisible by 50, and when it
    passes the test, in which case the directions restart from the fresh
    residual unless that passes too. Each column takes its own step; a
    column whose direction has zero curvature takes step 0, and negative
    curvature raises :class:`InnerSolveError`.
    """
    if not tol >= 0:
        raise ValueError("pcg tolerance must be nonnegative")
    rhs, rows, minv = system.rhs, system.rows, system.apply_minv
    target = tol * float(np.linalg.norm(rhs[rows]))
    d = np.zeros_like(rhs)
    r = rhs
    p = minv(r)
    delta = _dot_cols(r, p)
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
                delta = _dot_cols(r, p)
        if size <= target or i == i_max:
            return PcgResult(d, i, size <= target)
        q = system.apply(p)
        curvature = _dot_cols(q, p)
        if np.any(curvature < 0):
            raise InnerSolveError("operator is not positive definite on the Krylov space",
                                  size)
        step = _safe_ratio(delta, curvature)
        d = d + _scale_cols(step, p)
        if i % 50 == 0:
            r = rhs - system.apply(d)
            fresh = True
        else:
            r = r - _scale_cols(step, q)
            fresh = False
        w = minv(r)
        delta_new = _dot_cols(r, w)
        p = w + _scale_cols(_safe_ratio(delta_new, delta), p)
        delta = delta_new
        i += 1


def _dot_cols(a, b):
    return float(a @ b) if a.ndim == 1 else np.einsum("ij,ij->j", a, b)


def _safe_ratio(num, den):
    if np.ndim(den) == 0:
        return num / den if den > 0 else 0.0
    safe = np.where(den > 0, den, 1.0)
    return np.where(den > 0, num / safe, 0.0)


def _scale_cols(scale, vec):
    return scale * vec if vec.ndim == 1 else np.asarray(scale)[None, :] * vec


def jacobi_preconditioner(diagonal):
    diagonal = np.asarray(diagonal, dtype=float)
    if np.any(diagonal <= 0):
        raise ValueError("Jacobi preconditioner needs a positive diagonal")
    inv = 1.0 / diagonal
    return lambda r: inv * r if r.ndim == 1 else inv[:, None] * r


# ---------------------------------------------------------------------------
# dual subproblem of the forward-backward schemes
# ---------------------------------------------------------------------------

@dataclass
class DualMapContext:
    """Data of the dual nonlinear equation ``F(lam) = 0`` for one outer step.

    ``F(lam) = theta lam - alpha A prox_{t g}(z - t A' lam) - r`` with
    ``r = theta lam_prev - alpha b``; F is monotone and Lipschitz with
    constant ``rho = theta + alpha t |A|^2``.
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

    @property
    def rho(self):
        return self.theta + self.alpha * self.t * self.constraint.op_norm ** 2

    def primal_point(self, lam):
        return self.g.prox(self.t, self.z - self.t * self.constraint.apply_adjoint(lam))


def eval_dual_map(ctx, lam):
    """The monotone dual map ``F`` at ``lam``."""
    return _dual_map(ctx, np.asarray(lam, dtype=float))[0]


def _dual_map(ctx, lam):
    """``F(lam)`` and the prox argument ``u = z - t A' lam`` it is built on."""
    u = ctx.z - ctx.t * ctx.constraint.apply_adjoint(lam)
    p = ctx.g.prox(ctx.t, u)
    return ctx.theta * lam - ctx.alpha * ctx.constraint.apply(p) - ctx.r, u


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
    p = ctx.g.prox(ctx.t, u)
    envelope = (float(u @ p) - 0.5 * float(p @ p)) / ctx.t - ctx.g.value(p)
    return (0.5 * ctx.theta * float(lam @ lam) - float(ctx.r @ lam)
            + ctx.alpha * envelope)


@dataclass
class SsnResult:
    lam: np.ndarray
    iterations: int
    converged: bool
    residual: float


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
    residual, u = _dual_map(ctx, lam)
    rnorm = float(np.linalg.norm(residual))
    for j in range(_MAX_NEWTON):
        if rnorm <= tol:
            return SsnResult(lam, j, True, rnorm)
        direction = _newton_direction(ctx, amat, ctx.g.prox_jacobian(ctx.t, u), residual)
        # full steps contract the residual once the active set settles;
        # accepting them directly avoids merit-noise stalls near the solution
        full = lam + direction
        full_res, full_u = _dual_map(ctx, full)
        full_norm = float(np.linalg.norm(full_res))
        if full_norm <= 0.5 * rnorm:
            lam, residual, u, rnorm = full, full_res, full_u, full_norm
            continue
        merit = eval_dual_merit(ctx, lam)
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
        residual, u = _dual_map(ctx, lam)
        rnorm = float(np.linalg.norm(residual))
    return SsnResult(lam, _MAX_NEWTON, rnorm <= tol, rnorm)


def _newton_direction(ctx, amat, slope, residual):
    """``d`` with ``(theta I + c C C') d = -F`` by one Cholesky, ``c = alpha t``.

    ``C = A_J diag(S_J)^{1/2}`` holds the active columns ``J = {j: S_jj > 0}``
    of ``A`` (the second-order sparsity of Li, Sun and Toh's SSNAL). The
    factored matrix is the smaller side, as in
    :func:`~apd.model._smaller_gram`: ``theta I + c C C'`` (m×m) when
    ``|J| >= m``, else ``theta I + c C'C`` (|J|×|J|) through Woodbury,
    ``d = -(F - c C (theta I + c C'C)^{-1} C'F) / theta``. No active column
    gives ``d = -F / theta``.
    """
    active = slope > 0
    if not active.any():
        return -residual / ctx.theta
    cols = amat[:, active] * np.sqrt(slope[active])
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

AUGMENTED_METHODS = ("jacobi", "gs", "sgs", "pcg_jacobi", "pcg_sgs")
PLAIN_METHODS = ("jacobi", "gs", "sgs")


def _as_sparse(operator):
    if sp.issparse(operator):
        return operator.tocsr()
    return sp.csr_matrix(np.asarray(operator, dtype=float))


def _col(vec, like):
    return vec[:, None] if like.ndim == 2 else vec


class BorderedPattern:
    """``[[eps q, eps 1'], [eps 1, eps I + A]]`` for every ``eps``, assembled once.

    The CSR pattern of the bordered matrix does not depend on ``eps``, so it
    is built once from ``A``, with two data arrays: ``base`` holds the
    entries of ``A`` (zero in the eps slots) and ``weight`` holds ``q`` at
    the corner and 1 on the borders and the fine diagonal. The matrix for
    one ``eps`` has data ``base + eps * weight``; every slot adds at most one
    entry of ``A`` to at most one eps term, so it equals a one-pass assembly
    of the same entries bit for bit.
    """

    def __init__(self, operator):
        self.operator = _as_sparse(operator)
        q = self.operator.shape[0]
        coo = self.operator.tocoo()
        fine = np.arange(1, q + 1)
        coarse = np.zeros(q, dtype=fine.dtype)
        # slots: corner, top border, left border, A, fine diagonal
        rows = np.concatenate([[0], coarse, fine, coo.row + 1, fine])
        cols = np.concatenate([[0], fine, coarse, coo.col + 1, fine])
        base = np.concatenate([np.zeros(1 + 2 * q), coo.data, np.zeros(q)])
        weight = np.concatenate([[q], np.ones(2 * q), np.zeros(coo.nnz), np.ones(q)])
        shape = (q + 1, q + 1)
        self._base = sp.csr_matrix((base, (rows, cols)), shape=shape)
        # same rows and columns, so the same canonical pattern
        self._weight = sp.csr_matrix((weight, (rows, cols)), shape=shape).data

    def matrix(self, eps):
        """The bordered CSR matrix for ``eps``.

        It shares the pattern's ``indices`` and ``indptr`` arrays, so it must
        not be changed in place.
        """
        base = self._base
        return sp.csr_matrix((base.data + eps * self._weight, base.indices, base.indptr),
                             shape=base.shape)


@dataclass
class AugmentedSystem:
    """Bordered enlargement of ``(eps I + A) v = s`` for null space span{1}.

    The operator is ``[[eps q, eps 1'], [eps 1, eps I + A]]`` acting on a
    coarse coefficient plus the fine vector; any solution recovers
    ``v = v1 * 1 + v2``. A right-hand side with several columns means that
    many independent systems sharing the operator. ``pattern`` is a
    :class:`BorderedPattern` of ``A``, or ``A`` itself, assembled here.
    """

    pattern: BorderedPattern
    eps: float
    s: np.ndarray

    def __post_init__(self):
        if not isinstance(self.pattern, BorderedPattern):
            self.pattern = BorderedPattern(self.pattern)
        self.s = np.asarray(self.s, dtype=float)
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    @property
    def operator(self):
        return self.pattern.operator

    def recover(self, v1, v2):
        return v1 + v2 if np.ndim(v1) == 0 else np.asarray(v1)[None, :] + v2

    def original_residual(self, v1, v2):
        # evaluated blockwise: recombining first would reintroduce the
        # eps-scale cancellation the augmentation exists to avoid
        coarse = self.eps * (v1 if v2.ndim == 1 else np.asarray(v1)[None, :])
        return self.s - coarse - self.eps * v2 - self.operator @ v2


def stationary_iteration_step(operator, eps, state, s, method):
    """One Jacobi or Gauss-Seidel sweep on the bordered system.

    ``state`` is the pair ``(v1, v2)``; Jacobi updates every block from the
    old values. Gauss-Seidel is one sparse triangular solve with the lower
    triangle of the bordered matrix: the coarse coefficient (row 0) is
    updated first, then the blocks in index order using already-updated
    neighbors.
    """
    if method not in ("jacobi", "gs"):
        raise ValueError(f"unknown stationary method {method!r}")
    operator = _as_sparse(operator)
    v1, v2 = state
    v2 = np.asarray(v2, dtype=float)
    s = np.asarray(s, dtype=float)
    q = operator.shape[0]
    diag = operator.diagonal()
    if np.any(eps + diag <= 0):
        raise ValueError("nonpositive diagonal in the bordered system")
    if method == "jacobi":
        v1_new = (s.sum(axis=0) - eps * v2.sum(axis=0)) / (eps * q)
        off = operator @ v2 - _col(diag, v2) * v2
        v2_new = (s - eps * _broadcast(v1, v2) - off) / _col(eps + diag, v2)
        return v1_new, v2_new
    forward, _ = _gs_sweeps(BorderedPattern(operator).matrix(eps))
    x = forward(_bordered_vector(v1, v2), _bordered_rhs(s))
    return x[0], x[1:]


def _broadcast(v1, v2):
    return v1 if v2.ndim == 1 else np.asarray(v1)[None, :]


def _bordered_vector(v1, v2):
    """Stack the coarse coefficient on top of the fine vector: row 0 is ``v1``."""
    return np.concatenate([np.broadcast_to(v1, (1,) + v2.shape[1:]), v2])


def _bordered_rhs(s):
    return np.concatenate([s.sum(axis=0, keepdims=True), s])


def _triangle_factors(matrix):
    """SuperLU factors of the lower and the upper triangle of ``matrix``.

    With the natural ordering and diagonal pivots SuperLU keeps each
    triangle as it is: both permutations are the identity and the factors
    add no fill, so a ``solve`` is one sparse triangular solve. A zero on
    the diagonal raises ``numpy.linalg.LinAlgError``; it is checked here
    because SuperLU would raise a bare ``RuntimeError``.
    """
    if np.any(matrix.diagonal() == 0):
        raise np.linalg.LinAlgError("A is singular: zero entry on diagonal.")
    triangles = (sp.tril(matrix, 0, format="csc"), sp.triu(matrix, 0, format="csc"))
    return tuple(splu(tri, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True}) for tri in triangles)


def _gs_sweeps(matrix):
    """Forward and backward Gauss-Seidel sweeps ``(x, b) -> x_new`` on ``matrix``.

    Both triangles are factored here, once, so each sweep is one sparse
    product and one triangular solve: the forward sweep solves with the
    lower triangle and so updates row 0 (on a bordered matrix, the coarse
    coefficient) first, the backward one solves with the upper triangle and
    updates it last. ``x`` and ``b`` may have several columns.
    """
    lower, upper = _triangle_factors(matrix)
    strict_lower = sp.tril(matrix, -1, format="csr")
    strict_upper = sp.triu(matrix, 1, format="csr")

    def forward(x, b):
        return lower.solve(b - strict_upper @ x)

    def backward(x, b):
        return upper.solve(b - strict_lower @ x)

    return forward, backward


def _sgs_preconditioner(bordered):
    # one symmetric sweep (D+L) D^{-1} (D+U), applied in factored form
    diag = bordered.diagonal()
    lower, upper = _triangle_factors(bordered)

    def apply_minv(r):
        y = lower.solve(r)
        return upper.solve(_col(diag, y) * y)

    return apply_minv


def augmented_consensus_solve(operator, eps, s, method="pcg_jacobi",
                              tol=1e-6, i_max=100000):
    """Solve ``(eps I + A) v = s`` through the bordered augmented system.

    ``A`` must be symmetric positive semidefinite with null space span{1}.
    Every method terminates on the relative residual of the *original*
    system, which is the quantity outer solvers consume, or at ``i_max``.
    ``s`` may have several columns (independent systems sharing A).

    ``operator`` is ``A`` as a matrix, or a :class:`BorderedPattern` of it:
    a caller that solves with one ``A`` for many ``eps`` builds the pattern
    once and passes it, and the bordered matrix for each ``eps`` is then
    only a new data array.

    Returns ``(v, iterations, converged)``.
    """
    if method not in AUGMENTED_METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {AUGMENTED_METHODS}")
    system = AugmentedSystem(operator, eps, s)
    s_norm = float(np.linalg.norm(system.s))
    if s_norm == 0.0:
        return np.zeros_like(system.s), 0, True
    if method in ("jacobi", "gs", "sgs"):
        return _augmented_stationary(system, method, tol, i_max, s_norm)
    return _augmented_pcg(system, method, tol, i_max, s_norm)


def _converged(system, v1, v2, tol, s_norm):
    return float(np.linalg.norm(system.original_residual(v1, v2))) <= tol * s_norm


def _augmented_stationary(system, method, tol, i_max, s_norm):
    """Jacobi, Gauss-Seidel or symmetric Gauss-Seidel from a zero start.

    The Gauss-Seidel sweeps are triangular solves with the triangles of the
    bordered matrix, factored once per solve (:func:`_gs_sweeps`); ``sgs``
    runs a forward and then a backward sweep per iteration, so the coarse
    coefficient is updated first and last.
    """
    shat = _bordered_rhs(system.s)
    if method == "jacobi":
        def sweep(x):
            return _bordered_vector(*stationary_iteration_step(
                system.operator, system.eps, (x[0], x[1:]), system.s, "jacobi"))
    else:
        forward, backward = _gs_sweeps(system.pattern.matrix(system.eps))

        def sweep(x):
            x = forward(x, shat)
            return backward(x, shat) if method == "sgs" else x
    x = np.zeros_like(shat)
    for it in range(i_max):
        if _converged(system, x[0], x[1:], tol, s_norm):
            return system.recover(x[0], x[1:]), it, True
        x = sweep(x)
    return system.recover(x[0], x[1:]), i_max, _converged(system, x[0], x[1:], tol, s_norm)


def _augmented_pcg(system, method, tol, i_max, s_norm):
    bordered = system.pattern.matrix(system.eps)
    if method == "pcg_jacobi":
        minv = jacobi_preconditioner(bordered.diagonal())
    else:
        minv = _sgs_preconditioner(bordered)
    # rows 1.. of the bordered residual equal the original-system residual
    spd = SpdSystem(lambda x: bordered @ x, _bordered_rhs(system.s), minv,
                    rows=slice(1, None))
    result = pcg_solve(spd, tol, i_max)
    d = result.solution
    converged = _converged(system, d[0], d[1:], tol, s_norm)
    return system.recover(d[0], d[1:]), result.iterations, converged


def plain_iteration_solve(operator, eps, s, method="jacobi", tol=1e-6, i_max=100000):
    """Classical Jacobi/GS/SGS directly on ``(eps I + A) v = s``.

    Kept for the robustness benchmark: these stall as ``eps`` shrinks, which
    is exactly the behavior the augmented solver removes.
    """
    if method not in PLAIN_METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {PLAIN_METHODS}")
    operator = _as_sparse(operator)
    s = np.asarray(s, dtype=float)
    s_norm = float(np.linalg.norm(s))
    if s_norm == 0.0:
        return np.zeros_like(s), 0, True
    q = operator.shape[0]
    diag = operator.diagonal()
    v = np.zeros_like(s)
    if method != "jacobi":
        forward, backward = _gs_sweeps((operator + eps * sp.identity(q)).tocsr())
    for it in range(i_max):
        res = s - (eps * v + operator @ v)
        if float(np.linalg.norm(res)) <= tol * s_norm:
            return v, it, True
        if method == "jacobi":
            off = operator @ v - _col(diag, v) * v
            v = (s - off) / _col(eps + diag, v)
        else:
            v = forward(v, s)
            if method == "sgs":
                v = backward(v, s)
    res = s - (eps * v + operator @ v)
    return v, i_max, float(np.linalg.norm(res)) <= tol * s_norm
