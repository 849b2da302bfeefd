import gc
import types

import numpy as np
import pytest

import apd
from apd.model import LinearConstraint


@pytest.fixture
def qp1():
    """min |x|^2/2 s.t. x1 + x2 = 1 over R^2; saddle ((0.5, 0.5), -0.5)."""
    return apd.ProblemInstance(
        apd.QuadraticObjective(np.ones(2)),
        apd.ZeroProx(),
        apd.MatrixConstraint([[1.0, 1.0]], [1.0]))


@pytest.fixture
def qp1_saddle(qp1):
    return apd.solve_reference_saddle(qp1)


def planted_lasso(seed, ridge=0.0, n=40, m=10, rows=25, weight=0.2, support=12):
    """Composite l1 instance with a saddle point planted by construction.

    The linear term of the quadratic is chosen so that a prescribed
    ``(x*, lam*)`` satisfies the optimality system exactly: fixed signs and
    a strict dual margin off the support. Returns ``(problem, saddle)``.
    """
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((rows, n))
    design /= np.linalg.norm(design, 2)
    quad = design.T @ design + ridge * np.eye(n)
    amat = rng.standard_normal((m, n))
    amat /= np.linalg.norm(amat, 2)
    x_star = np.zeros(n)
    chosen = rng.choice(n, size=support, replace=False)
    x_star[chosen] = rng.uniform(0.5, 1.5, support) * rng.choice([-1.0, 1.0], support)
    rhs = amat @ x_star
    lam_star = rng.standard_normal(m) * 0.3
    adj = amat.T @ lam_star
    grad_target = np.empty(n)
    grad_target[chosen] = -weight * np.sign(x_star[chosen]) - adj[chosen]
    off = np.setdiff1d(np.arange(n), chosen)
    grad_target[off] = -adj[off] + weight * rng.uniform(-0.5, 0.5, off.size)
    lin = grad_target - quad @ x_star
    smooth = apd.QuadraticObjective(quad, lin, mu=ridge, lip=ridge + 1.0)
    problem = apd.ProblemInstance(smooth, apd.L1Prox(weight),
                                  apd.MatrixConstraint(amat, rhs))
    f_star = problem.objective(x_star)
    saddle = apd.SaddlePoint(x_star, lam_star, f_star)
    feas, stat = apd.kkt_residual(problem, x_star, lam_star)
    assert feas < 1e-12 and stat < 1e-12
    return problem, saddle


class CountingConstraint(LinearConstraint):
    """Forwards to a constraint and counts ``A`` and ``A'`` applications."""

    def __init__(self, inner):
        self.inner = inner
        self.rows, self.cols = inner.rows, inner.cols
        self.op_norm = inner.op_norm
        self.applies = self.adjoints = 0

    @property
    def rhs(self):
        return self.inner.rhs

    def apply(self, x):
        self.applies += 1
        return self.inner.apply(x)

    def apply_adjoint(self, lam):
        self.adjoints += 1
        return self.inner.apply_adjoint(lam)

    def matrix(self):
        return self.inner.matrix()


class CountingQuadratic(apd.QuadraticObjective):
    """A quadratic objective that counts its gradient evaluations."""

    grads = 0

    def gradient(self, x):
        self.grads += 1
        return super().gradient(x)


def reachable(root):
    """Every object reachable from ``root`` through references, short of
    classes, modules and functions."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def contraction_violations(records, slack=1e-9):
    """Iterations violating E_k <= E_{k-1} / (1 + alpha_k), noise-floored."""
    scale = max((r.lyapunov for r in records if np.isfinite(r.lyapunov)),
                default=1.0)
    floor = 5e-13 * max(scale, 1.0)
    bad = []
    for k in range(1, len(records)):
        prev, rec = records[k - 1], records[k]
        if not (np.isfinite(prev.lyapunov) and np.isfinite(rec.lyapunov)):
            continue
        if rec.lyapunov > prev.lyapunov / (1.0 + rec.alpha) * (1.0 + slack) + floor:
            bad.append(rec.k)
    return bad
