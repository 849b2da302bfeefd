"""Independent output checks, written with numpy and scipy only.

Each check recomputes a case's stopping quantity from the instance data and
the returned iterate, without calling into ``apd``. It returns ``None`` when
the output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

# The program and these checks compute the same quantity with different
# rounding and, for the gaps, against different reference solves. An output
# passes when its recomputed quantity is within this factor of the tolerance
# the run stopped at; a wrong answer misses by orders of magnitude.
SLACK = 2.0


def qp_saddle(q, c, amat, b):
    """Saddle point of ``min x'diag(q)x/2 + c'x s.t. Ax = b``.

    Range-space solve: ``lam = -(A Q^-1 A')^-1 (b + A Q^-1 c)`` by Cholesky,
    then ``x = -Q^-1 (c + A' lam)``. Returns ``(x, lam, f)``.
    """
    a_qinv = amat / q
    schur = a_qinv @ amat.T
    lam = -sla.cho_solve(sla.cho_factor(schur), b + a_qinv @ c)
    x = -(c + amat.T @ lam) / q
    return x, lam, 0.5 * float(x @ (q * x)) + float(c @ x)


def qp_gap(q, c, amat, b, x, tol):
    """Objective gap against :func:`qp_saddle` plus ``|Ax - b|``."""
    _, _, f_star = qp_saddle(q, c, amat, b)
    gap = abs(0.5 * float(x @ (q * x)) + float(c @ x) - f_star)
    measure = gap + float(np.linalg.norm(amat @ x - b))
    if measure <= SLACK * tol:
        return None
    return f"check: gap+feasibility {measure:.3e} > {SLACK:g}*{tol:g}"


def soft_threshold(u, t):
    return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)


def kkt(grad, prox, amat, b, x, lam, tol):
    """Feasibility plus the unit-step prox-gradient residual.

    ``grad`` is the gradient of the smooth part; ``prox`` the unit-step prox
    of the nonsmooth part, or ``None`` when that part is zero over the whole
    space, in which case stationarity is the plain gradient norm.
    """
    feas = float(np.linalg.norm(amat @ x - b))
    g = grad(x) + amat.T @ lam
    stat = float(np.linalg.norm(g if prox is None else x - prox(x - g)))
    if feas + stat <= SLACK * tol:
        return None
    return f"check: kkt residual {feas + stat:.3e} > {SLACK:g}*{tol:g}"


def distance(x, x_star, tol):
    """``|x - x*| <= tol`` against a planted solution."""
    dist = float(np.linalg.norm(x - x_star))
    if dist <= tol:
        return None
    return f"check: distance to planted solution {dist:.3e} > {tol:g}"


def laplacian_apply(edges, stacked):
    """``L X`` as ``B'(B X)`` from the signed edge differences."""
    diff = stacked[edges[:, 0]] - stacked[edges[:, 1]]
    out = np.zeros_like(stacked)
    np.add.at(out, edges[:, 0], diff)
    np.add.at(out, edges[:, 1], -diff)
    return out


def ddo_optimum(kind, local_data):
    """Centralized optimum of the node-averaged objective.

    Least squares stacks every node's rows into one ``lstsq``; logistic runs
    Newton's method on the averaged loss with vectorized sums.
    """
    if kind == "least_squares":
        design = np.vstack([d for d, _ in local_data])
        target = np.concatenate([t for _, t in local_data])
        x = np.linalg.lstsq(design, target, rcond=None)[0]
        return x, ddo_value(kind, local_data, x[None, :])
    features = np.array([f for f, _, _ in local_data])
    labels = np.array([y for _, y, _ in local_data])
    ridge = local_data[0][2]
    n, m = features.shape
    x = np.zeros(m)
    for _ in range(100):
        sig = 1.0 / (1.0 + np.exp(labels * (features @ x)))
        grad = -(features.T @ (labels * sig)) / n + ridge * x
        if np.linalg.norm(grad) <= 1e-14:
            break
        hess = (features.T * (sig * (1.0 - sig))) @ features / n + ridge * np.eye(m)
        x = x - np.linalg.solve(hess, grad)
    return x, ddo_value(kind, local_data, x[None, :])


def ddo_value(kind, local_data, stacked):
    """Node-averaged objective; a single row is shared by every node."""
    n = len(local_data)
    rows = np.broadcast_to(stacked, (n, stacked.shape[1]))
    if kind == "least_squares":
        res = [d @ r - t for (d, t), r in zip(local_data, rows)]
        return 0.5 * sum(float(e @ e) for e in res) / n
    features = np.array([f for f, _, _ in local_data])
    labels = np.array([y for _, y, _ in local_data])
    ridge = local_data[0][2]
    margins = labels * np.einsum("ij,ij->i", features, rows)
    loss = np.logaddexp(0.0, -margins) + 0.5 * ridge * np.einsum("ij,ij->i", rows, rows)
    return float(loss.sum()) / n


def ddo_gap(kind, local_data, edges, stacked, tol):
    """Objective gap against :func:`ddo_optimum` plus ``|L X|``."""
    _, f_star = ddo_optimum(kind, local_data)
    gap = abs(ddo_value(kind, local_data, stacked) - f_star)
    measure = gap + float(np.linalg.norm(laplacian_apply(edges, stacked)))
    if measure <= SLACK * tol:
        return None
    return f"check: gap+consensus {measure:.3e} > {SLACK:g}*{tol:g}"


def consensus_residual(edges, eps, s, v, tol):
    """Relative true residual of ``(eps I + L) v = s``."""
    res = float(np.linalg.norm(s - (eps * v + laplacian_apply(edges, v))))
    rel = res / float(np.linalg.norm(s))
    if rel <= SLACK * tol:
        return None
    return f"check: relative residual {rel:.3e} > {SLACK:g}*{tol:g}"


def flow_decay(q, amat, b, state0, state, horizon):
    """``E(T) <= exp(-T) E(0)`` for the flow's Lyapunov function.

    ``E = f(x) - f* + <lam*, Ax - b> + gamma/2 |v - x*|^2
    + theta/2 |lam - lam*|^2`` with ``f = x'diag(q)x/2``; the saddle point
    comes from :func:`qp_saddle`. States are ``(x, v, lam, theta, gamma)``.
    """
    x_star, lam_star, f_star = qp_saddle(q, np.zeros_like(q), amat, b)

    def energy(x, v, lam, theta, gamma):
        dv, dlam = v - x_star, lam - lam_star
        return (0.5 * float(x @ (q * x)) - f_star + float(lam_star @ (amat @ x - b))
                + 0.5 * gamma * float(dv @ dv) + 0.5 * theta * float(dlam @ dlam))

    e0, e_end = energy(*state0), energy(*state)
    if e_end <= np.exp(-horizon) * e0:
        return None
    return f"check: E(T)={e_end:.3e} > exp(-T)*E(0)={np.exp(-horizon) * e0:.3e}"
