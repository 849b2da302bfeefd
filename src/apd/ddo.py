"""Decentralized consensus optimization on graphs: the primal-dual scheme,
which is :func:`~apd.solvers.semi_apdfb_step` on the graph's
:class:`IncidenceConstraint`, a :class:`~apd.model.LinearConstraint` whose
exact Gram solve is a banded Cholesky factor of a sparse graph matrix, plus
the Extra baseline. Neither algorithm takes a dense eigensolve: both read
the certified ``lambda_max(L)`` of :func:`lambda_max_bound` that the
:class:`Graph` holds."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from . import solvers
# augmented_consensus_solve and operator_norm_estimate are unused here but
# stay bound: tracers wrap them by module attribute
from .inner import augmented_consensus_solve  # noqa: F401
from .model import LinearConstraint, ProblemInstance
from .model import operator_norm_estimate  # noqa: F401
from .oracles import ZeroProx
from .schedule import ScalingState, StepRule, step_size


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph given by an edge list over ``0..n-1``.

    A node count ``n`` that is not an integer ``>= 0``, an edge that is not a
    pair of integers (:func:`_edge_array`), a self-loop, an endpoint out of
    range, a duplicate edge or more than one component raises ``ValueError``;
    the empty graph, with no component, is not connected, and one node is.

    It owns what is built from the checked edges, which every problem and run
    on it reads: ``incidence``, the signed ``|E| x n`` incidence matrix ``B``
    with ``(B X)_e = x_i - x_j`` for the edge ``e = (i, j)``, exactly zero
    when the two rows are equal; ``laplacian``, the CSR ``L = B'B`` with null
    space span{1}; and, each formed on first use, ``incidence_t``, a CSR
    ``B'``, ``band``, the :func:`_banded` form of ``L``, and ``lambda_max``,
    the certified :func:`lambda_max_bound`. Neither of the last two is formed
    when the graph is built: :func:`random_geometric_graph` builds graphs it
    then rejects. None is a field: none enters equality, hashing or ``repr``.
    """

    n: int
    edges: tuple

    def __post_init__(self):
        if not solvers.is_count(self.n, least=0):
            raise ValueError(f"a graph needs an integer node count n >= 0, got n={self.n!r}")
        ends = _edge_array(self)
        if np.any(ends[:, 0] == ends[:, 1]):
            raise ValueError("self-loops are not allowed")
        if len(ends) and not (ends.min() >= 0 and ends.max() < self.n):
            raise ValueError("edge endpoint out of range")
        rows = np.repeat(np.arange(len(ends)), 2)
        vals = np.tile([1.0, -1.0], len(ends))
        incidence = sp.csr_matrix((vals, (rows, ends.ravel())), shape=(len(ends), self.n))
        laplacian = (incidence.T @ incidence).tocsr()
        # each copy of an edge, in either orientation, adds -1 to L[i, j]; the
        # diagonal holds the degrees, which are positive
        if laplacian.data.min(initial=0.0) < -1.0:
            raise ValueError("duplicate edge")
        # imported on first use: the module adds about 1 MB to every process
        from scipy.sparse.csgraph import connected_components
        if connected_components(laplacian, directed=False, return_labels=False) != 1:
            raise ValueError("graph must be connected")
        object.__setattr__(self, "incidence", incidence)  # the dataclass is frozen
        object.__setattr__(self, "laplacian", laplacian)

    @cached_property
    def incidence_t(self):
        # a CSR copy of B' applies about twice as fast as the CSC view B.T
        return self.incidence.T.tocsr()

    @cached_property
    def band(self):
        """``(order, band)``: :func:`_banded` of ``L``."""
        return _banded(self.laplacian)

    @cached_property
    def lambda_max(self):
        """The certified ``s >= lambda_max(L)`` of :func:`lambda_max_bound`."""
        return lambda_max_bound(self)


def _edge_array(graph):
    """The edge list as an ``(|E|, 2)`` integer array, in edge order: the one
    conversion of ``graph.edges``. ``ValueError`` unless every edge is a pair
    of integers, Python's or numpy's; a fractional or string endpoint is
    neither rounded nor parsed."""
    if not len(graph.edges):
        return np.empty((0, 2), dtype=np.intp)
    # as objects, each endpoint keeps its type: numpy would make a float
    # array of uint64 and int endpoints, and of a fractional one
    ends = np.array(graph.edges, dtype=object)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError("every edge must be a pair (i, j) of endpoints")
    other = {kind.__name__ for kind in set(map(type, ends.flat))
             if not issubclass(kind, (int, np.integer))}
    if other:
        raise ValueError(f"edge endpoints must be integers, got {', '.join(sorted(other))}")
    try:
        return ends.astype(np.intp)
    except OverflowError:
        raise ValueError("edge endpoint out of range") from None


def path_graph(n):
    if not solvers.is_count(n):
        raise ValueError(f"a path needs an integer count of n >= 1 nodes, got n={n!r}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    if not solvers.is_count(n, least=3):
        raise ValueError(f"a cycle needs at least 3 nodes, as an integer, got n={n!r}")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def grid_graph(rows, cols):
    if not (solvers.is_count(rows) and solvers.is_count(cols)):
        raise ValueError(f"a grid needs integer sizes >= 1, got rows={rows!r}, cols={cols!r}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return Graph(rows * cols, tuple(edges))


# draws of random_geometric_graph before it gives up on a connected one
_GEOMETRIC_TRIES = 200
# relative margin on the width of a cell: rounding in the cell index of a
# point cannot put two points within the radius two cells apart
_CELL_MARGIN = 1e-9
# the 3 x 3 block of cell offsets around a cell, itself included
_NEIGHBOUR_CELLS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])


def random_geometric_graph(n, radius, seed):
    """Random geometric graph on the unit square, drawn again while :class:`Graph`
    rejects it as disconnected; an integer ``n >= 1`` and ``radius >= 0``
    (``inf`` joins every pair), else ``ValueError`` before any draw. The pairs
    come from :func:`_close_pairs`, whose time and memory grow with the node
    and pair counts, not with ``n^2``."""
    if not solvers.is_count(n):
        raise ValueError(f"a geometric graph needs an integer count of n >= 1 nodes, got {n!r}")
    if not radius >= 0:
        raise ValueError(f"a geometric graph needs a radius >= 0, got {radius}")
    rng = np.random.default_rng(seed)
    for _ in range(_GEOMETRIC_TRIES):
        rows, cols = _close_pairs(rng.random((n, 2)), radius)
        try:
            return Graph(n, tuple(zip(rows.tolist(), cols.tolist())))
        except ValueError:  # disconnected: the pairs i < j admit no other fault
            pass
    raise ValueError(f"no connected geometric graph after {_GEOMETRIC_TRIES} draws; "
                     "increase the radius")


def _close_pairs(points, radius):
    """``(rows, cols)``: every pair ``i < j`` of the ``(n, 2)`` points in
    ``[0, 1)^2`` whose squared distance is at most ``radius^2``, in row-major
    order, the order of ``np.nonzero`` on the upper triangle of the all-pairs
    test.

    A linked-cell search (Allen and Tildesley, *Computer Simulation of
    Liquids*, 1987): the square is cut into ``side x side`` cells at least
    ``radius`` wide, at most about ``sqrt(n)`` per side, and a point is tested
    only against the points of the 3 x 3 cells around its own. Each tested
    pair takes the all-pairs test's arithmetic, so the pairs are the same
    bit for bit.
    """
    n = len(points)
    width = radius * (1.0 + _CELL_MARGIN)
    side = max(1, math.isqrt(n))
    if width * side > 1.0:
        side = max(1, int(1.0 / width))
    cells = np.minimum((points * side).astype(np.intp), side - 1)
    cell = cells[:, 0] * side + cells[:, 1]
    by_cell = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=side * side)
    starts = np.cumsum(counts) - counts
    near = cells[:, None, :] + _NEIGHBOUR_CELLS
    owner, slot = np.nonzero(np.all((near >= 0) & (near < side), axis=2))
    near_cell = near[owner, slot, 0] * side + near[owner, slot, 1]
    # every (owner, point of a near cell) pair: the k-th point of a cell c is
    # by_cell[starts[c] + k]
    sizes = counts[near_cell]
    rows = np.repeat(owner, sizes)
    within = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cols = by_cell[np.repeat(starts[near_cell], sizes) + within]
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    diff = points[rows] - points[cols]
    close = np.einsum("ij,ij->i", diff, diff) <= radius * radius
    pairs = np.sort(rows[close] * n + cols[close])
    return pairs // n, pairs % n


def graph_laplacian(graph):
    """The CSR Laplacian ``L = B'B`` that :class:`Graph` holds."""
    return graph.laplacian


def _banded(matrix):
    """``(order, band)`` of a sparse symmetric ``M``: its reverse Cuthill-McKee
    order and, in that order, its lower band in LAPACK's lower banded storage,
    ``band[i - j, j] = M[order[i], order[j]]`` for ``i >= j``. ``band`` has one
    row more than the bandwidth; the Cholesky factor of a banded matrix keeps
    its band, so ``scipy.linalg.cholesky_banded`` factors it in place."""
    # imported on first use: the module adds about 1 MB to every process
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    size = matrix.shape[0]
    order = reverse_cuthill_mckee(matrix.tocsr(), symmetric_mode=True) if size \
        else np.arange(0)
    position = np.empty(size, dtype=np.intp)
    position[order] = np.arange(size)
    entries = matrix.tocoo()
    rows, cols = position[entries.row], position[entries.col]
    lower = rows >= cols
    band = np.zeros((int(np.max(rows - cols, initial=0)) + 1, size))
    band[rows[lower] - cols[lower], cols[lower]] = entries.data[lower]
    return order, band


def _banded_cholesky(band, shift, scale):
    """The lower banded Cholesky factor of ``shift I + scale G`` from the
    lower band of ``G`` (:func:`_banded`), in ``G``'s order; raises
    ``numpy.linalg.LinAlgError`` unless the matrix is positive definite."""
    shifted = scale * band
    shifted[0] += shift
    return sla.cholesky_banded(shifted, lower=True, overwrite_ab=True, check_finite=False)


def lambda_max_bound(graph):
    """An upper bound ``s >= lambda_max(L)`` for the Laplacian ``L`` of the
    :class:`Graph` ``graph``, within about ``1e-10 s`` of it, with no dense
    eigensolve; the graph holds it as ``graph.lambda_max``.

    Lanczos (``eigsh``, ``tol=1e-10``, from a fixed start, so a run repeats
    bit for bit) estimates the largest eigenpair ``(lam, v)``. The trial
    ``t = lam + r + c``, with the residual ``r = |L v - lam v|``, is then
    certified by the banded Cholesky factor of ``t I - L`` in the reverse
    Cuthill-McKee order of ``graph.band``, with band ``k``. The factor exists
    only when ``t I - L + E`` is positive definite, where Cholesky's backward
    error has ``|E|_2 <= (2k + 1) gamma_{k+1} max_i (t - d_i)`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 10.1); the slack
    ``c = 2 (k + 1)(k + 2) eps (|lam| + r)`` covers that and the rounding of
    ``t - d_i``, so ``s = t + c``. When Lanczos does not converge, or the
    factor fails because ``lam`` is not the largest eigenvalue, ``s`` is the
    edge bound ``max (d_i + d_j)`` over the edges ``(i, j)`` (Anderson and
    Morley, *Linear Multilinear Algebra* 1985), which always holds but was
    1.8 to 1.9 times too large on 400-node geometric graphs. One node has
    ``L = 0`` and ``s = 0``.
    """
    laplacian, size = graph.laplacian, graph.n
    if size < 2:
        return 0.0
    degrees = laplacian.diagonal()
    entries = laplacian.tocoo()
    edge_bound = float(np.max(degrees[entries.row] + degrees[entries.col],
                              where=entries.row != entries.col, initial=0.0))
    try:
        (lam,), vec = eigsh(laplacian, k=1, which="LA", tol=1e-10,
                            v0=np.cos(np.arange(size)))  # not constant: not in ker L
    except ArpackNoConvergence:
        return edge_bound
    residual = float(np.linalg.norm(laplacian @ vec[:, 0] - lam * vec[:, 0]))
    _, band = graph.band
    slack = 2.0 * band.shape[0] * (band.shape[0] + 1) * np.finfo(float).eps \
        * (abs(lam) + residual)
    trial = float(lam) + residual + slack
    try:
        _banded_cholesky(band, trial, -1.0)
    except np.linalg.LinAlgError:
        return edge_bound
    return trial + slack


def mixing_matrix(graph):
    """``(W, s)``: the doubly stochastic ``W = I - L / s``, as CSR, and the
    scale ``s >= lambda_max(L)`` it divides by, for the Laplacian ``L`` of
    the :class:`Graph` ``graph``.

    ``s`` is the graph's certified ``lambda_max`` (:func:`lambda_max_bound`).
    The spectrum of ``W`` therefore sits in ``[0, 1]`` with a simple
    eigenvalue 1, and ``L X = s (X - W X)``. One node has ``L = 0``:
    ``W = I`` and ``s = 0``, which nothing divides by.
    """
    eye = sp.identity(graph.n, format="csr")
    if graph.n == 1:
        return eye, 0.0
    scale = graph.lambda_max
    return eye - graph.laplacian / scale, scale


# lam_min((I + W)/2) >= 1/2 for every W with spectrum in [0, 1], as mixing_matrix
# certifies: the bound Extra's step takes (the value is 1 for one node, where W = I)
_LAM_MIN_MEAN_MIXING = 0.5


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

def _rowwise_matvec(mats, vecs):
    """``mats[i] @ vecs[i]`` for every node ``i``.

    A batched ``matmul`` makes the same BLAS call per node as the per-node
    products of ``local_gradient``, so the stacked gradient equals theirs
    bit for bit and the runs take the same iterates (``einsum`` sums in
    another order).
    """
    return np.matmul(mats, vecs[..., None])[..., 0]


@dataclass(frozen=True)
class DdoProblem:
    """Average-of-local-objectives problem over a graph.

    Iterates are ``(n, m)`` arrays, one row per node; the consensus operator
    is the Laplacian applied row-blockwise as ``B'(B X)`` through the signed
    incidence matrix ``B``, so it is exactly zero on consensus iterates. The
    symmetric square root ``L^{1/2}`` is never formed. ``mu``/``lip`` are the
    global constants of the averaged objective. ``B``, ``B'`` and
    :attr:`laplacian` are the graph's own (:class:`Graph`).

    ``node_data`` is the one copy of the node data, stacked over the nodes:
    design ``(n, s, m)`` and target ``(n, s)`` for least squares, features
    ``(n, m)``, labels ``(n,)`` and ridge ``(n,)`` for logistic. ``value``
    and ``gradient`` evaluate every node at once on it;
    ``local_value``/``local_gradient`` evaluate one node, and
    :attr:`local_data` reads it node by node.
    """

    graph: Graph
    block_size: int
    kind: str  # least_squares | logistic
    node_data: tuple
    mu: float
    lip: float

    @property
    def n_nodes(self):
        return self.graph.n

    @property
    def dim(self):
        return self.graph.n * self.block_size

    @property
    def local_data(self):
        """One tuple per node, of views into :attr:`node_data`: ``(design,
        target)`` for least squares, ``(features, label, ridge)`` for logistic."""
        return tuple(zip(*self.node_data))

    def local_value(self, i, x):
        if self.kind == "least_squares":
            design, target = self.node_data
            res = design[i] @ x - target[i]
            return 0.5 * float(res @ res)
        features, labels, ridge = self.node_data
        margin = labels[i] * float(features[i] @ x)
        return float(np.logaddexp(0.0, -margin)) + 0.5 * ridge[i] * float(x @ x)

    def local_gradient(self, i, x):
        if self.kind == "least_squares":
            design, target = self.node_data
            return design[i].T @ (design[i] @ x - target[i])
        features, labels, ridge = self.node_data
        margin = labels[i] * float(features[i] @ x)
        return -labels[i] * features[i] / (1.0 + np.exp(margin)) + ridge[i] * x

    def value(self, stacked):
        return self._value(stacked, self._local_pass(stacked))

    def gradient(self, stacked):
        return self._gradient(stacked, self._local_pass(stacked))

    def value_and_gradient(self, stacked):
        """:meth:`value` and :meth:`gradient`, bit for bit, from one pass over
        the nodes, whose residuals or margins both read."""
        local = self._local_pass(stacked)
        return self._value(stacked, local), self._gradient(stacked, local)

    def _local_pass(self, stacked):
        """The per-node products: residuals ``D_i x_i - t_i`` (least squares)
        or margins ``y_i f_i'x_i`` (logistic)."""
        if self.kind == "least_squares":
            design, target = self.node_data
            return _rowwise_matvec(design, stacked) - target
        features, labels, _ = self.node_data
        return labels * _rowwise_matvec(features[:, None, :], stacked)[:, 0]

    def _value(self, stacked, local):
        if self.kind == "least_squares":
            return 0.5 * float(np.sum(local * local)) / self.n_nodes
        _, _, ridge = self.node_data
        total = np.logaddexp(0.0, -local) + 0.5 * ridge * np.einsum("nm,nm->n", stacked, stacked)
        return float(total.sum()) / self.n_nodes

    def _gradient(self, stacked, local):
        if self.kind == "least_squares":
            design, _ = self.node_data
            return _rowwise_matvec(design.transpose(0, 2, 1), local) / self.n_nodes
        features, labels, ridge = self.node_data
        grad = -labels[:, None] * features / (1.0 + np.exp(local))[:, None] \
            + ridge[:, None] * stacked
        return grad / self.n_nodes

    @property
    def laplacian(self):
        return self.graph.laplacian

    def consensus_apply(self, stacked):
        return self.graph.incidence_t @ (self.graph.incidence @ stacked)

    def consensus_residual(self, stacked):
        return float(np.linalg.norm(self.consensus_apply(stacked)))


def build_ddo_problem(graph, block_size, kind, seed, samples=5, ridge=0.5):
    """Generate a decentralized least-squares or logistic instance.

    Least squares draws a ``samples x block_size`` design per node (no
    strong convexity); logistic draws one unit-scale feature vector and a
    binary label per node, with ``mu_i = ridge`` and
    ``lip_i = ridge + |label|^2 |features|^2 / 4``. Raises ``ValueError``,
    before any draw, when ``block_size`` or ``samples`` is not an integer of
    at least 1 or ``ridge`` is not finite and nonnegative; the :class:`Graph`
    is connected by construction.

    Both kinds draw from one stream, node by node: least squares the node's
    design and then its target, logistic its features and then its label.
    Least squares takes the whole stream in one call.
    """
    if not (solvers.is_count(block_size) and solvers.is_count(samples)):
        raise ValueError(f"block_size and samples must be at least 1, as integers, "
                         f"got {block_size!r} and {samples!r}")
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")
    rng = np.random.default_rng(seed)
    n = graph.n
    if kind == "least_squares":
        draws = rng.standard_normal((n, samples * block_size + samples))
        design = draws[:, :-samples].reshape(n, samples, block_size) / np.sqrt(block_size)
        data, mu = (design, draws[:, -samples:].copy()), 0.0  # a copy: contiguous, as design
        # the square of the largest norm: squaring the array of norms first
        # can round one ulp away from the per-node scalar square
        lip = np.max(np.linalg.norm(design, 2, axis=(1, 2))) ** 2 / n
    elif kind == "logistic":
        features, labels = np.empty((n, block_size)), np.empty(n)
        for i in range(n):
            features[i] = rng.standard_normal(block_size) / np.sqrt(block_size)
            # the draw of rng.choice([-1.0, 1.0]), at a third of its cost
            labels[i] = (-1.0, 1.0)[rng.integers(2)]
        data, mu = (features, labels, np.full(n, float(ridge))), ridge / n
        lip = max(ridge + label ** 2 * float(row @ row) / 4.0
                  for row, label in zip(features, labels)) / n
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return DdoProblem(graph, block_size, kind, data, mu, lip)


# reference_objective's Newton steps on a logistic problem stop at this
# gradient norm per node, or after this many steps
_REFERENCE_TOL = 1e-12
_REFERENCE_NEWTON_ITERS = 200


def reference_objective(problem):
    """Optimal consensus objective by a direct centralized solve.

    Least squares reduces to the stacked normal equations; logistic uses a
    Newton iteration on the ``block_size``-dimensional average.
    """
    m = problem.block_size
    n = problem.n_nodes
    if problem.kind == "least_squares":
        design, target = problem.node_data
        rows = design.reshape(-1, m)  # all nodes' samples as one design
        x = np.linalg.lstsq(rows.T @ rows, rows.T @ target.ravel(), rcond=None)[0]
    else:
        features, labels, ridge = problem.node_data
        ridge_sum = float(ridge.sum())
        x = np.zeros(m)
        for _ in range(_REFERENCE_NEWTON_ITERS):
            sig = 1.0 / (1.0 + np.exp(labels * (features @ x)))
            grad = -(labels * sig) @ features + ridge_sum * x
            hess = (features.T * (sig * (1.0 - sig))) @ features + ridge_sum * np.eye(m)
            if np.linalg.norm(grad) / n <= _REFERENCE_TOL:
                break
            x = x - np.linalg.solve(hess, grad)
    stacked = np.tile(x, (n, 1))
    return problem.value(stacked), x


# ---------------------------------------------------------------------------
# the consensus constraint and the algorithm steps
# ---------------------------------------------------------------------------

# the banded factors an IncidenceConstraint keeps, the oldest dropped first:
# run_ddo's mu = 0 epochs take 20 steps from theta = 1 to the restart
# threshold, and each restarted epoch repeats those steps' (shift, scale) pairs
_GRAM_FACTORS = 32


class IncidenceConstraint(LinearConstraint):
    """The consensus constraint ``A = B kron I_m``, ``b = 0``, of the signed
    incidence matrix ``B`` of a problem's graph, on its ``(n, m)`` node stacks
    flattened row by row. It takes the stacks as they are: :meth:`apply` is
    ``B X`` and :meth:`apply_adjoint` is ``B' Lam``; no ``kron(B, I)`` or
    dense ``B``.

    It reads ``B``, ``B'`` and the spectral data from its ``graph``.
    ``op_norm`` is ``|B kron I|_2 = |B|_2 = lambda_max(L)^{1/2}`` from the
    graph's ``lambda_max``. The Gram solve of
    :meth:`~apd.model.LinearConstraint.gram_solve` is exact: its
    :meth:`shifted_gram_solve` factors ``shift I + scale G``, with ``G`` the
    smaller sparse Gram matrix of ``B`` (``L = B'B`` when ``|E| > n``, whose
    band the graph holds, ``BB'`` otherwise, as on a tree), by
    :func:`_banded_cholesky` in ``G``'s reverse Cuthill-McKee order, one
    factor per ``(shift, scale)`` pair. No dense ``n x n`` matrix is formed,
    and no eigensolve runs.

    :func:`run_ddo` builds one per call into its run context, so the factors
    live only as long as the run. It keeps the factors of the last
    ``_GRAM_FACTORS`` pairs, each ``(k + 1) n`` doubles for bandwidth ``k``
    (about 0.2 MB on a 400-node benchmark graph): restarted epochs with
    ``mu = 0`` repeat their pairs and reuse every factor, and a run whose pairs
    never repeat holds no more than that many."""

    rhs = 0.0

    def __init__(self, problem):
        self.graph = problem.graph
        self.rows, self.cols = len(self.graph.edges) * problem.block_size, problem.dim
        self._factors = {}

    def apply(self, x):
        return self.graph.incidence @ x

    def apply_adjoint(self, lam):
        return self.graph.incidence_t @ lam

    @cached_property
    def op_norm(self):
        return float(np.sqrt(self.graph.lambda_max))

    @cached_property
    def _band(self):
        """:func:`_banded` of ``G``: the graph's ``band`` of ``L`` when ``|E| > n``."""
        if self.rows > self.cols:
            return self.graph.band
        return _banded(self.graph.incidence @ self.graph.incidence_t)

    def shifted_gram_solve(self, shift, scale, rhs):
        """``(shift I + scale G)^{-1} rhs`` by the banded factor of the pair.

        On the ``A'A`` side ``G = L``, whose kernel holds the constants, and
        ``rhs = B' r`` has zero column means but for rounding. The means of
        ``rhs`` and of the solution are taken off, so the solve never divides
        a rounding residue in ``ker A`` by a small ``shift``."""
        order, band = self._band
        factor = self._factors.get((shift, scale))
        if factor is None:
            if len(self._factors) == _GRAM_FACTORS:
                del self._factors[next(iter(self._factors))]  # the oldest
            factor = self._factors[shift, scale] = _banded_cholesky(band, shift, scale)
        deflate = self.rows > self.cols
        if deflate:
            rhs = rhs - rhs.mean(axis=0)
        out = np.empty_like(rhs)
        out[order] = sla.cho_solve_banded((factor, True), rhs[order], check_finite=False)
        if deflate:
            out -= out.mean(axis=0)
        return out


def apd_ddo_step(state, ctx, alpha):
    """One decentralized primal-dual step: :func:`~apd.solvers.semi_apdfb_step`
    in the :class:`~apd.solvers.RunContext` of :func:`run_ddo`. It stays a
    named step, so tracers see the ``ddo`` layer."""
    return solvers.semi_apdfb_step(state, ctx, alpha)


@dataclass
class ExtraState:
    """An Extra iterate ``x`` with what was formed at it: ``w_x = W x`` and the
    local model's ``value`` and ``grad``. The next step reads ``w_x`` and
    ``grad``, and :func:`run_ddo`'s records read ``value`` and ``w_x``. The
    ``*_prev`` fields are the previous iterate's, ``None`` at the start."""

    x: np.ndarray
    w_x: np.ndarray
    value: float
    grad: np.ndarray
    x_prev: np.ndarray = None
    w_x_prev: np.ndarray = None
    grad_prev: np.ndarray = None

    @classmethod
    def start(cls, x, problem, w):
        """A run's start at ``x``: one product with ``w`` and one local pass."""
        value, grad = problem.value_and_gradient(x)
        return cls(x, w @ x, value, grad)


def extra_step(state, problem, w, alpha):
    """One Extra update with mixing matrix ``w``; the first, with no ``x_prev``,
    is the initialization step. ``(I + W)/2 x_prev`` is the mean of ``x_prev``
    and its carried ``W x_prev``. The step forms ``W x_next`` and, in one
    local pass, the value and gradient at ``x_next``: one product with ``w``
    per step."""
    x_next = state.w_x - alpha * state.grad
    if state.x_prev is not None:
        x_next += state.x - 0.5 * (state.x_prev + state.w_x_prev) + alpha * state.grad_prev
    value, grad = problem.value_and_gradient(x_next)
    return ExtraState(x_next, w @ x_next, value, grad,
                      x_prev=state.x, w_x_prev=state.w_x, grad_prev=state.grad)


def extra_step_size(problem):
    """Extra's step: ``mu lam_min((I+W)/2) / lip^2`` for a strongly convex
    problem (``problem.mu > 0``), else ``lam_min((I+W)/2) / lip``, with the
    bound ``_LAM_MIN_MEAN_MIXING`` in place of ``lam_min``."""
    if problem.mu > 0:
        return problem.mu * _LAM_MIN_MEAN_MIXING / problem.lip ** 2
    return _LAM_MIN_MEAN_MIXING / problem.lip


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

@dataclass
class DdoRecord:
    k: int
    obj_gap: float
    consensus_residual: float
    wall_ns: int


@dataclass
class DdoRun:
    records: list
    status: str  # converged | max_iter | precision_floor
    f_ref: float
    x: np.ndarray  # stacked final iterate; the best measured on precision_floor


ALGORITHMS = ("apd", "extra")


def run_ddo(problem, algo, max_iter, stop_tol=0.0, f_ref=None, timing=False):
    """Run one decentralized algorithm and record per-iteration diagnostics.

    ``algo`` is one of :data:`ALGORITHMS`, checked first. ``apd`` runs
    :func:`apd_ddo_step` in one :class:`~apd.solvers.RunContext` of
    ``problem`` as the smooth part and its :class:`IncidenceConstraint`,
    built once per call and dropped with the context: each step takes one
    exact global solve with the banded factor of its ``(shift, scale)``
    pair, a centralized operation, not a gossip round. It runs from
    ``gamma0 = lip`` with step size ``sqrt(gamma / lip)``, in the epochs of
    :class:`~apd.solvers.Epochs` that :func:`~apd.solvers.run_solver` runs
    too: a step that leaves ``theta`` below the restart threshold starts a
    new epoch from ``(x, x, lam)``, with ``gamma`` kept when ``mu > 0`` and
    back at ``lip`` otherwise; its states carry no residual, which no record
    reads. ``extra`` runs :func:`extra_step` from :meth:`ExtraState.start`
    with the :func:`mixing_matrix` ``W`` of the graph, its certified scale
    ``s >= lambda_max(L)`` and the step of :func:`extra_step_size`. Neither
    takes a dense eigensolve, and both read the graph's ``band`` and
    ``lambda_max``, so the runs on one graph band ``L`` and certify its
    ``lambda_max`` once.
    Each :class:`DdoRecord` holds the objective gap against a centralized
    solve (``f_ref``) and ``|L X|``, and with ``timing`` the step's wall
    time. Their sum is the stop measure. ``apd`` forms both afresh every
    step, ``|L X|`` as ``|B'(B X)|``. ``extra`` reads the gap from the
    state's value and carries ``|L X| = s |X - W X|`` from the state's
    ``W X``, which agrees with ``|B'(B X)|`` to rounding; record 0, the
    last record and each record whose carried measure reaches ``stop_tol``
    hold ``|B'(B X)|`` instead. The run ends with status

    - ``converged`` when the measure reaches ``stop_tol``, on a fresh
      ``|B'(B X)|``; a carried measure that reaches it while the fresh one
      misses does not end the run;
    - ``precision_floor`` (``apd`` only) when an epoch ends without lowering
      the measure below every earlier epoch end; the records end at that
      step, and the returned ``x`` is the best iterate measured, as the
      state of :func:`~apd.solvers.run_solver` is;
    - ``max_iter`` otherwise.
    Raises ``ValueError`` for an unknown ``algo``, and unless ``max_iter`` is
    an integer ``>= 0`` and ``0 <= stop_tol < inf``.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; pick one of {ALGORITHMS}")
    solvers.check_run_limits(max_iter, stop_tol)
    if f_ref is None:
        f_ref, _ = reference_objective(problem)
    n, m = problem.n_nodes, problem.block_size
    x0 = np.zeros((n, m))
    epochs = None
    if algo == "apd":
        ctx = solvers.RunContext(
            ProblemInstance(problem, ZeroProx(), IncidenceConstraint(problem)))
        rule = StepRule("semi_apdfb", lip_beta=problem.lip)
        lam0 = np.zeros((len(problem.graph.edges), m))
        state = solvers.IterateState.start(x0, lam0, ScalingState(1.0, problem.lip), None)
        epochs = solvers.Epochs("semi_apdfb", problem.mu, problem.lip, state)

        def step(state):
            state = epochs.begin(state)
            return apd_ddo_step(state, ctx, step_size(rule, state.scaling))

        def record(k, wall, fresh):  # every apd record is fresh
            return DdoRecord(k, abs(problem.value(state.x) - f_ref),
                             problem.consensus_residual(state.x), wall)
    else:
        w, scale = mixing_matrix(problem.graph)
        state = ExtraState.start(x0, problem, w)
        alpha = extra_step_size(problem)

        def step(state):
            return extra_step(state, problem, w, alpha)

        def record(k, wall, fresh):
            residual = problem.consensus_residual(state.x) if fresh \
                else scale * float(np.linalg.norm(state.x - state.w_x))
            return DdoRecord(k, abs(state.value - f_ref), residual, wall)

    carried = algo == "extra"
    records = [record(0, 0, fresh=True)]
    fresh = True
    status = "max_iter"
    for k in range(max_iter):
        started = time.perf_counter_ns() if timing else 0
        state = step(state)
        wall = time.perf_counter_ns() - started if timing else 0
        fresh = not carried
        rec = record(k + 1, wall, fresh)
        if not fresh and stop_tol > 0 and rec.obj_gap + rec.consensus_residual <= stop_tol:
            fresh = True  # a stop rests on a fresh |L X| only
            rec = record(k + 1, wall, fresh)
        records.append(rec)
        measure = rec.obj_gap + rec.consensus_residual
        floor = epochs is not None and epochs.at_floor(state, measure)
        if stop_tol > 0 and measure <= stop_tol:
            status = "converged"
            break
        if floor:
            status, state = "precision_floor", epochs.best_state
            break
    if not fresh:
        records[-1] = record(records[-1].k, records[-1].wall_ns, fresh=True)
    return DdoRun(records, status, f_ref, state.x)
