"""Decentralized consensus optimization on graphs: the primal-dual scheme,
which is :func:`~apd.solvers.semi_apdfb_step` on the graph's
:class:`IncidenceConstraint`, a :class:`~apd.model.LinearConstraint` whose
Gram factor, ``op_norm`` and exact solve come from the incidence matrix, plus
the Extra baseline."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import solvers
# augmented_consensus_solve is unused here but stays bound: tracers wrap it by module attribute
from .inner import augmented_consensus_solve  # noqa: F401
from .model import LinearConstraint, ProblemInstance, operator_norm_estimate
from .oracles import ZeroProx
from .schedule import ScalingState, StepRule, step_size


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph given by an edge list over ``0..n-1``.

    A node count ``n`` that is not an integer ``>= 0``, an edge that is not a
    pair of integers (:func:`_edge_array`), a self-loop, an endpoint out of
    range, a duplicate edge or more than one component raises ``ValueError``;
    the empty graph, with no component, is not connected, and one node is.
    ``ends`` keeps the checked edges as an ``(|E|, 2)`` integer array.
    """

    n: int
    edges: tuple
    ends: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 0):
            raise ValueError(f"a graph needs an integer node count n >= 0, got n={self.n!r}")
        ends = _edge_array(self)
        if np.any(ends[:, 0] == ends[:, 1]):
            raise ValueError("self-loops are not allowed")
        if len(ends) and not (ends.min() >= 0 and ends.max() < self.n):
            raise ValueError("edge endpoint out of range")
        # imported on first use: the module adds about 1 MB to every process
        from scipy.sparse.csgraph import connected_components
        lower, upper = np.sort(ends, axis=1).T
        # CSR assembly sums a repeated (lower, upper) pair into one entry
        adjacency = sp.csr_matrix((np.ones(len(ends)), (lower, upper)), shape=(self.n, self.n))
        if adjacency.nnz < len(ends):
            raise ValueError("duplicate edge")
        if connected_components(adjacency, directed=False, return_labels=False) != 1:
            raise ValueError("graph must be connected")
        object.__setattr__(self, "ends", ends)  # the dataclass is frozen


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
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def grid_graph(rows, cols):
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


def random_geometric_graph(n, radius, seed):
    """Random geometric graph on the unit square, drawn again while :class:`Graph`
    rejects it as disconnected; ``n >= 1`` and ``radius >= 0`` (``inf`` joins
    every pair), else ``ValueError``."""
    if n < 1:
        raise ValueError(f"a geometric graph needs n >= 1 nodes, got {n}")
    if not radius >= 0:
        raise ValueError(f"a geometric graph needs a radius >= 0, got {radius}")
    rng = np.random.default_rng(seed)
    for _ in range(_GEOMETRIC_TRIES):
        points = rng.random((n, 2))
        diff = points[:, None, :] - points[None, :, :]
        close = np.einsum("ijk,ijk->ij", diff, diff) <= radius * radius
        rows, cols = np.nonzero(np.triu(close, 1))  # row-major: (i, j), i < j
        try:
            return Graph(n, tuple(zip(rows.tolist(), cols.tolist())))
        except ValueError:  # disconnected: the pairs i < j admit no other fault
            pass
    raise ValueError(f"no connected geometric graph after {_GEOMETRIC_TRIES} draws; "
                     "increase the radius")


def graph_laplacian(graph):
    """Sparse combinatorial Laplacian ``B'B`` of :func:`graph_incidence`, as
    CSR; its null space is span{1}, as every :class:`Graph` is connected."""
    incidence = graph_incidence(graph)
    return (incidence.T @ incidence).tocsr()


def graph_incidence(graph):
    """Sparse signed edge-incidence matrix ``B`` with ``B'B = L``.

    Row ``e`` of the ``|E| x n`` matrix holds ``+1`` at ``i`` and ``-1`` at
    ``j`` for the edge ``(i, j)``, so ``(B X)_e = x_i - x_j``, which is
    exactly zero when the two rows of ``X`` are equal.
    """
    ends = graph.ends
    rows = np.repeat(np.arange(len(ends)), 2)
    vals = np.tile([1.0, -1.0], len(ends))
    return sp.csr_matrix((vals, (rows, ends.ravel())), shape=(len(ends), graph.n))


def mixing_matrix(incidence, laplacian):
    """Doubly stochastic ``W = I - L / lambda_max(L)``, as CSR, from the CSR
    Laplacian ``L`` of :func:`graph_laplacian` and the signed incidence
    matrix ``B`` of :func:`graph_incidence` of one graph.

    ``L = B'B``, so ``lambda_max(L) = |B|_2^2`` comes from
    :func:`operator_norm_estimate` of ``B`` on a dense copy of ``L`` (``B``
    sets only the rounding slack), an upper bound. The spectrum of ``W``
    therefore sits in ``[0, 1]`` with a simple eigenvalue 1.
    """
    n = incidence.shape[1]
    eye = sp.identity(n, format="csr")
    if n == 1:
        return eye
    return eye - laplacian / operator_norm_estimate(incidence, gram=laplacian.toarray()) ** 2


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
    global constants of the averaged objective. The graph's Laplacian and
    incidence matrix are not fields: each is built from ``graph`` on first
    use and kept (:attr:`laplacian`, :attr:`incidence`).

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
        if self.kind == "least_squares":
            res = self._residuals(stacked)
            return 0.5 * float(np.sum(res * res)) / self.n_nodes
        _, _, ridge = self.node_data
        total = np.logaddexp(0.0, -self._margins(stacked)) \
            + 0.5 * ridge * np.einsum("nm,nm->n", stacked, stacked)
        return float(total.sum()) / self.n_nodes

    def gradient(self, stacked):
        if self.kind == "least_squares":
            design, _ = self.node_data
            grad = _rowwise_matvec(design.transpose(0, 2, 1), self._residuals(stacked))
            return grad / self.n_nodes
        features, labels, ridge = self.node_data
        grad = -labels[:, None] * features / (1.0 + np.exp(self._margins(stacked)))[:, None] \
            + ridge[:, None] * stacked
        return grad / self.n_nodes

    def _residuals(self, stacked):
        design, target = self.node_data
        return _rowwise_matvec(design, stacked) - target

    def _margins(self, stacked):
        features, labels, _ = self.node_data
        return labels * _rowwise_matvec(features[:, None, :], stacked)[:, 0]

    @cached_property
    def laplacian(self):
        return graph_laplacian(self.graph)

    @cached_property
    def incidence(self):
        return graph_incidence(self.graph)

    @cached_property
    def _incidence_t(self):
        # a CSR copy of B' applies about twice as fast as the CSC view B.T
        return self.incidence.T.tocsr()

    def consensus_apply(self, stacked):
        return self._incidence_t @ (self.incidence @ stacked)

    def consensus_residual(self, stacked):
        return float(np.linalg.norm(self.consensus_apply(stacked)))


def build_ddo_problem(graph, block_size, kind, seed, samples=5, ridge=0.5):
    """Generate a decentralized least-squares or logistic instance.

    Least squares draws a ``samples x block_size`` design per node (no
    strong convexity); logistic draws one unit-scale feature vector and a
    binary label per node, with ``mu_i = ridge`` and
    ``lip_i = ridge + |label|^2 |features|^2 / 4``. Raises ``ValueError``
    when ``block_size`` or ``samples`` is below 1 or ``ridge`` is not finite
    and nonnegative; the :class:`Graph` is connected by construction.
    """
    if block_size < 1 or samples < 1:
        raise ValueError(f"block_size and samples must be at least 1, "
                         f"got {block_size} and {samples}")
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")
    rng = np.random.default_rng(seed)
    n = graph.n
    if kind == "least_squares":
        design, target = np.empty((n, samples, block_size)), np.empty((n, samples))
        for i in range(n):
            design[i] = rng.standard_normal((samples, block_size)) / np.sqrt(block_size)
            target[i] = rng.standard_normal(samples)
        data, mu = (design, target), 0.0
        # the square of the largest norm: squaring the array of norms first
        # can round one ulp away from the per-node scalar square
        lip = np.max(np.linalg.norm(design, 2, axis=(1, 2))) ** 2 / n
    elif kind == "logistic":
        features, labels = np.empty((n, block_size)), np.empty(n)
        for i in range(n):
            features[i] = rng.standard_normal(block_size) / np.sqrt(block_size)
            labels[i] = rng.choice([-1.0, 1.0])
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

class IncidenceConstraint(LinearConstraint):
    """The consensus constraint ``A = B kron I_m``, ``b = 0``, of a problem's
    signed incidence matrix ``B`` on its ``(n, m)`` node stacks flattened row
    by row. It takes the stacks as they are: :meth:`apply` is ``B X`` and
    :meth:`apply_adjoint` is ``B' Lam``; no ``kron(B, I)`` or dense ``B``.

    Its Gram factor is that of ``B`` (:meth:`gram_root`), as is ``op_norm``:
    ``|B kron I|_2 = |B|_2``. The first ``B'B = L`` eigenpair spans ``ker L``,
    the constants of a connected graph, and is left out (:attr:`null_pairs`),
    so the primal ``semi_apdfb`` solve never divides a rounding residue in
    ``ker A`` by a vanishing shift.

    :func:`run_ddo` builds one per call into its run context, so the factor
    lives only as long as the run. Cached on the :class:`DdoProblem` it would
    hold about ``n^2`` doubles (1.3 MB at 400 nodes) for as long as the
    problem lives, in every problem a caller keeps, to save one eigensolve
    (about 20 ms at 400 nodes) per later call."""

    rhs = 0.0
    null_pairs = 1

    def __init__(self, problem):
        self.incidence, self._incidence_t = problem.incidence, problem._incidence_t
        self.rows, self.cols = problem.incidence.shape[0] * problem.block_size, problem.dim

    def apply(self, x):
        return self.incidence @ x

    def apply_adjoint(self, lam):
        return self._incidence_t @ lam

    def gram_root(self):
        return self.incidence


def apd_ddo_step(state, ctx, alpha):
    """One decentralized primal-dual step: :func:`~apd.solvers.semi_apdfb_step`
    in the :class:`~apd.solvers.RunContext` of :func:`run_ddo`. It stays a
    named step, so tracers see the ``ddo`` layer."""
    return solvers.semi_apdfb_step(state, ctx, alpha)


@dataclass
class ExtraState:
    x: np.ndarray
    x_prev: np.ndarray = None
    grad_prev: np.ndarray = None
    w_x_prev: np.ndarray = None  # W x_prev, formed by the step that left x_prev


def extra_step(state, problem, w, alpha):
    """One Extra update with mixing matrix ``w``; the first, with no ``x_prev``,
    is the initialization step. ``(I + W)/2 x_prev`` is the mean of ``x_prev``
    and the previous step's ``W x_prev``: one product with ``w`` per step."""
    grad = problem.gradient(state.x)
    w_x = w @ state.x
    x_next = w_x - alpha * grad
    if state.x_prev is not None:
        x_next += state.x - 0.5 * (state.x_prev + state.w_x_prev) + alpha * state.grad_prev
    return ExtraState(x=x_next, x_prev=state.x, grad_prev=grad, w_x_prev=w_x)


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
    built and factored once per call and dropped with the context, from
    ``gamma0 = lip`` with step size ``sqrt(gamma / lip)``, in the epochs of
    :class:`~apd.solvers.Epochs` that :func:`~apd.solvers.run_solver` runs
    too: a step that leaves ``theta`` below the restart threshold starts a
    new epoch from ``(x, x, lam)``, with ``gamma`` kept when ``mu > 0`` and
    back at ``lip`` otherwise; its states carry no residual, which no record
    reads. ``extra`` runs :func:`extra_step` with the :func:`mixing_matrix`
    of the graph and the step of :func:`extra_step_size`.
    Each :class:`DdoRecord` holds the objective gap against a centralized
    solve (``f_ref``) and ``|L X|``, formed every step, and with ``timing``
    the step's wall time. Their sum is the stop measure. The run ends with
    status

    - ``converged`` when the measure reaches ``stop_tol``;
    - ``precision_floor`` (``apd`` only) when an epoch ends without lowering
      the measure below every earlier epoch end; the records end at that
      step, and the returned ``x`` is the best iterate measured, as the
      state of :func:`~apd.solvers.run_solver` is;
    - ``max_iter`` otherwise.
    Raises ``ValueError`` for an unknown ``algo``, and unless ``max_iter >= 0``
    and ``0 <= stop_tol < inf``.
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
        lam0 = np.zeros((problem.incidence.shape[0], m))
        state = solvers.IterateState.start(x0, lam0, ScalingState(1.0, problem.lip), None)
        epochs = solvers.Epochs("semi_apdfb", problem.mu, problem.lip, state)

        def step(state):
            state = epochs.begin(state)
            return apd_ddo_step(state, ctx, step_size(rule, state.scaling))
    else:
        w = mixing_matrix(problem.incidence, problem.laplacian)
        state = ExtraState(x=x0)
        alpha = extra_step_size(problem)

        def step(state):
            return extra_step(state, problem, w, alpha)

    def snapshot(k, wall):
        return DdoRecord(k=k, obj_gap=abs(problem.value(state.x) - f_ref),
                         consensus_residual=problem.consensus_residual(state.x), wall_ns=wall)

    records = [snapshot(0, 0)]
    status = "max_iter"
    for k in range(max_iter):
        started = time.perf_counter_ns() if timing else 0
        state = step(state)
        wall = time.perf_counter_ns() - started if timing else 0
        records.append(snapshot(k + 1, wall))
        rec = records[-1]
        measure = rec.obj_gap + rec.consensus_residual
        floor = epochs is not None and epochs.at_floor(state, measure)
        if stop_tol > 0 and measure <= stop_tol:
            status = "converged"
            break
        if floor:
            status, state = "precision_floor", epochs.best_state
            break
    return DdoRun(records, status, f_ref, state.x)
