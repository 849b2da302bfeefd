import re

import numpy as np
import pytest

from apd import ddo, solvers
from apd.ddo import (
    DdoRecord,
    ExtraState,
    Graph,
    IncidenceConstraint,
    apd_ddo_step,
    build_ddo_problem,
    cycle_graph,
    extra_step,
    extra_step_size,
    graph_incidence,
    graph_laplacian,
    grid_graph,
    mixing_matrix,
    path_graph,
    random_geometric_graph,
    reference_objective,
    run_ddo,
)
from apd.model import MatrixConstraint, ProblemInstance
from apd.oracles import SmoothOracle, ZeroProx
from apd.schedule import ScalingState


# ---------------------------------------------------------------------------
# graphs and operators
# ---------------------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 5),))


def test_path_laplacian_matches_definition():
    lap = graph_laplacian(path_graph(3)).toarray()
    np.testing.assert_array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_annihilates_constants():
    for graph in (path_graph(5), cycle_graph(6), grid_graph(3, 4),
                  random_geometric_graph(15, 0.5, 1)):
        lap = graph_laplacian(graph)
        np.testing.assert_allclose(lap @ np.ones(graph.n), 0.0, atol=1e-12)


def test_triangle_eigenvalues():
    lap = graph_laplacian(cycle_graph(3)).toarray()
    np.testing.assert_allclose(np.linalg.eigvalsh(lap), [0.0, 3.0, 3.0],
                               atol=1e-12)


def test_connectivity_of_small_graphs():
    # the empty graph has no component, one node is one component
    for n in (0, 2):
        with pytest.raises(ValueError, match="graph must be connected"):
            Graph(n, ())
    assert Graph(1, ()).n == 1 and path_graph(2).edges == ((0, 1),)


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError, match="graph must be connected"):
        Graph(4, ((0, 1), (2, 3)))
    # the edge checks come first, with their own messages
    with pytest.raises(ValueError, match="self-loops"):
        Graph(4, ((0, 0),))


def test_numpy_integer_endpoints_give_the_same_graph():
    edges = ((0, 1), (2, 1), (3, 2))
    for cast in (np.int32, np.int64, np.uint64):
        cast_edges = tuple((cast(i), j) for i, j in edges)  # uint64 beside int
        graph = Graph(4, cast_edges)
        assert graph.edges == cast_edges
        assert (graph_incidence(graph) != graph_incidence(Graph(4, edges))).nnz == 0


def test_a_graph_converts_its_edges_once(monkeypatch):
    calls = []

    def counting(graph):
        calls.append(graph.n)
        return edge_array(graph)

    edge_array = ddo._edge_array
    monkeypatch.setattr(ddo, "_edge_array", counting)
    graph = cycle_graph(5)
    assert calls == [5]
    np.testing.assert_array_equal(graph.ends, np.array(graph.edges))
    graph_incidence(graph)
    graph_laplacian(graph)
    assert calls == [5]  # both read graph.ends
    # the array is no part of a graph's identity
    assert graph == cycle_graph(5) and hash(graph) == hash(cycle_graph(5))
    assert "ends" not in repr(graph)


def graph_mixing(graph):
    return mixing_matrix(graph_incidence(graph), graph_laplacian(graph))


def test_mixing_matrix_path():
    w = graph_mixing(path_graph(3))
    expected = np.array([[2 / 3, 1 / 3, 0.0],
                         [1 / 3, 1 / 3, 1 / 3],
                         [0.0, 1 / 3, 2 / 3]])
    np.testing.assert_allclose(w.toarray(), expected, atol=1e-9)
    np.testing.assert_allclose(w @ np.ones(3), np.ones(3), atol=1e-12)
    # the bound Extra's step size takes for lam_min((I + W) / 2)
    eig = np.linalg.eigvalsh(0.5 * (np.eye(3) + w.toarray()))
    assert eig[0] >= 0.5 - 1e-9


def test_mixing_matrix_is_psd_on_a_benchmark_size_graph():
    # ROADMAP defect 4: W = I - L / lambda_max(L) needs lambda_max(L) from above
    w = graph_mixing(random_geometric_graph(400, 0.11, 11)).toarray()
    assert np.linalg.eigvalsh(w).min() >= 0
    assert np.linalg.eigvalsh(0.5 * (np.eye(400) + w)).min() >= 0.5  # Extra's step bound


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_laplacian_is_the_incidence_product_bit_for_bit(seed):
    # mixing_matrix reads the held Laplacian in place of forming B'B, with
    # the same CSR arrays, so Extra takes the same iterates
    graph = random_geometric_graph(400, 0.11, seed)
    incidence = graph_incidence(graph)
    product, held = (incidence.T @ incidence).tocsr(), graph_laplacian(graph)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(held, part), getattr(product, part))


def comprehension_geometric_graph(n, radius, seed, max_tries=200):
    """The geometric graph with its edges found pair by pair, in row-major order."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        points = rng.random((n, 2))
        diff = points[:, None, :] - points[None, :, :]
        close = np.einsum("ijk,ijk->ij", diff, diff) <= radius * radius
        try:
            return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                                  if close[i, j]))
        except ValueError:  # disconnected
            pass
    raise AssertionError("no connected draw")


@pytest.mark.parametrize("n,radius,seed", [(12, 0.6, 1), (15, 0.5, 1), (40, 0.3, 7),
                                           (400, 0.11, 11)])
def test_geometric_edges_match_pairwise_comprehension(n, radius, seed):
    graph = random_geometric_graph(n, radius, seed)
    expected = comprehension_geometric_graph(n, radius, seed)
    assert graph.edges == expected.edges
    assert all(type(i) is int and type(j) is int for i, j in graph.edges)
    degrees = np.bincount(np.ravel(graph.edges), minlength=n)
    np.testing.assert_array_equal(degrees, graph_laplacian(graph).diagonal())


@pytest.mark.parametrize("n, radius, message", [
    (20, -0.4, "radius >= 0, got -0.4"), (0, 0.4, "n >= 1 nodes, got 0"),
    (20, np.nan, "radius >= 0, got nan")], ids=["radius-negative", "n-zero", "radius-nan"])
def test_geometric_graph_rejects_bad_input_up_front(monkeypatch, n, radius, message):
    # rejected before any draw, not after every draw has failed
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match=re.escape(message)):
        random_geometric_graph(n, radius, 3)


def test_geometric_graph_takes_radius_zero_and_inf():
    assert random_geometric_graph(1, 0.0, 0).edges == ()
    assert len(random_geometric_graph(5, np.inf, 0).edges) == 10


def test_consensus_null_space_blockwise():
    graph = random_geometric_graph(12, 0.5, 3)
    prob = build_ddo_problem(graph, 4, "least_squares", seed=0)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(4)
    stacked = np.tile(w, (graph.n, 1))
    assert prob.consensus_residual(stacked) == 0.0


@pytest.mark.parametrize("block_size, samples", [(0, 5), (-1, 5), (3, 0)])
def test_build_ddo_problem_rejects_non_positive_sizes(block_size, samples):
    with pytest.raises(ValueError, match="must be at least 1"):
        build_ddo_problem(path_graph(4), block_size, "least_squares", seed=0,
                          samples=samples)
    # a ridge below 0 or not finite is rejected as early, for either kind
    for kind in ("least_squares", "logistic"):
        for ridge in (-1.0, -0.2, np.nan, np.inf):
            with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
                build_ddo_problem(path_graph(4), 3, kind, seed=0, ridge=ridge)


def test_consensus_apply_matches_laplacian():
    rng = np.random.default_rng(2)
    for graph in (path_graph(5), cycle_graph(6), grid_graph(3, 4),
                  random_geometric_graph(15, 0.5, 1), Graph(1, ())):
        prob = build_ddo_problem(graph, 3, "least_squares", seed=0)
        assert prob.incidence.shape == (len(graph.edges), graph.n)
        stacked = rng.standard_normal((graph.n, 3))
        np.testing.assert_allclose(prob.consensus_apply(stacked),
                                   graph_laplacian(graph) @ stacked, rtol=1e-12)


# ---------------------------------------------------------------------------
# problem generators
# ---------------------------------------------------------------------------

def test_logistic_constants_example():
    graph = path_graph(2)
    features = np.array([2.0, 0.0, 0.0])  # |theta|^2 = 4
    prob = build_ddo_problem(graph, 3, "logistic", seed=0, ridge=0.5)
    data = list(prob.local_data)
    data[0] = (features, 1.0, 0.5)
    # lip_i = ridge + |b|^2 |theta|^2 / 4 = 0.5 + 1.0
    lip_i = 0.5 + 1.0 * float(features @ features) / 4.0
    assert lip_i == pytest.approx(1.5)


@pytest.mark.parametrize("n,block,samples,seed", [(2, 3, 5, 0), (9, 1, 3, 4), (40, 5, 5, 7)])
def test_lip_is_the_per_node_formula_bit_for_bit(n, block, samples, seed):
    graph = path_graph(n)
    prob = build_ddo_problem(graph, block, "least_squares", seed, samples=samples)
    assert prob.lip == max(np.linalg.norm(design, 2) ** 2 for design, _ in prob.local_data) / n
    prob = build_ddo_problem(graph, block, "logistic", seed, ridge=0.3)
    assert prob.lip == max(0.3 + float(f @ f) / 4.0 for f, _, _ in prob.local_data) / n


def test_least_squares_zero_design_is_flat():
    graph = path_graph(2)
    prob = build_ddo_problem(graph, 3, "least_squares", seed=0)
    design, target = (part.copy() for part in prob.node_data)
    design[0], target[0] = 0.0, 0.0  # node 0's 5 samples
    object.__setattr__(prob, "node_data", (design, target))
    assert prob.local_value(0, np.ones(3)) == 0.0
    np.testing.assert_array_equal(prob.local_gradient(0, np.ones(3)), np.zeros(3))


def test_gradient_matches_finite_differences():
    graph = path_graph(3)
    rng = np.random.default_rng(5)
    for kind in ("least_squares", "logistic"):
        prob = build_ddo_problem(graph, 4, kind, seed=2)
        x = rng.standard_normal((3, 4))
        grad = prob.gradient(x)
        for i in range(3):
            for j in range(4):
                shift = np.zeros((3, 4))
                shift[i, j] = 1e-6
                fd = (prob.value(x + shift) - prob.value(x - shift)) / 2e-6
                assert abs(fd - grad[i, j]) <= 1e-6


def per_node_value(prob, x):
    return sum(prob.local_value(i, x[i]) for i in range(prob.n_nodes)) / prob.n_nodes


def per_node_gradient(prob, x):
    return np.array([prob.local_gradient(i, x[i]) for i in range(prob.n_nodes)]) \
        / prob.n_nodes


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_stacked_objective_matches_per_node_sums(kind):
    graph = random_geometric_graph(30, 0.4, 2)
    prob = build_ddo_problem(graph, 4, kind, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = 2.0 * rng.standard_normal((30, 4))
        assert prob.value(x) == pytest.approx(per_node_value(prob, x), rel=1e-12)
        np.testing.assert_allclose(prob.gradient(x), per_node_gradient(prob, x),
                                   rtol=1e-12, atol=1e-15)


def test_stacked_objective_sees_replaced_local_data():
    prob, x_hat = shared_minimizer_problem()
    stacked = np.tile(x_hat, (prob.n_nodes, 1))
    assert prob.value(stacked) == pytest.approx(0.0, abs=1e-20)
    x = np.random.default_rng(10).standard_normal(stacked.shape)
    assert prob.value(x) == pytest.approx(per_node_value(prob, x), rel=1e-12)
    fresh = build_ddo_problem(prob.graph, 3, "least_squares", seed=0)
    assert fresh.value(x) != pytest.approx(prob.value(x), rel=1e-6)


def shared_minimizer_problem(m=3, samples=2):
    """Least squares whose nodes share an exact minimizer (zero residuals).

    With ``samples >= m`` every node's design has full column rank, so every
    local objective is strongly convex, and ``mu`` and ``lip`` are set to the
    least and largest curvature over the nodes, divided by the node count.
    """
    graph = cycle_graph(4)
    rng = np.random.default_rng(9)
    x_hat = rng.standard_normal(m)
    data = []
    for _ in range(graph.n):
        design = rng.standard_normal((samples, m))
        data.append((design, design @ x_hat))
    prob = build_ddo_problem(graph, m, "least_squares", seed=0)
    object.__setattr__(prob, "node_data", tuple(map(np.stack, zip(*data))))
    if samples >= m:
        curvatures = [np.linalg.eigvalsh(design.T @ design) for design, _ in data]
        object.__setattr__(prob, "mu", min(c[0] for c in curvatures) / graph.n)
        object.__setattr__(prob, "lip", max(c[-1] for c in curvatures) / graph.n)
    return prob, x_hat


# ---------------------------------------------------------------------------
# algorithm steps
# ---------------------------------------------------------------------------

def apd_context(prob):
    return solvers.RunContext(ProblemInstance(prob, ZeroProx(), IncidenceConstraint(prob)))


def apd_start(prob, x, v):
    """An iterate with ``gamma0 = lip`` and ``theta lam = A x`` at ``theta = 1``."""
    r_x = prob.incidence @ x
    return solvers.IterateState(x, v, r_x, ScalingState(1.0, prob.lip), r_x, prob.incidence @ v)


def apd_alpha(prob, state):
    return np.sqrt(state.scaling.gamma / prob.lip)


def test_apd_fixed_point_at_shared_minimizer():
    prob, x_hat = shared_minimizer_problem()
    stacked = np.tile(x_hat, (4, 1))
    state = apd_start(prob, stacked.copy(), stacked.copy())
    out = apd_ddo_step(state, apd_context(prob), apd_alpha(prob, state))
    np.testing.assert_allclose(out.x, stacked, atol=1e-10)
    np.testing.assert_allclose(out.v, stacked, atol=1e-10)
    np.testing.assert_allclose(out.lam, 0.0, atol=1e-10)


class FlatSmooth(SmoothOracle):
    """A :class:`~apd.ddo.DdoProblem` on flattened node stacks."""

    def __init__(self, prob):
        self.prob = prob
        self.mu, self.lip, self.dim = prob.mu, prob.lip, prob.dim

    def gradient(self, x):
        return self.prob.gradient(x.reshape(self.prob.n_nodes, -1)).ravel()


@pytest.mark.parametrize("graph,kind", [
    pytest.param(random_geometric_graph(12, 0.5, 3), "logistic", id="geometric"),  # |E| > n
    pytest.param(path_graph(5), "least_squares", id="path"),  # a tree: |E| < n, dual branch
    pytest.param(Graph(1, ()), "least_squares", id="single"),
])
def test_apd_steps_match_semi_apdfb_on_dense_kron(graph, kind):
    m = 2
    prob = build_ddo_problem(graph, m, kind, seed=4)
    kron = np.kron(graph_incidence(graph).toarray(), np.eye(m))
    dense = ProblemInstance(FlatSmooth(prob), ZeroProx(),
                            MatrixConstraint(kron, np.zeros(kron.shape[0])))
    ctx, dense_ctx = apd_context(prob), solvers.RunContext(dense)
    assert ctx.problem.constraint.op_norm >= np.linalg.norm(kron, 2)
    x0 = np.random.default_rng(6).standard_normal((graph.n, m))
    state = apd_start(prob, x0, x0.copy())
    flat = solvers.IterateState.start(x0.ravel(), state.lam.ravel(), state.scaling,
                                      state.r_x.ravel())
    for _ in range(5):
        alpha = apd_alpha(prob, state)
        state = apd_ddo_step(state, ctx, alpha)
        flat = solvers.semi_apdfb_step(flat, dense_ctx, alpha)
        for got, want in ((state.x, flat.x), (state.v, flat.v), (state.lam, flat.lam)):
            assert np.linalg.norm(got.ravel() - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("graph", [
    pytest.param(grid_graph(3, 4), id="grid"),  # connected, |E| = 17 > n = 12
    pytest.param(path_graph(6), id="tree"),
    # the complete graph K5: L has the eigenvalue 5 four times over
    pytest.param(Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5))),
                 id="complete"),
])
def test_incidence_factor_drops_exactly_the_kernel_of_the_laplacian(graph):
    # with |E| > n the factor is of B'B = L less its one zero (constant) pair;
    # a tree's factor is of BB', which is nonsingular, and keeps every pair
    inc = graph_incidence(graph).toarray()
    s, u = IncidenceConstraint(build_ddo_problem(graph, 2, "least_squares", seed=1)).gram_factor
    if len(graph.edges) > graph.n:
        gram, kept = inc.T @ inc, graph.n - 1
        np.testing.assert_allclose(u.T @ np.ones(graph.n), 0.0, atol=1e-12)
    else:
        gram, kept = inc @ inc.T, len(graph.edges)
    assert s.shape == (kept,) and u.shape == (gram.shape[0], kept)
    assert s.min() > 1e-2
    np.testing.assert_allclose((u * s) @ u.T, gram, atol=1e-12)


def test_apd_multiplier_elimination_bookkeeping():
    # the relation theta_k lam_k = A x_k that lets the multiplier be eliminated
    for graph in (random_geometric_graph(12, 0.5, 3), cycle_graph(5)):
        prob = build_ddo_problem(graph, 2, "least_squares", seed=8)
        ctx = apd_context(prob)
        state = apd_start(prob, np.random.default_rng(8).standard_normal((graph.n, 2)),
                          np.zeros((graph.n, 2)))
        for _ in range(10):
            state = apd_ddo_step(state, ctx, apd_alpha(prob, state))
            np.testing.assert_allclose(state.scaling.theta * state.lam,
                                       prob.incidence @ state.x, rtol=1e-9, atol=1e-12)


def test_extra_transcript_matches_reimplementation():
    # complete graph on two nodes, scalar quadratic locals
    graph = path_graph(2)
    prob = build_ddo_problem(graph, 1, "least_squares", seed=3, samples=3)
    w = graph_mixing(graph)
    alpha = extra_step_size(prob)
    state = ExtraState(x=np.zeros((2, 1)))
    xs = [state.x]
    for _ in range(10):
        state = extra_step(state, prob, w, alpha)
        xs.append(state.x)
    # straight-line reimplementation of the two update lines, (I + W) / 2 formed explicitly
    w_hat = 0.5 * (np.eye(2) + w.toarray())
    grad = prob.gradient
    x_prev = np.zeros((2, 1))
    x = w @ x_prev - alpha * grad(x_prev)
    ref = [x_prev, x]
    for _ in range(9):
        e = x - w_hat @ x_prev + alpha * grad(x_prev)
        x_next = w @ x - alpha * grad(x) + e
        x_prev, x = x, x_next
        ref.append(x)
    for got, want in zip(xs, ref):
        np.testing.assert_allclose(got, want, atol=1e-12)


class CountingOperator:
    """A matrix that counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x


def test_extra_step_makes_one_product_with_w():
    # (I + W)/2 x_prev is the mean of x_prev and the W x_prev of the step before
    prob, _ = shared_minimizer_problem()
    w = CountingOperator(mixing_matrix(prob.incidence, prob.laplacian))
    alpha = extra_step_size(prob)
    state = ExtraState(x=np.random.default_rng(7).standard_normal((4, 3)))
    for k in range(1, 6):
        state = extra_step(state, prob, w, alpha)
        assert w.products == k


def test_extra_identity_mixing_is_gradient_descent():
    prob, _ = shared_minimizer_problem()
    alpha = 0.1
    state = ExtraState(x=np.zeros((4, 3)))
    xs = [state.x]
    for _ in range(6):
        state = extra_step(state, prob, np.eye(4), alpha)
        xs.append(state.x)
    x = np.zeros((4, 3))
    for k in range(6):
        x = x - alpha * prob.gradient(x)
        np.testing.assert_allclose(xs[k + 1], x, atol=1e-12)


def test_extra_fixed_point():
    prob, x_hat = shared_minimizer_problem()
    w = mixing_matrix(prob.incidence, prob.laplacian)
    stacked = np.tile(x_hat, (4, 1))
    state = ExtraState(x=stacked.copy(), x_prev=stacked.copy(),
                       grad_prev=prob.gradient(stacked), w_x_prev=w @ stacked)
    out = extra_step(state, prob, w, extra_step_size(prob))
    np.testing.assert_allclose(out.x, stacked, atol=1e-12)


def test_sparse_mixing_matches_dense_over_fifty_steps():
    graph = random_geometric_graph(40, 0.3, 6)
    w = graph_mixing(graph)
    assert w.format == "csr" and graph_mixing(Graph(1, ())).format == "csr"
    dense = w.toarray()
    x0 = np.random.default_rng(6).standard_normal((graph.n, 3))
    for kind in ("least_squares", "logistic"):
        prob = build_ddo_problem(graph, 3, kind, seed=6)
        alpha = extra_step_size(prob)
        sparse_state, dense_state = ExtraState(x=x0), ExtraState(x=x0)
        for _ in range(50):
            sparse_state = extra_step(sparse_state, prob, w, alpha)
            dense_state = extra_step(dense_state, prob, dense, alpha)
            np.testing.assert_allclose(sparse_state.x, dense_state.x, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# run loops
# ---------------------------------------------------------------------------

def test_reference_objective_least_squares_is_stationary():
    graph = random_geometric_graph(8, 0.6, 5)
    prob = build_ddo_problem(graph, 3, "least_squares", seed=6)
    f_ref, x_ref = reference_objective(prob)
    gram = sum(d.T @ d for d, _ in prob.local_data)
    rhs = sum(d.T @ t for d, t in prob.local_data)
    np.testing.assert_allclose(gram @ x_ref, rhs, atol=1e-9)
    assert f_ref == pytest.approx(prob.value(np.tile(x_ref, (8, 1))))


def test_reference_objective_logistic_gradient_vanishes():
    graph = cycle_graph(6)
    prob = build_ddo_problem(graph, 3, "logistic", seed=7, ridge=0.5)
    _, x_ref = reference_objective(prob)
    total = sum(prob.local_gradient(i, x_ref) for i in range(6))
    np.testing.assert_allclose(total, 0.0, atol=1e-9)


def test_run_ddo_decay_and_orders():
    graph = random_geometric_graph(10, 0.6, 4)
    prob = build_ddo_problem(graph, 4, "least_squares", seed=9)
    run = run_ddo(prob, "apd", 150)
    first, last = run.records[0], run.records[-1]
    assert last.obj_gap < 1e-4 * max(first.obj_gap, 1.0)
    assert last.consensus_residual < first.consensus_residual or \
        first.consensus_residual == 0.0
    # median-filtered trend decreasing for the baseline
    base = run_ddo(prob, "extra", 400)
    gaps = np.array([r.obj_gap for r in base.records])
    med_early = np.median(gaps[10:60])
    med_late = np.median(gaps[-50:])
    assert med_late < med_early


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_run_ddo_apd_matches_a_loop_of_semi_apdfb_steps(kind):
    prob = build_ddo_problem(random_geometric_graph(30, 0.4, 2), 3, kind, seed=5)
    steps = 24  # both kinds end an epoch and restart within these
    run = run_ddo(prob, "apd", steps)
    assert run.status == "max_iter"
    ctx = apd_context(prob)
    state = apd_start(prob, np.zeros((30, 3)), np.zeros((30, 3)))

    def record(k):
        return DdoRecord(k, abs(prob.value(state.x) - run.f_ref),
                         prob.consensus_residual(state.x), 0)

    records = [record(0)]
    restarts = 0
    for k in range(steps):
        if state.scaling.theta < 1e-2:
            # a new epoch from (x, x, lam); gamma is kept only when mu > 0
            gamma = state.scaling.gamma if prob.mu > 0 else prob.lip
            state = solvers.IterateState(state.x, state.x, state.lam, ScalingState(1.0, gamma),
                                         state.r_x, state.r_x)
            restarts += 1
        state = solvers.semi_apdfb_step(state, ctx, apd_alpha(prob, state))
        records.append(record(k + 1))
    assert run.records == records
    assert restarts > 0


@pytest.mark.parametrize("graph, applies", [
    pytest.param(random_geometric_graph(30, 0.4, 2), 2 * 24, id="geometric"),  # A'A side
    pytest.param(path_graph(30), 24, id="tree"),  # AA' side
])
def test_run_ddo_apd_applies_the_incidence_by_hand_count(monkeypatch, graph, applies):
    # each step applies A to z (the solve's right side) and A' once in the
    # Gram solve, which on the A'A side applies A once more to recover the
    # multiplier; the records read |L X| through the problem, not the
    # constraint, and a restart applies nothing
    built = []

    class CountingIncidence(IncidenceConstraint):
        def __init__(self, problem):
            super().__init__(problem)
            self.applies = self.adjoints = 0
            built.append(self)

        def apply(self, x):
            self.applies += 1
            return super().apply(x)

        def apply_adjoint(self, lam):
            self.adjoints += 1
            return super().apply_adjoint(lam)

    monkeypatch.setattr(ddo, "IncidenceConstraint", CountingIncidence)
    prob = build_ddo_problem(graph, 3, "logistic", seed=5)
    run = run_ddo(prob, "apd", 24)
    assert run.status == "max_iter" and run.records[-1].k == 24
    (constraint,) = built
    assert (constraint.applies, constraint.adjoints) == (applies, 24)


def test_run_ddo_apd_least_squares_restarts_to_a_tolerance_the_decaying_steps_miss():
    # mu = 0: without restarts gamma decays with theta and the steps shrink;
    # the unrestarted loop needed 1221 steps here
    prob = build_ddo_problem(random_geometric_graph(30, 0.4, 2), 3, "least_squares", seed=5)
    run = run_ddo(prob, "apd", 100, stop_tol=1e-6)
    last = run.records[-1]
    assert run.status == "converged"
    assert last.obj_gap + last.consensus_residual <= 1e-6


def defect8_problem():
    return build_ddo_problem(random_geometric_graph(12, 0.5, 3), 2, "logistic", seed=0)


def test_run_ddo_apd_logistic_reaches_a_tight_tolerance():
    # the inexact inner solve this replaced stopped at k=25 with 3.0e-8
    run = run_ddo(defect8_problem(), "apd", 500, stop_tol=1e-9)
    last = run.records[-1]
    assert run.status == "converged"
    assert last.obj_gap + last.consensus_residual <= 1e-9


@pytest.mark.parametrize("make", [
    pytest.param(defect8_problem, id="geometric12"),
    pytest.param(lambda: build_ddo_problem(random_geometric_graph(30, 0.4, 0), 2,
                                           "logistic", seed=0), id="geometric30"),
])
def test_run_ddo_apd_far_past_convergence_ends_near_its_best(make):
    run = run_ddo(make(), "apd", 5000)
    assert run.status == "precision_floor"
    measures = [r.obj_gap + r.consensus_residual for r in run.records]
    assert np.all(np.isfinite(measures))
    assert measures[-1] <= 10.0 * min(measures)


def test_run_ddo_returns_the_best_iterate_at_the_precision_floor():
    prob = build_ddo_problem(random_geometric_graph(30, 0.4, 0), 2, "logistic", seed=0)

    def measure(x, f_ref):
        return abs(prob.value(x) - f_ref) + prob.consensus_residual(x)

    run = run_ddo(prob, "apd", 5000)
    assert run.status == "precision_floor"
    measures = [r.obj_gap + r.consensus_residual for r in run.records]
    assert min(measures) < measures[-1]  # the last step is not the best here
    assert measure(run.x, run.f_ref) == min(measures)
    extra = run_ddo(prob, "extra", 20, f_ref=run.f_ref)
    last = extra.records[-1]
    assert measure(extra.x, extra.f_ref) == last.obj_gap + last.consensus_residual


def test_run_ddo_rejects_unknown_algo(monkeypatch):
    prob = build_ddo_problem(path_graph(3), 2, "least_squares", seed=0)

    def reference_objective(problem):
        raise AssertionError("the reference solve ran before algo was checked")

    monkeypatch.setattr(ddo, "reference_objective", reference_objective)
    for algo in ("sgd", "aqp"):  # aqp: the accelerated quadratic penalty, deleted
        with pytest.raises(ValueError, match=r"unknown algorithm .*\('apd', 'extra'\)"):
            run_ddo(prob, algo, 5)


@pytest.mark.parametrize("max_iter,stop_tol", [(-2, 0.0), (5, np.nan), (5, np.inf), (5, -1.0)])
def test_run_ddo_rejects_a_bad_step_cap_or_tolerance(max_iter, stop_tol):
    prob = build_ddo_problem(path_graph(3), 2, "least_squares", seed=0)
    with pytest.raises(ValueError, match="need max_iter >= 0 and 0 <= stop_tol < inf"):
        run_ddo(prob, "extra", max_iter, stop_tol=stop_tol)
