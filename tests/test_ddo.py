import re
import tracemalloc

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
        Graph(2, ((0, 5),))


@pytest.mark.parametrize("n, edges", [
    (2, ((0, 1), (0, 1))), (2, ((1, 0), (0, 1))), (3, ((0, 1), (1, 2), (1, 0), (0, 1))),
    (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (3, 2)))],
    ids=["same-orientation", "either-orientation", "triple", "inside-a-cycle"])
def test_duplicate_edges_are_rejected(n, edges):
    # each copy of an edge adds -1 to its off-diagonal entry of L
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph(n, edges)


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
        assert (graph.incidence != Graph(4, edges).incidence).nnz == 0


def test_a_graph_converts_its_edges_once(monkeypatch):
    calls = []

    def counting(graph):
        calls.append(graph.n)
        return edge_array(graph)

    edge_array = ddo._edge_array
    monkeypatch.setattr(ddo, "_edge_array", counting)
    graph = cycle_graph(5)
    assert calls == [5]
    # row e of B holds +1 and -1 at the two ends of edge e, in edge order
    signed = np.zeros((5, 5))
    for e, (i, j) in enumerate(graph.edges):
        signed[e, i], signed[e, j] = 1.0, -1.0
    np.testing.assert_array_equal(graph.incidence.toarray(), signed)
    np.testing.assert_array_equal(graph.incidence_t.toarray(), signed.T)
    assert graph_laplacian(graph) is graph.laplacian
    assert calls == [5]
    # the operators are no part of a graph's identity
    assert graph == cycle_graph(5) and hash(graph) == hash(cycle_graph(5))
    assert "incidence" not in repr(graph) and "laplacian" not in repr(graph)


def graph_mixing(graph):
    w, _ = mixing_matrix(graph)
    return w


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
    incidence = graph.incidence
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


@pytest.mark.parametrize("n,radius,seed", [
    (12, 0.6, 1), (15, 0.5, 1), (40, 0.3, 7), (400, 0.11, 11),
    # one cell; a radius of 1/k, where k cells of width 1/k would be a hair too narrow
    (30, 1.0, 2), (30, 1.5, 3), (100, 0.25, 5), (60, 0.5, 8), (200, 0.2, 4),
    (2000, 0.05, 1),
    *((400, 0.11, seed) for seed in range(20, 40))])
def test_geometric_edges_match_pairwise_comprehension(n, radius, seed):
    graph = random_geometric_graph(n, radius, seed)
    expected = comprehension_geometric_graph(n, radius, seed)
    assert graph.edges == expected.edges
    assert all(type(i) is int and type(j) is int for i, j in graph.edges)
    degrees = np.bincount(np.ravel(graph.edges), minlength=n)
    np.testing.assert_array_equal(degrees, graph_laplacian(graph).diagonal())


@pytest.mark.parametrize("n, radius, message", [
    (20, -0.4, "radius >= 0, got -0.4"), (0, 0.4, "n >= 1 nodes, got 0"),
    (20, np.nan, "radius >= 0, got nan"), (4.0, 0.5, "n >= 1 nodes, got 4.0"),
    (np.float64(20), 0.5, "n >= 1 nodes, got np.float64(20.0)"),
    ("20", 0.5, "n >= 1 nodes, got '20'")],
    ids=["radius-negative", "n-zero", "radius-nan", "n-float", "n-numpy-float", "n-string"])
def test_geometric_graph_rejects_bad_input_up_front(monkeypatch, n, radius, message):
    # rejected before any draw, not after every draw has failed
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match=re.escape(message)):
        random_geometric_graph(n, radius, 3)


def test_geometric_graph_takes_radius_zero_and_inf():
    assert random_geometric_graph(1, 0.0, 0).edges == ()
    assert len(random_geometric_graph(5, np.inf, 0).edges) == 10


def test_geometric_graph_build_is_not_quadratic_in_memory():
    # the all-pairs difference array of 2 000 points alone is 64 MB
    tracemalloc.start()
    try:
        random_geometric_graph(2000, 0.05, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_consensus_null_space_blockwise():
    graph = random_geometric_graph(12, 0.5, 3)
    prob = build_ddo_problem(graph, 4, "least_squares", seed=0)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(4)
    stacked = np.tile(w, (graph.n, 1))
    assert prob.consensus_residual(stacked) == 0.0


@pytest.mark.parametrize("block_size, samples", [
    (0, 5), (-1, 5), (3, 0), pytest.param(2.5, 5, id="block-float"),
    pytest.param(np.float64(3), 5, id="block-numpy-float"),
    pytest.param(3, 2.0, id="samples-float"), pytest.param(3, "5", id="samples-string")])
def test_build_ddo_problem_rejects_non_positive_sizes(monkeypatch, block_size, samples):
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", None)  # rejected before any draw
        for kind in ("least_squares", "logistic"):
            with pytest.raises(ValueError, match="must be at least 1, as integers"):
                build_ddo_problem(path_graph(4), block_size, kind, seed=0, samples=samples)
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
        assert graph.incidence.shape == (len(graph.edges), graph.n)
        stacked = rng.standard_normal((graph.n, 3))
        np.testing.assert_allclose(prob.consensus_apply(stacked),
                                   graph_laplacian(graph) @ stacked, rtol=1e-12)


def test_problems_and_runs_on_one_graph_share_its_operators(monkeypatch):
    # B is assembled once, when the graph is built, and every problem on the
    # graph and every constraint run_ddo builds reads the graph's B, B' and L;
    # the band of L and the certified lambda_max(L) are formed once, on first
    # use, and every run on the graph reads them; every banded Cholesky factor,
    # the certificate's and the Gram solves', comes from one helper
    assembled, estimated, banded, scales, helped, factored = [], [], [], [], [], []
    csr_matrix, eigsh, banded_form, mixing = (ddo.sp.csr_matrix, ddo.eigsh, ddo._banded,
                                              ddo.mixing_matrix)
    helper, cholesky_banded = ddo._banded_cholesky, ddo.sla.cholesky_banded

    def counting(*args, **kwargs):
        assembled.append(kwargs.get("shape"))
        return csr_matrix(*args, **kwargs)

    def counting_eigsh(matrix, **kwargs):
        estimated.append(matrix)
        return eigsh(matrix, **kwargs)

    def counting_banded(matrix):
        banded.append(matrix)
        return banded_form(matrix)

    def counting_mixing(graph):
        w, scale = mixing(graph)
        scales.append(scale)
        return w, scale

    def counting_helper(band, shift, scale):
        helped.append((shift, scale))
        return helper(band, shift, scale)

    def counting_cholesky(*args, **kwargs):
        factored.append(args)
        return cholesky_banded(*args, **kwargs)

    constraints = []

    class Recorded(IncidenceConstraint):
        def __init__(self, problem):
            super().__init__(problem)
            constraints.append(self)

    monkeypatch.setattr(ddo.sp, "csr_matrix", counting)
    monkeypatch.setattr(ddo, "eigsh", counting_eigsh)
    monkeypatch.setattr(ddo, "_banded_cholesky", counting_helper)
    monkeypatch.setattr(ddo.sla, "cholesky_banded", counting_cholesky)
    monkeypatch.setattr(ddo, "_banded", counting_banded)
    monkeypatch.setattr(ddo, "mixing_matrix", counting_mixing)
    monkeypatch.setattr(ddo, "IncidenceConstraint", Recorded)
    graph = random_geometric_graph(20, 0.4, 3)
    assert len(graph.edges) > graph.n  # the Gram matrix of the solves is L
    # building a graph forms neither spectral value
    assert estimated == banded == []
    assert "band" not in vars(graph) and "lambda_max" not in vars(graph)
    problems = [build_ddo_problem(graph, 2, kind, seed=1)
                for kind in ("least_squares", "logistic")]
    for prob in problems:
        for algo in ddo.ALGORITHMS:
            run_ddo(prob, algo, 5)
    assert assembled == [(len(graph.edges), graph.n)]
    assert all(prob.graph is graph and prob.laplacian is graph.laplacian for prob in problems)
    assert len(estimated) == 1 and estimated[0] is graph.laplacian
    assert len(banded) == 1 and banded[0] is graph.laplacian
    assert len(constraints) == 2
    for constraint in constraints:
        assert constraint.graph is graph
        assert not {"incidence", "_incidence_t", "laplacian"} & set(vars(constraint))
        assert constraint._band is graph.band
        assert constraint.op_norm == float(np.sqrt(graph.lambda_max))
    assert len(scales) == 2 and all(scale is graph.lambda_max for scale in scales)
    # one certificate, of t I - L, and the factors of the APD runs' Gram solves
    assert [scale for _, scale in helped].count(-1.0) == 1 and len(helped) > 1
    assert len(factored) == len(helped)


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


def per_node_draws(n, block, kind, seed, samples):
    """The node data drawn node by node: least squares a design and then a
    target per node, logistic features and then a label per node."""
    rng = np.random.default_rng(seed)
    if kind == "least_squares":
        design, target = np.empty((n, samples, block)), np.empty((n, samples))
        for i in range(n):
            design[i] = rng.standard_normal((samples, block)) / np.sqrt(block)
            target[i] = rng.standard_normal(samples)
        return design, target
    features, labels = np.empty((n, block)), np.empty(n)
    for i in range(n):
        features[i] = rng.standard_normal(block) / np.sqrt(block)
        labels[i] = rng.choice([-1.0, 1.0])
    return features, labels


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
@pytest.mark.parametrize("n,block,samples", [(1, 1, 1), (9, 2, 3), (40, 5, 5), (25, 4, 7)])
def test_node_data_is_the_per_node_stream_bit_for_bit(kind, n, block, samples):
    # pins the instances the benchmark solves: a set-up change cannot move them
    for seed in (0, 1, 31, 2 ** 32 - 1):
        prob = build_ddo_problem(path_graph(n), block, kind, seed, samples=samples, ridge=0.4)
        expected = per_node_draws(n, block, kind, seed, samples)
        if kind == "logistic":
            expected += (np.full(n, 0.4),)
        assert len(prob.node_data) == len(expected)
        for got, want in zip(prob.node_data, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


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
    r_x = prob.graph.incidence @ x
    return solvers.IterateState(x, v, r_x, ScalingState(1.0, prob.lip), r_x,
                                prob.graph.incidence @ v)


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
    kron = np.kron(graph.incidence.toarray(), np.eye(m))
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
    # with |E| > n the solve is of B'B = L off its kernel, the constants: the
    # means of the right side and of the solution are taken off; a tree's is of
    # BB', which is nonsingular, and keeps every direction
    inc = graph.incidence.toarray()
    constraint = IncidenceConstraint(build_ddo_problem(graph, 2, "least_squares", seed=1))
    rhs = np.random.default_rng(3).standard_normal((inc.shape[len(graph.edges) > graph.n], 2))
    if len(graph.edges) > graph.n:
        gram, off_kernel = inc.T @ inc, np.eye(graph.n) - 1.0 / graph.n
    else:
        gram, off_kernel = inc @ inc.T, np.eye(len(graph.edges))
    for shift, scale in ((1.0, 0.5), (1e-2, 0.3), (1e-8, 1.0)):
        want = off_kernel @ np.linalg.solve(shift * np.eye(len(gram)) + scale * gram,
                                            off_kernel @ rhs)
        got = constraint.shifted_gram_solve(shift, scale, rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    if len(graph.edges) > graph.n:
        # a constant right side lies in ker L: nothing of it is divided by the shift
        ones = np.ones((graph.n, 2))
        assert np.abs(constraint.shifted_gram_solve(1e-8, 1.0, ones)).max() <= 1e-15


@pytest.mark.parametrize("graph", [
    pytest.param(random_geometric_graph(40, 0.3, 7), id="geometric"),  # |E| > n: A'A side
    pytest.param(path_graph(7), id="tree"),  # AA' side
    pytest.param(Graph(1, ()), id="single"),  # no edge: A has no row
    pytest.param(Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5))), id="K5"),
])
def test_gram_solve_matches_the_dense_kron_system(graph):
    m = 3
    prob = build_ddo_problem(graph, m, "least_squares", seed=2)
    constraint = IncidenceConstraint(prob)
    kron = np.kron(graph.incidence.toarray(), np.eye(m))
    rhs = np.random.default_rng(5).standard_normal((len(graph.edges), m))
    for shift, scale in ((1.0, 0.5), (0.05, 0.3), (1e-2, 2.0)):
        y, adjoint_y = constraint.gram_solve(shift, scale, rhs)
        want = np.linalg.solve(shift * np.eye(len(kron)) + scale * kron @ kron.T, rhs.ravel())
        assert y.shape == rhs.shape and adjoint_y.shape == (graph.n, m)
        assert np.linalg.norm(y.ravel() - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(adjoint_y.ravel() - kron.T @ want) \
            <= 1e-12 * max(np.linalg.norm(kron.T @ want), np.finfo(float).tiny)
        if constraint.rows > constraint.cols:
            # A'y = B'y has no part along the constants, to rounding
            assert np.abs(adjoint_y.sum(axis=0)).max() <= 1e-14 * np.abs(adjoint_y).sum()


def test_gram_solve_keeps_one_factor_per_pair_and_drops_the_oldest():
    prob = build_ddo_problem(random_geometric_graph(30, 0.4, 2), 2, "least_squares", seed=0)
    constraint = IncidenceConstraint(prob)
    rhs = np.ones((len(prob.graph.edges), 2))
    pairs = [(1.0 / (k + 1), 0.5) for k in range(ddo._GRAM_FACTORS + 3)]
    first = constraint.gram_solve(*pairs[0], rhs)
    factor = constraint._factors[pairs[0]]
    again = constraint.gram_solve(*pairs[0], rhs)
    assert constraint._factors[pairs[0]] is factor and len(constraint._factors) == 1
    for got, want in zip(again, first):
        np.testing.assert_array_equal(got, want)
    for pair in pairs:
        constraint.gram_solve(*pair, rhs)
    assert list(constraint._factors) == pairs[-ddo._GRAM_FACTORS:]


def _dense_lambda_max(graph):
    return np.linalg.eigvalsh(graph_laplacian(graph).toarray()).max()


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda seed=seed: random_geometric_graph(400, 0.11, seed), id=f"geometric{seed}")
      for seed in range(10)),
    pytest.param(lambda: path_graph(2), id="path2"),
    pytest.param(lambda: path_graph(50), id="path50"),
    pytest.param(lambda: cycle_graph(3), id="cycle3"),
    pytest.param(lambda: cycle_graph(40), id="cycle40"),  # lambda_max = 4, the edge bound
    pytest.param(lambda: grid_graph(6, 9), id="grid"),
    pytest.param(lambda: Graph(8, tuple((i, j) for i in range(8) for j in range(i + 1, 8))),
                 id="complete"),
])
def test_lambda_max_bound_is_certified_and_tight(make):
    graph = make()
    dense = _dense_lambda_max(graph)
    assert dense <= ddo.lambda_max_bound(graph) <= (1.0 + 1e-8) * dense


def _edge_bound(graph):
    degrees = graph.laplacian.diagonal()
    return float(max(degrees[i] + degrees[j] for i, j in graph.edges))


def test_lambda_max_bound_falls_back_to_the_edge_bound(monkeypatch):
    values, vectors = np.linalg.eigh(random_geometric_graph(60, 0.25, 4).laplacian.toarray())

    def second_largest(matrix, **kwargs):
        # an exact eigenpair, but not the largest: the certificate must fail
        return values[-2:-1], vectors[:, -2:-1]

    def no_convergence(matrix, **kwargs):
        raise ddo.ArpackNoConvergence("no convergence on purpose", np.zeros(0), np.zeros((60, 0)))

    for estimate in (second_largest, no_convergence):
        monkeypatch.setattr(ddo, "eigsh", estimate)
        # a fresh graph for each estimate: a bound the graph holds from an
        # earlier one would hide the fallback
        graph = random_geometric_graph(60, 0.25, 4)
        bound = ddo.lambda_max_bound(graph)
        assert bound == _edge_bound(graph)
        assert bound >= values[-1]
        _, scale = mixing_matrix(graph)
        assert scale == bound == graph.lambda_max


def test_no_run_ddo_takes_a_dense_eigensolve(monkeypatch):
    import scipy.linalg

    def dense(*args, **kwargs):
        raise AssertionError("a dense eigensolve ran")

    for module, name in ((scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh"),
                         (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, dense)
    graph = random_geometric_graph(60, 0.25, 4)
    for kind in ("least_squares", "logistic"):
        prob = build_ddo_problem(graph, 3, kind, seed=1)
        for algo in ("apd", "extra"):
            run = run_ddo(prob, algo, 5000, stop_tol=1e-5)
            assert run.status == "converged", (kind, algo)


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
                                       prob.graph.incidence @ state.x, rtol=1e-9, atol=1e-12)


def test_extra_transcript_matches_reimplementation():
    # complete graph on two nodes, scalar quadratic locals
    graph = path_graph(2)
    prob = build_ddo_problem(graph, 1, "least_squares", seed=3, samples=3)
    w = graph_mixing(graph)
    alpha = extra_step_size(prob)
    state = ExtraState.start(np.zeros((2, 1)), prob, w)
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
    # (I + W)/2 x_prev is the mean of x_prev and the W x_prev of the step
    # before; the start forms W x_0, and each step the W x of its own result
    prob, _ = shared_minimizer_problem()
    w = CountingOperator(mixing_matrix(prob.graph)[0])
    alpha = extra_step_size(prob)
    state = ExtraState.start(np.random.default_rng(7).standard_normal((4, 3)), prob, w)
    assert w.products == 1
    for k in range(1, 6):
        state = extra_step(state, prob, w, alpha)
        assert w.products == k + 1
        np.testing.assert_array_equal(state.w_x, w.matrix @ state.x)


def test_extra_identity_mixing_is_gradient_descent():
    prob, _ = shared_minimizer_problem()
    alpha = 0.1
    state = ExtraState.start(np.zeros((4, 3)), prob, np.eye(4))
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
    w, _ = mixing_matrix(prob.graph)
    stacked = np.tile(x_hat, (4, 1))
    start = ExtraState.start(stacked.copy(), prob, w)
    state = ExtraState(start.x, start.w_x, start.value, start.grad, x_prev=stacked.copy(),
                       w_x_prev=start.w_x, grad_prev=start.grad)
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
        sparse_state = ExtraState.start(x0, prob, w)
        dense_state = ExtraState.start(x0, prob, dense)
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


def run_extra_with_states(monkeypatch, prob, max_iter, stop_tol):
    """An Extra run and the state of each record: the start's, then each step's."""
    start, step = ExtraState.start, ddo.extra_step
    states = []

    def recording_start(cls, *args):
        states.append(start(*args))
        return states[-1]

    def recording_step(*args):
        states.append(step(*args))
        return states[-1]

    monkeypatch.setattr(ExtraState, "start", classmethod(recording_start))
    monkeypatch.setattr(ddo, "extra_step", recording_step)
    return run_ddo(prob, "extra", max_iter, stop_tol=stop_tol), states


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_every_extra_record_holds_the_consensus_residual_to_rounding(monkeypatch, kind):
    # An Extra record carries |L X| = s |X - W X| from the step's W X, where
    # W = I - L/s. With u = eps/2, d the largest degree and N = n m, to first
    # order in u:
    # - the stored W errs entrywise by u (|L|/s + I), and | |L| |_2 <= 2d <= 2s,
    #   so W X errs by 3u |X|;
    # - a row of W X sums d + 1 terms of the nonnegative W, with |W|_2 <= 1:
    #   (d + 1) u |X|;
    # - X - W X rounds by u (|X| + |W X|) <= 2u |X|;
    # - the norm, a sum of N squares, and the product with s err by
    #   (N/2 + 2) u |L X|, and |L X| <= s |X|, as I - W has spectrum in [0, 1].
    # So the carried value is within (d + N/2 + 8) u s |X| of |L X|. The fresh
    # |B'(B X)| rounds B X by u |B| |X| and a row of B' by d u, against the
    # signless Laplacian |B'| |B| of norm <= 2d <= 2s, and its norm by
    # (N/2 + 1) u |L X|: within (2d + N/2 + 3) u s |X|. Together:
    # |carried - fresh| <= c eps s |X| with c = (3d + N + 11) / 2.
    prob = build_ddo_problem(random_geometric_graph(30, 0.4, 2), 3, kind, seed=5)
    stop_tol = 1e-8
    run, states = run_extra_with_states(monkeypatch, prob, 5000, stop_tol)
    assert run.status == "converged" and len(states) == len(run.records)
    _, scale = mixing_matrix(prob.graph)
    degree = prob.laplacian.diagonal().max()
    c = (3 * degree + prob.dim + 11) / 2
    eps = np.finfo(float).eps
    for rec, state in zip(run.records, states):
        fresh = prob.consensus_residual(state.x)
        assert abs(rec.consensus_residual - fresh) <= c * eps * scale * np.linalg.norm(state.x), \
            rec.k
        assert rec.obj_gap == abs(prob.value(state.x) - run.f_ref), rec.k
    # the stop rests on a fresh |L X|, of the iterate returned
    last = run.records[-1]
    np.testing.assert_array_equal(run.x, states[-1].x)
    assert last.consensus_residual == prob.consensus_residual(run.x)
    assert last.obj_gap + last.consensus_residual <= stop_tol


@pytest.mark.parametrize("max_iter, stop_tol, inflate", [
    pytest.param(0, 0.0, 1.0, id="start-only"),
    pytest.param(24, 0.0, 1.0, id="max-iter"),
    pytest.param(5000, 1e-8, 1.0, id="converged"),
    pytest.param(5000, 1e-8, 1.5, id="fresh-checks-miss"),
])
def test_run_ddo_extra_multiplies_by_hand_count(monkeypatch, max_iter, stop_tol, inflate):
    # K steps make K + 1 products with W: the start's W X_0 and each step's W
    # X_{k+1}. B and B' are applied once each (one consensus_apply) for record
    # 0, for the record that ends the run and for each step whose carried
    # measure reaches stop_tol while the fresh one misses; inflating the fresh
    # residual makes such misses
    prob = build_ddo_problem(random_geometric_graph(30, 0.4, 2), 3, "logistic", seed=5)
    mixing, apply, residual = (ddo.mixing_matrix, ddo.DdoProblem.consensus_apply,
                               ddo.DdoProblem.consensus_residual)
    mixed, applied = [], []

    def counting_mixing(graph):
        w, scale = mixing(graph)
        mixed.append((CountingOperator(w), scale))
        return mixed[-1]

    def counting_apply(self, stacked):
        applied.append(stacked)
        return apply(self, stacked)

    monkeypatch.setattr(ddo, "mixing_matrix", counting_mixing)
    monkeypatch.setattr(ddo.DdoProblem, "consensus_apply", counting_apply)
    monkeypatch.setattr(ddo.DdoProblem, "consensus_residual",
                        lambda self, stacked: inflate * residual(self, stacked))
    run, states = run_extra_with_states(monkeypatch, prob, max_iter, stop_tol)
    ((w, scale),) = mixed
    steps = len(run.records) - 1
    assert run.status == ("converged" if stop_tol else "max_iter")
    assert w.products == steps + 1
    carried = [abs(state.value - run.f_ref) + scale * float(np.linalg.norm(state.x - state.w_x))
               for state in states[1:-1]]
    misses = sum(measure <= stop_tol for measure in carried)
    assert len(applied) == (1 if steps == 0 else 2 + misses)
    assert misses > 0 if inflate > 1 else misses == 0
    np.testing.assert_array_equal(applied[-1], run.x)


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_run_ddo_extra_on_one_node_records_a_zero_consensus_residual(kind):
    # one node has W = I and L = 0: no lambda_max(L) scales the carried |L X|
    prob = build_ddo_problem(Graph(1, ()), 3, kind, seed=2)
    w, scale = mixing_matrix(prob.graph)
    assert scale == 0.0
    np.testing.assert_array_equal(w.toarray(), np.eye(1))
    with np.errstate(all="raise"):  # no division by zero, no NaN
        run = run_ddo(prob, "extra", 30)
    assert [rec.consensus_residual for rec in run.records] == [0.0] * 31
    assert all(np.isfinite(rec.obj_gap) for rec in run.records)
    assert np.all(np.isfinite(run.x))


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
    with pytest.raises(ValueError, match="need an integer max_iter >= 0 and 0 <= stop_tol < inf"):
        run_ddo(prob, "extra", max_iter, stop_tol=stop_tol)


def test_run_ddo_takes_a_numpy_integer_step_cap():
    prob = build_ddo_problem(path_graph(3), 2, "least_squares", seed=0)
    for algo in ddo.ALGORITHMS:
        assert len(run_ddo(prob, algo, np.int64(3)).records) == 4
