"""Seeded instances and the cases each workload runs.

A run draws several *sets* of instances, each from its own generator. For
one set, ``draw`` makes the raw arrays and graphs, and ``build`` passes them
through the public constructors and reference solves, which is the set-up
the benchmark times. ``build`` returns the construction attempts and the
cases. A case is one operation: it times one call into the program, checks
the output with :mod:`checks` and returns ``(Outcome, seconds)``. The
program only ever receives generated arrays and graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from apd import ddo, flow, harness, inner, model, oracles, sets, solvers

from . import checks


@dataclass(frozen=True)
class Outcome:
    """Result of one operation.

    ``ok`` means it finished and passed the benchmark's check; ``claimed``
    that the program reported success (status ``converged``, or a converged
    flag), so a claimed outcome that is not ok is a wrong answer. ``reason``
    names the failed status, the exception type or the failed check.
    """

    ok: bool
    iters: int = 0
    reason: str = ""
    claimed: bool = False
    cert_checked: int = 0
    cert_violations: int = 0


@dataclass(frozen=True)
class Case:
    name: str
    group: str  # per-layer cases aggregate by group across instances
    run: object  # () -> (Outcome, seconds of the program call)


@dataclass(frozen=True)
class Built:
    constructions: list  # [(name, Outcome)]
    cases: list  # [Case]


def _raised(exc):
    return f"raised {type(exc).__name__}: {exc}"


def clock():
    """Seconds of CPU time used by this process.

    The program runs on one thread (one BLAS thread) and never waits on I/O
    or locks, so its CPU time is its wall time less the time it waited for a
    CPU held by another process or by the host. On a 2-core VM, one busy
    process beside a ``ddo`` set raised the set's wall time by 54% and its
    CPU time by 5%.
    """
    return time.process_time()


def _call(fn, *args, **kwargs):
    """Time one call into the program: ``(result, exception, seconds)``."""
    started = clock()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the case boundary records every failure
        return None, exc, clock() - started
    return result, None, clock() - started


def _matrix_constraint(name, amat, b, constructions):
    """Try the default constructor as its own operation, then fall back.

    The fallback passes ``op_norm = |A|_2`` so the cases still run when the
    default's power iteration raises.
    """
    try:
        constraint = model.MatrixConstraint(amat, b)
    except Exception as exc:  # a failed construction is a counted operation
        constructions.append((name, Outcome(False, reason=_raised(exc))))
        return model.MatrixConstraint(amat, b, op_norm=np.linalg.norm(amat, 2))
    constructions.append((name, Outcome(True)))
    return constraint


def _solver_case(name, group, problem, config, check):
    """A ``run_solver`` call; ``check(x, lam)`` runs on converged results."""

    def judge(result, exc):
        if exc is not None:
            return Outcome(False, reason=_raised(exc))
        iters = len(result.records) - 1
        audited = {}
        if result.reference is not None:
            report = harness.audit_records(result.records)
            audited = dict(cert_checked=report.checked,
                           cert_violations=report.contraction_violations)
        if result.status != "converged":
            return Outcome(False, iters, f"status={result.status}", **audited)
        failure = check(result.state.x, result.state.lam)
        return Outcome(failure is None, iters, failure or "", True, **audited)

    def run():
        result, exc, seconds = _call(solvers.run_solver, problem, config)
        return judge(result, exc), seconds

    return Case(name, group, run)


# ---------------------------------------------------------------------------
# qp_dense: few iterations, each O(n^3) dense linear algebra
# ---------------------------------------------------------------------------

QP_DENSE = dict(instances=2, n=1000, m=250, tol=1e-8, max_iter=2000)


def draw_qp_dense(rng, size=QP_DENSE):
    out = []
    for _ in range(size["instances"]):
        amat = rng.standard_normal((size["m"], size["n"]))
        b = rng.standard_normal(size["m"])
        q = rng.uniform(0.1, 2.0, size["n"])
        out.append((amat, b, q))
    return out


def build_qp_dense(rng, size=QP_DENSE):
    constructions, cases = [], []
    for i, (amat, b, q) in enumerate(draw_qp_dense(rng, size)):
        constraint = _matrix_constraint(f"i{i}.construct", amat, b, constructions)
        problem = model.ProblemInstance(oracles.QuadraticObjective(q), oracles.ZeroProx(),
                                        constraint)
        reference = model.solve_reference_saddle(problem)
        zero = np.zeros_like(q)

        def check(x, lam, amat=amat, b=b, q=q, zero=zero):
            return checks.qp_gap(q, zero, amat, b, x, size["tol"])

        for scheme in ("implicit", "semi_apdfb"):
            config = solvers.SolverConfig(scheme, max_iter=size["max_iter"],
                                          stop_tol=size["tol"], reference=reference)
            cases.append(_solver_case(f"i{i}.{scheme}", scheme, problem, config, check))
    return Built(constructions, cases)


# ---------------------------------------------------------------------------
# composite: tens of thousands of cheap iterations, per-call overhead bound
# ---------------------------------------------------------------------------

COMPOSITE = dict(n=400, m=100, lasso_rows=200, lasso_support=40, lasso_ridge=0.1,
                 lasso_weight=0.2, samples=300, logistic_ridge=0.1, bp_support=10,
                 tol=1e-5, max_iter=30000, h=0.01, horizon=10.0)


def _unit_matrix(rng, m, n):
    amat = rng.standard_normal((m, n))
    return amat / np.linalg.norm(amat, 2)


def draw_composite(rng, size=COMPOSITE):
    """Planted lasso, box QP, logistic, basis pursuit and a flow QP.

    The lasso plants ``(x*, lam*)`` as ``tests/conftest.py`` does: fixed
    signs on the support and a strict dual margin off it.
    """
    n, m = size["n"], size["m"]
    ridge, weight, support = size["lasso_ridge"], size["lasso_weight"], size["lasso_support"]
    design = rng.standard_normal((size["lasso_rows"], n))
    design /= np.linalg.norm(design, 2)
    quad = design.T @ design + ridge * np.eye(n)
    amat = _unit_matrix(rng, m, n)
    x_star = np.zeros(n)
    chosen = rng.choice(n, size=support, replace=False)
    x_star[chosen] = rng.uniform(0.5, 1.5, support) * rng.choice([-1.0, 1.0], support)
    lam_star = rng.standard_normal(m) * 0.3
    adj = amat.T @ lam_star
    grad_target = np.empty(n)
    grad_target[chosen] = -weight * np.sign(x_star[chosen]) - adj[chosen]
    off = np.setdiff1d(np.arange(n), chosen)
    grad_target[off] = -adj[off] + weight * rng.uniform(-0.5, 0.5, off.size)
    lasso = dict(quad=quad, lin=grad_target - quad @ x_star, amat=amat,
                 b=amat @ x_star, x_star=x_star, lam_star=lam_star)

    amat = _unit_matrix(rng, m, n)
    box = dict(q=rng.uniform(0.1, 2.0, n), c=rng.standard_normal(n), amat=amat,
               b=amat @ rng.uniform(-1.0, 1.0, n))

    logistic = dict(amat=_unit_matrix(rng, m, n), b=rng.standard_normal(m),
                    features=rng.standard_normal((size["samples"], n)) / np.sqrt(n),
                    labels=rng.choice([-1.0, 1.0], size["samples"]))

    amat = _unit_matrix(rng, m, n)
    planted = np.zeros(n)
    planted[rng.choice(n, size=size["bp_support"], replace=False)] = \
        rng.standard_normal(size["bp_support"])
    bp = dict(amat=amat, b=amat @ planted)

    flow_qp = dict(q=rng.uniform(0.1, 2.0, n), amat=_unit_matrix(rng, m, n),
                   b=rng.standard_normal(m))
    return dict(lasso=lasso, box=box, logistic=logistic, bp=bp, flow=flow_qp)


def build_composite(rng, size=COMPOSITE):
    data = draw_composite(rng, size)
    n, tol = size["n"], size["tol"]
    constructions, cases = [], []

    def constraint(name):
        return _matrix_constraint(f"{name}.construct", data[name]["amat"], data[name]["b"],
                                  constructions)

    def config(scheme):
        return solvers.SolverConfig(scheme, max_iter=size["max_iter"], stop_tol=tol)

    def add(name, problem, schemes, check):
        for scheme in schemes:
            cases.append(_solver_case(f"{name}.{scheme}", f"{name}.{scheme}", problem,
                                      config(scheme), check))

    d = data["lasso"]
    weight, ridge = size["lasso_weight"], size["lasso_ridge"]
    smooth = oracles.QuadraticObjective(d["quad"], d["lin"], mu=ridge, lip=ridge + 1.0)
    problem = model.ProblemInstance(smooth, oracles.L1Prox(weight), constraint("lasso"))

    def check_lasso(x, lam, d=d):
        # a KKT residual r puts x within about r/ridge of the strongly convex optimum
        return (checks.kkt(lambda y: d["quad"] @ y + d["lin"],
                           lambda u: checks.soft_threshold(u, weight),
                           d["amat"], d["b"], x, lam, tol)
                or checks.distance(x, d["x_star"], tol / ridge))

    add("lasso", problem, ("semi_apdfb", "ex_apdfb"), check_lasso)

    d = data["box"]
    box = sets.Box(-np.ones(n), np.ones(n))
    problem = model.ProblemInstance(oracles.QuadraticObjective(d["q"], d["c"]),
                                    oracles.ZeroProx(box), constraint("box"))

    def check_box(x, lam, d=d):
        return checks.kkt(lambda y: d["q"] * y + d["c"], lambda u: np.clip(u, -1.0, 1.0),
                          d["amat"], d["b"], x, lam, tol)

    add("box", problem, ("semi_apd", "semi_apdfb"), check_box)

    d = data["logistic"]
    lridge = size["logistic_ridge"]
    problem = model.ProblemInstance(
        oracles.LogisticObjective(d["features"], d["labels"], ridge=lridge),
        oracles.ZeroProx(), constraint("logistic"))

    def logistic_grad(y, d=d):
        weights = -d["labels"] / (1.0 + np.exp(d["labels"] * (d["features"] @ y)))
        return d["features"].T @ weights + lridge * y

    def check_logistic(x, lam, d=d):
        return checks.kkt(logistic_grad, None, d["amat"], d["b"], x, lam, tol)

    add("logistic", problem, ("semi_apdfb", "ex_apdfb"), check_logistic)

    d = data["bp"]
    problem = model.ProblemInstance(oracles.ZeroObjective(n), oracles.L1Prox(1.0),
                                    constraint("bp"))

    def check_bp(x, lam, d=d):
        return checks.kkt(np.zeros_like, lambda u: checks.soft_threshold(u, 1.0),
                          d["amat"], d["b"], x, lam, tol)

    add("bp", problem, ("implicit",), check_bp)

    d = data["flow"]
    problem = model.ProblemInstance(oracles.QuadraticObjective(d["q"]), oracles.ZeroProx(),
                                    constraint("flow"))
    saddle = model.solve_reference_saddle(problem)
    cases.append(_flow_case(problem, saddle, d, size["h"], size["horizon"]))
    return Built(constructions, cases)


def _flow_case(problem, saddle, d, h, horizon):
    """RK4 flow plus its records; passes if ``E(T) <= exp(-T) E(0)``.

    ``integrate_flow`` makes no convergence claim, so a failed check counts
    as a failed operation, not as a wrong answer. Iterations are RK4 steps.
    """
    n, m = d["amat"].shape[1], d["amat"].shape[0]
    start = flow.FlowState(np.zeros(n), np.zeros(n), np.zeros(m), 1.0, 1.0)

    def integrate():
        trajectory = flow.integrate_flow(start, problem, h, horizon)
        flow.flow_records(trajectory, problem, saddle)
        return trajectory

    def run():
        trajectory, exc, seconds = _call(integrate)
        if exc is not None:
            return Outcome(False, reason=_raised(exc)), seconds
        end = trajectory[-1]
        failure = checks.flow_decay(
            d["q"], d["amat"], d["b"],
            (start.x, start.v, start.lam, start.theta, start.gamma),
            (end.x, end.v, end.lam, end.theta, end.gamma), horizon)
        return Outcome(failure is None, len(trajectory) - 1, failure or ""), seconds

    return Case("flow", "flow", run)


# ---------------------------------------------------------------------------
# ddo: the decentralized layer on a sparse geometric graph
# ---------------------------------------------------------------------------

DDO = dict(nodes=400, radius=0.11, block=5, tol=1e-5, max_iter=3000, eps=1e-6,
           consensus_tol=1e-6)
CONSENSUS_METHODS = ("sgs", "pcg_jacobi", "pcg_sgs")


def draw_ddo(rng, size=DDO):
    """One geometric graph, the two problem seeds and a consensus right side."""
    graph = ddo.random_geometric_graph(size["nodes"], size["radius"],
                                       seed=int(rng.integers(2 ** 32)))
    kinds = {kind: int(rng.integers(2 ** 32)) for kind in ("logistic", "least_squares")}
    return graph, kinds, rng.standard_normal(size["nodes"])


def build_ddo(rng, size=DDO):
    graph, kinds, rhs = draw_ddo(rng, size)
    edges = np.array(graph.edges, dtype=np.intp)
    cases = []
    for kind, problem_seed in kinds.items():
        problem = ddo.build_ddo_problem(graph, size["block"], kind, seed=problem_seed)
        f_ref, _ = ddo.reference_objective(problem)
        for algo in ("apd", "extra"):
            cases.append(_ddo_case(f"{kind}.{algo}", problem, algo, f_ref, edges, size))
    laplacian = problem.laplacian
    for method in CONSENSUS_METHODS:
        cases.append(_consensus_case(method, laplacian, edges, rhs, size))
    return Built([], cases)


def _ddo_case(name, problem, algo, f_ref, edges, size):
    """A ``run_ddo`` call checked on its final iterate.

    ``run_ddo`` returns records but not the iterate, so the case observes the
    argument of the last ``consensus_residual`` call, which the run loop
    makes on the final state, and restores the method afterwards.
    """

    def judge(result, exc, last):
        if exc is not None:
            return Outcome(False, reason=_raised(exc))
        iters = len(result.records) - 1
        if result.status != "converged":
            return Outcome(False, iters, f"status={result.status}")
        if not last:
            return Outcome(False, iters, "check: final iterate not observed", True)
        failure = checks.ddo_gap(problem.kind, problem.local_data, edges, last[0],
                                 size["tol"])
        return Outcome(failure is None, iters, failure or "", True)

    def run():
        original = ddo.DdoProblem.consensus_residual
        last = []

        def observe(self, stacked):
            last[:] = [stacked]
            return original(self, stacked)

        ddo.DdoProblem.consensus_residual = observe
        try:
            result, exc, seconds = _call(ddo.run_ddo, problem, algo, size["max_iter"],
                                         stop_tol=size["tol"], f_ref=f_ref)
        finally:
            ddo.DdoProblem.consensus_residual = original
        return judge(result, exc, last), seconds

    return Case(name, name, run)


def _consensus_case(method, laplacian, edges, rhs, size):
    name = f"consensus.{method}"

    def judge(result, exc):
        if exc is not None:
            return Outcome(False, reason=_raised(exc))
        v, iters, converged = result
        if not converged:
            return Outcome(False, iters, "status=not converged")
        failure = checks.consensus_residual(edges, size["eps"], rhs, v,
                                            size["consensus_tol"])
        return Outcome(failure is None, iters, failure or "", True)

    def run():
        result, exc, seconds = _call(inner.augmented_consensus_solve, laplacian,
                                     size["eps"], rhs, method=method,
                                     tol=size["consensus_tol"])
        return judge(result, exc), seconds

    return Case(name, name, run)


# ---------------------------------------------------------------------------
# registry and warm-up
# ---------------------------------------------------------------------------

WORKLOADS = {"qp_dense": build_qp_dense, "composite": build_composite, "ddo": build_ddo}

# Run seconds budgeted per set: a run solves ``seconds // SET_SECONDS`` sets,
# so its inputs depend on the seed and ``--seconds`` alone. The solver calls
# of one set take about 5.9 s, 10.9 s and 7.9 s at the reference speed of
# :mod:`speed`. The budgets give more sets to the workload whose sets differ
# most from one another (``ddo``: the spectral gap and edge count of each
# geometric graph set the Extra and consensus costs), and keep a run of each
# workload at ``--seconds 20`` under a minute of wall time.
SET_SECONDS = {"qp_dense": 6.5, "composite": 6.5, "ddo": 4.0}

# Same code paths on instances small enough to run in well under a second;
# the warm-up and the benchmark's own tests use them.
TINY = {
    "qp_dense": dict(QP_DENSE, instances=1, n=30, m=8),
    "composite": dict(COMPOSITE, n=30, m=8, lasso_rows=15, lasso_support=4, samples=20,
                      bp_support=2, max_iter=300, horizon=0.5),
    "ddo": dict(DDO, nodes=16, radius=0.5, block=2, max_iter=200),
}


def warm_up(name):
    """Run every case of a workload once on its tiny instance."""
    for case in WORKLOADS[name](np.random.default_rng(0), TINY[name]).cases:
        case.run()
