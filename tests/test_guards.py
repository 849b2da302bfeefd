"""Input guards that no other test or benchmark run reaches: each case calls
one public entry point with one bad input and checks the exception type and
a fragment of its message."""

import math
import re

import numpy as np
import pytest

import apd
from apd import ddo, harness, inner

QP1 = apd.ProblemInstance(apd.QuadraticObjective(np.ones(2)), apd.ZeroProx(),
                          apd.MatrixConstraint([[1.0, 1.0]], [1.0]))
START = apd.IterateState.start(np.zeros(2), np.zeros(1), apd.ScalingState(), -np.ones(1))


def _step(step):
    return lambda tmp_path: step(START, apd.RunContext(QP1), 0.0)


def _solve(max_iter):
    return lambda tmp_path: apd.run_solver(QP1, apd.SolverConfig("semi_apd", max_iter=max_iter))


def _ddo_run(max_iter):
    return lambda tmp_path: ddo.run_ddo(
        ddo.build_ddo_problem(ddo.path_graph(3), 2, "least_squares", seed=0), "apd", max_iter)


def _problem_file(text):
    def load(tmp_path):
        path = tmp_path / "problem.txt"
        path.write_text(text, encoding="utf-8")
        return apd.load_problem(path)
    return load


GUARDS = {
    "implicit-alpha-zero": (_step(apd.implicit_apd_step), ValueError, "step size must be positive"),
    "semi-apd-alpha-zero": (_step(apd.semi_apd_step), ValueError, "step size must be positive"),
    "semi-apdfb-alpha-zero": (_step(apd.semi_apdfb_step), ValueError,
                              "step size must be positive"),
    "ex-apdfb-alpha-zero": (_step(apd.ex_apdfb_step), ValueError, "step size must be positive"),
    "constraint-rhs-length": (lambda tmp_path: apd.MatrixConstraint([[1.0, 1.0]], [1.0, 2.0]),
                              ValueError, "rhs length does not match"),
    "instance-dimensions": (lambda tmp_path: apd.ProblemInstance(
        apd.QuadraticObjective(np.ones(3)), apd.ZeroProx(), QP1.constraint),
        ValueError, "dimensions disagree"),
    "kkt-dimensions": (lambda tmp_path: apd.kkt_residual(QP1, np.zeros(3), np.zeros(1)),
                       ValueError, "dimension mismatch"),
    "quadratic-not-psd": (lambda tmp_path: apd.QuadraticObjective([[0.0, 1.0], [1.0, 0.0]]),
                          ValueError, "positive semidefinite"),
    "logistic-labels": (lambda tmp_path: apd.LogisticObjective(np.ones((2, 2)), [1.0, 0.0]),
                        ValueError, "labels must be +-1"),
    "box-empty": (lambda tmp_path: apd.Box([1.0], [0.0]), ValueError,
                  "empty coordinate range"),
    "implicit-alpha-overflows": (lambda tmp_path: apd.StepRule("implicit", alpha=1e155),
                                 ValueError, "free step size alpha=1e+155 is too large"),
    "implicit-alpha-inf": (lambda tmp_path: apd.StepRule("implicit", alpha=math.inf),
                           ValueError, "free step size alpha=inf is too large"),
    "run-solver-max-iter-fraction": (_solve(5.5), ValueError, "got max_iter=5.5"),
    "run-solver-max-iter-inf": (_solve(math.inf), ValueError, "got max_iter=inf"),
    "run-ddo-max-iter-fraction": (_ddo_run(5.5), ValueError, "got max_iter=5.5"),
    "run-ddo-max-iter-inf": (_ddo_run(math.inf), ValueError, "got max_iter=inf"),
    "theta-bound-k-negative": (lambda tmp_path: apd.theta_upper_bound(
        apd.StepRule("implicit"), -1, 1.0, 1.0, 1.0), ValueError, "must be nonnegative"),
    "cycle-two-nodes": (lambda tmp_path: ddo.cycle_graph(2), ValueError,
                        "a cycle needs at least 3 nodes"),
    "cycle-float-size": (lambda tmp_path: ddo.cycle_graph(4.0), ValueError,
                         "a cycle needs at least 3 nodes, as an integer, got n=4.0"),
    "cycle-string-size": (lambda tmp_path: ddo.cycle_graph("5"), ValueError,
                          "a cycle needs at least 3 nodes, as an integer, got n='5'"),
    "path-float-size": (lambda tmp_path: ddo.path_graph(2.5), ValueError,
                        "a path needs an integer count of n >= 1 nodes, got n=2.5"),
    "path-numpy-float-size": (lambda tmp_path: ddo.path_graph(np.float64(3)), ValueError,
                              "n >= 1 nodes, got n=np.float64(3.0)"),
    "path-zero-size": (lambda tmp_path: ddo.path_graph(0), ValueError,
                       "a path needs an integer count of n >= 1 nodes, got n=0"),
    "grid-float-size": (lambda tmp_path: ddo.grid_graph(2.0, 3), ValueError,
                        "a grid needs integer sizes >= 1, got rows=2.0, cols=3"),
    "grid-negative-sizes": (lambda tmp_path: ddo.grid_graph(-1, -2), ValueError,
                            "a grid needs integer sizes >= 1, got rows=-1, cols=-2"),
    "graph-negative-n": (lambda tmp_path: ddo.Graph(-1, ()), ValueError,
                         "integer node count n >= 0, got n=-1"),
    "graph-fractional-n": (lambda tmp_path: ddo.Graph(2.5, ()), ValueError,
                           "integer node count n >= 0, got n=2.5"),
    "graph-fractional-endpoint": (lambda tmp_path: ddo.Graph(3, ((0, 2.9), (1, 2))), ValueError,
                                  "edge endpoints must be integers, got float"),
    "graph-edge-of-three": (lambda tmp_path: ddo.Graph(3, ((0, 1, 2), (1, 2))), ValueError,
                            "every edge must be a pair (i, j) of endpoints"),
    "graph-string-endpoint": (lambda tmp_path: ddo.Graph(3, ((0, "2"), (1, 2))), ValueError,
                              "edge endpoints must be integers, got str"),
    "ddo-kind": (lambda tmp_path: ddo.build_ddo_problem(ddo.path_graph(3), 2, "huber", seed=0),
                 ValueError, "unknown model kind 'huber'"),
    "ddo-problem-kind": (lambda tmp_path: ddo.DdoProblem(
        ddo.path_graph(4), 2, "least-squares", (), 0.0, 1.0), ValueError,
        "unknown model kind 'least-squares'; pick one of ('least_squares', 'logistic')"),
    "consensus-method": (lambda tmp_path: inner.augmented_consensus_solve(
        ddo.graph_laplacian(ddo.path_graph(3)), 1e-3, np.ones(3), method="cg"),
        ValueError, "unknown method 'cg'"),
    "consensus-method-jacobi": (lambda tmp_path: inner.augmented_consensus_solve(
        ddo.graph_laplacian(ddo.path_graph(3)), 1e-3, np.ones(3), method="jacobi"),
        ValueError, "unknown method 'jacobi'"),
    "file-truncated-header": (_problem_file("2 1"), ValueError, "truncated header"),
    "file-early-end": (_problem_file("2 1 0 1.0"), ValueError, "unexpected end of file"),
    "file-trailing-tokens": (_problem_file("2 1 0 1 1 1 quadratic 1 1 9"), ValueError,
                             "1 trailing tokens"),
    "csv-no-records": (lambda tmp_path: harness.emit_csv([], tmp_path / "out.csv"),
                       ValueError, "empty record list"),
}


@pytest.mark.parametrize("call,error,fragment", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises(call, error, fragment, tmp_path):
    with pytest.raises(error, match=re.escape(fragment)):
        call(tmp_path)
