"""Input guards that no other test or benchmark run reaches: each case calls
one public entry point with one bad input and checks the exception type and
a fragment of its message."""

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
    "theta-bound-k-negative": (lambda tmp_path: apd.theta_upper_bound(
        apd.StepRule("implicit"), -1, 1.0, 1.0, 1.0), ValueError, "must be nonnegative"),
    "cycle-two-nodes": (lambda tmp_path: ddo.cycle_graph(2), ValueError,
                        "a cycle needs at least 3 nodes"),
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
    "consensus-method": (lambda tmp_path: inner.augmented_consensus_solve(
        ddo.graph_laplacian(ddo.path_graph(3)), 1e-3, np.ones(3), method="cg"),
        ValueError, "unknown method 'cg'"),
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
