"""Tests of the benchmark's own code: seeding, tracing and output checks."""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import apd  # noqa: E402
from apd import (ddo, flow, harness, inner, model, oracles, schedule,  # noqa: E402
                 sets, solvers)
from perfbench import bench, checks, speed, tracer, workloads  # noqa: E402

DRAWS = {"qp_dense": workloads.draw_qp_dense, "composite": workloads.draw_composite,
         "ddo": workloads.draw_ddo}


def _leaves(obj):
    """Arrays and scalars of a nested draw, in a fixed order."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)
    elif isinstance(obj, ddo.Graph):
        yield np.array(obj.n)
        yield np.array(obj.edges)
    else:
        yield np.asarray(obj)


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_seed_gives_bit_identical_instances(name):
    first, again, other = (list(_leaves(DRAWS[name](np.random.default_rng(seed))))
                           for seed in (5, 5, 6))
    assert len(first) == len(again)
    for a, b in zip(first, again):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert any(a.shape != b.shape or a.tobytes() != b.tobytes()
               for a, b in zip(first, other))


def test_self_time_subtracts_child_spans(monkeypatch):
    # clock reads: outer in, leaf in, leaf out, fail in, fail out, outer out
    ticks = iter([0, 10, 40, 50, 65, 100])
    monkeypatch.setattr(tracer.time, "process_time_ns", lambda: next(ticks))
    t = tracer.Tracer()
    leaf = t.record("leaf", lambda: None)

    def failing():
        raise ValueError("boom")

    fail = t.record("fail", failing)

    def outer():
        leaf()
        with pytest.raises(ValueError):
            fail()
        return "done"

    assert t.record("outer", outer)() == "done"
    assert t.stats["outer"].total_ns == 100
    assert t.stats["outer"].self_ns == 100 - 30 - 15
    assert t.stats["leaf"].self_ns == t.stats["leaf"].total_ns == 30
    fail_stats = t.stats["fail"]
    assert (fail_stats.calls, fail_stats.raised, fail_stats.self_ns) == (1, 1, 15)


def _attribute_snapshot():
    modules = (apd, ddo, flow, harness, inner, model, oracles, schedule, sets, solvers)
    snap = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            snap[(mod.__name__, name)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("apd"):
                for attr, value in vars(obj).items():
                    snap[(f"{obj.__module__}.{obj.__qualname__}", attr)] = value
    return snap


def test_speed_scales_by_the_kernel_around_each_timing():
    kernel = iter([0.1, 0.3, 0.2])
    log = []
    s = speed.Speed(log, kernel=lambda: next(kernel))
    assert s.scale(2.0) == pytest.approx(2.0 * speed.REFERENCE_S / 0.2)
    assert s.scale(1.0) == pytest.approx(1.0 * speed.REFERENCE_S / 0.25)
    assert log == [0.1, 0.3, 0.2]


def test_traced_run_restores_every_attribute():
    before = _attribute_snapshot()
    t = tracer.Tracer()
    for name, build in workloads.WORKLOADS.items():
        with t.installed():
            built = build(np.random.default_rng(0), workloads.TINY[name])
        bench.run_cases(built.cases, [], t)
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("a case escaped")
    after = _attribute_snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    for layer in ("model.apply", "solvers.step", "inner.pcg", "inner.ssn",
                  "inner.consensus", "ddo.step", "flow.rhs", "model.reference"):
        assert t.stats[layer].calls > 0, layer


def test_every_wrapped_target_is_defined_on_its_owner():
    for owner, name, layer, _ in tracer.targets():
        assert name in vars(owner), (owner, name)
        assert layer in bench.LAYERS


def test_qp_check_rejects_perturbed_solution():
    rng = np.random.default_rng(0)
    amat, b = rng.standard_normal((4, 12)), rng.standard_normal(4)
    q, c = rng.uniform(0.1, 2.0, 12), rng.standard_normal(12)
    x, lam, _ = checks.qp_saddle(q, c, amat, b)
    assert np.allclose(q * x + c + amat.T @ lam, 0.0) and np.allclose(amat @ x, b)
    assert checks.qp_gap(q, c, amat, b, x, 1e-8) is None
    assert checks.qp_gap(q, c, amat, b, x + 1e-6, 1e-8) is not None


def test_kkt_and_distance_checks_reject_perturbed_solution():
    rng = np.random.default_rng(3)
    d = workloads.draw_composite(rng, workloads.TINY["composite"])["lasso"]
    weight = workloads.COMPOSITE["lasso_weight"]

    def check(x, lam):
        return checks.kkt(lambda y: d["quad"] @ y + d["lin"],
                          lambda u: checks.soft_threshold(u, weight),
                          d["amat"], d["b"], x, lam, 1e-5)

    assert check(d["x_star"], d["lam_star"]) is None
    assert check(d["x_star"] + 1e-4, d["lam_star"]) is not None
    assert check(d["x_star"], d["lam_star"] + 1e-4) is not None
    assert checks.distance(d["x_star"], d["x_star"], 1e-3) is None
    assert checks.distance(d["x_star"] + 1e-3, d["x_star"], 1e-3) is not None


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_ddo_check_rejects_perturbed_solution(kind):
    graph = ddo.random_geometric_graph(12, 0.6, seed=1)
    problem = ddo.build_ddo_problem(graph, 3, kind, seed=2)
    edges = np.array(graph.edges)
    x, f_star = checks.ddo_optimum(kind, problem.local_data)
    assert f_star == pytest.approx(ddo.reference_objective(problem)[0], rel=1e-9)
    stacked = np.tile(x, (graph.n, 1))
    assert checks.ddo_gap(kind, problem.local_data, edges, stacked, 1e-5) is None
    stacked[0] += 1e-4
    assert checks.ddo_gap(kind, problem.local_data, edges, stacked, 1e-5) is not None


def test_laplacian_from_edges_matches_the_program():
    graph = ddo.random_geometric_graph(15, 0.5, seed=4)
    stacked = np.random.default_rng(0).standard_normal((15, 2))
    expected = ddo.graph_laplacian(graph) @ stacked
    assert np.allclose(checks.laplacian_apply(np.array(graph.edges), stacked), expected)


def test_consensus_check_rejects_perturbed_solution():
    graph = ddo.random_geometric_graph(15, 0.5, seed=4)
    edges = np.array(graph.edges)
    lap = ddo.graph_laplacian(graph).toarray()
    s = np.random.default_rng(1).standard_normal(15)
    v = np.linalg.solve(1e-2 * np.eye(15) + lap, s)
    assert checks.consensus_residual(edges, 1e-2, s, v, 1e-6) is None
    v[3] += 1e-3
    assert checks.consensus_residual(edges, 1e-2, s, v, 1e-6) is not None


def test_flow_check_rejects_perturbed_state():
    rng = np.random.default_rng(2)
    amat, b, q = rng.standard_normal((3, 8)), rng.standard_normal(3), rng.uniform(0.1, 2, 8)
    x_star, lam_star, _ = checks.qp_saddle(q, np.zeros(8), amat, b)
    start = (np.zeros(8), np.zeros(8), np.zeros(3), 1.0, 1.0)
    at_saddle = (x_star, x_star, lam_star, np.exp(-10.0), 1.0)
    assert checks.flow_decay(q, amat, b, start, at_saddle, 10.0) is None
    off = (x_star + 0.1, x_star + 0.1, lam_star, np.exp(-10.0), 1.0)
    assert checks.flow_decay(q, amat, b, start, off, 10.0) is not None


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ddo",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
