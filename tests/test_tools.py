"""The maintenance tools under ``tools/``."""

import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_hash_runs(monkeypatch):
    # the tool puts the checkout's src/ and root first on sys.path; the patch
    # gives that back too
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("hash_runs", _TOOLS / "hash_runs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_hash_runs_repeats_its_digests_and_restores_what_it_wraps(monkeypatch, capsys):
    tool = _load_hash_runs(monkeypatch)
    originals = [getattr(module, name) for module, name in tool.HASHED]
    outputs = []
    for _ in range(2):
        assert tool.main(["--seeds", "101", "--tiny"]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1]
    # each digest of PER_WORKLOAD is followed by one line per workload that
    # feeds it: ddo calls no run_solver, and qp_dense and composite no run_ddo
    per_workload = {"run_solver": ("qp_dense", "composite"),
                    "iterates": ("qp_dense", "composite"),
                    "steps": ("qp_dense", "composite", "ddo"),
                    "outcomes": ("qp_dense", "composite", "ddo")}
    assert set(per_workload) == set(tool.PER_WORKLOAD)
    names = [name for _, name in tool.HASHED] + ["iterates", "ddo_iterates", "steps",
                                                 "constants", "outcomes"]
    names = [key for name in names
             for key in [name] + [f"{name}/{w}" for w in per_workload.get(name, ())]]
    # each steps/<workload> line is followed by one line per case of that
    # workload that runs a solver or the flow, in the order of the workload's cases
    cases = {w: [case.name for case in tool.workloads.WORKLOADS[w](
        np.random.default_rng(0), tool.workloads.TINY[w]).cases] for w in per_workload["steps"]}
    printed = [line.split()[0] for line in outputs[0]]
    assert [name for name in printed if name.count("/") < 2] == names
    per_case = 0
    for w in per_workload["steps"]:
        at = printed.index(f"steps/{w}") + 1
        below = [f"steps/{w}/{case}" for case in cases[w] if f"steps/{w}/{case}" in printed]
        assert below and printed[at:at + len(below)] == below
        per_case += len(below)
    assert per_case == sum(name.count("/") == 2 for name in printed)
    # the consensus solves call neither solver nor the flow: no line
    assert {"steps/composite/logistic.ex_apdfb", "steps/composite/flow",
            "steps/ddo/logistic.apd"} <= set(printed)
    assert not any(name.startswith("steps/ddo/consensus") for name in printed)
    assert all(int(line.split()[1]) > 0 and len(line.split()[2]) == 64 for line in outputs[0])
    # one iterates entry per run_solver call, one ddo_iterates entry per run_ddo
    # call, one constants entry per call of either, and one steps entry per
    # call of either or of integrate_flow;
    # the per-workload lines split each count, and the per-case lines each
    # workload's steps count
    calls = {line.split()[0]: int(line.split()[1]) for line in outputs[0]}
    for name, kept in per_workload.items():
        assert sum(calls[f"{name}/{w}"] for w in kept) == calls[name]
    for w in per_workload["steps"]:
        assert sum(n for name, n in calls.items()
                   if name.startswith(f"steps/{w}/")) == calls[f"steps/{w}"]
    assert calls["iterates"] == calls["run_solver"]
    assert calls["ddo_iterates"] == calls["run_ddo"]
    assert calls["constants"] == calls["run_solver"] + calls["run_ddo"]
    assert calls["steps"] == calls["constants"] + calls["integrate_flow"]
    assert calls["steps/composite/flow"] == calls["integrate_flow"]
    assert [getattr(module, name) for module, name in tool.HASHED] == originals


def test_hash_runs_exits_1_and_names_each_case_that_is_not_ok(monkeypatch, capsys):
    tool = _load_hash_runs(monkeypatch)
    monkeypatch.setattr(tool.workloads, "WORKLOADS", {"ddo": tool.workloads.WORKLOADS["ddo"]})

    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(tool.ddo, "run_ddo", broken)
    assert tool.main(["--seeds", "101", "--tiny"]) == 1
    out, err = capsys.readouterr()
    # the digests still come first, one line each
    assert [line.split()[0] for line in out.splitlines()][-2:] == ["outcomes", "outcomes/ddo"]
    # the four run_ddo cases of each of the three sets, and no consensus case
    failed = err.splitlines()
    assert len(failed) == 4 * tool.SETS
    assert all(line.startswith("not ok: seed 101 ddo set ")
               and line.endswith("raised RuntimeError: broken on purpose") for line in failed)
    assert {line.split()[7] for line in failed} == {
        "logistic.apd:", "logistic.extra:", "least_squares.apd:", "least_squares.extra:"}


def test_ddo_iterates_covers_the_final_iterate_and_not_the_records(monkeypatch, capsys):
    tool = _load_hash_runs(monkeypatch)
    monkeypatch.setattr(tool.workloads, "WORKLOADS", {"ddo": tool.workloads.WORKLOADS["ddo"]})
    run_ddo = tool.ddo.run_ddo

    def table(shift=None):
        def shifted(*args, **kwargs):
            run = run_ddo(*args, **kwargs)
            if shift == "records":
                for rec in run.records:
                    rec.consensus_residual = np.nextafter(rec.consensus_residual, np.inf)
            elif shift == "x":
                run.x = np.nextafter(run.x, np.inf)
            return run

        monkeypatch.setattr(tool.ddo, "run_ddo", shifted)
        assert tool.main(["--seeds", "101", "--tiny"]) == 0
        return {line.split()[0]: line.split()[2] for line in capsys.readouterr().out.splitlines()}

    plain, records, x = table(), table("records"), table("x")
    # one ulp in every recorded residual moves run_ddo's digest only
    assert records["run_ddo"] != plain["run_ddo"]
    assert records["ddo_iterates"] == plain["ddo_iterates"]
    # one ulp in the final iterate moves both
    assert x["run_ddo"] != plain["run_ddo"]
    assert x["ddo_iterates"] != plain["ddo_iterates"]
    assert x["outcomes"] == records["outcomes"] == plain["outcomes"]


def test_steps_covers_statuses_and_record_counts_and_no_float(monkeypatch, capsys):
    tool = _load_hash_runs(monkeypatch)
    kept = {name: tool.workloads.WORKLOADS[name] for name in ("qp_dense", "ddo")}
    monkeypatch.setattr(tool.workloads, "WORKLOADS", kept)
    run_ddo, run_solver = tool.ddo.run_ddo, tool.solvers.run_solver

    def table(shift=None):
        def shifted_ddo(*args, **kwargs):
            run = run_ddo(*args, **kwargs)
            if shift == "x":
                run.x = np.nextafter(run.x, np.inf)
            elif shift == "status":
                run.status = "max_iter" if run.status != "max_iter" else "converged"
            return run

        def shifted_solver(*args, **kwargs):
            run = run_solver(*args, **kwargs)
            if shift == "x":
                for rec in run.records:
                    rec.feasibility = np.nextafter(rec.feasibility, np.inf)
            elif shift == "records":
                run.records.append(run.records[-1])
            return run

        monkeypatch.setattr(tool.ddo, "run_ddo", shifted_ddo)
        monkeypatch.setattr(tool.solvers, "run_solver", shifted_solver)
        tool.main(["--seeds", "101", "--tiny"])
        return {line.split()[0]: line.split()[2] for line in capsys.readouterr().out.splitlines()}

    plain, x, status, records = table(), table("x"), table("status"), table("records")
    # one ulp in every final ddo iterate and every recorded feasibility moves
    # the float digests, not steps
    assert x["ddo_iterates"] != plain["ddo_iterates"] and x["run_solver"] != plain["run_solver"]
    assert x["steps"] == plain["steps"]
    # a changed status or record count moves it
    assert status["steps"] != plain["steps"] and records["steps"] != plain["steps"]


def test_steps_covers_each_flow_calls_accepted_step_count_and_no_float(monkeypatch, capsys):
    tool = _load_hash_runs(monkeypatch)
    monkeypatch.setattr(tool.workloads, "WORKLOADS",
                        {"composite": tool.workloads.WORKLOADS["composite"]})
    integrate_flow = tool.flow.integrate_flow

    def table(shift=None):
        def shifted(*args, **kwargs):
            trajectory = integrate_flow(*args, **kwargs)
            if shift == "x":
                end = trajectory[-1]
                trajectory[-1] = dataclasses.replace(end, x=np.nextafter(end.x, np.inf))
            elif shift == "steps":
                trajectory.insert(1, trajectory[0])
            return trajectory

        monkeypatch.setattr(tool.flow, "integrate_flow", shifted)
        tool.main(["--seeds", "101", "--tiny"])
        return {line.split()[0]: line.split()[2] for line in capsys.readouterr().out.splitlines()}

    plain, x, steps = table(), table("x"), table("steps")
    # one ulp in the flow's end state moves its digest, not steps
    assert x["integrate_flow"] != plain["integrate_flow"] and x["steps"] == plain["steps"]
    # one more accepted step moves the flow's steps line and no other case's
    moved = {name for name in plain if name.startswith("steps") and steps[name] != plain[name]}
    assert moved == {"steps", "steps/composite", "steps/composite/flow"}


def test_a_change_to_one_workload_leaves_the_others_per_workload_digests(monkeypatch, capsys):
    tool = _load_hash_runs(monkeypatch)
    kept = {name: tool.workloads.WORKLOADS[name] for name in ("qp_dense", "composite")}
    monkeypatch.setattr(tool.workloads, "WORKLOADS", kept)
    run_solver = tool.solvers.run_solver

    def table(shift=False):
        def shifted(problem, config):
            run = run_solver(problem, config)
            # composite's polished runs only: qp_dense's QPs are smooth unconstrained
            if shift and not problem.is_smooth_unconstrained:
                run.state = dataclasses.replace(run.state, x=np.nextafter(run.state.x, np.inf))
            return run

        monkeypatch.setattr(tool.solvers, "run_solver", shifted)
        tool.main(["--seeds", "101", "--tiny"])
        return {line.split()[0]: line.split()[2] for line in capsys.readouterr().out.splitlines()}

    plain, shifted = table(), table(shift=True)
    for name in ("run_solver", "iterates"):
        assert shifted[name] != plain[name]
        assert shifted[f"{name}/composite"] != plain[f"{name}/composite"]
        assert shifted[f"{name}/qp_dense"] == plain[f"{name}/qp_dense"]
    for name in ("steps", "outcomes"):  # no status or record count moved
        assert shifted[name] == plain[name]


def test_setup_digests_cover_the_edges_and_the_node_data(monkeypatch, capsys):
    tool = _load_hash_runs(monkeypatch)
    monkeypatch.setattr(tool.workloads, "WORKLOADS", {"ddo": tool.workloads.WORKLOADS["ddo"]})
    draw_graph, build_problem = tool.ddo.random_geometric_graph, tool.ddo.build_ddo_problem

    def table(shift=None):
        def shifted_graph(*args, **kwargs):
            graph = draw_graph(*args, **kwargs)
            if shift == "edges":  # the same graph, its last two edges swapped
                graph = tool.ddo.Graph(graph.n, graph.edges[:-2] + graph.edges[:-3:-1])
            return graph

        def shifted_problem(*args, **kwargs):
            problem = build_problem(*args, **kwargs)
            if shift == "node_data":
                problem.node_data[0].flat[0] = np.nextafter(problem.node_data[0].flat[0], np.inf)
            elif shift in ("mu", "lip"):
                value = getattr(problem, shift)
                problem = dataclasses.replace(problem, **{shift: np.nextafter(value, np.inf)})
            return problem

        monkeypatch.setattr(tool.ddo, "random_geometric_graph", shifted_graph)
        monkeypatch.setattr(tool.ddo, "build_ddo_problem", shifted_problem)
        status = tool.main(["--seeds", "101", "--tiny"])
        # not for a shift: one ulp above a least-squares mu of 0 is a strongly
        # convex run, which may stop at max_iter
        assert status == 0 or shift is not None
        return {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}

    plain = table()
    # one graph per set, and one problem of each kind on it
    assert int(plain["random_geometric_graph"][0]) == tool.SETS
    assert int(plain["build_ddo_problem"][0]) == 2 * tool.SETS
    # reordered edges move the graph digest; one ulp in the node data, mu or
    # lip moves the problem digest and leaves the graph digest alone
    assert table("edges")["random_geometric_graph"] != plain["random_geometric_graph"]
    for shift in ("node_data", "mu", "lip"):
        shifted = table(shift)
        assert shifted["build_ddo_problem"] != plain["build_ddo_problem"]
        assert shifted["random_geometric_graph"] == plain["random_geometric_graph"]


def test_a_graph_digests_as_its_node_count_and_edges(monkeypatch):
    tool = _load_hash_runs(monkeypatch)

    def digest(value):
        sha = hashlib.sha256()
        tool.feed(sha, value)
        return sha.hexdigest()

    graph = tool.ddo.cycle_graph(5)
    problem = tool.ddo.build_ddo_problem(graph, 2, "least_squares", seed=0)
    plain = digest(graph), digest(problem)
    assert plain[0] == digest((graph.n, graph.edges))
    # what the graph builds from its edges is no part of its digest, nor of
    # the digest of a problem on it
    graph.incidence_t  # formed on first use
    object.__setattr__(graph, "laplacian", 2.0 * graph.laplacian)
    assert (digest(graph), digest(problem)) == plain
    assert digest(tool.ddo.cycle_graph(6)) != plain[0]
    assert digest(tool.ddo.Graph(5, graph.edges[::-1])) != plain[0]
