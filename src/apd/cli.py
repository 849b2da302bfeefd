"""Benchmark command line: solve, flow, ddo, robustness, compare, audit."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import ddo as ddo_mod
from .flow import FlowState, flow_records, integrate_flow
from .harness import (
    ExperimentConfig,
    audit_records,
    emit_csv,
    parse_experiment_config,
    read_csv,
    run_experiment,
)
from .inner import BorderedPattern, augmented_consensus_solve, plain_iteration_solve
from .model import NoReferenceError, load_problem, solve_reference_saddle
from .schedule import SCHEMES, StepRule
from .solvers import SolverConfig, run_solver


def parse_graph_spec(spec):
    """Graph specs: ``path:N``, ``cycle:N``, ``grid:RxC``, ``geometric:N:R:SEED``."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "path":
        return ddo_mod.path_graph(int(parts[1]))
    if kind == "cycle":
        return ddo_mod.cycle_graph(int(parts[1]))
    if kind == "grid":
        rows, cols = parts[1].lower().split("x")
        return ddo_mod.grid_graph(int(rows), int(cols))
    if kind == "geometric":
        return ddo_mod.random_geometric_graph(int(parts[1]), float(parts[2]),
                                              int(parts[3]) if len(parts) > 3 else 0)
    raise ValueError(f"unknown graph spec {spec!r}")


def _load(path):
    """:func:`~apd.model.load_problem`, with a rejected file ending the command
    on its one-line message."""
    try:
        return load_problem(path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_solve(args):
    problem = _load(args.problem)
    cfg = SolverConfig(scheme=args.scheme, gamma0=args.gamma0, max_iter=args.max_iter,
                       stop_tol=args.stop_tol, alpha=args.alpha, timing=args.timing)
    run = run_solver(problem, cfg)
    emit_csv(run.records, args.csv)
    last = run.records[-1]
    print(f"{args.scheme}: status={run.status} k={last.k} "
          f"feasibility={last.feasibility:.3e} obj_gap={last.obj_gap:.3e}")
    return 0


def _cmd_flow(args):
    problem = _load(args.problem)
    try:
        saddle = solve_reference_saddle(problem)
    except NoReferenceError as exc:
        raise SystemExit(f"flow needs a reference saddle point: {exc}") from None
    n = problem.constraint.cols
    m = problem.constraint.rows
    state0 = FlowState(np.zeros(n), np.zeros(n), np.zeros(m), 1.0, args.gamma0, 0.0)
    trajectory = integrate_flow(state0, problem, args.h, args.T)
    rows = flow_records(trajectory, problem, saddle)
    emit_csv(rows, args.csv)
    print(f"flow: steps={len(rows) - 1} E(0)={rows[0].E:.6e} E(T)={rows[-1].E:.6e}")
    return 0


def _cmd_ddo(args):
    graph = parse_graph_spec(args.graph)
    kind = "least_squares" if args.model == "ls" else "logistic"
    problem = ddo_mod.build_ddo_problem(graph, args.m, kind, args.seed,
                                        samples=args.samples, ridge=args.ridge)
    run = ddo_mod.run_ddo(problem, args.algo, args.max_iter,
                          stop_tol=args.stop_tol, timing=args.timing)
    emit_csv(run.records, args.csv)
    last = run.records[-1]
    print(f"ddo/{args.algo}: status={run.status} k={last.k} "
          f"obj_gap={last.obj_gap:.3e} consensus={last.consensus_residual:.3e}")
    return 0


@dataclass
class RobustnessRecord:
    eps: float
    method: str
    iterations: int
    converged: int
    relative_residual: float


_ROBUSTNESS_METHODS = ("plain_jacobi", "plain_gs", "plain_sgs",
                       "aug_jacobi", "aug_gs", "aug_sgs", "pcg_jacobi", "pcg_sgs")


def _cmd_robustness(args):
    graph = parse_graph_spec(args.graph)
    lap = ddo_mod.graph_laplacian(graph)
    bordered = BorderedPattern(lap)  # one assembly for every eps
    rng = np.random.default_rng(args.seed)
    s = rng.standard_normal(graph.n)
    eps_values = [float(tok) for tok in args.eps_list.split(",") if tok]
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    for method in methods:
        if method not in _ROBUSTNESS_METHODS:
            raise SystemExit(f"unknown method {method!r}; choose from "
                             f"{', '.join(_ROBUSTNESS_METHODS)}")
    rows = []
    for eps in eps_values:
        for method in methods:
            if method.startswith("plain_"):
                v, iters, ok = plain_iteration_solve(
                    lap, eps, s, method=method[len("plain_"):],
                    tol=args.tol, i_max=args.i_max)
            else:
                name = method[len("aug_"):] if method.startswith("aug_") else method
                v, iters, ok = augmented_consensus_solve(
                    bordered, eps, s, method=name, tol=args.tol, i_max=args.i_max)
            res = np.linalg.norm(s - (eps * v + lap @ v)) / np.linalg.norm(s)
            rows.append(RobustnessRecord(eps, method, iters, int(ok), float(res)))
            print(f"eps={eps:8.1e} {method:>12}: iters={iters} converged={ok}")
    emit_csv(rows, args.csv)
    return 0


def _cmd_compare(args):
    if args.config:
        cfg = parse_experiment_config(args.config)
    else:
        cfg = ExperimentConfig(
            problem_file=args.problem,
            schemes=tuple(s.strip() for s in args.schemes.split(",") if s.strip()),
            gamma0=args.gamma0, max_iter=args.max_iter, stop_tol=args.stop_tol,
            alpha=args.alpha, out_dir=args.out_dir, jobs=args.jobs)
    if not cfg.schemes:
        raise SystemExit("compare needs at least one scheme")
    summaries = run_experiment(cfg)
    for s in summaries:
        line = (f"{s.scheme}: status={s.status} iters={s.iterations} "
                f"slope={s.slope:.3f} violations={s.violations}")
        if s.error:
            line += f" error={s.error}"
        print(line)
    return 0 if any(s.status != "error" for s in summaries) else 1


def _cmd_audit(args):
    columns = read_csv(args.csv)
    rows = [SimpleNamespace(k=int(k), epoch=int(e), alpha=a, theta=t, gamma=g, lyapunov=ly)
            for k, e, a, t, g, ly in zip(columns["k"], columns["epoch"], columns["alpha"],
                                         columns["theta"], columns["gamma"],
                                         columns["lyapunov"])]
    rule = None
    if args.scheme:
        rule = StepRule(args.scheme, norm_a=args.norm_a, lip_beta=args.l_beta,
                        alpha=args.alpha)
    report = audit_records(rows, rule, args.gamma0 if rule else None, args.mu_beta)
    print(f"audit: checked={report.checked} "
          f"contraction_violations={report.contraction_violations} "
          f"theta_bound_violations={report.theta_bound_violations}")
    return 0 if report.total == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="apd",
        description="Accelerated primal-dual solvers and benchmarks for "
                    "linearly constrained convex optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one scheme on a problem file")
    solve.add_argument("--problem", required=True)
    solve.add_argument("--scheme", required=True, choices=SCHEMES)
    solve.add_argument("--gamma0", type=float, default=1.0)
    solve.add_argument("--max-iter", type=int, default=1000)
    solve.add_argument("--stop-tol", type=float, default=0.0)
    solve.add_argument("--alpha", type=float, default=1.0,
                       help="free step size of the implicit scheme")
    solve.add_argument("--csv", required=True)
    solve.add_argument("--timing", action="store_true",
                       help="record wall clocks (breaks rerun byte-identity)")
    solve.set_defaults(func=_cmd_solve)

    flow = sub.add_parser("flow", help="integrate the continuous flow")
    flow.add_argument("--problem", required=True)
    flow.add_argument("--h", type=float, required=True)
    flow.add_argument("--T", type=float, required=True)
    flow.add_argument("--gamma0", type=float, default=1.0)
    flow.add_argument("--csv", required=True)
    flow.set_defaults(func=_cmd_flow)

    ddo = sub.add_parser("ddo", help="decentralized optimization benchmark")
    ddo.add_argument("--graph", required=True,
                     help="path:N | cycle:N | grid:RxC | geometric:N:R:SEED")
    ddo.add_argument("--m", type=int, required=True, help="block size per node")
    ddo.add_argument("--model", choices=("ls", "logistic"), required=True)
    ddo.add_argument("--algo", choices=("apd", "extra", "aqp"), required=True)
    ddo.add_argument("--max-iter", type=int, required=True)
    ddo.add_argument("--stop-tol", type=float, default=0.0)
    ddo.add_argument("--seed", type=int, default=0)
    ddo.add_argument("--samples", type=int, default=5,
                     help="least-squares rows per node")
    ddo.add_argument("--ridge", type=float, default=0.5,
                     help="logistic regularization")
    ddo.add_argument("--csv", required=True)
    ddo.add_argument("--timing", action="store_true")
    ddo.set_defaults(func=_cmd_ddo)

    robust = sub.add_parser("robustness",
                            help="iterative-solver robustness sweep over eps")
    robust.add_argument("--graph", required=True)
    robust.add_argument("--eps-list", required=True,
                        help="comma-separated eps values")
    robust.add_argument("--methods", required=True,
                        help=f"comma list from: {', '.join(_ROBUSTNESS_METHODS)}")
    robust.add_argument("--tol", type=float, default=1e-6)
    robust.add_argument("--i-max", type=int, default=100000)
    robust.add_argument("--seed", type=int, default=0)
    robust.add_argument("--csv", required=True)
    robust.set_defaults(func=_cmd_robustness)

    compare = sub.add_parser("compare", help="run several schemes and summarize")
    compare.add_argument("--config", default="",
                         help="experiment config file (overrides other flags)")
    compare.add_argument("--problem", default="")
    compare.add_argument("--schemes", default="")
    compare.add_argument("--gamma0", type=float, default=1.0)
    compare.add_argument("--max-iter", type=int, default=1000)
    compare.add_argument("--stop-tol", type=float, default=0.0)
    compare.add_argument("--alpha", type=float, default=1.0)
    compare.add_argument("--out-dir", default=".")
    compare.add_argument("--jobs", type=int, default=1)
    compare.set_defaults(func=_cmd_compare)

    audit = sub.add_parser("audit", help="re-check certificates on an emitted CSV")
    audit.add_argument("--csv", required=True)
    audit.add_argument("--scheme", default="", choices=("",) + SCHEMES)
    audit.add_argument("--gamma0", type=float, default=1.0)
    audit.add_argument("--norm-a", type=float, default=0.0)
    audit.add_argument("--l-beta", type=float, default=0.0,
                       help="L of h (the paper's beta is 0)")
    audit.add_argument("--mu-beta", type=float, default=0.0,
                       help="mu of h (the paper's beta is 0)")
    audit.add_argument("--alpha", type=float, default=1.0)
    audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
