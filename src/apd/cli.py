"""Benchmark command line: solve, flow, ddo, robustness, compare, audit."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import ddo as ddo_mod
from .flow import FlowDivergenceError, FlowState, flow_records, integrate_flow
from .harness import audit_records, emit_csv, read_csv, run_experiment
from .inner import InnerSolveError, augmented_consensus_solve, plain_iteration_solve
from .model import NoReferenceError, load_problem, solve_reference_saddle
from .schedule import SCHEMES
from .solvers import SolverConfig, make_step_rule, run_solver


_GRAPH_SPECS = "path:N | cycle:N | grid:RxC | geometric:N:R[:SEED]"


def parse_graph_spec(spec):
    """The graph of a ``_GRAPH_SPECS`` spec; a bad one is a usage error."""
    kind, *fields = spec.split(":")
    try:
        if kind == "path" and len(fields) == 1:
            graph = ddo_mod.path_graph(int(fields[0]))
        elif kind == "cycle" and len(fields) == 1:
            graph = ddo_mod.cycle_graph(int(fields[0]))
        elif kind == "grid" and len(fields) == 1:
            rows, cols = fields[0].lower().split("x")
            graph = ddo_mod.grid_graph(int(rows), int(cols))
        elif kind == "geometric" and len(fields) in (2, 3):
            graph = ddo_mod.random_geometric_graph(int(fields[0]), float(fields[1]),
                                                   int(fields[2]) if len(fields) == 3 else 0)
        else:
            raise ValueError("not a graph spec")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{spec!r}: {exc}; expected {_GRAPH_SPECS}") from None
    return graph


def _eps_list(text):
    """``--eps-list``: comma-separated finite positive floats, at least one."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values or not all(0 < eps < np.inf for eps in values):
        raise argparse.ArgumentTypeError("needs one or more positive eps values, each finite")
    return values


# name -> (solver, its method): the stationary methods run plain (on eps I + L)
# and bordered; PCG runs bordered only
_ROBUSTNESS_METHODS = {
    "plain_jacobi": (plain_iteration_solve, "jacobi"),
    "plain_sgs": (plain_iteration_solve, "sgs"),
    "aug_jacobi": (augmented_consensus_solve, "jacobi"),
    "aug_sgs": (augmented_consensus_solve, "sgs"),
    "pcg_jacobi": (augmented_consensus_solve, "pcg_jacobi"),
    "pcg_sgs": (augmented_consensus_solve, "pcg_sgs"),
}


def _method_list(text):
    """``--methods``: a comma list of ``_ROBUSTNESS_METHODS``, at least one."""
    methods = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not methods or not set(methods) <= set(_ROBUSTNESS_METHODS):
        raise argparse.ArgumentTypeError(f"expected a comma list from: "
                                         f"{', '.join(_ROBUSTNESS_METHODS)}; got {text!r}")
    return methods


def _option_type(convert, allow_zero, expected):
    """An option type: ``convert(text)``, finite and above 0 (or at least 0
    with ``allow_zero``); anything else is a usage error."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = np.nan
        if not (0 <= value < np.inf if allow_zero else 0 < value < np.inf):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _option_type(int, False, "a positive integer")  # a block size or cap
_positive_float = _option_type(float, False, "a positive number")  # a step or scale
_nonnegative_int = _option_type(int, True, "a nonnegative integer")  # --max-iter, --seed
_tolerance = _option_type(float, True, "a finite nonnegative number")  # --stop-tol, 0: none


def _load(path):
    """:func:`~apd.model.load_problem`, with a rejected or unreadable file
    ending the command on its one-line message."""
    try:
        return load_problem(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None


def _cmd_solve(args):
    problem = _load(args.problem)
    cfg = SolverConfig(scheme=args.scheme, gamma0=args.gamma0, max_iter=args.max_iter,
                       stop_tol=args.stop_tol, alpha=args.alpha, timing=args.timing)
    try:
        run = run_solver(problem, cfg)
    except (ValueError, InnerSolveError) as exc:
        raise SystemExit(f"solve: {exc}") from None
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
    try:
        trajectory = integrate_flow(state0, problem, args.h, args.T)
    except (ValueError, FlowDivergenceError) as exc:
        raise SystemExit(f"flow: {exc}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        rows = flow_records(trajectory, problem, saddle)
    overflowed = next((row.t for row in rows
                       if not np.isfinite(row.E) or not np.isfinite(row.feasibility)), None)
    if overflowed is not None:
        raise SystemExit(f"flow: energy or feasibility overflowed at t={overflowed:.6g}")
    emit_csv(rows, args.csv)
    print(f"flow: steps={len(rows) - 1} E(0)={rows[0].E:.6e} E(T)={rows[-1].E:.6e}")
    return 0


def _cmd_ddo(args):
    kind = "least_squares" if args.model == "ls" else "logistic"
    try:
        problem = ddo_mod.build_ddo_problem(args.graph, args.m, kind, args.seed,
                                            samples=args.samples, ridge=args.ridge)
    except ValueError as exc:
        raise SystemExit(f"ddo: {exc}") from None
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


def _cmd_robustness(args):
    lap = ddo_mod.graph_laplacian(args.graph)
    rng = np.random.default_rng(args.seed)
    s = rng.standard_normal(args.graph.n)
    rows = []
    for eps in args.eps_list:
        for method in args.methods:
            solve, name = _ROBUSTNESS_METHODS[method]
            v, iters, ok = solve(lap, eps, s, method=name, tol=args.tol, i_max=args.i_max)
            res = np.linalg.norm(s - (eps * v + lap @ v)) / np.linalg.norm(s)
            rows.append(RobustnessRecord(eps, method, iters, int(ok), float(res)))
            print(f"eps={eps:8.1e} {method:>12}: iters={iters} converged={ok}")
    emit_csv(rows, args.csv)
    return 0


def _cmd_compare(args):
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise SystemExit("compare needs at least one scheme")
    problem = _load(args.problem)
    configs = [SolverConfig(scheme=scheme, gamma0=args.gamma0, max_iter=args.max_iter,
                            stop_tol=args.stop_tol, alpha=args.alpha) for scheme in schemes]
    stem = os.path.splitext(os.path.basename(args.problem))[0]
    summaries = run_experiment(problem, configs, args.out_dir, stem)
    for s in summaries:
        line = f"{s.scheme}: status={s.status} iters={s.iterations} violations={s.violations}"
        if s.error:
            line += f" error={s.error}"
        print(line)
    return 0 if any(s.status != "error" for s in summaries) else 1


_AUDIT_COLUMNS = ("k", "epoch", "alpha", "theta", "gamma", "lyapunov")


def _cmd_audit(args):
    try:
        columns = read_csv(args.csv)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    missing = [name for name in _AUDIT_COLUMNS if name not in columns]
    if missing:
        raise SystemExit(f"{args.csv}: not a solve CSV, no column {', '.join(missing)}")
    for name in ("k", "epoch"):  # step indices: int() fails on nan or inf and truncates 1.5
        cells = columns[name]
        bad = cells[~np.isfinite(cells) | (cells != np.trunc(cells))]
        if bad.size:
            raise SystemExit(f"{args.csv}: column {name} must hold whole numbers, got {bad[0]:g}")
    rows = [SimpleNamespace(k=int(k), epoch=int(e), alpha=a, theta=t, gamma=g, lyapunov=ly)
            for k, e, a, t, g, ly in zip(*(columns[name] for name in _AUDIT_COLUMNS))]
    problem = _load(args.problem)
    config = SolverConfig(args.scheme)
    if len(rows) > 1:  # an implicit run steps by its first alpha throughout
        config.alpha = rows[1].alpha
    try:
        rule = make_step_rule(problem, config)
    except ValueError as exc:
        raise SystemExit(f"audit: {exc}") from None
    report = audit_records(rows, rule, problem.smooth.mu)
    print(f"audit: checked={report.checked} "
          f"contraction_violations={report.contraction_violations} "
          f"theta_bound_violations={report.theta_bound_violations}")
    return 0 if report.total == 0 else 1


_ALPHA_HELP = ("free step size of the implicit scheme; by default 49 where its subproblem "
               "is solved exactly (quadratic objective over the whole space), else 1")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="apd",
        description="Accelerated primal-dual solvers and benchmarks for "
                    "linearly constrained convex optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one scheme on a problem file")
    solve.add_argument("--problem", required=True)
    solve.add_argument("--scheme", required=True, choices=SCHEMES)
    solve.add_argument("--gamma0", type=_positive_float, default=1.0)
    solve.add_argument("--max-iter", type=_nonnegative_int, default=1000)
    solve.add_argument("--stop-tol", type=_tolerance, default=0.0)
    solve.add_argument("--alpha", type=_positive_float, default=None, help=_ALPHA_HELP)
    solve.add_argument("--csv", required=True)
    solve.add_argument("--timing", action="store_true",
                       help="record wall clocks (breaks rerun byte-identity)")
    solve.set_defaults(func=_cmd_solve)

    flow = sub.add_parser("flow", help="integrate the continuous flow")
    flow.add_argument("--problem", required=True)
    flow.add_argument("--h", type=float, required=True)
    flow.add_argument("--T", type=float, required=True)
    flow.add_argument("--gamma0", type=_positive_float, default=1.0)
    flow.add_argument("--csv", required=True)
    flow.set_defaults(func=_cmd_flow)

    ddo = sub.add_parser("ddo", help="decentralized optimization benchmark")
    ddo.add_argument("--graph", required=True, type=parse_graph_spec, help=_GRAPH_SPECS)
    ddo.add_argument("--m", type=_positive_int, required=True, help="block size per node")
    ddo.add_argument("--model", choices=("ls", "logistic"), required=True)
    ddo.add_argument("--algo", choices=ddo_mod.ALGORITHMS, required=True)
    ddo.add_argument("--max-iter", type=_nonnegative_int, required=True)
    ddo.add_argument("--stop-tol", type=_tolerance, default=0.0)
    ddo.add_argument("--seed", type=_nonnegative_int, default=0)
    ddo.add_argument("--samples", type=_positive_int, default=5,
                     help="least-squares rows per node")
    ddo.add_argument("--ridge", type=float, default=0.5,
                     help="logistic regularization")
    ddo.add_argument("--csv", required=True)
    ddo.add_argument("--timing", action="store_true")
    ddo.set_defaults(func=_cmd_ddo)

    robust = sub.add_parser("robustness",
                            help="iterative-solver robustness sweep over eps")
    robust.add_argument("--graph", required=True, type=parse_graph_spec, help=_GRAPH_SPECS)
    robust.add_argument("--eps-list", required=True, type=_eps_list,
                        help="comma-separated eps values")
    robust.add_argument("--methods", required=True, type=_method_list,
                        help=f"comma list from: {', '.join(_ROBUSTNESS_METHODS)}")
    robust.add_argument("--tol", type=_positive_float, default=1e-6)
    robust.add_argument("--i-max", type=_positive_int, default=100000)
    robust.add_argument("--seed", type=_nonnegative_int, default=0)
    robust.add_argument("--csv", required=True)
    robust.set_defaults(func=_cmd_robustness)

    compare = sub.add_parser("compare", help="run several schemes and summarize")
    compare.add_argument("--problem", required=True, help="problem file")
    compare.add_argument("--schemes", default="", help="comma list of schemes, run in order")
    compare.add_argument("--gamma0", type=_positive_float, default=1.0,
                         help="initial gamma")
    compare.add_argument("--max-iter", type=_nonnegative_int, default=1000,
                         help="step cap of each run")
    compare.add_argument("--stop-tol", type=_tolerance, default=0.0,
                         help="stop tolerance (0: none)")
    compare.add_argument("--alpha", type=_positive_float, default=None, help=_ALPHA_HELP)
    compare.add_argument("--out-dir", default=".", help="directory for the CSVs")
    compare.set_defaults(func=_cmd_compare)

    audit = sub.add_parser("audit", help="re-check the certificates of a solve CSV; the "
                           "step rule and mu come from the run's problem file")
    audit.add_argument("--csv", required=True, help="CSV written by solve or compare")
    audit.add_argument("--problem", required=True, help="problem file the run solved")
    audit.add_argument("--scheme", required=True, choices=SCHEMES,
                       help="scheme the run used")
    audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
