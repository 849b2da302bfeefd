import argparse
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from conftest import per_state_records

import apd
from apd.cli import build_parser, main
from apd.flow import FlowState, flow_records, integrate_flow
from apd.harness import read_csv
from apd.schedule import SCHEMES


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_robustness_writes_one_row_per_method(tmp_path):
    methods = ["plain_jacobi", "plain_sgs", "aug_jacobi", "aug_sgs", "pcg_jacobi", "pcg_sgs"]
    tol = 1e-6
    converged = {}
    # at eps 1e-2 every method converges; at 1e-6 the plain ones stall within 200 sweeps
    for eps, i_max in (("1e-2", 100000), ("1e-6", 200)):
        csv = tmp_path / f"robustness_{eps}.csv"
        code = main(["robustness", "--graph", "path:6", "--eps-list", eps,
                     "--methods", ",".join(methods), "--tol", str(tol),
                     "--i-max", str(i_max), "--csv", str(csv)])
        assert code == 0
        lines = read_lines(csv)
        assert lines[0] == "eps,method,iterations,converged,relative_residual"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[1] for row in rows] == methods
        converged[eps] = {row[1]: row[3] == "1" for row in rows}
        for row in rows:
            if row[3] == "1":
                assert float(row[4]) <= tol
    assert all(converged["1e-2"].values())
    assert all(converged["1e-6"][m] for m in ("aug_sgs", "pcg_jacobi", "pcg_sgs"))
    assert not any(converged["1e-6"][m] for m in ("plain_jacobi", "plain_sgs"))


def test_robustness_damped_jacobi_converges_on_a_path(tmp_path):
    # path:6 is bipartite: the undamped bordered Jacobi sweep has an
    # eigenvalue -1 + 6e-7 at eps 1e-6 and ran 100 000 sweeps unconverged
    csv = tmp_path / "robustness.csv"
    assert main(["robustness", "--graph", "path:6", "--eps-list", "1e-6",
                 "--methods", "aug_jacobi", "--csv", str(csv)]) == 0
    _, method, iters, converged, residual = read_lines(csv)[1].split(",")
    assert (method, converged) == ("aug_jacobi", "1")
    assert int(iters) < 1000 and float(residual) <= 1e-6


@pytest.mark.parametrize("algo", ["apd", "extra"])
def test_ddo_writes_records(tmp_path, algo):
    csv = tmp_path / f"ddo_{algo}.csv"
    code = main(["ddo", "--graph", "geometric:12:0.6:1", "--m", "2", "--model", "ls",
                 "--algo", algo, "--max-iter", "20", "--csv", str(csv)])
    assert code == 0
    lines = read_lines(csv)
    assert lines[0] == "k,obj_gap,consensus_residual,wall_ns"
    assert len(lines) == 22  # header plus records k = 0..20


def test_ddo_apd_logistic_reaches_a_tight_tolerance(tmp_path, capsys):
    code = main(["ddo", "--graph", "geometric:12:0.5:3", "--m", "2", "--model", "logistic",
                 "--algo", "apd", "--max-iter", "500", "--stop-tol", "1e-9",
                 "--csv", str(tmp_path / "ddo.csv")])
    assert code == 0
    assert capsys.readouterr().out.startswith("ddo/apd: status=converged k=")


def test_ddo_apd_without_a_tolerance_stops_at_the_precision_floor(tmp_path, capsys):
    csv = tmp_path / "ddo.csv"
    code = main(["ddo", "--graph", "geometric:12:0.5:3", "--m", "2", "--model", "logistic",
                 "--algo", "apd", "--max-iter", "5000", "--csv", str(csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("ddo/apd: status=precision_floor k=")
    last_k = int(out.split(" k=")[1].split()[0])
    assert last_k < 5000
    assert len(read_lines(csv)) == last_k + 2  # header plus records k = 0..last_k


def write_problem(path, kind):
    """Tiny seeded problem file: diagonal QP (has a reference saddle) or lasso."""
    rng = np.random.default_rng(7)
    amat = rng.standard_normal((2, 6))
    constraint = apd.MatrixConstraint(amat, rng.standard_normal(2))
    if kind == "quadratic":
        problem = apd.ProblemInstance(apd.QuadraticObjective(rng.uniform(0.5, 2.0, 6)),
                                      apd.ZeroProx(), constraint)
    else:
        problem = apd.ProblemInstance(apd.QuadraticObjective(np.ones(6)),
                                      apd.L1Prox(0.3), constraint)
    apd.save_problem(problem, path)
    return str(path)


def test_solve_stops_on_the_kkt_residual(tmp_path, capsys):
    problem = write_problem(tmp_path / "lasso.txt", "lasso")
    csv = tmp_path / "solve.csv"
    code = main(["solve", "--problem", problem, "--scheme", "ex_apdfb",
                 "--max-iter", "3000", "--stop-tol", "1e-4", "--csv", str(csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("ex_apdfb: status=converged k=")
    k = int(out.split("k=")[1].split()[0])
    lines = read_lines(csv)
    assert lines[0] == ("k,epoch,alpha,theta,gamma,obj_gap,feasibility,lagrangian_gap,"
                        "lyapunov,inner_iters,wall_ns")
    assert len(lines) == k + 2  # header plus records k = 0..k


@pytest.mark.parametrize("scheme", ["semi_apdfb", "ex_apdfb"])
def test_solve_ends_on_a_polish_that_audit_accepts(tmp_path, capsys, scheme):
    # the closing record of a polish: alpha = 0 at k > 0, in an epoch of its own
    problem = write_problem(tmp_path / "lasso.txt", "lasso")
    csv = tmp_path / "solve.csv"
    assert main(["solve", "--problem", problem, "--scheme", scheme,
                 "--stop-tol", "1e-6", "--csv", str(csv)]) == 0
    assert capsys.readouterr().out.startswith(f"{scheme}: status=converged k=")
    cols = read_csv(csv)
    assert cols["k"][-1] == cols["k"][-2] + 1 and cols["epoch"][-1] == cols["epoch"][-2] + 1
    assert cols["alpha"][-1] == 0 and (cols["alpha"][1:-1] > 0).all()
    code = main(["audit", "--csv", str(csv), "--problem", problem, "--scheme", scheme])
    assert capsys.readouterr().out.endswith("contraction_violations=0 "
                                            "theta_bound_violations=0\n")
    assert code == 0


def test_flow_writes_one_row_per_step(tmp_path):
    problem = write_problem(tmp_path / "qp.txt", "quadratic")
    csv = tmp_path / "flow.csv"
    code = main(["flow", "--problem", problem, "--h", "0.01", "--T", "0.5",
                 "--csv", str(csv)])
    assert code == 0
    lines = read_lines(csv)
    assert lines[0] == "t,E,feasibility,theta,gamma"
    assert len(lines) == 52  # header plus t = 0, 0.01, ..., 0.5


def test_flow_without_a_reference_exits_with_one_line(tmp_path):
    problem = write_problem(tmp_path / "lasso.txt", "lasso")
    with pytest.raises(SystemExit) as info:
        main(["flow", "--problem", problem, "--h", "0.01", "--T", "0.1",
              "--csv", str(tmp_path / "flow.csv")])
    assert info.value.code == ("flow needs a reference saddle point: "
                               "no closed-form reference for this problem")


def write_beta_problem(path):
    """The diagonal QP file with a header beta of 0.25, which the loader rejects."""
    write_problem(path, "quadratic")
    header, *rest = read_lines(path)
    n, m, _ = header.split()
    path.write_text("\n".join([f"{n} {m} 0.25", *rest]) + "\n", encoding="utf-8")


def write_flat_problem(path):
    """The QP of :func:`write_problem` with ``Q = 0``, so its ``L`` is 0."""
    constraint = apd.load_problem(write_problem(path, "quadratic")).constraint
    apd.save_problem(apd.ProblemInstance(apd.QuadraticObjective(np.zeros(6)), apd.ZeroProx(),
                                         constraint), path)


def write_stiff_problem(path):
    """The QP of :func:`write_problem` with ``Q_11 = 1e6``: fixed RK4 steps of
    0.01 are unstable on that coordinate, so the flow blows up."""
    problem = apd.load_problem(write_problem(path, "quadratic"))
    diag = problem.smooth.diag.copy()
    diag[0] = 1e6
    apd.save_problem(apd.ProblemInstance(apd.QuadraticObjective(diag), apd.ZeroProx(),
                                         problem.constraint), path)


@pytest.mark.parametrize("first", [0, 5], ids=["from-start", "mid-block"])
def test_flow_records_mark_the_overflowing_states_the_one_point_formula_marks(tmp_path, first):
    # the stiff flow's E overflows from the 65th state on, the first row of a
    # block of 16; from the 6th state on it is the 12th row, and the 11 rows
    # before it in that block must stay finite
    write_stiff_problem(tmp_path / "stiff.txt")
    problem = apd.load_problem(tmp_path / "stiff.txt")
    saddle = apd.solve_reference_saddle(problem)
    n, m = problem.constraint.cols, problem.constraint.rows
    start = FlowState(np.zeros(n), np.zeros(n), np.zeros(m), 1.0, 1.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        trajectory = integrate_flow(start, problem, 0.01, 1.0)[first:]
        rows = flow_records(trajectory, problem, saddle)
        expected = per_state_records(trajectory, problem, saddle)
    marked = [not (np.isfinite(row.E) and np.isfinite(row.feasibility)) for row in rows]
    assert marked == [not np.isfinite(pair).all() for pair in expected]
    assert marked.index(True) == 64 - first and marked == sorted(marked)
    with pytest.raises(SystemExit) as info:
        main(["flow", "--problem", str(tmp_path / "stiff.txt"), "--h", "0.01", "--T", "1",
              "--csv", str(tmp_path / "out.csv")])
    assert info.value.code.endswith(f"at t={trajectory[marked.index(True)].t:.6g}")


# problem files the loader rejects, each with the message that names the file
BAD_PROBLEM_FILES = {
    "m-negative.txt": "2 -1 0 1 2 3 quadratic 1 1",
    "n-zero.txt": "0 0 0 quadratic",
    "n-fraction.txt": "2.5 1 0 1 1 1 quadratic 1 1",
    "rows-zero.txt": "2 1 0 1 1 1 logistic 0.1 0",
    "diag-nan.txt": "2 1 0 1 1 1 quadratic nan 1",
    "weight-nan.txt": "2 1 0 1 1 1 lasso nan",
    "feature-nan.txt": "2 1 0 1 1 1 logistic 0.1 1 nan 1 1",
    "rhs-inf.txt": "2 1 0 1 1 inf quadratic 1 1",
    "ridge-negative.txt": "2 1 0 1 1 1 logistic -2 1 1 1 1",
    "word.txt": "2 1 0 1 x 1 quadratic 1 1",
}


def test_solve_rejects_a_nonzero_beta_with_one_line(tmp_path):
    path = tmp_path / "qp.txt"
    write_beta_problem(path)
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", str(path), "--scheme", "implicit",
              "--csv", str(tmp_path / "solve.csv")])
    assert info.value.code == f"{path}: header beta must be 0 (no augmentation term)"


def test_compare_summarizes_each_scheme(tmp_path, capsys):
    problem = write_problem(tmp_path / "qp.txt", "quadratic")
    out_dir = tmp_path / "out"
    code = main(["compare", "--problem", problem, "--schemes", "semi_apd,ex_apdfb",
                 "--max-iter", "200", "--out-dir", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["semi_apd", "ex_apdfb"]
    summary = read_lines(out_dir / "summary.csv")
    assert [line.split(",")[:2] for line in summary[1:]] == [["semi_apd", "max_iter"],
                                                             ["ex_apdfb", "max_iter"]]
    for scheme in ("semi_apd", "ex_apdfb"):
        assert len(read_lines(out_dir / f"qp_{scheme}.csv")) == 202
    rerun = tmp_path / "rerun"
    main(["compare", "--problem", problem, "--schemes", "semi_apd,ex_apdfb",
          "--max-iter", "200", "--out-dir", str(rerun)])
    for name in ("summary.csv", "qp_semi_apd.csv", "qp_ex_apdfb.csv"):
        assert (out_dir / name).read_bytes() == (rerun / name).read_bytes()


def test_compare_without_schemes_exits_with_one_line(tmp_path):
    problem = write_problem(tmp_path / "qp.txt", "quadratic")
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["compare", "--problem", problem, "--out-dir", str(out_dir)])
    assert info.value.code == "compare needs at least one scheme"
    assert not (out_dir / "summary.csv").exists()


@pytest.mark.parametrize("argv,message", [
    ("ddo --graph foo:3 --m 2 --model ls --algo apd --max-iter 5 --csv {tmp}/out.csv",
     "argument --graph: 'foo:3': not a graph spec"),
    ("ddo --graph grid:3 --m 2 --model ls --algo apd --max-iter 5 --csv {tmp}/out.csv",
     "argument --graph: 'grid:3': not enough values to unpack"),
    ("ddo --graph path:0 --m 2 --model ls --algo apd --max-iter 5 --csv {tmp}/out.csv",
     "argument --graph: 'path:0': graph is not connected"),
    ("robustness --graph path:6 --eps-list 1e-3,abc --methods pcg_sgs --csv {tmp}/out.csv",
     "argument --eps-list: could not convert string to float: 'abc'"),
    ("robustness --graph path:6 --eps-list , --methods pcg_sgs --csv {tmp}/out.csv",
     "argument --eps-list: needs one or more positive eps values"),
    ("robustness --graph path:6 --eps-list 1e-3,0 --methods pcg_sgs --csv {tmp}/out.csv",
     "argument --eps-list: needs one or more positive eps values"),
    ("robustness --graph path:6 --eps-list 1e-3 --methods , --csv {tmp}/out.csv",
     "argument --methods: expected a comma list from: plain_jacobi"),
    ("flow --problem {tmp}/qp.txt --h 0.02 --T 1 --csv {tmp}/out.csv",
     "flow: step must lie in (0, 0.01]"),
    ("compare --problem {tmp}/beta.txt --schemes implicit --out-dir {tmp}/out",
     "header beta must be 0 (no augmentation term)"),
    ("compare --problem {tmp}/missing.txt --schemes implicit --out-dir {tmp}/out",
     "No such file or directory"),
    ("solve --problem {tmp}/missing.txt --scheme implicit --csv {tmp}/out.csv",
     "No such file or directory"),
    ("ddo --graph path:4 --m 0 --model ls --algo apd --max-iter 5 --csv {tmp}/out.csv",
     "argument --m: expected a positive integer, got '0'"),
    ("ddo --graph path:4 --m 2 --samples 0 --model ls --algo apd --max-iter 5 "
     "--csv {tmp}/out.csv",
     "argument --samples: expected a positive integer, got '0'"),
    ("solve --problem {tmp}/qp.txt --scheme implicit --alpha 0 --csv {tmp}/out.csv",
     "argument --alpha: expected a positive number, got '0'"),
    ("solve --problem {tmp}/qp.txt --scheme implicit --gamma0 0 --csv {tmp}/out.csv",
     "argument --gamma0: expected a positive number, got '0'"),
    ("flow --problem {tmp}/qp.txt --h 0.01 --T 1 --gamma0 0 --csv {tmp}/out.csv",
     "argument --gamma0: expected a positive number, got '0'"),
    ("audit --csv {tmp}/missing.csv --problem {tmp}/qp.txt --scheme implicit",
     "No such file or directory"),
    ("audit --csv {tmp}/empty.csv --problem {tmp}/qp.txt --scheme implicit",
     "empty.csv: empty CSV, no header"),
    ("audit --csv {tmp}/ddo.csv --problem {tmp}/qp.txt --scheme implicit",
     "ddo.csv: not a solve CSV, no column epoch, alpha, theta, gamma, lyapunov"),
    ("audit --csv {tmp}/solve.csv --problem {tmp}/missing.txt --scheme implicit",
     "No such file or directory"),
    ("audit --csv {tmp}/solve.csv --problem {tmp}/flat.txt --scheme semi_apdfb",
     "audit: semi_apdfb step needs a positive smoothness constant"),
    ("ddo --graph path:4 --m 2 --model logistic --algo apd --ridge -1 --max-iter 5 "
     "--csv {tmp}/out.csv",
     "ddo: ridge must be finite and nonnegative, got -1.0"),
    ("ddo --graph path:4 --m 2 --model logistic --algo apd --ridge -0.2 --max-iter 5 "
     "--csv {tmp}/out.csv",
     "ddo: ridge must be finite and nonnegative, got -0.2"),
    ("ddo --graph path:4 --m 2 --model logistic --algo apd --ridge nan --max-iter 5 "
     "--csv {tmp}/out.csv",
     "ddo: ridge must be finite and nonnegative, got nan"),
    ("ddo --graph path:4 --m 2 --model logistic --algo extra --ridge -1 --max-iter 5 "
     "--csv {tmp}/out.csv",
     "ddo: ridge must be finite and nonnegative, got -1.0"),
    ("robustness --graph path:6 --eps-list 1e-3 --methods pcg_sgs --tol -1 "
     "--csv {tmp}/out.csv",
     "argument --tol: expected a positive number, got '-1'"),
    ("robustness --graph path:6 --eps-list 1e-3 --methods pcg_sgs --i-max -1 "
     "--csv {tmp}/out.csv",
     "argument --i-max: expected a positive integer, got '-1'"),
    ("solve --problem {tmp}/lasso.txt --scheme implicit --csv {tmp}/out.csv",
     "solve: implicit subproblem needs a quadratic objective or a pure prox part"),
    ("solve --problem {tmp}/lasso.txt --scheme semi_apd --csv {tmp}/out.csv",
     "solve: full-objective prox needs a quadratic smooth part or a pure prox part"),
    ("solve --problem {tmp}/flat.txt --scheme semi_apdfb --csv {tmp}/out.csv",
     "solve: semi_apdfb step needs a positive smoothness constant"),
    ("flow --problem {tmp}/qp.txt --h 0.01 --T inf --csv {tmp}/out.csv",
     "flow: horizon must be finite and nonnegative"),
    ("flow --problem {tmp}/qp.txt --h 0.01 --T nan --csv {tmp}/out.csv",
     "flow: horizon must be finite and nonnegative"),
    ("flow --problem {tmp}/qp.txt --h nan --T 1 --csv {tmp}/out.csv",
     "flow: step must lie in (0, 0.01]"),
    ("flow --problem {tmp}/stiff.txt --h 0.01 --T 2 --csv {tmp}/out.csv",
     "flow: flow diverged near t="),
    ("flow --problem {tmp}/stiff.txt --h 0.01 --T 1 --csv {tmp}/out.csv",
     "flow: energy or feasibility overflowed at t="),
    ("audit --csv {tmp}/ragged.csv --problem {tmp}/qp.txt --scheme implicit",
     "ragged.csv: line 3 has 2 cells, the header 6"),
    ("audit --csv {tmp}/cell.csv --problem {tmp}/qp.txt --scheme implicit",
     "cell.csv: line 3, column lyapunov: 'x' is not a number"),
    ("solve --problem {tmp}/qp.txt --scheme semi_apd --max-iter -3 --csv {tmp}/out.csv",
     "argument --max-iter: expected a nonnegative integer, got '-3'"),
    ("solve --problem {tmp}/qp.txt --scheme semi_apd --stop-tol nan --csv {tmp}/out.csv",
     "argument --stop-tol: expected a finite nonnegative number, got 'nan'"),
    ("solve --problem {tmp}/qp.txt --scheme semi_apd --stop-tol inf --csv {tmp}/out.csv",
     "argument --stop-tol: expected a finite nonnegative number, got 'inf'"),
    ("ddo --graph path:4 --m 2 --model ls --algo apd --max-iter -2 --csv {tmp}/out.csv",
     "argument --max-iter: expected a nonnegative integer, got '-2'"),
    ("ddo --graph path:4 --m 2 --model ls --algo apd --max-iter 5 --stop-tol inf "
     "--csv {tmp}/out.csv",
     "argument --stop-tol: expected a finite nonnegative number, got 'inf'"),
    ("compare --problem {tmp}/qp.txt --schemes semi_apd --max-iter -1 --out-dir {tmp}/out",
     "argument --max-iter: expected a nonnegative integer, got '-1'"),
    ("compare --problem {tmp}/qp.txt --schemes semi_apd --stop-tol -0.001 "
     "--out-dir {tmp}/out",
     "argument --stop-tol: expected a finite nonnegative number, got '-0.001'"),
    ("robustness --graph path:6 --eps-list 1e-3,1e400 --methods pcg_sgs --csv {tmp}/out.csv",
     "argument --eps-list: needs one or more positive eps values, each finite"),
    ("ddo --graph path:4 --m 2 --model ls --algo aqp --max-iter 5 --csv {tmp}/out.csv",
     "argument --algo: invalid choice: 'aqp' (choose from 'apd', 'extra')"),
    ("solve --problem {tmp}/m-negative.txt --scheme semi_apdfb --csv {tmp}/out.csv",
     "m-negative.txt: m must be a positive integer, got '-1'"),
    ("solve --problem {tmp}/n-zero.txt --scheme semi_apdfb --csv {tmp}/out.csv",
     "n-zero.txt: n must be a positive integer, got '0'"),
    ("flow --problem {tmp}/n-fraction.txt --h 0.01 --T 1 --csv {tmp}/out.csv",
     "n-fraction.txt: n must be a positive integer, got '2.5'"),
    ("solve --problem {tmp}/rows-zero.txt --scheme semi_apdfb --csv {tmp}/out.csv",
     "rows-zero.txt: rows must be a positive integer, got '0'"),
    ("solve --problem {tmp}/diag-nan.txt --scheme semi_apdfb --csv {tmp}/out.csv",
     "diag-nan.txt: numbers must be finite, got NaN or inf"),
    ("solve --problem {tmp}/weight-nan.txt --scheme implicit --csv {tmp}/out.csv",
     "weight-nan.txt: numbers must be finite, got NaN or inf"),
    ("compare --problem {tmp}/feature-nan.txt --schemes semi_apdfb --out-dir {tmp}/out",
     "feature-nan.txt: numbers must be finite, got NaN or inf"),
    ("solve --problem {tmp}/rhs-inf.txt --scheme semi_apdfb --csv {tmp}/out.csv",
     "rhs-inf.txt: numbers must be finite, got NaN or inf"),
    ("solve --problem {tmp}/word.txt --scheme semi_apdfb --csv {tmp}/out.csv",
     "word.txt: could not convert string to float: 'x'"),
    ("solve --problem {tmp}/ridge-negative.txt --scheme semi_apdfb --csv {tmp}/out.csv",
     "ridge-negative.txt: ridge must be finite and nonnegative, got -2.0"),
], ids=["graph-kind", "graph-grid", "graph-disconnected", "eps-float", "eps-empty",
        "eps-zero", "methods-empty", "flow-step", "compare-beta", "compare-missing",
        "solve-missing", "ddo-m-zero", "ddo-samples-zero", "solve-alpha-zero",
        "solve-gamma0-zero", "flow-gamma0-zero", "audit-csv-missing", "audit-csv-empty",
        "audit-csv-ddo", "audit-problem-missing", "audit-zero-lip", "ddo-ridge-negative",
        "ddo-ridge-small", "ddo-ridge-nan", "ddo-extra-ridge-negative", "robustness-tol",
        "robustness-i-max", "solve-lasso-implicit", "solve-lasso-semi-apd", "solve-zero-lip",
        "flow-horizon-inf", "flow-horizon-nan", "flow-step-nan", "flow-diverges",
        "flow-energy-overflows", "audit-csv-ragged", "audit-csv-cell", "solve-max-iter-negative",
        "solve-stop-tol-nan", "solve-stop-tol-inf", "ddo-max-iter-negative", "ddo-stop-tol-inf",
        "compare-max-iter-negative", "compare-stop-tol-negative", "eps-overflows-to-inf",
        "ddo-algo-aqp", "file-m-negative", "file-n-zero", "file-n-fraction",
        "file-rows-zero", "file-diag-nan", "file-weight-nan", "file-feature-nan",
        "file-rhs-inf", "file-word", "file-ridge-negative"])
def test_bad_input_exits_without_a_traceback(tmp_path, capsys, argv, message):
    qp = write_problem(tmp_path / "qp.txt", "quadratic")
    write_problem(tmp_path / "lasso.txt", "lasso")
    write_beta_problem(tmp_path / "beta.txt")
    write_flat_problem(tmp_path / "flat.txt")
    write_stiff_problem(tmp_path / "stiff.txt")
    for name, text in BAD_PROBLEM_FILES.items():
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    (tmp_path / "empty.csv").write_text("", encoding="utf-8")
    (tmp_path / "ragged.csv").write_text("k,epoch,alpha,theta,gamma,lyapunov\n"
                                         "0,0,0,1,1,2\n1,0\n", encoding="utf-8")
    (tmp_path / "cell.csv").write_text("k,epoch,alpha,theta,gamma,lyapunov\n"
                                       "0,0,0,1,1,2\n1,0,1,0.5,1,x\n", encoding="utf-8")
    assert main(["ddo", "--graph", "path:4", "--m", "2", "--model", "ls", "--algo", "apd",
                 "--max-iter", "2", "--csv", str(tmp_path / "ddo.csv")]) == 0
    assert main(["solve", "--problem", qp, "--scheme", "implicit", "--max-iter", "2",
                 "--csv", str(tmp_path / "solve.csv")]) == 0
    argv = argv.format(tmp=tmp_path).split()
    with pytest.raises(SystemExit) as info:
        main(argv)
    if info.value.code == 2:  # argparse's usage error
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith(f"apd {argv[0]}: error: {message}")
    else:
        assert "\n" not in info.value.code and message in info.value.code
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_audit_reads_the_run_constants_from_the_problem_file(tmp_path, capsys, scheme):
    problem = write_problem(tmp_path / "qp.txt", "quadratic")
    assert apd.load_problem(problem).smooth.mu > 0  # gamma moves, so gamma_min < gamma0
    csv = tmp_path / "solve.csv"
    assert main(["solve", "--problem", problem, "--scheme", scheme,
                 "--max-iter", "40", "--csv", str(csv)]) == 0
    capsys.readouterr()
    code = main(["audit", "--csv", str(csv), "--problem", problem, "--scheme", scheme])
    epochs = read_csv(csv)["epoch"]
    within = int(np.sum(epochs[1:] == epochs[:-1]))  # step pairs not across a restart
    assert capsys.readouterr().out == (f"audit: checked={within} contraction_violations=0 "
                                       "theta_bound_violations=0\n")
    assert code == 0


def test_solve_derives_the_implicit_step_and_audit_checks_it(tmp_path, capsys):
    # no --alpha: the QP's subproblem is solved exactly, so the step is 49
    problem = write_problem(tmp_path / "qp.txt", "quadratic")
    csv = tmp_path / "solve.csv"
    assert main(["solve", "--problem", problem, "--scheme", "implicit",
                 "--max-iter", "12", "--csv", str(csv)]) == 0
    assert set(read_csv(csv)["alpha"][1:]) == {49.0}
    capsys.readouterr()
    code = main(["audit", "--csv", str(csv), "--problem", problem, "--scheme", "implicit"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("contraction_violations=0 theta_bound_violations=0\n")
    assert int(out.split("checked=")[1].split()[0]) > 0


def test_every_readme_example_parses():
    # a name the command line no longer takes (an algorithm, a method) in the
    # documented examples is a usage error here, not a surprise for a reader
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    prefix = "python -m apd.cli "
    examples = [line[len(prefix):] for line in text.replace("\\\n", " ").splitlines()
                if line.startswith(prefix)]
    parser = build_parser()
    commands = [parser.parse_args(shlex.split(example)).command for example in examples]
    assert sorted(commands) == ["audit", "compare", "ddo", "flow", "robustness", "solve"]


@pytest.mark.parametrize("command", ["solve", "ddo"])
def test_timing_records_a_wall_clock_per_step(tmp_path, command):
    csv = tmp_path / "out.csv"
    if command == "solve":
        argv = ["solve", "--problem", write_problem(tmp_path / "qp.txt", "quadratic"),
                "--scheme", "semi_apd"]
    else:
        argv = ["ddo", "--graph", "path:4", "--m", "2", "--model", "ls", "--algo", "apd"]
    assert main([*argv, "--max-iter", "5", "--timing", "--csv", str(csv)]) == 0
    columns = read_csv(csv)
    assert list(columns["k"]) == [0, 1, 2, 3, 4, 5]
    assert columns["wall_ns"][0] == 0 and all(columns["wall_ns"][1:] > 0)


@pytest.mark.parametrize("argv", [
    ["ddo", "--graph", "path:4", "--m", "2", "--model", "ls", "--algo", "extra",
     "--max-iter", "5"],
    ["robustness", "--graph", "path:6", "--eps-list", "1e-2", "--methods", "pcg_sgs"],
], ids=["ddo", "robustness"])
def test_seed_draws_the_data(tmp_path, argv):
    def run(seed, name):
        csv = tmp_path / name
        assert main([*argv, "--seed", str(seed), "--csv", str(csv)]) == 0
        return csv.read_bytes()

    first = run(3, "first.csv")
    assert run(3, "again.csv") == first
    assert run(4, "other.csv") != first


def test_every_option_is_exercised_here():
    # an option that no test passes can break unseen; the lookahead keeps a
    # short option from matching inside a longer one that starts with it
    text = Path(__file__).read_text(encoding="utf-8")
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {option for sub in commands.choices.values() for action in sub._actions
               for option in action.option_strings if option.startswith("--")}
    missing = sorted(option for option in options - {"--help"}
                     if not re.search(re.escape(option) + r"(?![\w-])", text))
    assert missing == []
