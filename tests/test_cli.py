import numpy as np
import pytest

import apd
from apd.cli import main


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_robustness_writes_one_row_per_method(tmp_path):
    methods = ["plain_jacobi", "plain_gs", "plain_sgs", "aug_jacobi", "aug_gs", "aug_sgs",
               "pcg_jacobi", "pcg_sgs"]
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
    assert all(converged["1e-6"][m] for m in ("aug_gs", "aug_sgs", "pcg_jacobi", "pcg_sgs"))
    assert not any(converged["1e-6"][m] for m in ("plain_jacobi", "plain_gs", "plain_sgs"))


@pytest.mark.parametrize("algo", ["apd", "extra"])
def test_ddo_writes_records(tmp_path, algo):
    csv = tmp_path / f"ddo_{algo}.csv"
    code = main(["ddo", "--graph", "geometric:12:0.6:1", "--m", "2", "--model", "ls",
                 "--algo", algo, "--max-iter", "20", "--csv", str(csv)])
    assert code == 0
    lines = read_lines(csv)
    assert lines[0] == "k,obj_gap,consensus_residual,inner_iters,wall_ns"
    assert len(lines) == 22  # header plus records k = 0..20


def test_ddo_apd_logistic_reaches_a_tight_tolerance(tmp_path, capsys):
    code = main(["ddo", "--graph", "geometric:12:0.5:3", "--m", "2", "--model", "logistic",
                 "--algo", "apd", "--max-iter", "500", "--stop-tol", "1e-9",
                 "--csv", str(tmp_path / "ddo.csv")])
    assert code == 0
    assert capsys.readouterr().out.startswith("ddo/apd: status=converged k=")


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


def test_compare_summarizes_each_scheme(tmp_path, capsys):
    problem = write_problem(tmp_path / "qp.txt", "quadratic")
    out_dir = tmp_path / "out"
    code = main(["compare", "--problem", problem, "--schemes", "semi_apd,ex_apdfb",
                 "--max-iter", "200", "--out-dir", str(out_dir), "--jobs", "1"])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["semi_apd", "ex_apdfb"]
    summary = read_lines(out_dir / "summary.csv")
    assert [line.split(",")[:2] for line in summary[1:]] == [["semi_apd", "max_iter"],
                                                             ["ex_apdfb", "max_iter"]]
    for scheme in ("semi_apd", "ex_apdfb"):
        assert len(read_lines(out_dir / f"qp_{scheme}.csv")) == 202


def test_compare_without_schemes_exits_with_one_line(tmp_path):
    problem = write_problem(tmp_path / "qp.txt", "quadratic")
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["compare", "--problem", problem, "--out-dir", str(out_dir)])
    assert info.value.code == "compare needs at least one scheme"
    assert not (out_dir / "summary.csv").exists()


def test_audit_passes_a_solver_csv(tmp_path, capsys):
    problem = write_problem(tmp_path / "qp.txt", "quadratic")
    csv = tmp_path / "solve.csv"
    assert main(["solve", "--problem", problem, "--scheme", "implicit",
                 "--max-iter", "20", "--csv", str(csv)]) == 0
    capsys.readouterr()
    code = main(["audit", "--csv", str(csv), "--scheme", "implicit"])
    assert capsys.readouterr().out == ("audit: checked=18 contraction_violations=0 "
                                       "theta_bound_violations=0\n")
    assert code == 0


def test_audit_checks_the_semi_apd_theta_bound(tmp_path, capsys):
    problem = write_problem(tmp_path / "qp.txt", "quadratic")
    loaded = apd.load_problem(problem)
    assert loaded.mu_beta > 0  # gamma moves, so the bound uses gamma_min < gamma0
    csv = tmp_path / "solve.csv"
    assert main(["solve", "--problem", problem, "--scheme", "semi_apd",
                 "--max-iter", "40", "--csv", str(csv)]) == 0
    capsys.readouterr()
    code = main(["audit", "--csv", str(csv), "--scheme", "semi_apd",
                 "--norm-a", repr(loaded.constraint.op_norm),
                 "--mu-beta", repr(loaded.mu_beta)])
    assert capsys.readouterr().out == ("audit: checked=39 contraction_violations=0 "
                                       "theta_bound_violations=0\n")
    assert code == 0
