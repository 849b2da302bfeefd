import pytest

from apd.cli import main


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_robustness_writes_one_row_per_method(tmp_path):
    csv = tmp_path / "robustness.csv"
    code = main(["robustness", "--graph", "path:6", "--eps-list", "1e-2",
                 "--methods", "aug_sgs,plain_sgs,pcg_jacobi", "--csv", str(csv)])
    assert code == 0
    lines = read_lines(csv)
    assert lines[0] == "eps,method,iterations,converged,relative_residual"
    assert [line.split(",")[1] for line in lines[1:]] == ["aug_sgs", "plain_sgs",
                                                           "pcg_jacobi"]


@pytest.mark.parametrize("algo", ["apd", "extra"])
def test_ddo_writes_records(tmp_path, algo):
    csv = tmp_path / f"ddo_{algo}.csv"
    code = main(["ddo", "--graph", "geometric:12:0.6:1", "--m", "2", "--model", "ls",
                 "--algo", algo, "--max-iter", "20", "--csv", str(csv)])
    assert code == 0
    lines = read_lines(csv)
    assert lines[0] == "k,obj_gap,consensus_residual,inner_iters,wall_ns"
    assert len(lines) == 22  # header plus records k = 0..20
