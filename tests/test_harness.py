import math

import pytest

from apd.harness import RunSummary, emit_csv, read_csv


def test_summary_csv_keeps_a_comma_in_a_cell_to_one_column(tmp_path):
    path = tmp_path / "summary.csv"
    emit_csv([RunSummary("semi_apd", "error", 0, math.nan, math.nan, 0,
                         error="bad input, see above")], str(path))
    assert path.read_text(encoding="utf-8").splitlines() == [
        "scheme,status,iterations,final_obj_gap,final_feasibility,violations,error",
        "semi_apd,error,0,nan,nan,0,bad input; see above"]


def test_read_csv_rejects_a_row_of_another_width(tmp_path):
    # zip would cut such a row to its first cells, and an audit would check nothing
    path = tmp_path / "solve.csv"
    path.write_text("k,epoch,alpha,theta,gamma,lyapunov\n0,0,0,1,1,2\n\n1,0\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"solve\.csv: line 4 has 2 cells, the header 6$"):
        read_csv(str(path))
    path.write_text("k,obj_gap\n0,1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2 has 3 cells, the header 2"):
        read_csv(str(path))


def test_read_csv_names_the_line_and_column_of_a_cell_that_is_not_a_number(tmp_path):
    path = tmp_path / "solve.csv"
    path.write_text("k,epoch,alpha,theta,gamma,lyapunov\n0,0,0,1,1,nan\n1,0,1,0.5,inf,x\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"solve\.csv: line 3, column lyapunov: 'x' is not "
                                         r"a number$"):
        read_csv(str(path))
    path.write_text("k,lyapunov\n0,nan\n1,-inf\n", encoding="utf-8")
    columns = read_csv(str(path))
    assert math.isnan(columns["lyapunov"][0]) and columns["lyapunov"][1] == -math.inf
