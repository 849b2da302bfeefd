import math

from apd.harness import RunSummary, emit_csv


def test_summary_csv_keeps_a_comma_in_a_cell_to_one_column(tmp_path):
    path = tmp_path / "summary.csv"
    emit_csv([RunSummary("semi_apd", "error", 0, math.nan, math.nan, math.nan, math.nan, 0,
                         error="bad input, see above")], str(path))
    assert path.read_text(encoding="utf-8").splitlines() == [
        "scheme,status,iterations,final_obj_gap,final_feasibility,slope,r_squared,"
        "violations,error",
        "semi_apd,error,0,nan,nan,nan,nan,0,bad input; see above"]
