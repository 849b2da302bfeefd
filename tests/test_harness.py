import math

import pytest

from apd.harness import ExperimentConfig, RunSummary, emit_csv, parse_experiment_config


def write_config(tmp_path, text):
    path = tmp_path / "experiment.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_experiment_config_maps_each_key_to_its_field(tmp_path):
    cfg = parse_experiment_config(write_config(tmp_path, "\n".join([
        "problem.file = qp.txt", "schemes = semi_apd, ex_apdfb", "gamma0 = 2.5",
        "max_iter = 40", "stop_tol = 1e-6", "step.alpha = 0.5",
        "out.dir = out", "jobs = 3", "fit.window = 0.75", "fit.mode = linear"])))
    assert cfg == ExperimentConfig(
        problem_file="qp.txt", schemes=("semi_apd", "ex_apdfb"), gamma0=2.5,
        max_iter=40, stop_tol=1e-6, alpha=0.5, out_dir="out", jobs=3, fit_window=0.75,
        fit_mode="linear")


def test_parse_experiment_config_skips_comments_and_blank_lines(tmp_path):
    cfg = parse_experiment_config(write_config(
        tmp_path, "# a comment\n\n   \nmax_iter = 7  # trailing comment\n#jobs = 4\n"))
    assert cfg == ExperimentConfig(max_iter=7)


@pytest.mark.parametrize("line,message", [
    ("seed = 3", "unknown config key 'seed'"),
    ("beta = 0.25", "unknown config key 'beta'"),
    ("schemes: semi_apd", "bad config line"),
])
def test_parse_experiment_config_rejects_bad_lines(tmp_path, line, message):
    with pytest.raises(ValueError, match=message):
        parse_experiment_config(write_config(tmp_path, line + "\n"))


def test_summary_csv_keeps_a_comma_in_a_cell_to_one_column(tmp_path):
    path = tmp_path / "summary.csv"
    emit_csv([RunSummary("semi_apd", "error", 0, math.nan, math.nan, math.nan, math.nan, 0,
                         error="bad input, see above")], str(path))
    assert path.read_text(encoding="utf-8").splitlines() == [
        "scheme,status,iterations,final_obj_gap,final_feasibility,slope,r_squared,"
        "violations,error",
        "semi_apd,error,0,nan,nan,nan,nan,0,bad input; see above"]
