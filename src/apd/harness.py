"""Experiment orchestration: batch runs, certificate audits, CSV I/O."""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .schedule import restart_scaling, theta_upper_bound
from .solvers import make_step_rule, run_solver

# Contraction and theta-bound checks run against these slacks; an extra
# absolute floor keeps cancellation noise in tiny Lyapunov values from
# counting as violations.
CONTRACTION_SLACK = 1e-9
THETA_BOUND_SLACK = 1e-12
LYAPUNOV_NOISE_FLOOR = 5e-13


def format_value(value):
    """CSV cell formatting: 17 significant digits, round-trip exact.

    Strings (such as a method name) pass through with each ``,`` written as
    ``;``, so a cell never splits into two columns.
    """
    if isinstance(value, str):
        return value.replace(",", ";")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def emit_csv(records, path):
    """Write dataclass records as CSV: exact header, LF endings, atomic."""
    if records:
        header = [f.name for f in dataclasses.fields(records[0])]
    else:
        raise ValueError("cannot infer a header from an empty record list")
    lines = [",".join(header)]
    for rec in records:
        lines.append(",".join(format_value(getattr(rec, name)) for name in header))
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(path):
    """Parse a CSV written by :func:`emit_csv` into a dict of float columns.

    An empty file, a row whose cell count differs from the header's or a
    cell that is not a number (``nan`` and ``inf`` are) raises ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(number, ln) for number, ln in enumerate(fh.read().split("\n"), start=1)
                 if ln]
    if not lines:
        raise ValueError(f"{path}: empty CSV, no header")
    header = lines[0][1].split(",")
    columns = {name: [] for name in header}
    for number, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {number} has {len(cells)} cells, "
                             f"the header {len(header)}")
        for name, cell in zip(header, cells):
            try:
                columns[name].append(float(cell))
            except ValueError:
                raise ValueError(f"{path}: line {number}, column {name}: "
                                 f"{cell!r} is not a number") from None
    return {name: np.array(vals) for name, vals in columns.items()}


# ---------------------------------------------------------------------------
# certificate auditing
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    contraction_violations: int = 0
    theta_bound_violations: int = 0
    checked: int = 0

    @property
    def total(self):
        return self.contraction_violations + self.theta_bound_violations


def audit_records(records, rule=None, mu_beta=0.0):
    """Re-check the contraction and decay certificates on recorded runs.

    Each epoch of a run is a fresh run of the scheme, so the certificates
    hold inside an epoch and only the pair of records across a restart goes
    unchecked. Contraction compares consecutive Lyapunov values against the
    recorded step size; Lyapunov values under the noise floor are skipped
    (cancellation noise). The decay bound needs the run's step rule ``rule``
    (:func:`~apd.solvers.make_step_rule`) and the ``mu`` of its smooth part,
    ``mu_beta``. It reads ``gamma0`` from the first record, counts ``k`` from
    the epoch's start and takes the ``gamma`` the epoch started with
    (:func:`~apd.schedule.restart_scaling`).

    A run that ends on a polish closes with a record at ``k > 0`` with
    ``alpha = 0`` in an epoch of its own (:func:`~apd.solvers.run_solver`).
    No scheme step made it, so it is checked against neither certificate:
    its ``theta`` is that of the last step, whose epoch may have started
    from another ``gamma`` than the restart rule gives.
    """
    report = AuditReport()
    prev = None
    scale = max((r.lyapunov for r in records if np.isfinite(r.lyapunov)), default=1.0)
    floor = LYAPUNOV_NOISE_FLOOR * max(scale, 1.0)
    gamma0 = records[0].gamma if records else None
    start_k, start_gamma = 0, gamma0
    for rec in records:
        restarted = prev is not None and rec.epoch != prev.epoch
        if restarted and rule is not None:
            start_k = prev.k
            start_gamma = restart_scaling(rule.variant, mu_beta, prev.gamma, gamma0).gamma
        if (prev is not None and not restarted and np.isfinite(rec.lyapunov)
                and np.isfinite(prev.lyapunov)):
            report.checked += 1
            bound = prev.lyapunov / (1.0 + rec.alpha) * (1.0 + CONTRACTION_SLACK)
            if rec.lyapunov > bound + floor:
                report.contraction_violations += 1
        if rule is not None and not (rec.k > 0 and rec.alpha == 0):
            gmin, gmax = min(start_gamma, mu_beta), max(start_gamma, mu_beta)
            bound = theta_upper_bound(rule, rec.k - start_k, start_gamma, gmin, gmax)
            if rec.theta > bound * (1.0 + THETA_BOUND_SLACK):
                report.theta_bound_violations += 1
        prev = rec
    return report


# ---------------------------------------------------------------------------
# batch runs
# ---------------------------------------------------------------------------

@dataclass
class RunSummary:
    scheme: str
    status: str
    iterations: int
    final_obj_gap: float
    final_feasibility: float
    violations: int
    error: str = ""


def run_experiment(problem, configs, out_dir, stem):
    """Run each :class:`~apd.solvers.SolverConfig` on the problem, in order.

    Writes ``<stem>_<scheme>.csv`` per run and ``summary.csv`` into
    ``out_dir``, and returns the list of :class:`RunSummary`. Sub-run
    failures are recorded per run; the caller decides the exit code.
    """
    os.makedirs(out_dir, exist_ok=True)
    summaries = []
    for cfg in configs:
        try:
            run = run_solver(problem, cfg)
            emit_csv(run.records, os.path.join(out_dir, f"{stem}_{cfg.scheme}.csv"))
            report = audit_records(run.records, make_step_rule(problem, cfg),
                                   problem.smooth.mu)
            last = run.records[-1]
            summaries.append(RunSummary(cfg.scheme, run.status, last.k, last.obj_gap,
                                        last.feasibility, report.total))
        except Exception as exc:  # recorded, not raised: other runs continue
            summaries.append(RunSummary(cfg.scheme, "error", 0, math.nan, math.nan, 0,
                                        error=str(exc)))
    emit_csv(summaries, os.path.join(out_dir, "summary.csv"))
    return summaries
