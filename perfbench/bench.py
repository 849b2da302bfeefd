"""Measurement loop: warm-up, set-up, timed sets and metrics.

One process runs one workload in a closed loop. It draws ``seconds //
SET_SECONDS`` sets of instances (at least three), set ``i`` from the ``i``-th
child of ``SeedSequence(seed)``, builds each set three times (``setup_s`` is
the median over sets of each set's median build time), then runs every case
of each set once, one case after another. A case's time is its median over
the sets and ``solve_s`` the sum of those medians, so one slow instance or a
burst of load on the machine moves it little. Every time is CPU time scaled
to the reference speed of :mod:`speed`. With tracing, each set runs
untraced and traced, in alternating order, so both see the same instances
and machine state.
"""

from __future__ import annotations

import collections
import contextlib
import resource
import statistics

import numpy as np

from . import workloads
from .speed import REFERENCE_S, Speed
from .tracer import Tracer

MIN_SETS = 3
SETUP_REPS = 3

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "solve_s": "s",
    "outer_iters": "count",
    "ok_frac": "ratio",
    "cert_held_frac": "ratio",
    "peak_rss_mb": "MB",
}

LAYERS = ("model.apply", "model.adjoint", "model.kkt", "model.norm_estimate",
          "model.reference", "oracles.grad", "oracles.prox", "solvers.step",
          "solvers.diag", "inner.pcg", "inner.ssn", "inner.consensus", "ddo.grad",
          "ddo.value", "ddo.consensus_apply", "ddo.step", "ddo.mixing", "ddo.reference",
          "flow.rhs", "flow.lyapunov")
# beyond calls and self time: work counts read from return values, and calls
# that raised where raising is a failure mode worth counting
LAYER_COUNTS = {"model.apply": {"gb": "GB"},
                "model.norm_estimate": {"raised": "count"},
                "inner.pcg": {"iters": "count", "unconverged": "count"},
                "inner.ssn": {"iters": "count", "unconverged": "count", "raised": "count"},
                "inner.consensus": {"iters": "count", "unconverged": "count"}}


def per_layer_units():
    """Every per-layer metric with its unit, the same list for each workload."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        for key, unit in LAYER_COUNTS.get(layer, {}).items():
            units[f"{layer}.{key}"] = unit
    units["solvers.applies_per_iter"] = "count/iter"
    units["cert_violations"] = "count"
    for name, build in workloads.WORKLOADS.items():
        tiny = build(np.random.default_rng(0), workloads.TINY[name])
        for group in dict.fromkeys(c.group for c in tiny.cases):
            units[f"case.{name}.{group}.s"] = "s"
            units[f"case.{name}.{group}.iters"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def run_cases(cases, kernel_log, tracer=None):
    """Run every case once; returns ``(seconds, outcomes)`` keyed by case.

    A case's seconds cover its call into the program, not its check, and
    are scaled to the reference speed.
    """
    seconds, outcomes = {}, {}
    with tracer.installed() if tracer else contextlib.nullcontext():
        speed = Speed(kernel_log)
        for case in cases:
            outcomes[case.name], raw = case.run()
            seconds[case.name] = speed.scale(raw)
    return seconds, outcomes


def _median_seconds(runs, cases):
    return {c.name: statistics.median(r[0][c.name] for r in runs) for c in cases}


def measure(workload, seed, seconds, trace):
    """Run one workload; returns ``(result, report_lines)``.

    ``result`` is the benchmark's closing JSON object. ``correct`` is false
    when the program reported success on an output that failed its check,
    or when the traced run of a set gave other outcomes than the untraced.
    """
    build = workloads.WORKLOADS[workload]
    workloads.warm_up(workload)
    count = max(MIN_SETS, int(seconds // workloads.SET_SECONDS[workload]))
    if trace:
        count = max(MIN_SETS - 1, count // 2)  # every set runs twice
    setup_tracer, run_tracer = (Tracer(), Tracer()) if trace else (None, None)
    sets, setup_times, kernel_log = [], [], []
    for child in np.random.SeedSequence(seed).spawn(count):
        times = []
        speed = Speed(kernel_log)
        for rep in range(SETUP_REPS):  # identical builds; the last is kept and traced
            traced_build = trace and rep == SETUP_REPS - 1
            started = workloads.clock()
            with setup_tracer.installed() if traced_build else contextlib.nullcontext():
                built = build(np.random.default_rng(child))
            times.append(speed.scale(workloads.clock() - started))
        sets.append(built)
        setup_times.append(statistics.median(times))

    untraced, traced = [], []
    for i, built in enumerate(sets):
        tracers = [None, run_tracer] if trace else [None]
        if i % 2:
            tracers.reverse()
        for tracer in tracers:
            (traced if tracer else untraced).append(run_cases(built.cases, kernel_log, tracer))
    cases = sets[0].cases
    by_case = {c.name: [r[1][c.name] for r in untraced] for c in cases}
    constructions = [(name, o) for built in sets for name, o in built.constructions]
    wrong = [(name, o) for name, runs in by_case.items() for o in runs
             if o.claimed and not o.ok]
    nondeterministic = [name for u, t in zip(untraced, traced) for name in u[1]
                        if u[1][name] != t[1][name]]

    case_s = _median_seconds(untraced, cases)
    lines = [f"sets {count} (each line below covers every set)"]
    for name, runs in by_case.items():
        spread = [r[0][name] for r in untraced]
        lines.append(f"case {name:24s} ok {sum(o.ok for o in runs)}/{len(runs)} "
                     f"iters={statistics.mean(o.iters for o in runs):<8.1f} "
                     f"{case_s[name]:7.3f} s ({min(spread):.3f}-{max(spread):.3f})"
                     + _reasons(runs))
    for name in dict.fromkeys(name for name, _ in constructions):
        runs = [o for n, o in constructions if n == name]
        lines.append(f"construct {name:19s} ok {sum(o.ok for o in runs)}/{len(runs)}"
                     + _reasons(runs))
    lines += [f"wrong answer: {name}: {o.reason}" for name, o in wrong]
    lines += [f"nondeterministic outcome: {name}" for name in dict.fromkeys(nondeterministic)]

    outcomes = [o for r in untraced for o in r[1].values()]
    checked = sum(o.cert_checked for o in outcomes)
    violations = sum(o.cert_violations for o in outcomes)
    solve_s = sum(case_s.values())
    e2e = {
        "setup_s": statistics.median(setup_times),
        "solve_s": solve_s,
        "outer_iters": sum(o.iters for o in outcomes) / count,
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
        "cert_held_frac": 1.0 - violations / checked if checked else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines.append("summary " + " ".join(f"{k}={v:.6g} {END_TO_END[k]}" for k, v in e2e.items())
                 + f" cert_violations={violations / count:g} count"
                 + f" kernel_s={statistics.median(kernel_log):.6g} s"
                 + f" (times scaled to kernel_s={REFERENCE_S} s)")

    if trace:
        values = _per_layer(workload, cases, setup_tracer, run_tracer, traced, by_case,
                            violations / count)
        values["trace.overhead_frac"] = \
            sum(_median_seconds(traced, cases).values()) / solve_s - 1.0
        metrics = {k: {"value": values.get(k, 0.0), "unit": u}
                   for k, u in per_layer_units().items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    ops = outcomes + [o for _, o in constructions]
    result = {"correct": not wrong and not nondeterministic, "attempted": len(ops),
              "failed": sum(not o.ok for o in ops), "metrics": metrics}
    return result, lines


def _reasons(runs):
    counts = collections.Counter(o.reason for o in runs if not o.ok)
    return "".join(f"  [{n}x] {reason}" for reason, n in counts.items())


def _per_layer(workload, cases, setup_tracer, run_tracer, traced, by_case, violations):
    """Per-layer values for one set: its set-up plus one run, the mean over sets."""
    per_set = 1.0 / len(traced)
    values = {}
    for tracer in (setup_tracer, run_tracer):
        for layer, stats in tracer.stats.items():
            add = {f"{layer}.calls": stats.calls, f"{layer}.s": stats.self_ns * 1e-9,
                   f"{layer}.raised": stats.raised}
            add.update({f"{layer}.{k}": v for k, v in stats.counts.items()})
            for key, value in add.items():
                values[key] = values.get(key, 0.0) + per_set * value
    steps = run_tracer.stats["solvers.step"].calls
    values["solvers.applies_per_iter"] = run_tracer.applies_in_step / steps if steps else 0.0
    values["cert_violations"] = violations
    case_s = _median_seconds(traced, cases)
    for case in cases:
        iters = statistics.mean(o.iters for o in by_case[case.name])
        for key, value in (("s", case_s[case.name]), ("iters", iters)):
            name = f"case.{workload}.{case.group}.{key}"
            values[name] = values.get(name, 0.0) + value
    return values
