"""Per-layer tracing by wrapping the package's public functions from outside.

A :class:`Tracer` replaces module and class attributes of ``apd`` with
wrappers for as long as :meth:`Tracer.installed` is active and puts every
original object back in ``finally``. Each wrapper records calls, total time,
self time (its span minus the spans of wrapped calls made inside it) and any
work count read from the return value. Spans are aggregated in memory.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


def _inner_result(args, result):
    return {"iters": result.iterations, "unconverged": int(not result.converged)}


def _consensus(args, result):
    _, iters, converged = result
    return {"iters": iters, "unconverged": int(not converged)}


def _apply_bytes(args, result):
    constraint = args[0]
    return {"gb": constraint.rows * constraint.cols * 8 / 1e9}


def targets():
    """``(owner, attribute, layer, count)`` for every wrapped attribute.

    A function imported into several modules is listed once per module,
    because callers look it up in their own module's namespace.
    """
    from apd import ddo, flow, inner, model, oracles, solvers

    out = [
        (model.MatrixConstraint, "apply", "model.apply", _apply_bytes),
        (model.MatrixConstraint, "apply_adjoint", "model.adjoint", None),
        (model, "kkt_residual", "model.kkt", None),
        (model, "operator_norm_estimate", "model.norm_estimate", None),
        (ddo, "operator_norm_estimate", "model.norm_estimate", None),
        (model, "solve_reference_saddle", "model.reference", None),
        (solvers, "solve_reference_saddle", "model.reference", None),
        (solvers, "residual_metrics", "solvers.diag", None),
        (solvers, "discrete_lyapunov", "solvers.diag", None),
        (inner, "pcg_solve", "inner.pcg", _inner_result),
        (solvers, "pcg_solve", "inner.pcg", _inner_result),
        (inner, "ssn_solve", "inner.ssn", _inner_result),
        (solvers, "ssn_solve", "inner.ssn", _inner_result),
        (inner, "augmented_consensus_solve", "inner.consensus", _consensus),
        (ddo, "augmented_consensus_solve", "inner.consensus", _consensus),
        (ddo.DdoProblem, "gradient", "ddo.grad", None),
        (ddo.DdoProblem, "value", "ddo.value", None),
        (ddo.DdoProblem, "consensus_apply", "ddo.consensus_apply", None),
        (ddo, "apd_ddo_step", "ddo.step", None),
        (ddo, "extra_step", "ddo.step", None),
        (ddo, "mixing_matrix", "ddo.mixing", None),
        (ddo, "reference_objective", "ddo.reference", None),
        (flow, "flow_rhs", "flow.rhs", None),
        (flow, "continuous_lyapunov", "flow.lyapunov", None),
    ]
    out += [(solvers, step, "solvers.step", None) for step in
            ("implicit_apd_step", "semi_apd_step", "semi_apdfb_step", "ex_apdfb_step")]
    out += [(cls, "gradient", "oracles.grad", None) for cls in
            (oracles.QuadraticObjective, oracles.LogisticObjective, oracles.ZeroObjective)]
    out += [(cls, "prox", "oracles.prox", None) for cls in (oracles.L1Prox, oracles.ZeroProx)]
    return out


class LayerStats:
    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.total_ns = 0
        self.self_ns = 0
        self.counts = defaultdict(float)


class _Frame:
    __slots__ = ("layer", "start", "child_ns")

    def __init__(self, layer, start):
        self.layer = layer
        self.start = start
        self.child_ns = 0


class Tracer:
    """Aggregates spans per layer while its wrappers are installed.

    ``applies_in_step`` counts ``model.apply``/``model.adjoint`` calls made
    inside a ``solvers.step`` span, for applies per iteration.
    """

    def __init__(self):
        self.stats = defaultdict(LayerStats)
        self.applies_in_step = 0
        self._stack = []

    def record(self, layer, fn, count=None):
        """Return ``fn`` wrapped to record spans under ``layer``."""
        stack = self._stack
        clock = time.process_time_ns  # the clock of workloads.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(layer, clock())
            stack.append(frame)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                self._close(frame, clock(), raised)
            if count is not None:
                for key, value in count(args, result).items():
                    self.stats[layer].counts[key] += value
            return result

        return wrapper

    def _close(self, frame, end, raised):
        self._stack.pop()
        span = end - frame.start
        stats = self.stats[frame.layer]
        stats.calls += 1
        stats.raised += raised
        stats.total_ns += span
        stats.self_ns += span - frame.child_ns
        if self._stack:
            self._stack[-1].child_ns += span
        if frame.layer in ("model.apply", "model.adjoint") and any(
                f.layer == "solvers.step" for f in self._stack):
            self.applies_in_step += 1

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, name, layer, count in targets():
                original = vars(owner)[name]  # defined on the owner itself
                saved.append((owner, name, original))
                setattr(owner, name, self.record(layer, original, count))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
