"""Digests of every benchmark result, to check that a change keeps them bit for bit.

Run from the root of a checkout:

    python3 tools/hash_runs.py --seeds 101,202 [--tiny]

It imports ``apd`` from ``src/`` and the workloads from ``perfbench/`` of the
checkout it sits in, and changes neither. For each seed it builds three sets
of every workload as the benchmark does (set ``i`` from the ``i``-th child of
``SeedSequence(seed)``; with ``--tiny``, on the instances of
``workloads.TINY``) and runs each case once. Meanwhile it wraps
``ddo.random_geometric_graph``, ``ddo.build_ddo_problem``,
``solvers.run_solver``, ``ddo.run_ddo``, ``flow.integrate_flow``,
``flow.flow_records`` and ``inner.augmented_consensus_solve`` by module
attribute, and puts them back afterwards. It prints one SHA-256 per function,
over every call's result in call order: for the two set-up functions, each
graph's node count and edges, not what is built from them, and each
problem's sizes, kind, ``node_data``, ``mu`` and ``lip``, so a change to the
set-up shows its instances unchanged directly. It prints one, ``iterates``,
over what each ``run_solver`` call ends on (final ``x``, ``v`` and ``lam``,
status and record count), and one, ``ddo_iterates``, over what each
``run_ddo`` call ends on (final ``x``, status and record count), both
without the recorded floats; one, ``steps``, over the status and record
count of every ``run_solver`` and ``run_ddo`` call, with no float at all;
and one over every case outcome.
Wall clocks (``wall_ns``) are skipped. A change that moves only the bits of
the records thus shows its iterates unchanged, and one that moves only the
bits of the iterates shows its steps unchanged. To compare two checkouts,
copy this file into the other one's ``tools/`` and diff the two outputs.

After the digests it names on stderr each case whose outcome is not ok, and
exits 1 if there is one: equal digests of two checkouts can then not hide a
case that fails in both.
"""

import os

# one BLAS thread, set before numpy is first imported, as perfbench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from apd import ddo, flow, inner, solvers  # noqa: E402
from perfbench import workloads  # noqa: E402

SETS = 3  # per seed and workload: the fewest a benchmark run solves
HASHED = ((ddo, "random_geometric_graph"), (ddo, "build_ddo_problem"),
          (solvers, "run_solver"), (ddo, "run_ddo"), (flow, "integrate_flow"),
          (flow, "flow_records"), (inner, "augmented_consensus_solve"))


def feed(digest, value):
    """Add ``value`` to ``digest``: a ``ddo.Graph`` as ``(n, edges)``, its
    identity, and not what is built from its edges; arrays by dtype, shape and
    bytes, floats exactly, other dataclasses field by field without
    ``wall_ns``."""
    if isinstance(value, ddo.Graph):
        value = (value.n, value.edges)
    if dataclasses.is_dataclass(value):
        digest.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            if field.name != "wall_ns":
                feed(digest, getattr(value, field.name))
    elif isinstance(value, np.ndarray):
        digest.update(f"{value.dtype}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        digest.update(f"[{len(value)}".encode())
        for item in value:
            feed(digest, item)
    elif isinstance(value, (bool, str, type(None))):
        digest.update(repr(value).encode())
    elif isinstance(value, (int, np.integer)):
        digest.update(str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        digest.update(float(value).hex().encode())
    else:
        raise TypeError(f"no digest for a {type(value).__name__}")
    digest.update(b";")


# the digests over what a result ends on, without its recorded floats, and
# the wrapped functions whose results each covers
ENDS = {
    "iterates": (("run_solver",), lambda run: (run.state.x, run.state.v, run.state.lam,
                                               run.status, len(run.records))),
    "ddo_iterates": (("run_ddo",), lambda run: (run.x, run.status, len(run.records))),
    "steps": (("run_solver", "run_ddo"), lambda run: (run.status, len(run.records))),
}


def digests(seeds, tiny=False):
    """``{name: (calls, hex digest)}`` for each wrapped function, for each of
    :data:`ENDS` and for ``outcomes``, and a list naming each case whose outcome
    is not ok."""
    hashes = {name: hashlib.sha256() for _, name in HASHED}
    hashes.update((name, hashlib.sha256()) for name in ENDS)
    hashes["outcomes"] = hashlib.sha256()
    calls = dict.fromkeys(hashes, 0)
    failed = []

    def wrapped(name, original):
        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            feed(hashes[name], result)
            calls[name] += 1
            for digest, (sources, ends) in ENDS.items():
                if name in sources:
                    feed(hashes[digest], ends(result))
                    calls[digest] += 1
            return result
        return call

    saved = [(module, name, getattr(module, name)) for module, name in HASHED]
    try:
        for module, name, original in saved:
            setattr(module, name, wrapped(name, original))
        for seed in seeds:
            for workload, build in workloads.WORKLOADS.items():
                size = (workloads.TINY[workload],) if tiny else ()
                for i, child in enumerate(np.random.SeedSequence(seed).spawn(SETS)):
                    for case in build(np.random.default_rng(child), *size).cases:
                        outcome = case.run()[0]
                        feed(hashes["outcomes"], (case.name, outcome))
                        calls["outcomes"] += 1
                        if not outcome.ok:
                            failed.append(f"seed {seed} {workload} set {i} {case.name}: "
                                          f"{outcome.reason}")
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
    return {name: (calls[name], digest.hexdigest()) for name, digest in hashes.items()}, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated benchmark seeds, e.g. 101,202")
    parser.add_argument("--tiny", action="store_true", help="run the tiny instances")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    table, failed = digests(seeds, args.tiny)
    for name, (calls, digest) in table.items():
        print(f"{name:26s} {calls:5d} {digest}")
    for case in failed:
        print(f"not ok: {case}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
