"""Digests of every benchmark result, to check that a change keeps them bit for bit.

Run from the root of a checkout:

    python3 tools/hash_runs.py --seeds 101,202 [--tiny]

It imports ``apd`` from ``src/`` and the workloads from ``perfbench/`` of the
checkout it sits in, and changes neither. For each seed it builds three sets
of every workload as the benchmark does (set ``i`` from the ``i``-th child of
``SeedSequence(seed)``; with ``--tiny``, on the instances of
``workloads.TINY``) and runs each case once. Meanwhile it wraps
``solvers.run_solver``, ``ddo.run_ddo``, ``flow.integrate_flow``,
``flow.flow_records`` and ``inner.augmented_consensus_solve`` by module
attribute, and puts them back afterwards. It prints one SHA-256 per function,
over every call's result in call order, and one over every case outcome;
wall clocks (``wall_ns``) are skipped. To compare two checkouts, copy this
file into the other one's ``tools/`` and diff the two outputs.
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
HASHED = ((solvers, "run_solver"), (ddo, "run_ddo"), (flow, "integrate_flow"),
          (flow, "flow_records"), (inner, "augmented_consensus_solve"))


def feed(digest, value):
    """Add ``value`` to ``digest``: arrays by dtype, shape and bytes, floats
    exactly, dataclasses field by field without ``wall_ns``."""
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


def digests(seeds, tiny=False):
    """``{name: (calls, hex digest)}`` for each wrapped function and for ``outcomes``."""
    hashes = {name: hashlib.sha256() for _, name in HASHED}
    hashes["outcomes"] = hashlib.sha256()
    calls = dict.fromkeys(hashes, 0)

    def wrapped(name, original):
        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            feed(hashes[name], result)
            calls[name] += 1
            return result
        return call

    saved = [(module, name, getattr(module, name)) for module, name in HASHED]
    try:
        for module, name, original in saved:
            setattr(module, name, wrapped(name, original))
        for seed in seeds:
            for workload, build in workloads.WORKLOADS.items():
                size = (workloads.TINY[workload],) if tiny else ()
                for child in np.random.SeedSequence(seed).spawn(SETS):
                    for case in build(np.random.default_rng(child), *size).cases:
                        feed(hashes["outcomes"], (case.name, case.run()[0]))
                        calls["outcomes"] += 1
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
    return {name: (calls[name], digest.hexdigest()) for name, digest in hashes.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated benchmark seeds, e.g. 101,202")
    parser.add_argument("--tiny", action="store_true", help="run the tiny instances")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    for name, (calls, digest) in digests(seeds, args.tiny).items():
        print(f"{name:26s} {calls:5d} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
