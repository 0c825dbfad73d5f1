"""fermiselect pipeline benchmark.

Usage, from the root of a checkout (``src`` is put on the path, nothing
is installed)::

    python3 perfbench/run.py --workload {synth,verify,transform} \
        --seed N --seconds S --trace {0,1}

Sets up (imports fermiselect and generates the seeded inputs) 15
times, then runs whole rounds of the workload's operations until the
next round would end after ``--seconds`` of measured time.  Before each
operation and after each it times a fixed reference loop (pure Python,
or plain numpy for numpy-bound operations);
each operation's time is taken as a multiple of the mean of the two
loops around it, so that the host's speed drift cancels.  The first
output of each operation is checked against independent computations;
every later run of the operation must reproduce it exactly.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A readable summary goes to standard error.  See
README.md in this directory.
"""

from __future__ import annotations

import os

# one thread per workload process; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 15
REFERENCE_ITEMS = 160_000
REFERENCE_RESULT = 81_750_051
NUMPY_REFERENCE_QUBITS = 17  # the size of the dense apply's state
NUMPY_REFERENCE_GATES = 100
OUTPUT_COUNTS = (("t_count", "gates"), ("t_depth", "layers"), ("clifford_depth", "layers"),
                 ("gate_count", "gates"))


def _import_fermiselect():
    for name in [m for m in sys.modules if m == "fermiselect" or m.startswith("fermiselect.")]:
        del sys.modules[name]
    fs = importlib.import_module("fermiselect")
    return fs, importlib.import_module("fermiselect.cli")


def _fingerprint(value) -> str:
    if hasattr(value, "tobytes"):
        data = value.tobytes()
    elif isinstance(value, str):
        data = value.encode()
    else:
        data = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def reference_work() -> int:
    """A fixed slice of interpreter work (tuples, dicts, f-strings, join)
    that does not touch fermiselect: the unit of every operation that is
    not numpy-bound."""
    table: dict[tuple[int, int], int] = {}
    names = []
    for i in range(REFERENCE_ITEMS):
        key = (i % 251, i % 241)
        table[key] = table.get(key, 0) + (i * i) % 1009
        names.append(f"q[{i % 1024}]")
    return len(",".join(names)) + sum(table.values())


def numpy_reference_work(amps: np.ndarray) -> float:
    """A fixed run of Hadamard updates on a statevector, written here with
    plain numpy: the unit of numpy-bound operations.  Returns the squared
    norm, which the updates keep."""
    x = amps.copy()
    h = 0.5**0.5
    for i in range(NUMPY_REFERENCE_GATES):
        v = x.reshape(1 << (i % NUMPY_REFERENCE_QUBITS), 2, -1)
        top, bottom = v[:, 0].copy(), v[:, 1].copy()
        v[:, 0] = h * (top + bottom)
        v[:, 1] = h * (top - bottom)
    return float(np.vdot(x, x).real)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("synth", "verify", "transform"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "fermiselect", "__init__.py")):
        print(f"error: no fermiselect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from layertrace import Tracer

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fs, cli = _import_fermiselect()
            workload = workloads.WORKLOADS[args.workload](fs, cli, args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        tracer = Tracer()
        if args.trace:
            tracer.install(fs)

        attempted = failed = 0
        problems: list[str] = []
        first: dict[str, object] = {}  # first output of each operation
        fingerprints: dict[str, str] = {}  # of the first output; every repeat must match
        op_times: dict[str, list[float]] = {}
        group_times: dict[str, list[float]] = {g: [] for g, _ in workload.groups}
        group_rel: dict[str, list[float]] = {g: [] for g, _ in workload.groups}
        round_times: list[float] = []
        round_rel: list[float] = []
        ref_times: dict[str, list[float]] = {"python": [], "numpy": []}
        amps = np.random.default_rng(0).standard_normal(1 << NUMPY_REFERENCE_QUBITS).astype(complex)
        amps /= np.linalg.norm(amps)

        def timed_reference(kind: str) -> float:
            t0 = time.perf_counter()
            if kind == "numpy":
                ok = abs(numpy_reference_work(amps) - 1.0) < 1e-9
            else:
                ok = reference_work() == REFERENCE_RESULT
            ref_times[kind].append(time.perf_counter() - t0)
            if not ok:
                problems.append(f"{kind} reference loop gave a wrong result")
            return ref_times[kind][-1]

        check_time = 0.0  # the first round's check, which is not measured time
        loop_start = time.perf_counter()
        kind = before = None
        while True:
            round_time = round_rel_sum = 0.0
            for group, ops in workload.groups:
                group_time = group_rel_sum = 0.0
                for name, fn in ops:
                    # every operation sits between two reference loops of its
                    # kind; dividing by their mean cancels the host's speed
                    # at the time of the operation
                    op_kind = "numpy" if name in workloads.NUMPY_BOUND else "python"
                    if op_kind != kind:
                        kind = op_kind
                        before = timed_reference(kind)
                    attempted += 1
                    output = None
                    with tracer.op(name):
                        t0 = time.perf_counter()
                        try:
                            output = fn()
                        except workloads.OpFailed as exc:
                            failed += 1
                            print(f"failed: {exc}", file=sys.stderr)
                        elapsed = time.perf_counter() - t0
                    after = timed_reference(kind)
                    op_times.setdefault(name, []).append(elapsed)
                    group_time += elapsed
                    group_rel_sum += 2 * elapsed / (before + after)
                    before = after
                    if output is None:
                        continue
                    if name not in fingerprints:
                        first[name] = output
                        fingerprints[name] = _fingerprint(output)
                    elif fingerprints[name] != _fingerprint(output):
                        problems.append(f"{name}: output differs from its first run")
                group_times[group].append(group_time)
                group_rel[group].append(group_rel_sum)
                round_time += group_time
                round_rel_sum += group_rel_sum
            if not round_times:
                t0 = time.perf_counter()
                try:
                    problems += workload.check(first)
                except KeyError as missing:
                    # an operation that failed has no output to check
                    print(f"not checked: no output from {missing}", file=sys.stderr)
                check_time = time.perf_counter() - t0
            round_times.append(round_time)
            round_rel.append(round_rel_sum)
            # whole rounds only: stop before one that would overrun --seconds
            measured = time.perf_counter() - loop_start - check_time
            if measured * (len(round_times) + 1) / len(round_times) > args.seconds:
                break

        rounds = len(round_times)
        median_op = {k: statistics.median(v) for k, v in op_times.items()}
        seconds = {"round_s": statistics.median(round_times),
                   **{f"{g}_s": statistics.median(times) for g, times in group_times.items()}}
        e2e = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "round_rel": (statistics.median(round_rel), "ref"),
            **{f"{g}_rel": (statistics.median(rel), "ref") for g, rel in group_rel.items()},
        }
        summary = {
            "workload": args.workload, "seed": args.seed, "rounds": rounds, "trace": args.trace,
            "end_to_end": {k: v for k, (v, _) in e2e.items()},
            "seconds": seconds,
            "reference_s": {k: statistics.median(v) for k, v in ref_times.items() if v},
            "op_median_s": median_op,
            "op_times_s": op_times,
            "reference_times_s": ref_times,
            "rates": workload.rates(median_op) if not problems and not failed else {},
            "problems": problems,
        }
        if args.trace:
            layers = tracer.metrics(rounds)
            # the emitted star SELECT, from the benchmark's own parse (synth only)
            for key, unit in OUTPUT_COUNTS:
                layers[f"output.star_{key}"] = (summary["rates"].get(f"star_{key}", 0), unit)
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
            summary["per_layer"] = {k: v for k, (v, _) in layers.items()}
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in (layers if args.trace else e2e).items()}
        print(json.dumps(summary, indent=1), file=sys.stderr)
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
