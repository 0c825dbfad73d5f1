"""Time ``verify_select`` in process at several sizes.

    python benchmarks/verify_sizes.py [--src DIR] [--repeats R] [--sizes NAME,...]

Each size runs in its own child process, so that its peak RSS and every
table the walk builds are its own.  A size checks every valid word, or
64 words drawn uniformly by rejection (``random.Random(3)``: random
words of the layout's width, kept when they decode).  The child calls
``verify_select(n, k, variant, trials=20, seed=1, words=...)`` R times
and prints one JSON line: the words, the plan entries of the circuit
(``simulator._plan``), the tables built over all R calls (calls of
``simulator._block_unitary``), the first call's and the best call's
seconds, peak RSS (MB), whether the report passes and the sha256 of the
report as sorted JSON.  ``--src`` names the ``src`` directory to import
``fermiselect`` from, so one run of this script can time two trees.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = {  # name: (k, variant, n, sampled)
    "k2-star-12": (2, "star", 12, False), "k2-plain-12": (2, "plain", 12, False),
    "k2-star-1024": (2, "star", 1024, True), "k2-plain-1024": (2, "plain", 1024, True),
    "k2-star-4096": (2, "star", 4096, True), "k2-plain-4096": (2, "plain", 4096, True),
    "k4-star-64": (4, "star", 64, True),
}
SAMPLE = 64

_CHILD = """
import hashlib, json, random, resource, sys, time
sys.path.insert(0, {src!r})
from fermiselect import simulator
from fermiselect.select_synth import DecodeError, controlled_select, decode_index, select_layout

k, variant, n = {k!r}, {variant!r}, {n!r}
layout = select_layout(n, k)
if {sampled!r}:
    rng, words = random.Random(3), []
    while len(words) < {sample!r}:
        word = rng.getrandbits(layout.width)
        try:
            decode_index(word, layout)
        except DecodeError:
            continue
        words.append(word)
else:
    words = list(layout.valid_states())
built, real = [0], simulator._block_unitary

def counting(qubits, gates):
    built[0] += 1
    return real(qubits, gates)

simulator._block_unitary = counting
times = []
for _ in range({repeats!r}):
    t0 = time.perf_counter()
    report = simulator.verify_select(n, k, variant, trials=20, seed=1, words=words)
    times.append(time.perf_counter() - t0)
tables = built[0]
print(json.dumps({{"words": len(words), "plan_entries": len(simulator._plan(controlled_select(n, k, variant))),
                  "tables_built": tables, "first_s": times[0], "best_s": min(times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "pass": report["pass"],
                  "sha256": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()}}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--sizes", default=",".join(SIZES))
    args = parser.parse_args()
    for name in args.sizes.split(","):
        k, variant, n, sampled = SIZES[name]
        code = _CHILD.format(src=os.path.abspath(args.src), k=k, variant=variant, n=n, sampled=sampled,
                             sample=SAMPLE, repeats=args.repeats)
        run = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
        if run.returncode:
            sys.stderr.write(run.stderr)
            return 1
        print(json.dumps({"size": name, "k": k, "variant": variant, "n": n, **json.loads(run.stdout)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
