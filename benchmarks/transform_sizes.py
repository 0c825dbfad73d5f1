"""Time ``fermiselect transform`` in process at several sizes.

    python benchmarks/transform_sizes.py [--src DIR] [--repeats R] [--sizes NAME,...]

Each size runs in its own child process, so that its peak RSS is its own.
The child writes the benchmark's Hamiltonian file (``perfbench/workloads``
generators, seed 1), calls ``cli.main(["transform", ...])`` R times and
prints one JSON line: terms, rows out, the exit code, best and median
seconds, peak RSS (MB) and the sha256 of stdout and of stderr.  A size
named ``<size>-nonhermitian`` drops ``+hc`` from the file's last term,
so it times the path to the transform's error (exit 2).  ``--src`` names
the ``src`` directory to import ``fermiselect`` from, so one run of this
script can time two trees.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = {  # name: (family, generator argument, n)
    "molecular18": ("molecular", 18, 18), "molecular24": ("molecular", 24, 24),
    "molecular32": ("molecular", 32, 32), "molecular48": ("molecular", 48, 48),
    "hubbard288": ("hubbard", 12, 288), "pairing84": ("pairing", 84, 84),
}
SIZES.update({f"{name}-nonhermitian": SIZES[name] for name in ("molecular18", "molecular32", "molecular48")})

_CHILD = """
import contextlib, hashlib, io, json, os, random, resource, statistics, sys, tempfile, time
sys.path[:0] = [{src!r}, {perfbench!r}]
import checks, workloads
from fermiselect import cli

terms = getattr(workloads, {family!r} + "_terms")({arg!r}, random.Random(1))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "h.txt")
    hamiltonian = checks.hamiltonian_text(terms)
    if {nonhermitian!r}:  # the last term without its conjugate
        assert hamiltonian.endswith(" +hc\\n")
        hamiltonian = hamiltonian[:-len(" +hc\\n")] + "\\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hamiltonian)
    times = []
    for _ in range({repeats!r}):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["transform", path, "--n", str({n!r})])
        times.append(time.perf_counter() - t0)
text = out.getvalue()
print(json.dumps({{"terms": len(terms), "rows": max(0, text.count("\\n") - 2), "exit": code,
                  "best_s": min(times), "median_s": statistics.median(times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "sha256": hashlib.sha256(text.encode()).hexdigest(),
                  "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--sizes", default=",".join(SIZES))
    args = parser.parse_args()
    for name in args.sizes.split(","):
        family, arg, n = SIZES[name]
        code = _CHILD.format(src=os.path.abspath(args.src), perfbench=os.path.join(ROOT, "perfbench"),
                             family=family, arg=arg, n=n, repeats=args.repeats,
                             nonhermitian=name.endswith("-nonhermitian"))
        run = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
        if run.returncode:
            sys.stderr.write(run.stderr)
            return 1
        print(json.dumps({"size": name, "n": n, **json.loads(run.stdout)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
