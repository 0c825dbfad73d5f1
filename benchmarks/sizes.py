"""Time each fermiselect layer, and the CLI end to end, at fixed sizes and seeds.

    python benchmarks/sizes.py [--src DIR] [--repeats R] [--sizes NAME,...] > BENCH_sizes.json

``SIZES`` names each size: a layer and its fixed parameters.  Each size runs in its
own child process, so that its peak RSS and every table the basis walk builds are its
own.  The child calls the layer R times and reports one row: the first and the best
call's seconds, peak RSS (MB), the layer's counts and the sha256 of its output.  A
``transform`` size runs the CLI on a Hamiltonian file of a ``perfbench/workloads``
family; a ``-nonhermitian`` one drops ``+hc`` from the last term, so it times the path
to the error (exit 2).  A ``verify_select`` size checks every valid word, or 64 drawn
uniformly by rejection, and counts the tables built over all R calls.  ``schedule``
and ``emit_text`` time a k = 2 SELECT built before the timed calls.  A CLI row digests
stdout then stderr, a circuit its ``emit_text`` and a report its sorted JSON.

Stdout is one JSON document: host, git revision of ``--src``, repeats, seeds and rows,
each also on stderr as it finishes.  ``--src`` is the ``src`` directory to import from.

    python benchmarks/sizes.py --compare OLD.json NEW.json

prints, for each size both documents hold, its best seconds new/old and its peak RSS
change, then the sizes only one holds.  A changed sha256 is flagged, and exits 1.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = {"hamiltonian": 1, "sampled_words": 3, "verify_select": 1}
SIZES = {}  # name: (layer, parameters)
for family, arg, n in (("molecular", 18, 18), ("molecular", 24, 24), ("molecular", 32, 32),
                       ("molecular", 48, 48), ("hubbard", 12, 288), ("pairing", 84, 84)):
    SIZES[f"{family}{n}"] = ("transform", {"family": family, "arg": arg, "n": n, "nonhermitian": False})
for n in (18, 32, 48):
    SIZES[f"molecular{n}-nonhermitian"] = ("transform", {**SIZES[f"molecular{n}"][1], "nonhermitian": True})
for k, variant, n, sampled in ((2, "star", 12, False), (2, "plain", 12, False), (2, "star", 1024, True),
                               (2, "plain", 1024, True), (2, "star", 4096, True), (2, "plain", 4096, True),
                               (4, "star", 64, True)):
    SIZES[f"k{k}-{variant}-{n}"] = ("verify_select", {"k": k, "variant": variant, "n": n, "sampled": sampled})
for n in (1024, 4096, 16384):
    for variant in ("star", "plain"):
        for layer, short in (("controlled_select", "select"), ("schedule", "schedule"), ("emit_text", "emit")):
            SIZES[f"{short}-{variant}-{n}"] = (layer, {"variant": variant, "n": n})
SIZES["resources"] = ("check_against_formulas", {"n_list": [4, 8, 16, 32]})
for name, argv in (("synth-512", ["synth", "--n", "512"]), ("resources", ["resources"]),
                   ("verify-12", ["verify", "--n", "12"])):
    SIZES["cli-" + name] = ("cli", {"argv": argv})

# A child runs _HEAD, its layer's code (run(), the timed call, and report(out): text, counts), then _TAIL.
_HEAD = """
import hashlib, json, resource, sys, time
P = json.loads(sys.argv[1])
sys.path[:0] = [P["src"], P["perfbench"]]
extra = {}  # counts the setup knows
"""
_TAIL = """
times = []
for _ in range(P["repeats"]):
    out = None  # free the last output first, so that peak RSS is one call's
    t0 = time.perf_counter()
    out = run()
    times.append(time.perf_counter() - t0)
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before report() adds to it
text, counts = report(out)
print(json.dumps({"first_s": times[0], "best_s": min(times), "peak_rss_mb": peak_rss_mb,
                  **extra, **counts, "sha256": hashlib.sha256(text.encode()).hexdigest()}))
"""
_CLI = """
import contextlib, io
from fermiselect import cli
def run():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(P["argv"])
    return out.getvalue(), err.getvalue(), code
def report(out):
    text, err, code = out
    return text + err, {"lines": text.count("\\n"), "exit": code}
"""
_HAMILTONIAN = """
import os, random, checks, workloads
terms = getattr(workloads, P["family"] + "_terms")(P["arg"], random.Random(P["hamiltonian"]))
text = checks.hamiltonian_text(terms)
if P["nonhermitian"]:  # the last term without its conjugate
    assert text.endswith(" +hc\\n")
    text = text[:-len(" +hc\\n")] + "\\n"
P["argv"] = ["transform", os.path.join(P["tmp"], "h.txt"), "--n", str(P["n"])]
with open(P["argv"][1], "w", encoding="utf-8") as fh:
    fh.write(text)
extra["terms"] = len(terms)
"""
_CIRCUIT = """
from fermiselect.circuit_ir import emit_text, schedule
from fermiselect.select_synth import controlled_select
build = lambda: controlled_select(P["n"], 2, P["variant"])
"""
LAYERS = {
    "transform": _HAMILTONIAN + _CLI,
    "cli": _CLI,
    "verify_select": """
import random
from unittest import mock
from fermiselect import simulator
from fermiselect.select_synth import DecodeError, controlled_select, decode_index, select_layout
layout, rng = select_layout(P["n"], P["k"]), random.Random(P["sampled_words"])
words = [] if P["sampled"] else list(layout.valid_states())
while P["sampled"] and len(words) < 64:
    word = rng.getrandbits(layout.width)
    try:
        decode_index(word, layout)
    except DecodeError:
        continue
    words.append(word)
simulator._block_unitary = mock.Mock(wraps=simulator._block_unitary)  # counts the tables built
run = lambda: simulator.verify_select(P["n"], P["k"], P["variant"], trials=20, seed=P["verify_select"], words=words)
def report(out):
    counts = {"words": len(words), "tables_built": simulator._block_unitary.call_count, "pass": out["pass"]}
    counts["plan_entries"] = len(simulator._plan(controlled_select(P["n"], P["k"], P["variant"])))
    return json.dumps(out, sort_keys=True), counts
""",
    "controlled_select": _CIRCUIT + """
run, report = build, lambda c: (emit_text(c), {"gates": len(c.gates), "qubits": c.n_qubits})
""",
    "schedule": _CIRCUIT + """
c = build()
run, report = lambda: schedule(c), lambda r: (json.dumps(vars(r), sort_keys=True), vars(r))
""",
    "emit_text": _CIRCUIT + """
c = build()
run, report = lambda: emit_text(c), lambda text: (text, {"bytes": len(text), "lines": text.count("\\n")})
""",
    "check_against_formulas": """
from fermiselect.resources import check_against_formulas
run, report = lambda: check_against_formulas(P["n_list"]), lambda text: (text, {"lines": text.count("\\n")})
""",
}


def _rows(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {row["size"]: row for row in json.load(fh)["rows"]}


def compare(old_path: str, new_path: str) -> int:
    """Print what ``--compare`` prints; 1 if a size both documents hold changed its digest."""
    old, new = _rows(old_path), _rows(new_path)
    print(f"{'size':28} {'new/old best_s':>14} {'peak RSS':>12}")
    changed = [name for name in new if name in old and new[name]["sha256"] != old[name]["sha256"]]
    for name in (name for name in new if name in old):
        a, b = old[name], new[name]
        print(f"{name:28} {b['best_s'] / a['best_s']:14.3f} {b['peak_rss_mb'] - a['peak_rss_mb']:+9.1f} MB"
              + "  sha256 CHANGED" * (name in changed))
    for path, rows, other in ((old_path, old, new), (new_path, new, old)):
        for name in (name for name in rows if name not in other):
            print(f"{name:28} only in {path}")
    if changed:
        print(f"sha256 changed: {', '.join(changed)}")
    return 1 if changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src directory to time")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--sizes", default=",".join(SIZES), help="comma-separated names from SIZES")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two documents instead")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    src, names = os.path.abspath(args.src), args.sizes.split(",")
    if unknown := [name for name in names if name not in SIZES]:
        parser.error(f"unknown sizes: {', '.join(unknown)}")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            layer, params = SIZES[name]
            child = {**params, **SEEDS, "src": src, "perfbench": os.path.join(ROOT, "perfbench"),
                     "tmp": tmp, "repeats": args.repeats}
            run = subprocess.run([sys.executable, "-B", "-c", _HEAD + LAYERS[layer] + _TAIL, json.dumps(child)],
                                 capture_output=True, text=True)
            if run.returncode:
                sys.stderr.write(run.stderr)
                return 1
            rows.append({"size": name, "layer": layer, **params, **json.loads(run.stdout)})
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    revision = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty", "--abbrev=40"],
                              capture_output=True, text=True).stdout.strip()
    host = {"cpus": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}
    print(json.dumps({"host": host, "revision": revision or None, "repeats": args.repeats, "seeds": SEEDS,
                      "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
