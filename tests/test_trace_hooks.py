"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/layertrace.py`` binds package functions and registry rows
by name, so a refactor that drops one breaks ``run.py --trace 1``
without failing any other test.  The tracer rewrites module globals and
registries for good, so it runs in a child process.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import fermiselect
from fermiselect import cli
from layertrace import Tracer

tracer = Tracer()
tracer.install(fermiselect)
out = io.StringIO()
with contextlib.redirect_stdout(out), tracer.op("cli"):
    for argv in {argvs!r}:
        assert cli.main(argv) == 0
metrics = {{name: value for name, (value, _) in tracer.metrics(1).items()}}
print(json.dumps({{"metrics": metrics, "out": out.getvalue()}}))
"""


def traced(argvs):
    """Per-layer metrics of one traced child run of ``argvs``, and its output."""
    code = _CHILD.format(
        src=os.path.join(ROOT, "src"), perfbench=os.path.join(ROOT, "perfbench"), argvs=argvs
    )
    # -B: leave no bytecode cache beside the benchmark's files
    run = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    return result["metrics"], result["out"]


def test_tracer_times_synth_and_resources_layers():
    metrics, _ = traced([["synth", "--n", "4"], ["resources", "--n", "4"]])
    for name in ("select_synth.synth_s", "gadgets.build_s", "circuit_ir.schedule_s",
                 "circuit_ir.emit_s", "resources.check_s"):
        assert metrics[name] > 0, name
    # neither command builds a lowered circuit: emit_text and schedule lower macros themselves
    assert metrics["circuit_ir.lower_s"] == 0


def test_tracer_times_transform_layers(tmp_path):
    src = tmp_path / "h.txt"
    src.write_text("0.5 0.25 : adag 0 a 2 +hc\n-1 0 : n 1\n0.3 0 : adag 0 adag 1 a 2 a 3 +hc\n")
    metrics, out = traced([["transform", str(src), "--n", "5"]])
    for name in ("pauli.jw_transform_s", "select_synth.encode_s", "cli.parse_s"):
        assert metrics[name] > 0, name
    header = out.splitlines()[0]
    assert header.endswith(f" terms={int(metrics['pauli.jw_entries'])}")
    assert metrics["pauli.jw_entries"] == len(out.splitlines()) - 2 > 0
    assert metrics["cli.write_bytes"] == len(out)


def test_tracer_times_verify_layers():
    metrics, _ = traced([["verify", "--n", "3", "--trials", "2"]])
    # the basis-state check reads the oracle's masks and plays gate tables that the
    # one-qubit kernels build; it calls no pauli_apply
    for name in ("simulator.verify_s", "select_synth.decode_s", "kernels.apply_s"):
        assert metrics[name] > 0, name
    # k = 2 at n = 3 has 24 valid words, each decoded once
    assert metrics["simulator.words_checked"] == metrics["select_synth.decode_calls"] == 24


def test_tracer_times_each_catalogue_row_once():
    metrics, out = traced([["resources", "--n", "4"]])
    # 8 gadget rows, plus 6 networks built inside the injectors, plus 2
    # networks and 2 ladders built inside the two SELECTs
    assert metrics["gadgets.build_calls"] == 18
    # 10 components × 4 metrics, plus a Toffoli-ratio row per plain one
    assert metrics["resources.rows"] == 45 == len(out.splitlines()) - 1
