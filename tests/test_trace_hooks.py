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
with contextlib.redirect_stdout(io.StringIO()), tracer.op("cli"):
    assert cli.main(["synth", "--n", "4"]) == 0
    assert cli.main(["resources", "--n", "4"]) == 0
print(json.dumps({{name: value for name, (value, _) in tracer.metrics(1).items()}}))
"""


def test_tracer_times_synth_and_resources_layers():
    code = _CHILD.format(
        src=os.path.join(ROOT, "src"), perfbench=os.path.join(ROOT, "perfbench")
    )
    # -B: leave no bytecode cache beside the benchmark's files
    run = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    metrics = json.loads(run.stdout.splitlines()[-1])
    for name in ("select_synth.synth_s", "gadgets.build_s", "circuit_ir.lower_s",
                 "circuit_ir.emit_s", "resources.check_s"):
        assert metrics[name] > 0, name
