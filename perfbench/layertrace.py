"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces the public functions each fermiselect layer
exposes with timing wrappers, in every module that binds them (``from
.circuit_ir import compose`` gives ``gadgets.compose`` and
``select_synth.compose`` their own bindings) and in the ``GADGETS`` and
``FORMULAS`` registries.  No source file changes.  Spans are recorded
only inside a benchmark operation (``Tracer.op``), so the benchmark's
own checks do not count.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

GADGET_BUILDERS = (
    "ladder_cascade", "ladder_tree", "fanout_cnot", "multi_target_controlled_swap",
    "swap_up", "swap_up_star", "cswap_phase_incorrect", "select_q", "select_p",
    "inject", "inject_star_z", "inject_select_q", "inject_select_p",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._active = False

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._open.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; layer spans nest in it."""
        self._active = True
        index = self._begin(f"op.{name}")
        try:
            yield
        finally:
            self._end(index)
            self._active = False

    def _wrap(self, span: str, fn, count=None, outermost_only=False):
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            outer = not any(self.spans[i][0] == span for i in self._open)
            index = self._begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            self.counts[f"{span}_calls"] += 1
            if count is not None and (outer or not outermost_only):
                count(args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, fs) -> None:
        """Wrap the layer functions of the imported package ``fs``."""
        def add(key, amount):
            def count(args, result):
                self.counts[key] += amount(args, result)
            return count

        gates_out = lambda a, r: len(r.gates)  # noqa: E731
        # computed, not measured: each touched amplitude is read once and
        # written once; a controlled update touches the half where the
        # control is 1
        plan = [
            ("pauli.jw_transform", fs.pauli, ("jw_transform", "jw_transform_term"),
             add("pauli.jw_entries", lambda a, r: len(r.entries)), True),
            ("pauli.pauli_apply", fs.pauli, ("pauli_apply",), None, False),
            ("select_synth.synth", fs.select_synth,
             ("synth_select_k2", "synth_select_general", "controlled_select"),
             add("select_synth.macro_gates", gates_out), True),
            ("select_synth.encode", fs.select_synth, ("encode_lcu",), None, False),
            ("select_synth.decode", fs.select_synth, ("decode_index",), None, False),
            ("gadgets.build", fs.gadgets, GADGET_BUILDERS, None, False),
            ("circuit_ir.compose", fs.circuit_ir, ("compose",),
             add("circuit_ir.gates_copied", lambda a, r: len(a[0].gates) + len(a[1].gates)), False),
            ("circuit_ir.inverse", fs.circuit_ir, ("inverse",), None, False),
            ("circuit_ir.lower", fs.circuit_ir, ("lower_macros",),
             add("circuit_ir.lowered_gates", gates_out), False),
            ("circuit_ir.schedule", fs.circuit_ir, ("schedule",), None, False),
            ("circuit_ir.emit", fs.circuit_ir, ("emit_text",),
             add("circuit_ir.emit_bytes", lambda a, r: len(r)), False),
            ("simulator.verify", fs.simulator, ("verify_select",),
             add("simulator.words_checked", lambda a, r: r["states_checked"]), False),
            ("simulator.apply_circuit", fs.simulator, ("apply_circuit",), None, False),
            ("kernels.apply", fs.kernels, ("apply_one_qubit",),
             add("kernels.bytes_moved", lambda a, r: 2 * a[0].nbytes), False),
            ("kernels.apply", fs.kernels, ("apply_controlled_one_qubit",),
             add("kernels.bytes_moved", lambda a, r: a[0].nbytes), False),
            ("resources.check", fs.resources, ("check_against_formulas",),
             add("resources.rows", lambda a, r: r.count("\n") - 1), False),
            ("cli.parse", fs.cli, ("parse_hamiltonian",), None, False),
            ("cli.write", fs.cli, ("_write",), add("cli.write_bytes", lambda a, r: len(a[0])), False),
        ]
        modules = [m for name, m in sys.modules.items() if name == "fermiselect" or name.startswith("fermiselect.")]
        for span, module, names, count, outermost_only in plan:
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(span, original, count, outermost_only)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                for registry in (fs.gadgets.GADGETS, fs.resources.FORMULAS):
                    for key, spec in registry.items():
                        if spec.build is original:
                            registry[key] = dataclasses.replace(spec, build=wrapper)

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(wall time of outermost spans, self time) per span name."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self_time[name] += duration - child[index]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += duration
        return total, self_time

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per round, as {name: (value, unit)}."""
        total, self_time = self.totals()
        c = self.counts
        m = {
            "pauli.jw_transform_s": (total["pauli.jw_transform"], "s"),
            "pauli.jw_entries": (c["pauli.jw_entries"], "count"),
            "pauli.pauli_apply_s": (total["pauli.pauli_apply"], "s"),
            "pauli.pauli_apply_calls": (c["pauli.pauli_apply_calls"], "count"),
            "select_synth.synth_s": (self_time["select_synth.synth"], "s"),
            "select_synth.macro_gates": (c["select_synth.macro_gates"], "gates"),
            "select_synth.encode_s": (total["select_synth.encode"], "s"),
            "select_synth.decode_s": (total["select_synth.decode"], "s"),
            "select_synth.decode_calls": (c["select_synth.decode_calls"], "count"),
            "gadgets.build_s": (self_time["gadgets.build"], "s"),
            "gadgets.build_calls": (c["gadgets.build_calls"], "count"),
            "circuit_ir.compose_s": (total["circuit_ir.compose"], "s"),
            "circuit_ir.compose_calls": (c["circuit_ir.compose_calls"], "count"),
            "circuit_ir.gates_copied": (c["circuit_ir.gates_copied"], "gates"),
            "circuit_ir.inverse_s": (total["circuit_ir.inverse"], "s"),
            "circuit_ir.inverse_calls": (c["circuit_ir.inverse_calls"], "count"),
            "circuit_ir.lower_s": (total["circuit_ir.lower"], "s"),
            "circuit_ir.lowered_gates": (c["circuit_ir.lowered_gates"], "gates"),
            "circuit_ir.schedule_s": (total["circuit_ir.schedule"], "s"),
            "circuit_ir.emit_s": (total["circuit_ir.emit"], "s"),
            "circuit_ir.emit_bytes": (c["circuit_ir.emit_bytes"], "bytes"),
            "simulator.verify_s": (total["simulator.verify"], "s"),
            "simulator.verify_self_s": (self_time["simulator.verify"], "s"),
            "simulator.words_checked": (c["simulator.words_checked"], "count"),
            "simulator.apply_circuit_s": (total["simulator.apply_circuit"], "s"),
            "kernels.apply_s": (total["kernels.apply"], "s"),
            "kernels.calls": (c["kernels.apply_calls"], "count"),
            "kernels.bytes_moved": (c["kernels.bytes_moved"], "bytes"),
            "resources.check_s": (total["resources.check"], "s"),
            "resources.rows": (c["resources.rows"], "count"),
            "cli.parse_s": (total["cli.parse"], "s"),
            "cli.write_bytes": (c["cli.write_bytes"], "bytes"),
        }
        return {key: (value / rounds, unit) for key, (value, unit) in m.items()}

    def write(self, path: str) -> None:
        total, self_time = self.totals()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "totals_s": total,
                    "self_s": self_time,
                    "counts": self.counts,
                    "spans": self.spans,
                },
                fh,
            )
